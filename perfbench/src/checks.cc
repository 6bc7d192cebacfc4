#include "checks.h"

#include <cstdio>
#include <limits>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "core/object.h"
#include "hashtable/hash_table.h"
#include "rdma/verbs.h"

namespace ditto::perfbench {

uint64_t BeladyHits(const std::vector<uint64_t>& keys, size_t capacity, bool allow_bypass) {
  constexpr size_t kNever = std::numeric_limits<size_t>::max();
  const size_t n = keys.size();
  std::vector<size_t> next_use(n, kNever);
  {
    std::unordered_map<uint64_t, size_t> later;
    later.reserve(n / 4 + 1);
    for (size_t i = n; i-- > 0;) {
      auto [it, inserted] = later.try_emplace(keys[i], i);
      if (!inserted) {
        next_use[i] = it->second;
        it->second = i;
      }
    }
  }
  // Resident keys ordered by next use; `resident` maps key -> its entry.
  std::set<std::pair<size_t, uint64_t>> by_next;
  std::unordered_map<uint64_t, size_t> resident;
  resident.reserve(capacity * 2 + 1);
  uint64_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = keys[i];
    auto it = resident.find(key);
    if (it != resident.end()) {
      hits++;
      by_next.erase({it->second, key});
      it->second = next_use[i];
      by_next.insert({next_use[i], key});
      continue;
    }
    if (capacity == 0) {
      continue;
    }
    if (resident.size() >= capacity) {
      const auto farthest = std::prev(by_next.end());
      if (allow_bypass && farthest->first <= next_use[i]) {
        continue;  // the missed key is needed last: do not admit it
      }
      resident.erase(farthest->second);
      by_next.erase(farthest);
    }
    resident.emplace(key, next_use[i]);
    by_next.insert({next_use[i], key});
  }
  return hits;
}

uint64_t CountGets(const workload::Trace& trace) {
  uint64_t gets = 0;
  for (const workload::Request& r : trace) {
    gets += r.op == workload::Op::kGet || r.op == workload::Op::kMultiGet ? 1 : 0;
  }
  return gets;
}

std::vector<uint64_t> DistinctKeys(const workload::Trace& trace) {
  std::unordered_set<uint64_t> seen;
  seen.reserve(trace.size() / 4 + 1);
  std::vector<uint64_t> keys;
  for (const workload::Request& r : trace) {
    if (seen.insert(r.key).second) {
      keys.push_back(r.key);
    }
  }
  return keys;
}

std::string CheckPreloadedHits(const workload::Trace& trace, uint64_t hits, uint64_t gets) {
  const uint64_t want = CountGets(trace);
  if (gets != want || hits != want) {
    return "preloaded replay saw " + std::to_string(hits) + " hits over " +
           std::to_string(gets) + " Gets; the trace has " + std::to_string(want) +
           " Gets, all of preloaded keys";
  }
  return "";
}

TableScan ScanTable(dm::MemoryPool* pool) {
  TableScan scan;
  rdma::ClientContext ctx(/*id=*/0xFFFF);
  rdma::Verbs verbs(&pool->node(), &ctx);
  ht::HashTable table(pool, &verbs);
  std::vector<ht::SlotView> slots;
  std::vector<uint8_t> buf;
  constexpr size_t kChunk = 4096;
  const size_t total = table.num_slots();
  for (size_t start = 0; start < total; start += kChunk) {
    const int count = static_cast<int>(std::min(kChunk, total - start));
    uint64_t actual = 0;
    if (!table.ReadSlots(start, count, &slots, &actual) || actual != start) {
      scan.undecodable++;
      continue;
    }
    for (size_t i = 0; i < slots.size(); ++i) {
      const ht::SlotView& slot = slots[i];
      if (!slot.IsObject()) {
        continue;
      }
      buf.assign(static_cast<size_t>(slot.size_blocks()) * dm::kBlockBytes, 0);
      verbs.Read(slot.pointer(), buf.data(), buf.size());
      core::DecodedObject obj;
      if (!core::DecodeObject(buf.data(), buf.size(), &obj) || HashKey(obj.key) != slot.hash) {
        scan.undecodable++;
        continue;
      }
      scan.objects.push_back(
          ScannedObject{std::string(obj.key), std::string(obj.value), start + i});
    }
  }
  return scan;
}

std::string CheckNoDuplicateKeys(const TableScan& scan) {
  std::unordered_map<std::string_view, uint64_t> slot_of;
  slot_of.reserve(scan.objects.size() * 2 + 1);
  for (const ScannedObject& o : scan.objects) {
    auto [it, inserted] = slot_of.try_emplace(o.key, o.slot);
    if (!inserted) {
      return "key " + o.key + " is live in slots " + std::to_string(it->second) + " and " +
             std::to_string(o.slot);
    }
  }
  return "";
}

std::string CheckOccupancy(const TableScan& scan, uint64_t capacity) {
  if (scan.undecodable != 0) {
    return std::to_string(scan.undecodable) + " live slots point at undecodable objects";
  }
  if (scan.objects.size() > capacity) {
    return std::to_string(scan.objects.size()) + " live objects exceed the capacity of " +
           std::to_string(capacity);
  }
  return "";
}

std::string CheckExactKeySet(const TableScan& scan, const std::vector<uint64_t>& expected) {
  std::string dup = CheckNoDuplicateKeys(scan);
  if (!dup.empty()) {
    return dup;
  }
  std::unordered_set<uint64_t> want(expected.begin(), expected.end());
  size_t matched = 0;
  for (const ScannedObject& o : scan.objects) {
    uint64_t key = 0;
    if (!ParseTraceKey(o.key, &key) || want.count(key) == 0) {
      return "live key " + o.key + " is not a key of the trace";
    }
    matched++;
  }
  if (matched != want.size()) {
    return "scan found " + std::to_string(matched) + " of the trace's " +
           std::to_string(want.size()) + " distinct keys";
  }
  return "";
}

std::string RegisterValue(uint64_t key, uint32_t version, size_t bytes) {
  char head[48];
  const int n = std::snprintf(head, sizeof(head), "r%016llx:v%u:",
                              static_cast<unsigned long long>(key), version);
  std::string value(head, static_cast<size_t>(n));
  if (value.size() < bytes) {
    value.resize(bytes, '.');
  }
  return value;
}

bool RegisterReplyOk(bool nil, std::string_view value, uint64_t key, int64_t last_version,
                     size_t bytes) {
  if (nil) {
    return true;
  }
  return last_version >= 0 &&
         value == RegisterValue(key, static_cast<uint32_t>(last_version), bytes);
}

}  // namespace ditto::perfbench
