// Correctness checks of the benchmark, computed apart from the program under
// test: the offline-optimal (Belady) hit bound, the preloaded-hit count, a
// quiescent scan of the hash table, and the register rule the open-loop
// generator applies to served GET replies. Every check returns an empty
// string when it holds and a one-line description of the first violation
// otherwise.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "dm/pool.h"
#include "workloads/trace.h"

namespace ditto::perfbench {

// Hits of Belady's offline-optimal replacement on the access sequence `keys`
// with room for `capacity` objects, starting empty. On a miss the key is
// admitted and the resident key (or, with allow_bypass, possibly the missed
// key itself) whose next use is farthest away is evicted. With allow_bypass
// the count bounds the hits of every policy, admission control included.
uint64_t BeladyHits(const std::vector<uint64_t>& keys, size_t capacity, bool allow_bypass);

// Number of Get requests in a trace (kGet and kMultiGet).
uint64_t CountGets(const workload::Trace& trace);

// Distinct keys of a trace in first-use order.
std::vector<uint64_t> DistinctKeys(const workload::Trace& trace);

// With every key preloaded and nothing evictable, every Get hits: the hits
// and Gets the clients saw must both equal the trace's Get count.
std::string CheckPreloadedHits(const workload::Trace& trace, uint64_t hits, uint64_t gets);

// One live object found by a quiescent table scan.
struct ScannedObject {
  std::string key;
  std::string value;
  uint64_t slot = 0;
};

struct TableScan {
  std::vector<ScannedObject> objects;
  uint64_t undecodable = 0;  // object slots whose object failed to decode
};

// Reads every slot of the pool's table through ht::HashTable::ReadSlots and
// each live object through rdma::Verbs::Read, on a private client context.
// Only meaningful at quiescence (no client running).
TableScan ScanTable(dm::MemoryPool* pool);

// The first key that appears in more than one live slot, if any.
std::string CheckNoDuplicateKeys(const TableScan& scan);

// Live objects at most `capacity`, every object decodable.
std::string CheckOccupancy(const TableScan& scan, uint64_t capacity);

// The live keys are exactly `expected` (trace keys), each once.
std::string CheckExactKeySet(const TableScan& scan, const std::vector<uint64_t>& expected);

// Every live object's value has the length `value_bytes(key)` and consists
// of 'v' bytes only, the replay engines' value rule.
template <typename ValueBytesFn>
std::string CheckValues(const TableScan& scan, ValueBytesFn value_bytes);

// The value the open-loop generator writes for `key` at `version`: it
// encodes both, padded to `bytes`.
std::string RegisterValue(uint64_t key, uint32_t version, size_t bytes);

// Register rule of one connection's GET reply: nil, or exactly the last
// value that connection SET for the key (`last_version`, -1 if never set).
bool RegisterReplyOk(bool nil, std::string_view value, uint64_t key, int64_t last_version,
                     size_t bytes);

// --- template implementation ---------------------------------------------

template <typename ValueBytesFn>
std::string CheckValues(const TableScan& scan, ValueBytesFn value_bytes) {
  for (const ScannedObject& o : scan.objects) {
    uint64_t key = 0;
    if (!ParseTraceKey(o.key, &key)) {
      return "live object with a malformed key '" + o.key + "'";
    }
    const size_t want = value_bytes(key);
    if (o.value.size() != want || o.value.find_first_not_of('v') != std::string::npos) {
      return "live object " + o.key + " has a value of " + std::to_string(o.value.size()) +
             " bytes that breaks the value rule (want " + std::to_string(want) + " 'v' bytes)";
    }
  }
  return "";
}

}  // namespace ditto::perfbench

#endif  // PERFBENCH_CHECKS_H_
