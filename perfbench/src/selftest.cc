// Self-tests of the benchmark's own checks on hand-made inputs: each check
// must accept a known-good case and reject a planted fault. Run with
// `ditto_perfbench --selftest`; the exit code is the number of failures.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "checks.h"
#include "timed_client.h"

namespace ditto::perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  g_failures += ok ? 0 : 1;
}

void TestBeladyTextbook() {
  // The classic reference string with 3 frames: demand-paging OPT takes 9
  // faults (11 hits). Allowing bypass also saves the fault on page 0 at
  // reference 10 (page 4 is never used again, so it is not admitted).
  const std::vector<uint64_t> refs = {7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1};
  Expect(BeladyHits(refs, 3, /*allow_bypass=*/false) == 11, "belady: textbook string, 9 faults");
  Expect(BeladyHits(refs, 3, /*allow_bypass=*/true) == 12, "belady: bypass saves one fault");
  Expect(BeladyHits(refs, 0, true) == 0, "belady: zero capacity never hits");
  Expect(BeladyHits(refs, 8, false) == refs.size() - 6, "belady: room for all, cold misses only");
}

// Preloads a hand-made trace's keys into a small deployment, replays it
// through TimedClients, and checks the hit count against the trace.
void TestPreloadedHits() {
  const workload::Trace trace = {
      {workload::Op::kGet, 1},    {workload::Op::kGet, 2}, {workload::Op::kUpdate, 1},
      {workload::Op::kGet, 1},    {workload::Op::kGet, 3}, {workload::Op::kGet, 2},
  };
  bench::DittoDeployment d = bench::MakeDitto(bench::MakePoolConfig(64), core::DittoConfig{}, 2);
  for (const uint64_t key : DistinctKeys(trace)) {
    d.raw[0]->Set(workload::KeyString(key), std::string(232, 'v'));
  }
  std::vector<std::unique_ptr<TimedClient>> timed;
  std::vector<sim::CacheClient*> raw;
  for (sim::CacheClient* c : d.raw) {
    timed.push_back(std::make_unique<TimedClient>(c, TimedClientOptions{}));
    raw.push_back(timed.back().get());
  }
  sim::RunTrace(raw, trace, &d.pool->node(), sim::RunOptions{});
  uint64_t hits = 0;
  uint64_t gets = 0;
  for (const auto& t : timed) {
    hits += t->hits();
    gets += t->gets();
  }
  Expect(CountGets(trace) == 5, "preload: the trace has 5 Gets");
  Expect(CheckPreloadedHits(trace, hits, gets).empty(), "preload: every Get of the replay hit");
  Expect(!CheckPreloadedHits(trace, hits - 1, gets).empty(), "preload: one lost hit is caught");
}

void TestRegisterRule() {
  const uint64_t key = 42;
  const size_t bytes = 64;
  Expect(RegisterReplyOk(true, "", key, 3, bytes), "register: nil is always allowed");
  Expect(RegisterReplyOk(false, RegisterValue(key, 3, bytes), key, 3, bytes),
         "register: the last value SET is accepted");
  Expect(!RegisterReplyOk(false, RegisterValue(key, 2, bytes), key, 3, bytes),
         "register: a stale value is rejected");
  Expect(!RegisterReplyOk(false, RegisterValue(key + 1, 3, bytes), key, 3, bytes),
         "register: another key's value is rejected");
  Expect(!RegisterReplyOk(false, RegisterValue(key, 0, bytes), key, -1, bytes),
         "register: a value for a never-SET key is rejected");
}

void TestDuplicateDetector() {
  bench::DittoDeployment d = bench::MakeDitto(bench::MakePoolConfig(64), core::DittoConfig{}, 1);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 10; ++k) {
    keys.push_back(k);
    d.raw[0]->Set(workload::KeyString(k), std::string(232, 'v'));
  }
  const TableScan clean = ScanTable(d.pool.get());
  Expect(clean.objects.size() == keys.size(), "scan: finds every stored key");
  Expect(CheckNoDuplicateKeys(clean).empty(), "scan: no duplicate in a clean table");
  Expect(CheckExactKeySet(clean, keys).empty(), "scan: key set matches");
  Expect(CheckValues(clean, [](uint64_t) { return size_t{232}; }).empty(),
         "scan: values follow the value rule");
  Expect(!CheckValues(clean, [](uint64_t) { return size_t{231}; }).empty(),
         "scan: a wrong value length is caught");

  // Plant a second live slot pointing at the first object's bytes.
  rdma::MemoryArena& arena = d.pool->node().arena();
  const uint64_t table = d.pool->table_addr();
  const uint64_t from = table + clean.objects[0].slot * ht::kSlotBytes;
  uint64_t to = 0;
  for (uint64_t s = 0; s < d.pool->num_slots(); ++s) {
    if (arena.ReadU64(table + s * ht::kSlotBytes) == 0) {
      to = table + s * ht::kSlotBytes;
      break;
    }
  }
  uint8_t slot[ht::kSlotBytes];
  arena.Read(from, slot, sizeof(slot));
  arena.Write(to, slot, sizeof(slot));
  const TableScan planted = ScanTable(d.pool.get());
  Expect(!CheckNoDuplicateKeys(planted).empty(), "scan: a planted duplicate is rejected");
  Expect(!CheckExactKeySet(planted, keys).empty(), "scan: key-set check rejects it too");
  Expect(!CheckOccupancy(planted, keys.size()).empty(), "scan: occupancy over capacity is caught");
}

}  // namespace

int RunSelfTests() {
  TestBeladyTextbook();
  TestPreloadedHits();
  TestRegisterRule();
  TestDuplicateDetector();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures;
}

}  // namespace ditto::perfbench
