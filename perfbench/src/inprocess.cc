// The three in-process workloads: ycsb-c-fit and changing-evict replay
// through sim::RunTrace (virtual clients interleaved on one host thread),
// ycsb-a-contended through sim::RunTraceContended (one host thread per
// client, one shared pool). See README.md for their make-up.
#include <cstdio>
#include <string>

#include "checks.h"
#include "deploy.h"
#include "hashtable/layout.h"
#include "layers.h"
#include "sim/runner.h"
#include "workloads/synthetic_traces.h"
#include "workloads/ycsb.h"

namespace ditto::perfbench {
namespace {

constexpr uint32_t kLatencySampleEvery = 64;
constexpr size_t kValueBytes = 232;  // 256-byte key-value pairs, as in the paper's YCSB runs

struct Spec {
  int clients = 1;
  bool contended = false;
  dm::PoolConfig pool;
  core::DittoConfig config;
  sim::RunOptions options;
  bool preload = false;
  bool record_get_keys = false;
};

// Checks the workload's outputs; returns the first violation or "".
using CheckFn = std::string (*)(const workload::Trace& trace, Deployment& d, const Spec& spec);

void Fail(RoundResult* r, const std::string& error) {
  if (r->correct && !error.empty()) {
    r->correct = false;
    r->check_error = error;
  }
}

RoundResult RunRound(const RoundContext& ctx, const Spec& spec,
                     workload::Trace (*generate)(uint64_t seed), CheckFn check) {
  RoundResult r;
  const bool traced = ctx.traced;
  Tracer tracer;
  Tracer* t = traced ? &tracer : nullptr;

  const uint64_t setup_begin = NowNs();
  workload::Trace trace;
  {
    SpanScope span(t, SpanKind::kGenerate);
    trace = generate(ctx.seed);
  }
  r.gen_s = static_cast<double>(NowNs() - setup_begin) / 1e9;
  r.gen_requests = trace.size();
  DeployOptions deploy;
  deploy.clients = spec.clients;
  deploy.caller_tracer = t;
  deploy.thread_per_client = spec.contended;
  deploy.latency_sample_every = kLatencySampleEvery;
  deploy.record_get_keys = spec.record_get_keys;
  std::unique_ptr<Deployment> d = MakeDeployment(spec.pool, spec.config, deploy);
  if (spec.preload) {
    const std::string value(kValueBytes, 'v');
    sim::CacheClient* loader = d->ditto.raw[0];  // unwrapped: preload is not measured
    for (const uint64_t key : DistinctKeys(trace)) {
      if (!loader->Set(workload::KeyString(key), value)) {
        Fail(&r, "preload of " + workload::KeyString(key) + " was dropped");
      }
    }
  }
  r.setup_s = static_cast<double>(NowNs() - setup_begin) / 1e9;

  const CounterSnapshot before = Snapshot(*d);
  const double cpu_before = CpuSeconds();
  sim::RunResult result;
  {
    SpanScope span(t, SpanKind::kReplay);
    const std::vector<rdma::RemoteNode*> nodes{&d->pool()->node()};
    result = spec.contended ? sim::RunTraceContended(d->raw, trace, nodes, spec.options)
                            : sim::RunTrace(d->raw, trace, nodes, spec.options);
  }
  const double cpu_s = CpuSeconds() - cpu_before;
  const CounterSnapshot after = Snapshot(*d);

  r.ops = result.ops;
  r.attempted = trace.size();
  r.failed = d->Sum(&TimedClient::failed_requests);
  r.wall_s = result.wall_s;
  r.wall_mops = result.wall_mops;
  r.virtual_mops = result.throughput_mops;
  const uint64_t gets = d->Sum(&TimedClient::gets);
  r.hit_rate = gets == 0 ? 0.0
                         : static_cast<double>(d->Sum(&TimedClient::hits)) / static_cast<double>(gets);
  r.cpu_us_per_op = cpu_s * 1e6 / static_cast<double>(std::max<uint64_t>(r.ops, 1));
  std::vector<uint32_t> lat = d->latency_ns();
  r.latency_samples = lat.size();
  r.p50_us = Percentile(&lat, 50.0) / 1000.0;
  r.p95_us = Percentile(&lat, 95.0) / 1000.0;

  if (r.failed != 0) {
    std::fprintf(stderr, "round: %llu of %llu requests failed\n",
                 static_cast<unsigned long long>(r.failed),
                 static_cast<unsigned long long>(r.attempted));
  }
  Fail(&r, check(trace, *d, spec));

  if (traced) {
    d->MergeTracers(&tracer);
    std::vector<Metric>& layers = r.layers;
    layers.push_back({"workloads.gen_ns_per_req", "ns",
                      r.gen_s * 1e9 / static_cast<double>(std::max<size_t>(trace.size(), 1))});
    // Client spans of the contended engine run on their own threads, so
    // the replay's non-client time is the threads' wall time minus them.
    const Tracer::Aggregate& replay = tracer.agg(SpanKind::kReplay);
    const double client_ns = static_cast<double>(tracer.agg(SpanKind::kClientGet).total_ns +
                                                 tracer.agg(SpanKind::kClientSet).total_ns +
                                                 tracer.agg(SpanKind::kClientOther).total_ns);
    const double replay_thread_ns =
        static_cast<double>(replay.total_ns) * (spec.contended ? spec.clients : 1);
    layers.push_back({"sim.dispatch_ns_per_op", "ns",
                      (replay_thread_ns - client_ns) / static_cast<double>(std::max<uint64_t>(r.ops, 1))});
    AddClientSpanLayers(tracer, &layers);
    AddCounterLayers(*d, before, after, r.ops, result.elapsed_s * 1e9, &layers);
    LayerReplayInput in;
    in.pool = d->pool();
    in.trace = &trace;
    in.config = &spec.config;
    in.value_bytes = kValueBytes;
    in.tracer = &tracer;
    RunLayerReplays(in, &layers);
    if (!ctx.trace_dir.empty()) {
      tracer.WriteJsonLines(ctx.trace_dir + "/" + ctx.workload + "-seed" +
                            std::to_string(ctx.seed) + ".jsonl");
    }
  }
  return r;
}

// Table sized at 16 slots per object: a preloaded key must never meet a
// full bucket, which would evict another preloaded key.
dm::PoolConfig RoomyPool(uint64_t capacity) {
  dm::PoolConfig pool = bench::MakePoolConfig(capacity);
  while (pool.num_buckets * static_cast<size_t>(pool.slots_per_bucket) < capacity * 16) {
    pool.num_buckets *= 2;
  }
  pool.memory_bytes += pool.num_buckets * static_cast<size_t>(pool.slots_per_bucket) * ht::kSlotBytes;
  return pool;
}

// --- ycsb-c-fit ---------------------------------------------------------------

constexpr uint64_t kFitKeys = 100000;
constexpr uint64_t kFitRequests = 1000000;

workload::Trace GenerateFit(uint64_t seed) {
  workload::YcsbConfig y;
  y.workload = 'C';
  y.num_keys = kFitKeys;
  y.zipf_theta = 0.99;
  y.value_bytes = kValueBytes;
  return workload::MakeYcsbTrace(y, kFitRequests, seed);
}

std::string CheckFit(const workload::Trace& trace, Deployment& d, const Spec& spec) {
  (void)spec;
  std::string e =
      CheckPreloadedHits(trace, d.Sum(&TimedClient::hits), d.Sum(&TimedClient::gets));
  uint64_t evictions = 0;
  for (sim::CacheClient* c : d.ditto.raw) {
    evictions += c->counters().evictions;
  }
  if (e.empty() && evictions != 0) {
    e = std::to_string(evictions) + " evictions in a cache that holds every key";
  }
  return e.empty() ? CheckExactKeySet(ScanTable(d.pool()), DistinctKeys(trace)) : e;
}

// --- changing-evict -------------------------------------------------------------

constexpr int kPhases = 4;
constexpr uint64_t kPhaseRequests = 100000;
constexpr uint64_t kChangingKeys = 20000;

workload::Trace GenerateChanging(uint64_t seed) {
  return workload::MakeChangingWorkload(kPhases, kPhaseRequests, kChangingKeys, seed);
}

std::string CheckChanging(const workload::Trace& trace, Deployment& d, const Spec& spec) {
  const uint64_t gets = CountGets(trace);
  if (gets != trace.size()) {
    return "changing workload carries non-Get requests; the Belady bound assumes Gets only";
  }
  const uint64_t seen = d.Sum(&TimedClient::gets);
  const uint64_t hits = d.Sum(&TimedClient::hits);
  const uint64_t misses = d.Sum(&TimedClient::misses);
  if (seen != gets || hits + misses != seen) {
    return "clients saw " + std::to_string(hits) + " hits + " + std::to_string(misses) +
           " misses over " + std::to_string(seen) + " Gets; the trace has " +
           std::to_string(gets);
  }
  const uint64_t bound = BeladyHits(d.get_keys, spec.pool.capacity_objects, /*allow_bypass=*/true);
  if (hits > bound) {
    return std::to_string(hits) + " hits exceed the offline-optimal " +
           std::to_string(bound) + " at capacity " + std::to_string(spec.pool.capacity_objects);
  }
  const TableScan scan = ScanTable(d.pool());
  std::string e = CheckOccupancy(scan, spec.pool.capacity_objects);
  if (e.empty()) {
    e = CheckNoDuplicateKeys(scan);
  }
  return e.empty() ? CheckValues(scan, [](uint64_t) { return kValueBytes; }) : e;
}

// --- ycsb-a-contended -------------------------------------------------------

constexpr uint64_t kContendedKeys = 100000;
constexpr uint64_t kContendedRequests = 1000000;
constexpr int kContendedClients = 4;

workload::Trace GenerateContended(uint64_t seed) {
  workload::YcsbConfig y;
  y.workload = 'A';
  y.num_keys = kContendedKeys;
  y.zipf_theta = 0.99;
  y.value_bytes = kValueBytes;
  return workload::MakeYcsbTrace(y, kContendedRequests, seed);
}

std::string CheckContended(const workload::Trace& trace, Deployment& d, const Spec& spec) {
  const size_t n = d.timed.size();
  uint64_t sum = 0;
  for (size_t c = 0; c < n; ++c) {
    // RunTraceContended gives client c the strided requests c, c+n, ...
    const uint64_t want = (trace.size() + n - 1 - c) / n;
    const uint64_t got = d.timed[c]->requests();
    if (got != want) {
      return "client " + std::to_string(c) + " issued " + std::to_string(got) +
             " requests, its stride of the trace has " + std::to_string(want);
    }
    sum += got;
  }
  if (sum != trace.size()) {
    return "clients issued " + std::to_string(sum) + " requests for a trace of " +
           std::to_string(trace.size());
  }
  const TableScan scan = ScanTable(d.pool());
  std::string e = CheckNoDuplicateKeys(scan);
  if (e.empty()) {
    e = CheckOccupancy(scan, spec.pool.capacity_objects);
  }
  return e.empty() ? CheckValues(scan, [&](uint64_t key) { return spec.options.ValueBytesFor(key); })
                   : e;
}

}  // namespace

RoundResult RunYcsbCFit(const RoundContext& ctx) {
  Spec spec;
  spec.clients = 8;
  spec.pool = RoomyPool(kFitKeys);
  spec.options.value_bytes = kValueBytes;
  spec.preload = true;
  return RunRound(ctx, spec, GenerateFit, CheckFit);
}

RoundResult RunChangingEvict(const RoundContext& ctx) {
  Spec spec;
  spec.clients = 16;
  spec.pool = bench::MakePoolConfig(kChangingKeys / 4);
  spec.options.value_bytes = kValueBytes;
  spec.options.miss_penalty_us = 500.0;  // the paper's distributed-storage fetch
  spec.options.set_on_miss = true;
  spec.record_get_keys = true;
  return RunRound(ctx, spec, GenerateChanging, CheckChanging);
}

RoundResult RunYcsbAContended(const RoundContext& ctx) {
  Spec spec;
  spec.clients = kContendedClients;
  spec.contended = true;
  spec.pool = bench::MakePoolConfig(kContendedKeys / 2);
  spec.config.validate_inserts = true;  // clients share one pool and race on inserts
  spec.options.value_bytes = kValueBytes;
  return RunRound(ctx, spec, GenerateContended, CheckContended);
}

}  // namespace ditto::perfbench
