// served-ycsb-b: YCSB-B through an in-process net::Server (two reactors
// sharing one pool) over loopback. A round runs two phases against a fresh
// server: a pipelined closed loop (net::RunLoadgen) that measures
// throughput, then an open loop at a fixed offered rate (open_loop.h) that
// measures the latency a cache user sees. See README.md for its make-up.
#include <sys/resource.h>

#include <cstdio>
#include <string>

#include "checks.h"
#include "deploy.h"
#include "layers.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "open_loop.h"
#include "workloads/ycsb.h"

namespace ditto::perfbench {
namespace {

constexpr size_t kValueBytes = 232;
constexpr int kReactors = 2;
constexpr int kConnections = 4;
constexpr uint64_t kClosedKeys = 100000;
constexpr uint64_t kClosedRequests = 200000;
constexpr int kClosedDepth = 32;  // pipelined commands in flight per connection
constexpr uint64_t kOpenKeys = 10000;
constexpr uint64_t kOpenRequests = 50000;
constexpr double kOpenRate = 50000.0;  // requests/s, far below the closed-loop rate
// Open-loop keys live above every closed-loop key.
constexpr uint64_t kOpenKeyBase = uint64_t{1} << 40;

// Open-loop schedule: a YCSB-B stream over kOpenKeys keys whose request i
// goes to connection i % kConnections; the key is remapped into that
// connection's private range so each connection owns its keys.
std::vector<OpenLoopRequest> OpenSchedule(uint64_t seed) {
  workload::YcsbConfig y;
  y.workload = 'B';
  y.num_keys = kOpenKeys;
  const workload::Trace t = workload::MakeYcsbTrace(y, kOpenRequests, seed ^ 0x6f70656eULL);
  std::vector<OpenLoopRequest> schedule(t.size());
  for (size_t i = 0; i < t.size(); ++i) {
    const uint64_t conn = i % kConnections;
    schedule[i].key = kOpenKeyBase + t[i].key * kConnections + conn;
    schedule[i].is_set = t[i].op == workload::Op::kUpdate || t[i].op == workload::Op::kInsert;
  }
  return schedule;
}

// The p-th percentile of each window of kLatencyWindow consecutive replies
// (exact order statistics), and their median. A host stall of a few
// milliseconds lands in one window instead of setting the whole round's
// tail.
constexpr size_t kLatencyWindow = 5000;  // 0.1 s of replies at kOpenRate

double WindowedPercentile(const std::vector<uint32_t>& latency_ns, double p) {
  std::vector<double> per_window;
  for (size_t begin = 0; begin + kLatencyWindow <= latency_ns.size(); begin += kLatencyWindow) {
    std::vector<uint32_t> window(latency_ns.begin() + static_cast<std::ptrdiff_t>(begin),
                                 latency_ns.begin() + static_cast<std::ptrdiff_t>(begin + kLatencyWindow));
    per_window.push_back(Percentile(&window, p));
  }
  return per_window.empty() ? 0.0 : Median(per_window);
}

}  // namespace

RoundResult RunServedYcsbB(const RoundContext& ctx) {
  RoundResult r;
  Tracer tracer;
  Tracer* t = ctx.traced ? &tracer : nullptr;

  const uint64_t setup_begin = NowNs();
  workload::Trace trace;
  std::vector<OpenLoopRequest> schedule;
  {
    SpanScope span(t, SpanKind::kGenerate);
    workload::YcsbConfig y;
    y.workload = 'B';
    y.num_keys = kClosedKeys;
    y.zipf_theta = 0.99;
    y.value_bytes = kValueBytes;
    trace = workload::MakeYcsbTrace(y, kClosedRequests, ctx.seed);
    schedule = OpenSchedule(ctx.seed);
  }
  r.gen_s = static_cast<double>(NowNs() - setup_begin) / 1e9;
  r.gen_requests = trace.size() + schedule.size();

  core::DittoConfig config;
  config.validate_inserts = true;  // two reactors share the pool
  const uint64_t capacity = kClosedKeys + kOpenKeys * kConnections;
  DeployOptions deploy;
  deploy.clients = kReactors;
  deploy.caller_tracer = t;
  deploy.thread_per_client = true;
  std::unique_ptr<Deployment> d = MakeDeployment(bench::MakePoolConfig(capacity), config, deploy);
  // Every open-loop key starts at version 0, so a GET always has a value to
  // be checked against.
  std::vector<bool> preloaded(kOpenKeys * kConnections, false);
  for (const OpenLoopRequest& req : schedule) {
    const uint64_t slot = req.key - kOpenKeyBase;
    if (!preloaded[slot]) {
      preloaded[slot] = true;
      d->ditto.raw[0]->Set(workload::KeyString(req.key), RegisterValue(req.key, 0, kValueBytes));
    }
  }
  for (sim::CacheClient* c : d->ditto.raw) {
    c->ResetForMeasurement();
  }
  net::Server server(d->raw, net::ServerOptions{});
  std::string error;
  if (!server.Start(&error)) {
    r.correct = false;
    r.check_error = "server start: " + error;
    return r;
  }
  r.setup_s = static_cast<double>(NowNs() - setup_begin) / 1e9;

  // Closed loop: throughput. Stopping the server joins its reactors, so
  // their counters and spans are read race-free and cover this phase only.
  net::LoadgenOptions lg;
  lg.port = server.port();
  lg.connections = kConnections;
  lg.depth = kClosedDepth;
  lg.value_bytes = kValueBytes;
  lg.set_on_miss = true;
  const CounterSnapshot before = Snapshot(*d);
  const double cpu_before = CpuSeconds();
  const double main_cpu_before = CpuSeconds(RUSAGE_THREAD);
  net::LoadgenResult closed;
  {
    SpanScope span(t, SpanKind::kServerRun);
    closed = net::RunLoadgen(trace, lg);
    server.Stop();
  }
  const double cpu_s = CpuSeconds() - cpu_before;
  const double reactor_cpu_s = cpu_s - (CpuSeconds(RUSAGE_THREAD) - main_cpu_before);
  const CounterSnapshot after = Snapshot(*d);
  const double virtual_mops = VirtualMops(*d, before, after, closed.ops);
  if (t != nullptr) {
    // Per-layer figures of the closed loop, read before the open loop
    // moves the counters again.
    d->MergeTracers(&tracer);
    std::vector<Metric>& layers = r.layers;
    layers.push_back({"workloads.gen_ns_per_req", "ns",
                      r.gen_s * 1e9 / static_cast<double>(std::max<uint64_t>(r.gen_requests, 1))});
    AddClientSpanLayers(tracer, &layers);
    const double virtual_ns =
        virtual_mops > 0.0 ? static_cast<double>(closed.ops) / virtual_mops * 1e3 : 0.0;
    AddCounterLayers(*d, before, after, closed.ops, virtual_ns, &layers);
    const double cmds = static_cast<double>(std::max<uint64_t>(server.stats().commands, 1));
    const double cache_ns = static_cast<double>(tracer.agg(SpanKind::kClientGet).total_ns +
                                                tracer.agg(SpanKind::kClientSet).total_ns +
                                                tracer.agg(SpanKind::kClientOther).total_ns);
    layers.push_back({"net.cache_ns_per_cmd", "ns", cache_ns / cmds});
    layers.push_back({"net.reactor_cpu_us_per_cmd", "us", reactor_cpu_s * 1e6 / cmds});
  }

  // Open loop: latency at a fixed offered rate, on a second server over
  // the same clients and pool.
  net::Server open_server(d->raw, net::ServerOptions{});
  OpenLoopResult open;
  if (open_server.Start(&error)) {
    OpenLoopOptions ol;
    ol.port = open_server.port();
    ol.connections = kConnections;
    ol.rate_per_s = kOpenRate;
    ol.value_bytes = kValueBytes;
    open = RunOpenLoop(schedule, ol);
    open_server.Stop();
  } else {
    open.error = "server start: " + error;
  }

  r.ops = closed.ops;
  r.attempted = trace.size() + schedule.size();
  // Closed loop: shed and error replies, and trace ops that never completed.
  // Open loop: every request without a successful reply.
  const uint64_t closed_failed =
      trace.size() - std::min<uint64_t>(closed.ops, trace.size()) + closed.shed + closed.errors;
  const uint64_t open_failed = schedule.size() - open.latency_ns.size();
  r.failed = std::min<uint64_t>(closed_failed + open_failed, r.attempted);
  if (r.failed != 0) {
    std::fprintf(stderr,
                 "round: closed loop %llu failed (%llu shed, %llu errors); open loop %llu failed "
                 "(%llu shed, %llu errors, %llu unavailable, %llu timeouts, %llu lost)\n",
                 static_cast<unsigned long long>(closed_failed),
                 static_cast<unsigned long long>(closed.shed),
                 static_cast<unsigned long long>(closed.errors),
                 static_cast<unsigned long long>(open_failed),
                 static_cast<unsigned long long>(open.shed),
                 static_cast<unsigned long long>(open.errors),
                 static_cast<unsigned long long>(open.unavailable),
                 static_cast<unsigned long long>(open.timeouts),
                 static_cast<unsigned long long>(open.lost));
  }
  r.wall_s = closed.wall_s;
  r.wall_mops = closed.qps / 1e6;
  r.virtual_mops = virtual_mops;
  r.hit_rate = closed.hit_rate();
  r.cpu_us_per_op = cpu_s * 1e6 / static_cast<double>(std::max<uint64_t>(closed.ops, 1));
  r.latency_samples = open.latency_ns.size();
  r.p50_us = WindowedPercentile(open.latency_ns, 50.0) / 1000.0;
  r.p95_us = WindowedPercentile(open.latency_ns, 95.0) / 1000.0;

  // Checks: the closed loop completes every trace op without error
  // replies; every open-loop GET obeys the register rule.
  if (!closed.ok || closed.ops != trace.size() || closed.errors != 0 || closed.shed != 0) {
    r.correct = false;
    r.check_error = "closed loop completed " + std::to_string(closed.ops) + " of " +
                    std::to_string(trace.size()) + " ops with " + std::to_string(closed.errors) +
                    " error and " + std::to_string(closed.shed) + " shed replies " + closed.error;
  } else if (!open.ok) {
    r.correct = false;
    r.check_error = "open loop: " + open.error;
  } else if (open.register_violations != 0) {
    r.correct = false;
    r.check_error = std::to_string(open.register_violations) +
                    " open-loop GETs broke the register rule; first: " + open.first_violation;
  }

  if (ctx.traced) {
    std::vector<Metric>& layers = r.layers;
    layers.push_back({"net.loadgen_late_us", "us", Percentile(&open.late_ns, 99.0) / 1000.0});
    LayerReplayInput in;
    in.pool = d->pool();
    in.trace = &trace;
    in.config = &config;
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

}  // namespace ditto::perfbench
