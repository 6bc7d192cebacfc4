#include "deploy.h"

#include <algorithm>

namespace ditto::perfbench {

uint64_t Deployment::Sum(uint64_t (TimedClient::*count)() const) const {
  uint64_t n = 0;
  for (const auto& t : timed) {
    n += (t.get()->*count)();
  }
  return n;
}
std::vector<uint32_t> Deployment::latency_ns() const {
  std::vector<uint32_t> all;
  for (const auto& t : timed) {
    all.insert(all.end(), t->latency_ns().begin(), t->latency_ns().end());
  }
  return all;
}
void Deployment::MergeTracers(Tracer* into) const {
  for (const auto& t : tracers) {
    if (t != nullptr) {
      into->Merge(*t);
    }
  }
}

std::unique_ptr<Deployment> MakeDeployment(const dm::PoolConfig& pool_config,
                                           const core::DittoConfig& config,
                                           const DeployOptions& options) {
  auto d = std::make_unique<Deployment>();
  d->ditto = bench::MakeDitto(pool_config, config, options.clients);
  for (int c = 0; c < options.clients; ++c) {
    TimedClientOptions t;
    t.client_id = static_cast<uint64_t>(c);
    t.latency_sample_every = options.latency_sample_every;
    t.get_keys = options.record_get_keys ? &d->get_keys : nullptr;
    if (options.caller_tracer != nullptr) {
      if (options.thread_per_client) {
        d->tracers.push_back(std::make_unique<Tracer>());
        t.tracer = d->tracers.back().get();
      } else {
        t.tracer = options.caller_tracer;
      }
      // One client samples the shared controller's weights.
      t.controller = c == 0 ? &d->ditto.server->controller() : nullptr;
    }
    d->timed.push_back(std::make_unique<TimedClient>(d->ditto.raw[c], t));
    d->raw.push_back(d->timed.back().get());
  }
  return d;
}

CounterSnapshot Snapshot(Deployment& d) {
  CounterSnapshot s;
  for (const auto& ctx : d.ditto.ctxs) {
    s.reads += ctx->reads;
    s.writes += ctx->writes;
    s.atomics += ctx->atomics;
    s.rpcs += ctx->rpcs;
    s.busy_ns_sum += ctx->clock().busy_ns();
  }
  rdma::RemoteNode& node = d.pool()->node();
  s.nic_msgs = node.nic().messages();
  s.nic_bytes = node.nic().bytes();
  s.doorbells = node.nic().doorbells();
  s.nic_horizon_ns = node.nic().busy_horizon_ns();
  s.cpu_horizon_ns = node.cpu().busy_horizon_ns();
  s.segments = d.pool()->segments_allocated();
  s.weight_updates = d.ditto.server->controller().updates_received();
  return s;
}

double VirtualMops(const Deployment& d, const CounterSnapshot& before,
                   const CounterSnapshot& after, uint64_t ops) {
  const uint64_t clients = std::max<uint64_t>(d.ditto.ctxs.size(), 1);
  uint64_t elapsed = (after.busy_ns_sum - before.busy_ns_sum) / clients;
  elapsed = std::max(elapsed, after.nic_horizon_ns - before.nic_horizon_ns);
  elapsed = std::max(elapsed, after.cpu_horizon_ns - before.cpu_horizon_ns);
  return elapsed == 0 ? 0.0 : static_cast<double>(ops) / (static_cast<double>(elapsed) / 1e3);
}

void AddCounterLayers(Deployment& d, const CounterSnapshot& before, const CounterSnapshot& after,
                      uint64_t ops, double virtual_elapsed_ns, std::vector<Metric>* out) {
  core::DittoStats sum;
  for (const auto& client : d.ditto.clients) {
    const core::DittoStats& s = client->ditto().stats();
    sum.evictions += s.evictions;
    sum.regrets += s.regrets;
    sum.cas_failures += s.cas_failures;
    sum.insert_retries += s.insert_retries;
    sum.dup_resolved += s.dup_resolved;
    sum.set_retries += s.set_retries;
  }
  const double kops = static_cast<double>(std::max<uint64_t>(ops, 1)) / 1000.0;
  const double per_op = static_cast<double>(std::max<uint64_t>(ops, 1));
  auto per_kop = [&](uint64_t v) { return static_cast<double>(v) / kops; };
  auto delta_per_op = [&](uint64_t a, uint64_t b) { return static_cast<double>(b - a) / per_op; };
  out->push_back({"core.evictions_per_kop", "1/kop", per_kop(sum.evictions)});
  out->push_back({"core.regrets_per_kop", "1/kop", per_kop(sum.regrets)});
  out->push_back({"core.weight_updates_per_kop", "1/kop",
                  per_kop(after.weight_updates - before.weight_updates)});
  out->push_back({"core.lead_expert_switches", "count",
                  static_cast<double>(d.Sum(&TimedClient::lead_expert_switches))});
  out->push_back({"core.cas_failures_per_kop", "1/kop", per_kop(sum.cas_failures)});
  out->push_back({"core.insert_retries_per_kop", "1/kop", per_kop(sum.insert_retries)});
  out->push_back({"core.dup_resolved_per_kop", "1/kop", per_kop(sum.dup_resolved)});
  out->push_back({"core.set_retries_per_kop", "1/kop", per_kop(sum.set_retries)});

  out->push_back({"rdma.reads_per_op", "1/op", delta_per_op(before.reads, after.reads)});
  out->push_back({"rdma.writes_per_op", "1/op", delta_per_op(before.writes, after.writes)});
  out->push_back({"rdma.atomics_per_op", "1/op", delta_per_op(before.atomics, after.atomics)});
  out->push_back({"rdma.rpcs_per_op", "1/op", delta_per_op(before.rpcs, after.rpcs)});
  out->push_back({"rdma.nic_msgs_per_op", "1/op", delta_per_op(before.nic_msgs, after.nic_msgs)});
  out->push_back(
      {"rdma.nic_bytes_per_op", "B/op", delta_per_op(before.nic_bytes, after.nic_bytes)});
  out->push_back(
      {"rdma.doorbells_per_op", "1/op", delta_per_op(before.doorbells, after.doorbells)});
  const double elapsed = std::max(virtual_elapsed_ns, 1.0);
  out->push_back({"rdma.nic_busy_share", "fraction",
                  static_cast<double>(after.nic_horizon_ns - before.nic_horizon_ns) / elapsed});
  out->push_back({"rdma.cpu_busy_share", "fraction",
                  static_cast<double>(after.cpu_horizon_ns - before.cpu_horizon_ns) / elapsed});

  dm::MemoryPool* pool = d.pool();
  const uint64_t cached = pool->cached_objects();
  out->push_back({"dm.occupancy", "fraction",
                  static_cast<double>(cached) /
                      static_cast<double>(std::max<uint64_t>(pool->capacity_objects(), 1))});
  out->push_back({"dm.heap_bytes_per_object", "B",
                  cached == 0 ? 0.0
                              : static_cast<double>(after.segments * pool->config().segment_bytes) /
                                    static_cast<double>(cached)});
  out->push_back({"dm.segment_allocs_per_kop", "1/kop", per_kop(after.segments - before.segments)});
}

void AddClientSpanLayers(const Tracer& tracer, std::vector<Metric>* out) {
  auto mean = [&](SpanKind kind) {
    const Tracer::Aggregate& a = tracer.agg(kind);
    return a.calls == 0 ? 0.0 : static_cast<double>(a.total_ns) / static_cast<double>(a.calls);
  };
  out->push_back({"core.get_ns", "ns", mean(SpanKind::kClientGet)});
  out->push_back({"core.set_ns", "ns", mean(SpanKind::kClientSet)});
}

}  // namespace ditto::perfbench
