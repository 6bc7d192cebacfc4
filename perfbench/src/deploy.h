// A Ditto deployment whose clients are wrapped in TimedClients, plus the
// counter snapshots the per-layer metrics are derived from.
#ifndef PERFBENCH_DEPLOY_H_
#define PERFBENCH_DEPLOY_H_

#include <memory>
#include <vector>

#include "bench.h"
#include "bench_common.h"
#include "timed_client.h"
#include "tracer.h"

namespace ditto::perfbench {

struct Deployment {
  bench::DittoDeployment ditto;
  // Traced runs: one tracer per client thread when the clients run on
  // threads of their own; null entries when they share the caller's.
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::vector<std::unique_ptr<TimedClient>> timed;
  std::vector<sim::CacheClient*> raw;  // the TimedClients, as the engines take them
  std::vector<uint64_t> get_keys;      // Get key sequence, when recorded

  dm::MemoryPool* pool() { return ditto.pool.get(); }
  // Sum over the TimedClients of one of their counts.
  uint64_t Sum(uint64_t (TimedClient::*count)() const) const;
  std::vector<uint32_t> latency_ns() const;
  // Merges the per-client tracers into `into`.
  void MergeTracers(Tracer* into) const;
};

struct DeployOptions {
  int clients = 1;
  // Traced runs: the tracer of the calling thread, or null.
  Tracer* caller_tracer = nullptr;
  // Clients run on threads of their own (contended engine, reactors): each
  // gets its own tracer instead of the caller's.
  bool thread_per_client = false;
  uint32_t latency_sample_every = 0;
  bool record_get_keys = false;
};

std::unique_ptr<Deployment> MakeDeployment(const dm::PoolConfig& pool_config,
                                           const core::DittoConfig& config,
                                           const DeployOptions& options);

// Counter state of a deployment at one instant.
struct CounterSnapshot {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t atomics = 0;
  uint64_t rpcs = 0;
  uint64_t nic_msgs = 0;
  uint64_t nic_bytes = 0;
  uint64_t doorbells = 0;
  uint64_t nic_horizon_ns = 0;
  uint64_t cpu_horizon_ns = 0;
  uint64_t segments = 0;
  uint64_t weight_updates = 0;
  uint64_t busy_ns_sum = 0;  // client virtual clocks, summed
};

CounterSnapshot Snapshot(Deployment& d);

// Modelled throughput of `ops` between two snapshots, as the replay engines
// define it: ops over max(mean client busy time, NIC horizon, CPU horizon).
double VirtualMops(const Deployment& d, const CounterSnapshot& before,
                   const CounterSnapshot& after, uint64_t ops);

// Appends the core, rdma and dm per-layer metrics of `ops` measured ops
// between the snapshots; `virtual_elapsed_ns` is the modelled elapsed time.
void AddCounterLayers(Deployment& d, const CounterSnapshot& before, const CounterSnapshot& after,
                      uint64_t ops, double virtual_elapsed_ns, std::vector<Metric>* out);

// The core.get_ns / core.set_ns means of a tracer's client spans.
void AddClientSpanLayers(const Tracer& tracer, std::vector<Metric>* out);

}  // namespace ditto::perfbench

#endif  // PERFBENCH_DEPLOY_H_
