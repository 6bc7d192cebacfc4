// Layer replays of the traced run: each drives one layer's public functions
// in a loop with the workload's own keys and commands, inside one span per
// loop, so the per-call cost of that layer is measured apart from the rest
// of the stack. They run after a round's checks, against its deployment.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <vector>

#include "bench.h"
#include "core/ditto_client.h"
#include "dm/pool.h"
#include "tracer.h"
#include "workloads/trace.h"

namespace ditto::perfbench {

struct LayerReplayInput {
  dm::MemoryPool* pool = nullptr;
  const workload::Trace* trace = nullptr;
  const core::DittoConfig* config = nullptr;
  size_t value_bytes = 232;
  Tracer* tracer = nullptr;  // the calling thread's tracer
};

// Appends hashtable.read_bucket_ns, hashtable.read_slots_ns,
// policies.priority_ns, rdma.verb_read_ns, rdma.arena_read_ns,
// net.parse_ns_per_cmd and net.process_ns_per_cmd to `out`.
void RunLayerReplays(const LayerReplayInput& in, std::vector<Metric>* out);

}  // namespace ditto::perfbench

#endif  // PERFBENCH_LAYERS_H_
