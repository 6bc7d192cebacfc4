// Open-loop RESP load generator of the served workload, built on the public
// net codec (AppendCommand, ParseReply, RingBuffer).
//
// Request i is due at start + i / rate and goes out on connection
// i % connections whether or not earlier replies have arrived, so a server
// stall queues later requests instead of slowing the generator. Each
// request's latency runs from its due time to its reply, and every latency
// is kept for exact percentiles; how late the generator itself sent each
// request is reported beside them.
//
// Each connection owns its keys. The generator remembers the last value it
// SET per key and checks every GET reply against it (register rule: nil, or
// exactly that value).
#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ditto::perfbench {

struct OpenLoopRequest {
  uint64_t key = 0;  // must be private to connection (index % connections)
  bool is_set = false;
};

struct OpenLoopOptions {
  uint16_t port = 0;  // of a server on 127.0.0.1
  int connections = 4;
  double rate_per_s = 50000.0;
  size_t value_bytes = 232;  // every key holds version 0 (preloaded by the caller)
};

struct OpenLoopResult {
  bool ok = false;  // false: could not connect or the peer broke protocol
  std::string error;
  uint64_t shed = 0;         // -LOADSHED replies
  uint64_t errors = 0;       // -ERR and other error replies
  uint64_t unavailable = 0;  // -UNAVAILABLE replies
  uint64_t timeouts = 0;     // replies more than 2 s past their due time
  uint64_t lost = 0;         // no reply 2 s after the last one
  uint64_t register_violations = 0;
  std::string first_violation;
  std::vector<uint32_t> latency_ns;  // successful requests, due -> reply
  std::vector<uint32_t> late_ns;     // every sent request, due -> send
};

OpenLoopResult RunOpenLoop(const std::vector<OpenLoopRequest>& schedule,
                           const OpenLoopOptions& options);

}  // namespace ditto::perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
