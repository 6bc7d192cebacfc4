// In-memory span recorder of the traced run.
//
// The benchmark's own code opens a span around each call it makes into a
// layer: the replay engine, every client call (carrying an op id), every
// layer-replay loop, and the served run. One Tracer belongs to one thread;
// spans nest on its stack, and a closing span adds its duration to its
// parent's child time, so a layer's self time is its duration minus the
// time its child spans cover. Spans are kept as per-kind aggregates plus a
// bounded, deterministic sample (every kSampleEvery-th span of a kind, up
// to kMaxSamples in all) that is written out when the run ends.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"

namespace ditto::perfbench {

enum class SpanKind : uint8_t {
  kGenerate,        // workloads: trace generation
  kReplay,          // sim: one RunTrace / RunTraceContended call
  kClientGet,       // core: a client call whose first op is a Get
  kClientSet,       // core: a client call whose first op is a Set
  kClientOther,     // core: Delete/Expire/MultiGet batches, Finish
  kReadBucket,      // hashtable: ReadBucket replay
  kReadSlots,       // hashtable: ReadSlots replay
  kPriority,        // policies: Priority replay
  kVerbRead,        // rdma: Verbs::Read replay
  kArenaRead,       // rdma: MemoryArena::Read replay
  kParse,           // net: RespParser::Parse replay
  kProcessInput,    // net: Connection::ProcessInput replay
  kServerRun,       // net: one served closed-loop phase
  kCount,
};

inline const char* SpanName(SpanKind kind) {
  static constexpr const char* kNames[] = {
      "workloads.generate", "sim.replay",          "core.get",          "core.set",
      "core.other",         "hashtable.read_bucket", "hashtable.read_slots",
      "policies.priority",  "rdma.verb_read",      "rdma.arena_read",   "net.parse",
      "net.process_input",  "net.server_run"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == static_cast<size_t>(SpanKind::kCount));
  return kNames[static_cast<size_t>(kind)];
}

class Tracer {
 public:
  struct Aggregate {
    uint64_t spans = 0;
    uint64_t calls = 0;     // layer calls covered (a replay-loop span covers many)
    uint64_t total_ns = 0;
    uint64_t child_ns = 0;  // time covered by child spans
    uint64_t self_ns() const { return total_ns - child_ns; }
  };

  struct Sample {
    SpanKind kind;
    uint32_t depth;
    uint64_t op_id;
    uint64_t start_ns;
    uint64_t dur_ns;
    uint64_t self_ns;
  };

  void Begin(SpanKind kind, uint64_t op_id) {
    stack_.push_back(Open{kind, op_id, NowNs(), 0});
  }

  // Closes the innermost span; `calls` is the number of layer calls it
  // covered (1 for a single call, the loop length for a replay loop).
  void End(uint64_t calls = 1) {
    const uint64_t end = NowNs();
    const Open open = stack_.back();
    stack_.pop_back();
    const uint64_t dur = end - open.start_ns;
    if (!stack_.empty()) {
      stack_.back().child_ns += dur;
    }
    Aggregate& agg = aggs_[static_cast<size_t>(open.kind)];
    agg.spans++;
    agg.calls += calls;
    agg.total_ns += dur;
    agg.child_ns += open.child_ns;
    if (agg.spans % kSampleEvery == 1 && samples_.size() < kMaxSamples) {
      samples_.push_back(Sample{open.kind, static_cast<uint32_t>(stack_.size()), open.op_id,
                                open.start_ns, dur, dur - open.child_ns});
    }
  }

  const Aggregate& agg(SpanKind kind) const { return aggs_[static_cast<size_t>(kind)]; }

  // Adds another thread's aggregates and samples into this one.
  void Merge(const Tracer& other) {
    for (size_t k = 0; k < aggs_.size(); ++k) {
      aggs_[k].spans += other.aggs_[k].spans;
      aggs_[k].calls += other.aggs_[k].calls;
      aggs_[k].total_ns += other.aggs_[k].total_ns;
      aggs_[k].child_ns += other.aggs_[k].child_ns;
    }
    for (const Sample& s : other.samples_) {
      if (samples_.size() >= kMaxSamples) {
        break;
      }
      samples_.push_back(s);
    }
  }

  // Writes the aggregates and sampled spans as JSON lines. Returns false
  // when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    for (size_t k = 0; k < aggs_.size(); ++k) {
      const Aggregate& a = aggs_[k];
      std::fprintf(f,
                   "{\"type\": \"aggregate\", \"span\": \"%s\", \"spans\": %llu, "
                   "\"calls\": %llu, \"total_ns\": %llu, \"self_ns\": %llu}\n",
                   SpanName(static_cast<SpanKind>(k)), static_cast<unsigned long long>(a.spans),
                   static_cast<unsigned long long>(a.calls),
                   static_cast<unsigned long long>(a.total_ns),
                   static_cast<unsigned long long>(a.self_ns()));
    }
    for (const Sample& s : samples_) {
      std::fprintf(f,
                   "{\"type\": \"span\", \"span\": \"%s\", \"depth\": %u, \"op_id\": %llu, "
                   "\"start_ns\": %llu, \"dur_ns\": %llu, \"self_ns\": %llu}\n",
                   SpanName(s.kind), s.depth, static_cast<unsigned long long>(s.op_id),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.dur_ns),
                   static_cast<unsigned long long>(s.self_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    SpanKind kind;
    uint64_t op_id;
    uint64_t start_ns;
    uint64_t child_ns;
  };

  static constexpr uint64_t kSampleEvery = 4096;
  static constexpr size_t kMaxSamples = 2048;

  std::vector<Open> stack_;
  std::array<Aggregate, static_cast<size_t>(SpanKind::kCount)> aggs_{};
  std::vector<Sample> samples_;
};

// Opens a span for the enclosing scope; a null tracer records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, SpanKind kind, uint64_t op_id = 0) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(kind, op_id);
    }
  }
  ~SpanScope() {
    if (tracer_ != nullptr) {
      tracer_->End(calls_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void set_calls(uint64_t calls) { calls_ = calls; }

 private:
  Tracer* tracer_;
  uint64_t calls_ = 1;
};

}  // namespace ditto::perfbench

#endif  // PERFBENCH_TRACER_H_
