#include "layers.h"

#include <algorithm>
#include <memory>
#include <string>

#include "common/hash.h"
#include "hashtable/hash_table.h"
#include "net/connection.h"
#include "net/resp.h"
#include "policies/policy.h"
#include "rdma/verbs.h"
#include "sim/adapters.h"
#include "timed_client.h"

namespace ditto::perfbench {
namespace {

constexpr size_t kMaxCalls = 200000;     // calls per hashtable / rdma replay
constexpr size_t kMaxCommands = 50000;   // commands per net replay
constexpr size_t kMaxSampledSlots = 20000;
constexpr size_t kCommandsPerBatch = 32;  // pipelined commands per ProcessInput

volatile uint64_t g_sink = 0;

// Runs `fn` (one loop of `calls` layer calls) inside one span and returns
// the span's self time per call.
template <typename Fn>
double TimeLoop(Tracer* tracer, SpanKind kind, size_t calls, Fn&& fn) {
  const uint64_t before = tracer->agg(kind).self_ns();
  {
    SpanScope span(tracer, kind);
    span.set_calls(calls);
    fn();
  }
  const uint64_t self = tracer->agg(kind).self_ns() - before;
  return calls == 0 ? 0.0 : static_cast<double>(self) / static_cast<double>(calls);
}

// The reactor services a Connection needs, with an unlimited op budget.
class BenchHost final : public net::ConnectionHost {
 public:
  explicit BenchHost(sim::CacheClient* client) : client_(client) {}
  bool AcquireOps(size_t n) override {
    (void)n;
    return true;
  }
  void ReleaseOps(size_t n) override { (void)n; }
  sim::CacheClient* client() override { return client_; }
  void FormatInfo(std::string* out) override { out->clear(); }
  void OnCommands(uint64_t commands, uint64_t ops, uint64_t shed_ops) override {
    (void)commands;
    (void)ops;
    (void)shed_ops;
  }
  const net::RespLimits& limits() override { return limits_; }

 private:
  sim::CacheClient* client_;
  net::RespLimits limits_;
};

}  // namespace

void RunLayerReplays(const LayerReplayInput& in, std::vector<Metric>* out) {
  dm::MemoryPool* pool = in.pool;
  const workload::Trace& trace = *in.trace;
  Tracer* tracer = in.tracer;
  rdma::ClientContext ctx(/*id=*/0xFFFE);
  rdma::Verbs verbs(&pool->node(), &ctx);
  ht::HashTable table(pool, &verbs);
  uint64_t sink = 0;

  // hashtable: one bucket READ per trace key.
  const size_t n = std::min(trace.size(), kMaxCalls);
  std::vector<uint64_t> buckets(n);
  for (size_t i = 0; i < n; ++i) {
    workload::KeyBuf kb;
    buckets[i] = table.BucketIndexFor(HashKey(workload::FormatKey(trace[i].key, &kb)));
  }
  std::vector<ht::SlotView> slots;
  out->push_back({"hashtable.read_bucket_ns", "ns", TimeLoop(tracer, SpanKind::kReadBucket, n, [&] {
                    for (const uint64_t b : buckets) {
                      table.ReadBucket(b, &slots);
                      sink += slots[0].atomic_word;
                    }
                  })});

  // hashtable: eviction sampling, num_samples consecutive slots per READ,
  // starting at the trace keys' buckets.
  const int samples = in.config->num_samples;
  const uint64_t spb = static_cast<uint64_t>(table.slots_per_bucket());
  out->push_back({"hashtable.read_slots_ns", "ns", TimeLoop(tracer, SpanKind::kReadSlots, n, [&] {
                    for (const uint64_t b : buckets) {
                      table.ReadSlots(b * spb, samples, &slots);
                      sink += slots.empty() ? 0 : slots[0].freq;
                    }
                  })});

  // policies: every expert's Priority over the sampled object metadata.
  std::vector<policy::Metadata> metas;
  const uint64_t now = pool->clock().Now();
  for (size_t i = 0; i < std::min(n, kMaxSampledSlots); ++i) {
    table.ReadSlots(buckets[i] * spb, samples, &slots);
    for (const ht::SlotView& s : slots) {
      if (!s.IsObject()) {
        continue;
      }
      policy::Metadata m;
      m.hash = s.hash;
      m.insert_ts = s.insert_ts;
      m.last_ts = s.last_ts;
      m.freq = s.freq;
      m.size_bytes = static_cast<uint32_t>(s.size_blocks() * dm::kBlockBytes);
      m.now = now;
      metas.push_back(m);
    }
  }
  std::vector<std::unique_ptr<policy::CachePolicy>> experts;
  for (const std::string& name : in.config->experts) {
    experts.push_back(policy::MakePolicy(name));
  }
  double priority_sum = 0.0;
  const size_t priority_calls = metas.size() * experts.size();
  out->push_back({"policies.priority_ns", "ns",
                  TimeLoop(tracer, SpanKind::kPriority, priority_calls, [&] {
                    for (const auto& expert : experts) {
                      for (const policy::Metadata& m : metas) {
                        priority_sum += expert->Priority(m);
                      }
                    }
                  })});

  // rdma: a bucket-sized READ through the verbs model vs the bare arena copy.
  const size_t len = static_cast<size_t>(spb) * ht::kSlotBytes;
  std::vector<uint8_t> buf(len);
  out->push_back({"rdma.verb_read_ns", "ns", TimeLoop(tracer, SpanKind::kVerbRead, n, [&] {
                    for (const uint64_t b : buckets) {
                      verbs.Read(table.BucketSlotAddr(b, 0), buf.data(), len);
                      sink += buf[0];
                    }
                  })});
  const rdma::MemoryArena& arena = pool->node().arena();
  out->push_back({"rdma.arena_read_ns", "ns", TimeLoop(tracer, SpanKind::kArenaRead, n, [&] {
                    for (const uint64_t b : buckets) {
                      arena.Read(table.BucketSlotAddr(b, 0), buf.data(), len);
                      sink += buf[0];
                    }
                  })});

  // net: the workload's requests as RESP commands, parsed, then executed
  // through a Connection in pipelined batches.
  const size_t m = std::min(trace.size(), kMaxCommands);
  const std::string value(in.value_bytes, 'v');
  net::RingBuffer wire;
  std::vector<size_t> batch_end;  // wire offsets closing each batch
  for (size_t i = 0; i < m; ++i) {
    workload::KeyBuf kb;
    const std::string_view key = workload::FormatKey(trace[i].key, &kb);
    const workload::Op op = trace[i].op;
    if (op == workload::Op::kUpdate || op == workload::Op::kInsert) {
      net::AppendCommand(&wire, {"SET", key, value});
    } else {
      net::AppendCommand(&wire, {"GET", key});
    }
    if ((i + 1) % kCommandsPerBatch == 0 || i + 1 == m) {
      batch_end.push_back(wire.size());
    }
  }
  const std::string encoded(wire.view());
  net::RespParser parser;
  net::RespCommand cmd;
  out->push_back({"net.parse_ns_per_cmd", "ns", TimeLoop(tracer, SpanKind::kParse, m, [&] {
                    while (parser.Parse(&wire, &cmd) == net::ParseStatus::kOk) {
                      sink += cmd.args.size();
                    }
                  })});

  rdma::ClientContext client_ctx(/*id=*/0xFFFD);
  sim::DittoCacheClient client(pool, &client_ctx, *in.config);
  TimedClientOptions timed_options;
  timed_options.tracer = tracer;
  TimedClient timed(&client, timed_options);
  BenchHost host(&timed);
  net::Connection conn(/*fd=*/-1, &host);
  const uint64_t process_before = tracer->agg(SpanKind::kProcessInput).self_ns();
  size_t begin = 0;
  for (size_t b = 0; b < batch_end.size(); ++b) {
    conn.in().Append(std::string_view(encoded).substr(begin, batch_end[b] - begin));
    begin = batch_end[b];
    {
      SpanScope span(tracer, SpanKind::kProcessInput);
      span.set_calls(std::min(kCommandsPerBatch, m - b * kCommandsPerBatch));
      conn.ProcessInput();
    }
    sink += conn.out().size();
    conn.out().Consume(conn.out().size());
  }
  const uint64_t process_self = tracer->agg(SpanKind::kProcessInput).self_ns() - process_before;
  out->push_back({"net.process_ns_per_cmd", "ns",
                  m == 0 ? 0.0 : static_cast<double>(process_self) / static_cast<double>(m)});
  client.Finish();

  // Keep the replayed results observable so no loop is optimized away.
  g_sink = sink + static_cast<uint64_t>(priority_sum);
}

}  // namespace ditto::perfbench
