// TimedClient: a sim::CacheClient decorator that forwards every virtual to
// the wrapped client and records, from outside the library, what the
// benchmark's checks and per-layer metrics need:
//   * request accounting: a Get that misses and the set-on-miss re-insert
//     that follows it on the same client form one request;
//   * failures: requests with a Set answered kDropped or any op answered
//     kUnavailable;
//   * sampled wall-clock request latency (every `latency_sample_every`-th
//     request, timed around the client calls only);
//   * optionally the sequence of Get keys (the Belady bound replays it);
//   * in traced runs, one span per client call carrying an op id, and the
//     leading expert of the adaptive controller sampled every 1024 calls.
// One TimedClient is driven by one thread, like the client it wraps.
#ifndef PERFBENCH_TIMED_CLIENT_H_
#define PERFBENCH_TIMED_CLIENT_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/adaptive.h"
#include "sim/client_iface.h"
#include "tracer.h"

namespace ditto::perfbench {

struct TimedClientOptions {
  Tracer* tracer = nullptr;                 // null: no spans
  uint64_t client_id = 0;                   // high bits of the span op ids
  uint32_t latency_sample_every = 0;        // 0: no latency sampling
  std::vector<uint64_t>* get_keys = nullptr;  // appended in call order when set
  core::AdaptiveController* controller = nullptr;  // lead-expert sampling when set
};

class TimedClient final : public sim::CacheClient {
 public:
  TimedClient(sim::CacheClient* inner, const TimedClientOptions& options)
      : inner_(inner), options_(options) {}

  void ExecuteBatch(std::span<const sim::CacheOp> ops, sim::CacheResult* results) override {
    if (ops.empty()) {
      inner_->ExecuteBatch(ops, results);
      return;
    }
    const sim::OpKind kind = ops[0].kind;
    const bool reinsert = pending_miss_ && ops.size() == 1 && kind == sim::OpKind::kSet &&
                          ops[0].key == pending_key_;
    pending_miss_ = false;
    if (!reinsert) {
      StartRequest();
    }
    {
      SpanScope span(options_.tracer, SpanFor(kind), (options_.client_id << 40) | calls_);
      span.set_calls(ops.size());
      inner_->ExecuteBatch(ops, results);
    }
    calls_++;
    if (sampled_) {
      last_end_ns_ = NowNs();
    }
    bool failed = false;
    for (size_t i = 0; i < ops.size(); ++i) {
      const sim::OpKind k = ops[i].kind;
      const sim::OpStatus s = results[i].status;
      if (k == sim::OpKind::kGet || k == sim::OpKind::kMultiGet) {
        gets_++;
        hits_ += s == sim::OpStatus::kHit ? 1 : 0;
        misses_ += s == sim::OpStatus::kMiss ? 1 : 0;
        uint64_t key = 0;
        if (options_.get_keys != nullptr && ParseTraceKey(ops[i].key, &key)) {
          options_.get_keys->push_back(key);
        }
      } else if (k == sim::OpKind::kSet) {
        failed = failed || s == sim::OpStatus::kDropped;
      }
      failed = failed || s == sim::OpStatus::kUnavailable;
    }
    if (failed && !request_failed_) {
      request_failed_ = true;
      failed_requests_++;
    }
    if (ops.size() == 1 && kind == sim::OpKind::kGet &&
        results[0].status == sim::OpStatus::kMiss) {
      pending_miss_ = true;  // the set-on-miss re-insert, if any, comes next
      pending_key_.assign(ops[0].key);
    } else {
      FinishSample();
    }
    if (options_.controller != nullptr && calls_ % 1024 == 0) {
      SampleLeadExpert();
    }
  }

  uint64_t ExecutePipelined(const sim::CacheOp& op, sim::CacheResult* result,
                            uint64_t start_ns) override {
    StartRequest();
    uint64_t done = 0;
    {
      SpanScope span(options_.tracer, SpanFor(op.kind), (options_.client_id << 40) | calls_);
      done = inner_->ExecutePipelined(op, result, start_ns);
    }
    calls_++;
    if (sampled_) {
      last_end_ns_ = NowNs();
    }
    return done;
  }

  rdma::ClientContext& ctx() override { return inner_->ctx(); }
  sim::ClientCounters counters() const override { return inner_->counters(); }
  bool ResizeCapacity(uint64_t capacity_objects) override {
    return inner_->ResizeCapacity(capacity_objects);
  }
  void ApplyLifecycle(const sim::LifecycleStep& step) override { inner_->ApplyLifecycle(step); }
  void Finish() override {
    SpanScope span(options_.tracer, SpanKind::kClientOther, (options_.client_id << 40) | calls_);
    inner_->Finish();
    pending_miss_ = false;
    FinishSample();
  }
  void ResetForMeasurement() override { inner_->ResetForMeasurement(); }
  void SetBatchOps(size_t ops) override { inner_->SetBatchOps(ops); }

  uint64_t requests() const { return requests_; }
  uint64_t gets() const { return gets_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t failed_requests() const { return failed_requests_; }
  uint64_t lead_expert_switches() const { return lead_switches_; }
  const std::vector<uint32_t>& latency_ns() const { return latency_ns_; }

 private:
  static SpanKind SpanFor(sim::OpKind kind) {
    switch (kind) {
      case sim::OpKind::kGet:
        return SpanKind::kClientGet;
      case sim::OpKind::kSet:
        return SpanKind::kClientSet;
      default:
        return SpanKind::kClientOther;
    }
  }

  void StartRequest() {
    FinishSample();
    requests_++;
    request_failed_ = false;
    const uint32_t every = options_.latency_sample_every;
    sampled_ = every != 0 && requests_ % every == 0;
    if (sampled_) {
      request_start_ns_ = NowNs();
    }
  }

  void FinishSample() {
    if (sampled_) {
      latency_ns_.push_back(static_cast<uint32_t>(
          std::min<uint64_t>(last_end_ns_ - request_start_ns_, UINT32_MAX)));
      sampled_ = false;
    }
  }

  void SampleLeadExpert() {
    const std::vector<double> w = options_.controller->weights();
    if (w.empty()) {
      return;
    }
    const int lead = static_cast<int>(std::max_element(w.begin(), w.end()) - w.begin());
    if (lead_ >= 0 && lead != lead_) {
      lead_switches_++;
    }
    lead_ = lead;
  }

  sim::CacheClient* inner_;
  TimedClientOptions options_;
  uint64_t calls_ = 0;
  uint64_t requests_ = 0;
  uint64_t gets_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t failed_requests_ = 0;
  bool request_failed_ = false;
  bool pending_miss_ = false;
  std::string pending_key_;
  bool sampled_ = false;
  uint64_t request_start_ns_ = 0;
  uint64_t last_end_ns_ = 0;
  std::vector<uint32_t> latency_ns_;
  int lead_ = -1;
  uint64_t lead_switches_ = 0;
};

}  // namespace ditto::perfbench

#endif  // PERFBENCH_TIMED_CLIENT_H_
