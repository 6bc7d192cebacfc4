// Shared types of the benchmark: the per-round outcome every workload
// returns and small timing helpers.
//
// A run is a sequence of identical *rounds*. Each round regenerates the
// workload's trace from the seed, builds a fresh deployment, replays the
// trace once, and checks the outputs, so every round attempts the same
// operations and the deterministic figures (hit rate, verb counts, modelled
// throughput) repeat exactly. Wall-clock figures are medians over rounds.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ditto::perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// User+system CPU seconds of the whole process (all threads, including
// threads that already exited) or of the calling thread only.
inline double CpuSeconds(int who = RUSAGE_SELF) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

inline double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Exact order statistic: the nearest-rank p-th percentile (p in (0, 100]).
// Reorders `v`. Returns 0 for an empty sample.
template <typename T>
double Percentile(std::vector<T>* v, double p) {
  if (v->empty()) {
    return 0.0;
  }
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v->size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v->size());
  std::nth_element(v->begin(), v->begin() + static_cast<std::ptrdiff_t>(rank - 1), v->end());
  return static_cast<double>((*v)[rank - 1]);
}

// Inverse of workload::FormatKey ("k" + 16 lowercase hex digits). Returns
// false for keys of another shape.
inline bool ParseTraceKey(std::string_view key, uint64_t* out) {
  if (key.size() != 17 || key[0] != 'k') {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 1; i < key.size(); ++i) {
    const char c = key[i];
    uint64_t d = 0;
    if (c >= '0' && c <= '9') {
      d = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    v = (v << 4) | d;
  }
  *out = v;
  return true;
}

inline double Median(std::vector<double> v) { return Percentile(&v, 50.0); }

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// Everything one round measured. Wall-clock fields are per round; the run
// reports their medians.
struct RoundResult {
  uint64_t attempted = 0;  // trace requests (+ open-loop requests) issued
  uint64_t failed = 0;     // dropped / unavailable / error / lost requests
  bool correct = true;
  std::string check_error;  // first failed check, when !correct

  double setup_s = 0.0;     // trace generation + deployment + preload (+ server start)
  double gen_s = 0.0;       // trace generation alone
  uint64_t gen_requests = 0;
  uint64_t ops = 0;         // measured operations
  double wall_s = 0.0;      // wall time of the measured region
  double wall_mops = 0.0;
  double virtual_mops = 0.0;
  double hit_rate = 0.0;
  double cpu_us_per_op = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  uint64_t latency_samples = 0;

  // Per-layer figures of a traced round (name -> value), merged into the
  // per-layer table by median over traced rounds.
  std::vector<Metric> layers;
};

// The seed-derived parameters every workload round receives.
struct RoundContext {
  uint64_t seed = 1;
  bool traced = false;
  // Directory for the span file of a traced run (empty: do not write).
  std::string trace_dir;
  std::string workload;
};

using RoundFn = RoundResult (*)(const RoundContext& ctx);

RoundResult RunYcsbCFit(const RoundContext& ctx);
RoundResult RunChangingEvict(const RoundContext& ctx);
RoundResult RunYcsbAContended(const RoundContext& ctx);
RoundResult RunServedYcsbB(const RoundContext& ctx);

int RunSelfTests();

}  // namespace ditto::perfbench

#endif  // PERFBENCH_BENCH_H_
