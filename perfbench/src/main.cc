// ditto_perfbench: runs one named workload for a fixed wall-clock budget and
// prints its metrics. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Exits nonzero when a correctness check fails.
//
//   ditto_perfbench --workload ycsb-c-fit --seed 1 --seconds 10 --trace 0
//   ditto_perfbench --selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bench.h"

namespace ditto::perfbench {
namespace {

struct WorkloadDef {
  const char* name;
  RoundFn run;
};

// The first three are the gated workloads of BENCHMARK.json. served-ycsb-b
// runs by hand only: on a shared virtual host its wall-clock figures swing
// too far between runs to carry a bound (see README.md).
constexpr WorkloadDef kWorkloads[] = {
    {"ycsb-c-fit", RunYcsbCFit},
    {"changing-evict", RunChangingEvict},
    {"ycsb-a-contended", RunYcsbAContended},
    {"served-ycsb-b", RunServedYcsbB},
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"wall_mops", "Mops"},    {"virtual_mops", "Mops"},
    {"hit_rate", "fraction"},   {"cpu_us_per_op", "us"},  {"peak_rss_mib", "MiB"},
    {"p50_us", "us"},           {"p95_us", "us"},
};

constexpr MetricDef kPerLayer[] = {
    {"workloads.gen_ns_per_req", "ns"},
    {"sim.dispatch_ns_per_op", "ns"},
    {"core.get_ns", "ns"},
    {"core.set_ns", "ns"},
    {"core.evictions_per_kop", "1/kop"},
    {"core.regrets_per_kop", "1/kop"},
    {"core.weight_updates_per_kop", "1/kop"},
    {"core.lead_expert_switches", "count"},
    {"core.cas_failures_per_kop", "1/kop"},
    {"core.insert_retries_per_kop", "1/kop"},
    {"core.dup_resolved_per_kop", "1/kop"},
    {"core.set_retries_per_kop", "1/kop"},
    {"hashtable.read_bucket_ns", "ns"},
    {"hashtable.read_slots_ns", "ns"},
    {"policies.priority_ns", "ns"},
    {"rdma.reads_per_op", "1/op"},
    {"rdma.writes_per_op", "1/op"},
    {"rdma.atomics_per_op", "1/op"},
    {"rdma.rpcs_per_op", "1/op"},
    {"rdma.nic_msgs_per_op", "1/op"},
    {"rdma.nic_bytes_per_op", "B/op"},
    {"rdma.doorbells_per_op", "1/op"},
    {"rdma.nic_busy_share", "fraction"},
    {"rdma.cpu_busy_share", "fraction"},
    {"rdma.verb_read_ns", "ns"},
    {"rdma.arena_read_ns", "ns"},
    {"dm.occupancy", "fraction"},
    {"dm.heap_bytes_per_object", "B"},
    {"dm.segment_allocs_per_kop", "1/kop"},
    {"net.parse_ns_per_cmd", "ns"},
    {"net.process_ns_per_cmd", "ns"},
    {"trace.overhead_ns_per_op", "ns"},
};

// Per-layer figures only the served workload produces; printed in its
// report, not in the JSON line.
constexpr MetricDef kServedLayer[] = {
    {"net.cache_ns_per_cmd", "ns"},
    {"net.reactor_cpu_us_per_cmd", "us"},
    {"net.loadgen_late_us", "us"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (flag != "--selftest") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        return false;
      }
      value = argv[++i];
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace takes 0 or 1\n");
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else if (flag == "--selftest") {
      args->selftest = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value '%s' for %s\n", value.c_str(), flag.c_str());
      return false;
    }
  }
  return true;
}

// Median and range of one metric over rounds, for the human-readable report.
struct Summary {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Summary Summarize(const std::vector<double>& v) {
  Summary s;
  if (v.empty()) {
    return s;
  }
  s.median = Median(v);
  s.min = *std::min_element(v.begin(), v.end());
  s.max = *std::max_element(v.begin(), v.end());
  return s;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (args.workload == w.name) {
      def = &w;
    }
  }
  if (def == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; one of:", args.workload.c_str());
    for (const WorkloadDef& w : kWorkloads) {
      std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  RoundContext ctx;
  ctx.seed = args.seed;
  ctx.workload = def->name;
  ctx.trace_dir = args.trace_dir;
  // Rounds repeat until the budget is spent. A traced run alternates
  // untraced and traced rounds of the same seed, so the tracing overhead is
  // measured against rounds that ran under the same host conditions.
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(args.seconds * 1e9);
  std::vector<RoundResult> plain;
  std::vector<RoundResult> traced;
  for (int round = 0;; ++round) {
    ctx.traced = args.trace && round % 2 == 1;
    RoundResult r = def->run(ctx);
    std::printf("# round %d%s: setup_s=%.4f wall_mops=%.4f virtual_mops=%.6f hit_rate=%.6f "
                "cpu_us_per_op=%.4f p50_us=%.3f p95_us=%.3f\n",
                round, ctx.traced ? " (traced)" : "", r.setup_s, r.wall_mops, r.virtual_mops,
                r.hit_rate, r.cpu_us_per_op, r.p50_us, r.p95_us);
    if (!r.correct) {
      std::fprintf(stderr, "%s seed %llu round %d: check failed: %s\n", def->name,
                   static_cast<unsigned long long>(args.seed), round, r.check_error.c_str());
    }
    (ctx.traced ? traced : plain).push_back(std::move(r));
    const bool enough = !args.trace || !traced.empty();
    if (enough && NowNs() >= deadline) {
      break;
    }
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::vector<double>> e2e;
  std::map<std::string, std::vector<double>> layers;
  std::vector<double> plain_ns_per_op;
  std::vector<double> traced_ns_per_op;
  uint64_t latency_samples = 0;
  for (const std::vector<RoundResult>* set : {&plain, &traced}) {
    for (const RoundResult& r : *set) {
      correct = correct && r.correct;
      attempted += r.attempted;
      failed += r.failed;
      const double ns_per_op = r.wall_s * 1e9 / static_cast<double>(std::max<uint64_t>(r.ops, 1));
      if (set == &traced) {
        traced_ns_per_op.push_back(ns_per_op);
        for (const Metric& m : r.layers) {
          layers[m.name].push_back(m.value);
        }
        continue;
      }
      plain_ns_per_op.push_back(ns_per_op);
      latency_samples += r.latency_samples;
      e2e["setup_s"].push_back(r.setup_s);
      e2e["wall_mops"].push_back(r.wall_mops);
      e2e["virtual_mops"].push_back(r.virtual_mops);
      e2e["hit_rate"].push_back(r.hit_rate);
      e2e["cpu_us_per_op"].push_back(r.cpu_us_per_op);
      e2e["p50_us"].push_back(r.p50_us);
      e2e["p95_us"].push_back(r.p95_us);
    }
  }
  e2e["peak_rss_mib"].push_back(PeakRssMib());
  if (args.trace) {
    layers["trace.overhead_ns_per_op"].push_back(Median(traced_ns_per_op) -
                                                 Median(plain_ns_per_op));
  }

  std::printf("# workload=%s seed=%llu rounds=%zu (+%zu traced) attempted=%llu failed=%llu "
              "latency_samples=%llu\n",
              def->name, static_cast<unsigned long long>(args.seed), plain.size(), traced.size(),
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(latency_samples));
  std::vector<Metric> out;
  const auto& table = args.trace ? layers : e2e;
  auto emit = [&](const MetricDef& m) {
    const auto it = table.find(m.name);
    const Summary s = it == table.end() ? Summary{} : Summarize(it->second);
    std::printf("# %-30s %14.6g %-8s (min %.6g, max %.6g)\n", m.name, s.median, m.unit, s.min,
                s.max);
    out.push_back(Metric{m.name, m.unit, s.median});
  };
  if (args.trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  const size_t json_metrics = out.size();
  for (const MetricDef& m : kServedLayer) {
    if (table.count(m.name) != 0) emit(m);
  }
  out.resize(json_metrics);
  for (const auto& [name, values] : table) {
    bool declared = false;
    for (const std::span<const MetricDef> defs : {std::span<const MetricDef>(kEndToEnd),
                                                  std::span<const MetricDef>(kPerLayer),
                                                  std::span<const MetricDef>(kServedLayer)}) {
      for (const MetricDef& m : defs) declared = declared || name == m.name;
    }
    if (!declared) {
      std::fprintf(stderr, "internal: undeclared metric %s\n", name.c_str());
      correct = false;
    }
  }
  if (!correct) {
    std::fprintf(stderr, "correctness checks failed\n");
  }
  PrintJson(correct, attempted, failed, out);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ditto::perfbench

int main(int argc, char** argv) {
  ditto::perfbench::Args args;
  if (!ditto::perfbench::ParseArgs(argc, argv, &args)) {
    return 2;
  }
  if (args.selftest) {
    return ditto::perfbench::RunSelfTests();
  }
  return ditto::perfbench::Run(args);
}
