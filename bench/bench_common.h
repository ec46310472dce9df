// Shared configuration for the figure benches: one contended simulation
// setup per paper scale so every figure draws from the same workload shape,
// plus the machine-readable reporting helper every bench uses to emit
// BENCH_<name>.json alongside its stdout tables.
#pragma once

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/knobs.h"
#include "common/number_format.h"
#include "sim/experiment.h"

namespace themis::bench {

/// $name as a T (a number parsed whole, as flag values are, or the string),
/// or `fallback` when it is unset or empty. A value that does not parse
/// exits 2 naming the variable, before the bench prints anything.
template <class T>
T EnvKnob(const char* name, T fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  try {
    return FromToken<T>(v);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench: %s: %s\n", name, e.what());
    std::exit(2);
  }
}

/// A positive $name, or `fallback` when it is unset, empty or not positive.
inline int EnvPositive(const char* name, int fallback) {
  const int v = EnvKnob(name, fallback);
  return v > 0 ? v : fallback;
}

/// Sec. 8.2 / 8.4 simulations: 256-GPU heterogeneous cluster under heavy
/// contention (the paper's macro experiment ran at a peak contention of
/// 4.76x; contention_factor 4 lands this workload in the same regime).
inline ExperimentConfig ContendedSimConfig(PolicyKind policy,
                                           std::uint64_t seed = 42,
                                           int num_apps = 120) {
  ExperimentConfig cfg = SimScaleConfig(policy, seed, num_apps);
  cfg.trace.contention_factor = 4.0;
  return cfg;
}

/// Sec. 8.3 macrobenchmarks: 50-GPU testbed-scale cluster, durations / 5,
/// same inter-arrival distribution, heavy contention.
inline ExperimentConfig ContendedTestbedConfig(PolicyKind policy,
                                               std::uint64_t seed = 42,
                                               int num_apps = 100) {
  ExperimentConfig cfg = TestbedScaleConfig(policy, seed, num_apps);
  cfg.trace.contention_factor = 4.0;
  cfg.sim.lease_minutes = 5.0;  // scaled 1:5 like the durations
  return cfg;
}

/// Average of a metric over three trace seeds (single seeds are noisy at
/// testbed scale: one unlucky tail app can dominate the max).
struct MacroSummary {
  double max_fairness = 0.0;
  double jains_index = 0.0;
  double avg_completion_time = 0.0;
  double gpu_time = 0.0;
  double peak_contention = 0.0;
  ExperimentResult last;  // one representative run for CDFs
};

/// Bench-style sweep failure handling: any failed scenario aborts the bench
/// with its name and error on stderr. Shared by every bench ported to the
/// SweepRunner so exit semantics and message format stay uniform.
inline const ExperimentResult& RequireOk(const ScenarioRun& run) {
  if (!run.ok) {
    std::fprintf(stderr, "bench: scenario %s failed: %s\n", run.name.c_str(),
                 run.error.c_str());
    std::exit(1);
  }
  return run.result;
}

/// Aggregate one policy's seed runs (in seed order, so the floating-point
/// addition order matches the original serial loop exactly).
inline MacroSummary SummarizeMacroRuns(std::vector<ScenarioRun> runs) {
  MacroSummary out;
  const double n = static_cast<double>(runs.size());
  for (ScenarioRun& run : runs) {
    RequireOk(run);
    out.max_fairness += run.result.max_fairness / n;
    out.jains_index += run.result.jains_index / n;
    out.avg_completion_time += run.result.avg_completion_time / n;
    out.gpu_time += run.result.gpu_time / n;
    out.peak_contention += run.result.peak_contention / n;
    out.last = std::move(run.result);
  }
  return out;
}

inline MacroSummary RunMacro(PolicyKind policy) {
  // The three seed runs are independent simulations; the SweepRunner
  // executes them in parallel and hands results back in seed order.
  return SummarizeMacroRuns(SweepRunner().Run(
      PolicySeedGrid(ContendedTestbedConfig(policy), {policy}, {42, 43, 44})));
}

/// The path BENCH_<name>.csv lands at, honoring $BENCH_OUT_DIR like
/// BenchReport::Write — the per-scenario metric rows every PolicySeedGrid
/// bench archives next to its JSON report.
inline std::string BenchCsvPath(const std::string& name) {
  std::string path = "BENCH_" + name + ".csv";
  if (const char* dir = std::getenv("BENCH_OUT_DIR"); dir && *dir)
    path = std::string(dir) + "/" + path;
  return path;
}

/// Write a grid's scenario rows as CSV; failures are reported but do not
/// abort the bench (the JSON report already carries the headline metrics).
inline bool WriteBenchCsv(const std::string& name,
                          const std::vector<ScenarioRun>& runs) {
  const std::string path = BenchCsvPath(name);
  try {
    WriteSweepCsv(path, runs);
    std::fprintf(stderr, "bench: wrote %s\n", path.c_str());
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
}

inline constexpr PolicyKind kAllPolicies[] = {
    PolicyKind::kThemis, PolicyKind::kGandiva, PolicyKind::kSlaq,
    PolicyKind::kTiresias};

// ---------------------------------------------------------------------------
// Cluster-churn workload shared by bench_fig02_placement_throughput and
// bench_overheads' BM_ClusterPassChurn, so both benches measure the *same*
// definition of "one scheduler-pass-shaped round" on the indexed cluster.
// ---------------------------------------------------------------------------

/// Topology for a churn sweep point: up to 64 machines per rack. The
/// realized machine count is racks * machines_per_rack, which rounds
/// `requested_machines` down when it does not divide evenly — callers must
/// report the realized size, not the request.
inline ClusterSpec ChurnSweepTopology(int requested_machines,
                                      int gpus_per_machine) {
  const int racks = std::max(1, requested_machines / 64);
  return ClusterSpec::Uniform(
      racks, /*machines_per_rack=*/requested_machines / racks,
      gpus_per_machine,
      /*gpus_per_slot=*/gpus_per_machine % 4 == 0 ? 4 : 1);
}

/// Lease every GPU to one of `apps` apps with staggered expiries — the
/// steady contended state the churn rounds cycle through.
inline void ChurnPrefill(Cluster& cluster, int apps) {
  for (GpuId g = 0; g < static_cast<GpuId>(cluster.num_gpus()); ++g)
    cluster.Allocate(g, g % apps, g % 4, 20.0 + g % 200);
}

/// One scheduler-pass-shaped round: reclaim expired leases, rebuild the
/// free views (offer vector + pool), re-grant the pool. Returns a checksum of the query results so callers can keep
/// the work observable to the optimizer.
inline std::size_t ClusterPassChurnRound(Cluster& cluster, int apps,
                                         Time now) {
  std::size_t sink = 0;
  for (GpuId g : cluster.ExpiredGpus(now)) cluster.Release(g);
  const std::vector<int> per_machine = cluster.FreeGpusPerMachine();
  const std::vector<GpuId> free = cluster.FreeGpus();
  sink += per_machine.size();
  for (GpuId g : free)
    cluster.Allocate(g, g % apps, g % 4, now + 20.0 + (g * 7) % 200);
  const Time next = cluster.NextExpiryAfter(now);
  if (next < kInfiniteTime) sink += static_cast<std::size_t>(next);
  return sink;
}

/// Machine-readable bench output. Each bench constructs one report, records
/// scalar metrics (and optional config context) as it prints its tables, and
/// calls Write() at the end to emit BENCH_<name>.json into $BENCH_OUT_DIR
/// (default: the working directory). The perf-trajectory tooling only needs
/// (metric name, value, seed, config), so that is the whole schema:
///
///   {
///     "bench": "fig05_fairness_comparison",
///     "seed": 42,
///     "config": {"cluster": "testbed50", "contention_factor": 4},
///     "metrics": [{"name": "max_rho.Themis", "value": 5.06}, ...]
///   }
class BenchReport {
 public:
  explicit BenchReport(std::string name, std::uint64_t seed = 42)
      : name_(std::move(name)), seed_(seed) {}

  void Config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, Quote(value));
  }
  void Config(const std::string& key, double value) {
    config_.emplace_back(key, Number(value));
  }
  void Metric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }

  std::string ToJson() const {
    std::string out = "{\n  \"bench\": " + Quote(name_) +
                      ",\n  \"seed\": " + std::to_string(seed_) +
                      ",\n  \"config\": {";
    for (std::size_t i = 0; i < config_.size(); ++i) {
      if (i) out += ", ";
      out += Quote(config_[i].first) + ": " + config_[i].second;
    }
    out += "},\n  \"metrics\": [";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out += i ? ",\n    " : "\n    ";
      out += "{\"name\": " + Quote(metrics_[i].first) +
             ", \"value\": " + Number(metrics_[i].second) + "}";
    }
    out += metrics_.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
  }

  /// Returns true on success; the emitted path is noted on stderr so the
  /// stdout report stays a clean human-readable table.
  bool Write() const {
    std::string path = "BENCH_" + name_ + ".json";
    if (const char* dir = std::getenv("BENCH_OUT_DIR"); dir && *dir)
      path = std::string(dir) + "/" + path;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
      return false;
    }
    const std::string json = ToJson();
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
        std::fclose(f) == 0;
    if (ok) std::fprintf(stderr, "bench: wrote %s\n", path.c_str());
    else std::fprintf(stderr, "bench: write to %s failed\n", path.c_str());
    return ok;
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  static std::string Number(double v) {
    if (!std::isfinite(v)) return "null";
    std::string out;
    AppendNumber(out, v);
    return out;
  }

  std::string name_;
  std::uint64_t seed_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace themis::bench
