// Experiment harness shared by the benchmark binaries, the examples and the
// integration tests: builds a cluster + trace + policy, runs the simulator,
// and returns the metric summaries the paper's figures report.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/themis_policy.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace themis {

enum class PolicyKind { kThemis, kGandiva, kTiresias, kSlaq, kDrf };

const char* ToString(PolicyKind kind);
/// Case-insensitive inverse of ToString ("themis", "drf", ...). Throws
/// std::runtime_error on unknown names; shared by the CLI and scenario JSON.
PolicyKind PolicyKindFromString(const std::string& name);
std::unique_ptr<IRoundScheduler> MakePolicy(PolicyKind kind,
                                            ThemisConfig themis_config = {});

struct ExperimentConfig {
  ClusterSpec cluster = ClusterSpec::Simulation256();
  TraceConfig trace;
  SimConfig sim;
  PolicyKind policy = PolicyKind::kThemis;
  ThemisConfig themis;
};

struct ExperimentResult {
  std::string policy_name;
  double max_fairness = 0.0;
  double median_fairness = 0.0;
  double min_fairness = 0.0;
  double jains_index = 0.0;
  double avg_completion_time = 0.0;
  Work gpu_time = 0.0;
  double peak_contention = 0.0;
  int unfinished_apps = 0;
  int machine_failures = 0;
  int scheduling_passes = 0;
  /// Event-core efficiency counters (see SimResult); summed across shards
  /// by the federation layer. Not part of SweepCsv, whose columns are
  /// pinned.
  long long events_processed = 0;
  long long rounds_executed = 0;
  long long sim_time_advances = 0;
  /// AppIds of the finished apps, aligned index-for-index with the per-app
  /// vectors below (unfinished apps have no record); ascending. The
  /// federation layer uses these to stitch shard results back into global
  /// app order.
  std::vector<AppId> finished_apps;
  std::vector<double> rhos;
  std::vector<double> completion_times;
  std::vector<double> placement_scores;
  std::vector<AllocationSample> timeline;
  /// Apps seen end to end / peak simultaneously-resident AppStates (see
  /// SimResult). Not part of SweepCsv, whose columns are pinned.
  std::size_t total_apps = 0;
  std::size_t peak_live_apps = 0;
};

/// Generate the trace from `config.trace`, run one simulation, summarize.
ExperimentResult RunExperiment(const ExperimentConfig& config);

/// Run with a pre-built app list (used by the Fig. 8 hand-picked scenario
/// and the federation shards). `round_observer`, when set, sees every
/// (offer, grants) round of the run.
ExperimentResult RunExperimentWithApps(
    const ExperimentConfig& config, std::vector<AppSpec> apps,
    Simulator::RoundObserver round_observer = {});

/// Run with a streamed workload: apps are injected as the reader advances
/// and retired as they finish (`retire_finished_apps` is forced on), so
/// memory tracks concurrent apps — the million-job replay path. Combine
/// with `config.sim.metrics.bounded_memory` for constant-memory metrics.
ExperimentResult RunStreamingExperiment(const ExperimentConfig& config,
                                        std::unique_ptr<TraceReader> trace);

/// Summarize a finished run the way the Run* helpers above do — for callers
/// that construct and drive the Simulator themselves.
ExperimentResult SummarizeRun(const ExperimentConfig& config, SimResult run);

/// The testbed-scale configuration of Sec. 8.3: 50-GPU cluster, durations
/// scaled down 5x, same inter-arrival distribution.
ExperimentConfig TestbedScaleConfig(PolicyKind policy, std::uint64_t seed = 42,
                                    int num_apps = 60);

/// The simulator-scale configuration of Sec. 8.1/8.2: 256-GPU heterogeneous
/// cluster, mean inter-arrival 20 min.
ExperimentConfig SimScaleConfig(PolicyKind policy, std::uint64_t seed = 42,
                                int num_apps = 80);

// ---------------------------------------------------------------------------
// Scenario sweeps: one named experiment per ScenarioSpec, many of them run
// in parallel on a thread pool. Each simulation is self-contained (own RNGs,
// own metrics), so parallel execution is bit-identical to serial execution.
// ---------------------------------------------------------------------------

/// One experiment in a sweep: topology + trace + policy + knobs, optionally
/// replaying an archived CSV trace instead of generating one. JSON loading
/// lives in sim/scenario.h.
struct ScenarioSpec {
  std::string name;
  ExperimentConfig config;
  /// When non-empty, load apps from this WriteTraceCsv archive instead of
  /// generating from config.trace.
  std::string trace_csv;
  /// When non-empty, *stream* this archive through RunStreamingExperiment
  /// (arrival-sorted input required; finished apps retired eagerly).
  /// Mutually exclusive with trace_csv.
  std::string trace_file;
};

/// Outcome of one scenario. A scenario that throws (bad trace file, invalid
/// SimConfig) reports `ok == false` with the message instead of tearing down
/// the whole sweep.
struct ScenarioRun {
  std::string name;
  ExperimentResult result;
  bool ok = false;
  std::string error;

  /// The result, or std::runtime_error("<name>: <error>") when the scenario
  /// failed — for callers that treat any failure in the sweep as fatal.
  const ExperimentResult& ResultOrThrow() const;
};

/// Deterministic per-scenario seed: splitmix64 of the base seed and the
/// scenario's position, so grids get decorrelated-but-reproducible streams
/// regardless of sweep size or thread count.
std::uint64_t DeriveScenarioSeed(std::uint64_t base_seed, std::size_t index);

/// Expand a policy x seed grid over a base config. Scenario (p, s) is named
/// "<policy>/seed<seed>" and runs the base config with trace.seed and
/// sim.seed both set to `s`.
std::vector<ScenarioSpec> PolicySeedGrid(const ExperimentConfig& base,
                                         const std::vector<PolicyKind>& policies,
                                         const std::vector<std::uint64_t>& seeds);

/// Run `fn(0..n-1)` across up to `num_threads` executors (0 = hardware
/// concurrency) on the shared process pool (common/parallel.h), each
/// claiming the next unstarted index — no threads are spawned per call.
/// Shared by SweepRunner (scenario grids) and ShardedArbiter
/// (parallel shard rounds); callers write results into per-index slots, so
/// the outcome is independent of scheduling order.
void RunParallel(std::size_t n, const std::function<void(std::size_t)>& fn,
                 int num_threads = 0);

/// Thread-pooled scenario runner. Results come back in input order; a
/// num_threads of 0 uses the hardware concurrency.
class SweepRunner {
 public:
  explicit SweepRunner(int num_threads = 0) : num_threads_(num_threads) {}

  std::vector<ScenarioRun> Run(const std::vector<ScenarioSpec>& scenarios) const;

 private:
  int num_threads_;
};

/// Write one CSV row per ScenarioRun (header + name, policy, metric
/// summary, ok/error) so scenario grids feed plotting directly. Fields
/// containing commas/quotes/newlines are quoted. Throws std::runtime_error
/// when the file cannot be written.
void WriteSweepCsv(const std::string& path,
                   const std::vector<ScenarioRun>& runs);

/// The CSV text WriteSweepCsv emits (exposed for tests and embedders).
std::string SweepCsv(const std::vector<ScenarioRun>& runs);

}  // namespace themis
