// Heterogeneous-generation scheduling at the 512-machine / 4096-GPU
// topology: throughput and fairness of Themis across generation mixes.
//
// One fixed trace runs against the same cluster shape priced three ways —
// uniform K80 (the speed-1.0 baseline), uniform V100, and the 25/50/25
// K80/V100/A100 mix — so the sweep isolates the generation axis: the
// fastest-first pool views, the min-speed gang rule, and the speed-scaled
// T_ID all engage while topology and workload stay fixed. Each point
// reports wall time, rounds, and the Sec. 8.1 metric summary, emits
// BENCH_hetero_generations.json, and writes the per-scenario metric rows as
// CSV next to it (the same WriteSweepCsv schema the scenario sweeps use).
//
//   THEMIS_BENCH_MACHINES  topology size (default 512 machines x 8 GPUs)
//   THEMIS_BENCH_APPS      trace size   (default 192 apps)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

using namespace themis;

struct MixPoint {
  const char* tag;   // metric suffix + scenario name
  const char* spec;  // ParseGenerationMix syntax; nullptr = leave at default
};

}  // namespace

int main() {
  const int machines = bench::EnvPositive("THEMIS_BENCH_MACHINES", 512);
  const int num_apps = bench::EnvPositive("THEMIS_BENCH_APPS", 192);
  const ClusterSpec base_topology = bench::ChurnSweepTopology(machines, 8);

  ExperimentConfig config;
  config.policy = PolicyKind::kThemis;
  config.trace.seed = 42;
  config.trace.num_apps = num_apps;
  config.trace.contention_factor = 2.0;
  config.sim.seed = 42;
  config.sim.lease_minutes = 20.0;

  const std::vector<AppSpec> apps = TraceGenerator(config.trace).Generate();

  const MixPoint points[] = {
      {"uniform-K80", nullptr},
      {"uniform-V100", "V100:1"},
      {"mixed-25-50-25", "K80:0.25,V100:0.5,A100:0.25"},
  };

  std::printf("Themis generation mixes at %d machines / %d GPUs, %zu apps\n\n",
              base_topology.TotalMachines(), base_topology.TotalGpus(),
              apps.size());
  std::printf("%-16s %10s %10s %10s %10s %8s %12s %8s\n", "mix", "eff_gpus",
              "wall_ms", "rounds", "max_rho", "jain", "avg_ACT", "unfin");

  bench::BenchReport report("hetero_generations", 42);
  report.Config("machines", base_topology.TotalMachines());
  report.Config("gpus", base_topology.TotalGpus());
  report.Config("apps", static_cast<double>(apps.size()));
  report.Config("policy", "themis");

  std::vector<ScenarioRun> runs;
  bool ok = true;
  for (const MixPoint& point : points) {
    ExperimentConfig cfg = config;
    cfg.cluster = base_topology;
    if (point.spec != nullptr)
      ApplyGenerationMix(cfg.cluster, ParseGenerationMix(point.spec));
    const double effective = cfg.cluster.TotalEffectiveGpus();

    ScenarioRun run;
    run.name = point.tag;
    const auto start = std::chrono::steady_clock::now();
    try {
      run.result = RunExperimentWithApps(cfg, apps);
      run.ok = true;
    } catch (const std::exception& e) {
      run.error = e.what();
      ok = false;
    }
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const ExperimentResult& r = run.result;

    std::printf("%-16s %10.0f %10.0f %10d %10.2f %8.3f %12.1f %8d\n",
                point.tag, effective, wall_ms, r.scheduling_passes,
                r.max_fairness, r.jains_index, r.avg_completion_time,
                r.unfinished_apps);

    const std::string tag = std::string("@") + point.tag;
    report.Metric("effective_gpus" + tag, effective);
    report.Metric("wall_ms" + tag, wall_ms);
    report.Metric("passes" + tag, r.scheduling_passes);
    report.Metric("max_rho" + tag, r.max_fairness);
    report.Metric("jain" + tag, r.jains_index);
    report.Metric("avg_act_min" + tag, r.avg_completion_time);
    report.Metric("unfinished" + tag, r.unfinished_apps);
    if (run.ok && r.unfinished_apps != 0) {
      std::fprintf(stderr, "bench: %d apps unfinished at %s\n",
                   r.unfinished_apps, point.tag);
      ok = false;
    }
    runs.push_back(std::move(run));
  }

  if (!bench::WriteBenchCsv("hetero_generations", runs)) ok = false;
  if (!report.Write()) ok = false;
  return ok ? 0 : 1;
}
