// Example: declarative scenario sweeps (`scenario_sweep --help` lists the
// flags).
//
// Loads a JSON scenario file (examples/scenarios.json documents the shape:
// a "defaults" object merged under every entry of a "scenarios" array, each
// naming a topology, trace, policy, and knob settings), runs every scenario
// in parallel on the SweepRunner's thread pool, and prints one metrics row
// per scenario. With no file argument it runs a small built-in grid so the
// example works from any directory. --csv FILE additionally writes the
// per-scenario metric rows (WriteSweepCsv) so grids feed plotting directly.
#include <cstdio>
#include <string>

#include "common/knobs.h"
#include "sim/experiment.h"
#include "sim/scenario.h"

namespace {

constexpr char kBuiltinScenarios[] = R"({
  "defaults": {
    "cluster": { "racks": 2, "machines_per_rack": 4,
                 "gpus_per_machine": 4, "gpus_per_slot": 2 },
    "trace": { "seed": 7, "num_apps": 8, "jobs_per_app_median": 4,
               "jobs_per_app_max": 8, "mean_interarrival": 15 },
    "sim": { "seed": 7, "lease_minutes": 10 }
  },
  "scenarios": [
    { "name": "themis",   "policy": "themis" },
    { "name": "gandiva",  "policy": "gandiva" },
    { "name": "tiresias", "policy": "tiresias" },
    { "name": "slaq",     "policy": "slaq" },
    { "name": "drf",      "policy": "drf" }
  ]
})";

}  // namespace

int main(int argc, char** argv) {
  using namespace themis;

  std::string csv;
  int threads = 0;
  FlagSet flags("[scenarios.json]");
  flags.Add(Knob::Field("", "--threads", &threads, "threads (0: all cores)"));
  flags.Add(Knob::Field("", "--csv", &csv, "write the metric rows as CSV"));
  flags.ParseOrExit(argc, argv);
  const std::string path =
      flags.operands().empty() ? std::string() : flags.operands().back();

  std::vector<ScenarioSpec> scenarios;
  try {
    scenarios = path.empty() ? LoadScenarios(kBuiltinScenarios)
                             : LoadScenariosFile(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  std::printf("Running %zu scenarios%s\n\n", scenarios.size(),
              path.empty() ? " (built-in grid)" : (" from " + path).c_str());
  std::printf("%-22s %-10s %10s %8s %12s %14s %8s\n", "scenario", "policy",
              "max_rho", "jain", "avg_ACT", "gpu_time", "unfin");

  int failures = 0;
  const std::vector<ScenarioRun> runs = SweepRunner(threads).Run(scenarios);
  for (const ScenarioRun& run : runs) {
    if (!run.ok) {
      std::printf("%-22s FAILED: %s\n", run.name.c_str(), run.error.c_str());
      ++failures;
      continue;
    }
    const ExperimentResult& r = run.result;
    std::printf("%-22s %-10s %10.2f %8.3f %12.1f %14.0f %8d\n",
                run.name.c_str(), r.policy_name.c_str(), r.max_fairness,
                r.jains_index, r.avg_completion_time, r.gpu_time,
                r.unfinished_apps);
  }
  if (!csv.empty()) {
    try {
      WriteSweepCsv(csv, runs);
      std::printf("\nwrote %zu scenario rows to %s\n", runs.size(),
                  csv.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }
  return failures == 0 ? 0 : 1;
}
