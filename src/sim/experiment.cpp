#include "sim/experiment.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "common/number_format.h"
#include "common/parallel.h"
#include "baselines/drf.h"
#include "baselines/gandiva.h"
#include "baselines/slaq.h"
#include "baselines/tiresias.h"
#include "workload/trace_io.h"

namespace themis {

const char* ToString(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kThemis: return "Themis";
    case PolicyKind::kGandiva: return "Gandiva";
    case PolicyKind::kTiresias: return "Tiresias";
    case PolicyKind::kSlaq: return "SLAQ";
    case PolicyKind::kDrf: return "DRF";
  }
  return "?";
}

PolicyKind PolicyKindFromString(const std::string& name) {
  std::string lower;
  for (char c : name) lower += static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  if (lower == "themis") return PolicyKind::kThemis;
  if (lower == "gandiva") return PolicyKind::kGandiva;
  if (lower == "tiresias") return PolicyKind::kTiresias;
  if (lower == "slaq") return PolicyKind::kSlaq;
  if (lower == "drf") return PolicyKind::kDrf;
  throw std::runtime_error("unknown policy: " + name);
}

std::unique_ptr<IRoundScheduler> MakePolicy(PolicyKind kind,
                                            ThemisConfig themis_config) {
  switch (kind) {
    case PolicyKind::kThemis:
      return std::make_unique<ThemisPolicy>(themis_config);
    case PolicyKind::kGandiva:
      return std::make_unique<GandivaPolicy>();
    case PolicyKind::kTiresias:
      return std::make_unique<TiresiasPolicy>();
    case PolicyKind::kSlaq:
      return std::make_unique<SlaqPolicy>();
    case PolicyKind::kDrf:
      return std::make_unique<DrfPolicy>();
  }
  return std::make_unique<ThemisPolicy>(themis_config);
}

ExperimentResult SummarizeRun(const ExperimentConfig& config, SimResult run) {
  const double contention = run.peak_contention;

  ExperimentResult result;
  result.policy_name = ToString(config.policy);
  result.max_fairness = run.metrics.MaxFairness();
  result.median_fairness = run.metrics.MedianFairness();
  result.min_fairness = run.metrics.MinFairness();
  result.jains_index = run.metrics.JainsFairnessIndex();
  result.avg_completion_time = run.metrics.AverageCompletionTime();
  result.gpu_time = run.metrics.TotalGpuTime();
  result.peak_contention = contention;
  result.unfinished_apps = static_cast<int>(run.unfinished.size());
  result.machine_failures = run.machine_failures;
  result.scheduling_passes = run.scheduling_passes;
  result.events_processed = run.events_processed;
  result.rounds_executed = run.rounds_executed;
  result.sim_time_advances = run.sim_time_advances;
  // Metric records accumulate in finish order; expose the per-app vectors in
  // AppId (== submission) order so callers can label them.
  std::vector<AppRecord> records = run.metrics.apps();
  std::sort(records.begin(), records.end(),
            [](const AppRecord& a, const AppRecord& b) { return a.app < b.app; });
  for (const AppRecord& rec : records) {
    result.finished_apps.push_back(rec.app);
    result.rhos.push_back(rec.Rho());
    result.completion_times.push_back(rec.CompletionTime());
    result.placement_scores.push_back(rec.mean_placement_score);
  }
  result.timeline = run.metrics.timeline();
  result.total_apps = run.total_apps;
  result.peak_live_apps = run.peak_live_apps;
  return result;
}

ExperimentResult RunExperimentWithApps(const ExperimentConfig& config,
                                       std::vector<AppSpec> apps,
                                       Simulator::RoundObserver round_observer) {
  config.themis.Validate();
  Simulator sim(config.cluster, std::move(apps),
                MakePolicy(config.policy, config.themis), config.sim);
  if (round_observer) sim.set_round_observer(std::move(round_observer));
  return SummarizeRun(config, sim.Run());
}

ExperimentResult RunStreamingExperiment(const ExperimentConfig& config,
                                        std::unique_ptr<TraceReader> trace) {
  config.themis.Validate();
  SimConfig sim_config = config.sim;
  sim_config.retire_finished_apps = true;
  Simulator sim(config.cluster, std::move(trace),
                MakePolicy(config.policy, config.themis), sim_config);
  return SummarizeRun(config, sim.Run());
}

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  TraceGenerator gen(config.trace);
  return RunExperimentWithApps(config, gen.Generate());
}

ExperimentConfig TestbedScaleConfig(PolicyKind policy, std::uint64_t seed,
                                    int num_apps) {
  ExperimentConfig config;
  config.cluster = ClusterSpec::Testbed50();
  config.policy = policy;
  config.trace.seed = seed;
  config.trace.num_apps = num_apps;
  // Sec. 8.3 footnote: durations scaled down by 5, inter-arrival kept.
  config.trace.duration_scale = 1.0 / 5.0;
  // Cap exploration width so one app cannot exceed the small cluster.
  config.trace.jobs_per_app_median = 8.0;
  config.trace.jobs_per_app_max = 24;
  config.sim.seed = seed;
  config.sim.lease_minutes = 10.0;
  return config;
}

const ExperimentResult& ScenarioRun::ResultOrThrow() const {
  if (!ok) throw std::runtime_error(name + ": " + error);
  return result;
}

std::uint64_t DeriveScenarioSeed(std::uint64_t base_seed, std::size_t index) {
  // splitmix64: decorrelates adjacent indices while staying reproducible.
  std::uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<ScenarioSpec> PolicySeedGrid(
    const ExperimentConfig& base, const std::vector<PolicyKind>& policies,
    const std::vector<std::uint64_t>& seeds) {
  std::vector<ScenarioSpec> out;
  out.reserve(policies.size() * seeds.size());
  for (PolicyKind policy : policies) {
    for (std::uint64_t seed : seeds) {
      ScenarioSpec spec;
      spec.name = std::string(ToString(policy)) + "/seed" + std::to_string(seed);
      spec.config = base;
      spec.config.policy = policy;
      spec.config.trace.seed = seed;
      spec.config.sim.seed = seed;
      out.push_back(std::move(spec));
    }
  }
  return out;
}

void RunParallel(std::size_t n, const std::function<void(std::size_t)>& fn,
                 int num_threads) {
  if (n == 0) return;

  // Runs on the shared process pool (common/parallel.h) instead of spawning
  // a thread per call. Grain 1 keeps the historical behaviour: each executor
  // claims the next unstarted index, and callers write into per-index slots,
  // so results are independent of scheduling order.
  int threads = num_threads > 0
                    ? num_threads
                    : static_cast<int>(std::thread::hardware_concurrency());
  threads = std::max(1, std::min<int>(threads, static_cast<int>(n)));
  ParallelFor(n, threads, fn, /*grain=*/1);
}

std::vector<ScenarioRun> SweepRunner::Run(
    const std::vector<ScenarioSpec>& scenarios) const {
  std::vector<ScenarioRun> out(scenarios.size());
  RunParallel(
      scenarios.size(),
      [&](std::size_t i) {
        const ScenarioSpec& spec = scenarios[i];
        ScenarioRun& run = out[i];
        run.name = spec.name;
        try {
          if (!spec.trace_file.empty() && !spec.trace_csv.empty())
            throw std::runtime_error(
                "scenario sets both trace_csv and trace_file");
          if (!spec.trace_file.empty()) {
            run.result = RunStreamingExperiment(
                spec.config,
                std::make_unique<StreamingCsvTraceReader>(spec.trace_file));
          } else if (!spec.trace_csv.empty()) {
            run.result = RunExperimentWithApps(spec.config,
                                               ReadTraceCsvFile(spec.trace_csv));
          } else {
            run.result = RunExperiment(spec.config);
          }
          run.ok = true;
        } catch (const std::exception& e) {
          run.error = e.what();
        }
      },
      num_threads_);
  return out;
}

namespace {

/// RFC-4180-style field quoting: wrap when the value contains a comma,
/// quote, or newline; double embedded quotes.
std::string CsvField(const std::string& value) {
  if (value.find_first_of(",\"\n\r") == std::string::npos) return value;
  std::string out = "\"";
  for (char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string SweepCsv(const std::vector<ScenarioRun>& runs) {
  std::string out =
      "name,policy,ok,max_rho,median_rho,min_rho,jain,avg_act_min,"
      "gpu_time_min,peak_contention,unfinished,machine_failures,"
      "scheduling_passes,error\n";
  for (const ScenarioRun& run : runs) {
    const ExperimentResult& r = run.result;
    out += CsvField(run.name) + ',' + CsvField(r.policy_name) + ',' +
           (run.ok ? "1" : "0");
    for (const double v : {r.max_fairness, r.median_fairness, r.min_fairness,
                           r.jains_index, r.avg_completion_time, r.gpu_time,
                           r.peak_contention}) {
      out += ',';
      AppendNumber(out, v);
    }
    out += ',' + std::to_string(r.unfinished_apps) + ',' +
           std::to_string(r.machine_failures) + ',' +
           std::to_string(r.scheduling_passes) + ',' + CsvField(run.error) +
           '\n';
  }
  return out;
}

void WriteSweepCsv(const std::string& path,
                   const std::vector<ScenarioRun>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    throw std::runtime_error("WriteSweepCsv: cannot open " + path);
  const std::string csv = SweepCsv(runs);
  const bool ok = std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
  if (std::fclose(f) != 0 || !ok)
    throw std::runtime_error("WriteSweepCsv: write to " + path + " failed");
}

ExperimentConfig SimScaleConfig(PolicyKind policy, std::uint64_t seed,
                                int num_apps) {
  ExperimentConfig config;
  config.cluster = ClusterSpec::Simulation256();
  config.policy = policy;
  config.trace.seed = seed;
  config.trace.num_apps = num_apps;
  config.sim.seed = seed;
  config.sim.lease_minutes = 20.0;
  return config;
}

}  // namespace themis
