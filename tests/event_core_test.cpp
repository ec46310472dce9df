// Tests for the discrete-event simulator core: a metrics tick must make the
// allocation timeline denser; stale lease ticks must not trigger scheduling
// passes; event counts must be independent of lease-tick density on an idle
// cluster; and epsilon-batched rounds must reduce pass counts while still
// finishing the same apps, with the round state and the simulator's
// incremental walks audited after every coalesced round (tests/round_audit.h)
// for every policy, under failures, streamed traces, a max_time cutoff and a
// metrics tick. The exact loop's outputs are pinned, and audited the same
// way, by golden_pins_test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

#include "round_audit.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace themis {
namespace {

// A contended mixed workload: multi-job HyperBand apps, overlapping
// lifetimes, restarts.
ExperimentConfig ContendedConfig(PolicyKind policy) {
  ExperimentConfig config;
  config.cluster = ClusterSpec::Uniform(2, 4, 4, 2);
  config.policy = policy;
  config.trace.seed = 33;
  config.trace.num_apps = 25;
  config.trace.jobs_per_app_median = 6.0;
  config.trace.jobs_per_app_max = 12;
  config.sim.seed = 33;
  return config;
}

// The periodic sampler makes the timeline strictly denser than the
// change-only record.
TEST(MetricsTick, SamplingMakesTheTimelineDenser) {
  ExperimentConfig config = ContendedConfig(PolicyKind::kThemis);
  const ExperimentResult sparse = RunExperiment(config);
  config.sim.metrics_tick_minutes = 7.0;
  const ExperimentResult ticked = RunExperiment(config);
  EXPECT_GT(ticked.timeline.size(), sparse.timeline.size());
}

// --------------------------------------------------------------------------
// Stale-tick gating: a lease tick whose lease was released before the tick
// fires advances virtual time and nothing else. In particular an exhausted
// trace stream must not keep scheduling passes running past the last live
// job's horizon.
// --------------------------------------------------------------------------

AppSpec TinyApp(Time arrival, double work) {
  AppSpec app;
  app.arrival = arrival;
  app.tuner = TunerKind::kNone;
  app.target_loss = 0.1;
  JobSpec job;
  job.total_work = work;
  job.total_iterations = 1000.0;
  job.num_tasks = 1;
  job.gpus_per_task = 4;
  job.model = ModelByName("ResNet50");
  job.loss = LossCurve(0.1 * std::pow(1001.0, 0.6), 0.6, 0.0);
  app.jobs = {job};
  return app;
}

SimResult RunTinyPair(Time lease_minutes, Time second_arrival = 10000.0) {
  SimConfig cfg;
  cfg.lease_minutes = lease_minutes;
  cfg.restart_overhead_minutes = 0.75;
  // Two 1-minute jobs far apart: each finishes within its first lease, so
  // no lease ever actually expires and every tick that fires is stale.
  Simulator sim(ClusterSpec::Uniform(1, 1, 4, 4),
                {TinyApp(0.0, 4.0), TinyApp(second_arrival, 4.0)},
                std::make_unique<ThemisPolicy>(), cfg);
  return sim.Run();
}

TEST(StaleTickGating, ExhaustedStreamRunsNoTailPasses) {
  // Streamed replay of the same tiny pair: after the second app finishes
  // the reader is exhausted and only its stale lease tick remains — the
  // run must end with no further passes.
  ExperimentConfig config;
  config.cluster = ClusterSpec::Uniform(1, 1, 4, 4);
  config.policy = PolicyKind::kThemis;
  std::vector<AppSpec> apps{TinyApp(0.0, 4.0), TinyApp(30.0, 4.0)};
  const ExperimentResult event = RunStreamingExperiment(
      config, std::make_unique<VectorTraceReader>(apps));
  EXPECT_EQ(event.unfinished_apps, 0);
  // Exactly: 2 arrival passes + 2 finish passes. The first app's stale
  // lease tick fires (advancing time, no pass); the second app's never
  // even pops — once the stream is exhausted and the last app finished,
  // the run ends instead of walking out to the orphaned tick.
  EXPECT_EQ(event.scheduling_passes, 4);
  EXPECT_EQ(event.rounds_executed, 2);
  EXPECT_EQ(event.events_processed, 5);
}

TEST(StaleTickGating, EventCountIndependentOfLeaseDensityWhenIdle) {
  // Property: on a cluster that is idle between two far-apart tiny apps,
  // the number of events, passes, rounds and time advances is invariant
  // under lease-tick density — shrinking the lease 100x must not add work.
  const SimResult baseline = RunTinyPair(20.0);
  for (Time lease : {2.0, 5.0, 200.0}) {
    const SimResult r = RunTinyPair(lease);
    EXPECT_EQ(r.events_processed, baseline.events_processed) << lease;
    EXPECT_EQ(r.scheduling_passes, baseline.scheduling_passes) << lease;
    EXPECT_EQ(r.rounds_executed, baseline.rounds_executed) << lease;
    EXPECT_EQ(r.sim_time_advances, baseline.sim_time_advances) << lease;
    EXPECT_TRUE(r.unfinished.empty()) << lease;
  }
}

// --------------------------------------------------------------------------
// Epsilon-batched auction rounds.
// --------------------------------------------------------------------------

TEST(EpsilonBatching, CoalescedRoundsFinishSameAppsWithFewerPasses) {
  ExperimentConfig config = ContendedConfig(PolicyKind::kThemis);
  config.trace.mean_interarrival = 2.0;  // scatter lease expiries densely
  const ExperimentResult exact = RunExperiment(config);

  config.sim.auction_epsilon_minutes = 5.0;
  const ExperimentResult batched = RunExperiment(config);

  EXPECT_LT(batched.scheduling_passes, exact.scheduling_passes);
  EXPECT_EQ(batched.unfinished_apps, 0);
  EXPECT_EQ(exact.unfinished_apps, 0);
  EXPECT_EQ(batched.finished_apps, exact.finished_apps);
}

// Coalescing moves rounds off the event that triggered them, so the walks
// that only visit a round's touched apps must still leave every untouched
// app recorded and projected. Drive the Simulator directly with
// ContendedConfig at a 5-minute epsilon and audit after every round.
ExperimentConfig BatchedConfig(PolicyKind policy) {
  ExperimentConfig config = ContendedConfig(policy);
  config.trace.mean_interarrival = 2.0;
  config.sim.auction_epsilon_minutes = 5.0;
  return config;
}

ExperimentResult RunBatchedAudited(ExperimentConfig config,
                                   bool streamed = false) {
  std::vector<AppSpec> apps = TraceGenerator(config.trace).Generate();
  std::unique_ptr<Simulator> sim;
  if (streamed) {
    config.sim.retire_finished_apps = true;
    config.sim.arrival_lookahead_minutes = 30.0;
    sim = std::make_unique<Simulator>(
        config.cluster, std::make_unique<VectorTraceReader>(std::move(apps)),
        MakePolicy(config.policy, config.themis), config.sim);
  } else {
    sim = std::make_unique<Simulator>(config.cluster, std::move(apps),
                                      MakePolicy(config.policy, config.themis),
                                      config.sim);
  }
  long long audited = 0;
  sim->set_round_observer([&](const ResourceOffer&, const GrantSet&) {
    AuditRoundCore(sim->round_core());
    AuditSimulatorWalks(sim->round_core());
    ++audited;
  });
  ExperimentResult result = SummarizeRun(config, sim->Run());
  EXPECT_GT(audited, 0);
  EXPECT_EQ(result.rounds_executed, audited);
  return result;
}

class BatchedAuditTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(BatchedAuditTest, WalksHoldAfterEveryCoalescedRound) {
  const ExperimentConfig config = BatchedConfig(GetParam());
  const ExperimentResult batched = RunBatchedAudited(config);
  EXPECT_EQ(batched.unfinished_apps, 0);
  EXPECT_GT(batched.events_processed, 0);
  // The observer changes nothing: the audited run is the plain run.
  const ExperimentResult plain = RunExperiment(config);
  EXPECT_EQ(batched.scheduling_passes, plain.scheduling_passes);
  EXPECT_EQ(batched.events_processed, plain.events_processed);
  EXPECT_EQ(batched.rhos, plain.rhos);
  EXPECT_EQ(batched.completion_times, plain.completion_times);
}

INSTANTIATE_TEST_SUITE_P(Policies, BatchedAuditTest,
                         ::testing::Values(PolicyKind::kThemis,
                                           PolicyKind::kGandiva,
                                           PolicyKind::kTiresias,
                                           PolicyKind::kSlaq,
                                           PolicyKind::kDrf));

TEST(BatchedAudit, HoldsUnderMachineFailures) {
  ExperimentConfig config = BatchedConfig(PolicyKind::kThemis);
  config.sim.machine_mtbf_minutes = 300.0;
  config.sim.machine_repair_minutes = 45.0;
  const ExperimentResult result = RunBatchedAudited(config);
  EXPECT_GT(result.machine_failures, 0);
  EXPECT_EQ(result.unfinished_apps, 0);
}

TEST(BatchedAudit, HoldsOnStreamedTraces) {
  const ExperimentConfig config = BatchedConfig(PolicyKind::kThemis);
  const ExperimentResult result = RunBatchedAudited(config, /*streamed=*/true);
  EXPECT_EQ(result.total_apps,
            static_cast<std::size_t>(config.trace.num_apps));
  EXPECT_EQ(result.unfinished_apps, 0);
}

TEST(BatchedAudit, HoldsPastMaxTimeCutoff) {
  ExperimentConfig config = BatchedConfig(PolicyKind::kThemis);
  config.sim.max_time = 120.0;
  const ExperimentResult result = RunBatchedAudited(config);
  EXPECT_GT(result.unfinished_apps, 0);
}

TEST(BatchedAudit, HoldsWithMetricsTick) {
  ExperimentConfig config = BatchedConfig(PolicyKind::kThemis);
  const ExperimentResult sparse = RunBatchedAudited(config);
  config.sim.metrics_tick_minutes = 7.0;
  const ExperimentResult ticked = RunBatchedAudited(config);
  EXPECT_EQ(ticked.unfinished_apps, 0);
  EXPECT_GT(ticked.timeline.size(), sparse.timeline.size());
}

TEST(EpsilonBatching, ValidateRejectsNegativeWindows) {
  SimConfig cfg;
  cfg.auction_epsilon_minutes = 1.0;
  EXPECT_NO_THROW(cfg.Validate());
  cfg.auction_epsilon_minutes = -0.5;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg.auction_epsilon_minutes = 0.0;
  cfg.metrics_tick_minutes = -1.0;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Scenario JSON knobs.
// --------------------------------------------------------------------------

TEST(Scenario, EpsilonAndMetricsTickKnobsParse) {
  const std::string json = R"({
    "scenarios": [
      { "name": "batched",
        "sim": { "auction_epsilon_minutes": 2.5, "metrics_tick_minutes": 10 } }
    ]
  })";
  const auto specs = LoadScenarios(json);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_DOUBLE_EQ(specs[0].config.sim.auction_epsilon_minutes, 2.5);
  EXPECT_DOUBLE_EQ(specs[0].config.sim.metrics_tick_minutes, 10.0);
}

// "engine" is not a sim key: a scenario file that selects an engine fails
// to load instead of running with the key ignored.
TEST(Scenario, EngineKeyIsRejectedAsUnknown) {
  const std::string json = R"({
    "scenarios": [ { "name": "old", "sim": { "engine": "event" } } ]
  })";
  try {
    LoadScenarios(json);
    ADD_FAILURE() << "sim.engine was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key \"engine\""),
              std::string::npos)
        << e.what();
  }
}

// --------------------------------------------------------------------------
// Bursty trace generation (the sparse arrival shape the event core targets).
// --------------------------------------------------------------------------

TEST(BurstyTrace, ArrivalsComeInBurstsAtExactGaps) {
  TraceConfig cfg;
  cfg.seed = 5;
  cfg.num_apps = 12;
  cfg.burst_size = 4;
  cfg.burst_gap_minutes = 90.0;
  const auto apps = TraceGenerator(cfg).Generate();
  ASSERT_EQ(apps.size(), 12u);
  for (std::size_t i = 0; i < apps.size(); ++i)
    EXPECT_DOUBLE_EQ(apps[i].arrival, static_cast<double>(i / 4) * 90.0) << i;
}

TEST(BurstyTrace, PerAppDrawsMatchPoissonModeApps) {
  // The burst knobs replace only the arrival process: app contents (jobs,
  // models, durations) come from per-app Split() streams and must be
  // unchanged relative to the Poisson-arrival trace with the same seed.
  TraceConfig poisson;
  poisson.seed = 17;
  poisson.num_apps = 10;
  TraceConfig bursty = poisson;
  bursty.burst_size = 5;
  bursty.burst_gap_minutes = 60.0;
  const auto a = TraceGenerator(poisson).Generate();
  const auto b = TraceGenerator(bursty).Generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].jobs.size(), b[i].jobs.size()) << i;
    for (std::size_t j = 0; j < a[i].jobs.size(); ++j) {
      EXPECT_EQ(a[i].jobs[j].total_work, b[i].jobs[j].total_work);
      EXPECT_EQ(a[i].jobs[j].gpus_per_task, b[i].jobs[j].gpus_per_task);
      EXPECT_EQ(a[i].jobs[j].model.name, b[i].jobs[j].model.name);
    }
  }
}

}  // namespace
}  // namespace themis
