// Tests for common/parallel.h and the parallel ARBITER round phases behind
// ThemisConfig::auction_threads: parallel rounds must be pinned
// bit-identical to the serial loop (results, fingerprints, grant streams,
// diagnostics) across every policy, failures, heterogeneous generations and
// streamed traces; the stateful estimator modes must silently fall back to
// the serial path with identical RNG streams; the ThreadPool itself must
// honor its chunking, exception and reuse contracts; and a negative thread
// budget is rejected at every entry point.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"
#include "round_audit.h"
#include "server/arbiter_core.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace themis {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool unit suite.
// ---------------------------------------------------------------------------

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{64}, std::size_t{1000}}) {
    for (const int threads : {1, 2, 3, 8}) {
      for (const std::size_t grain : {std::size_t{0}, std::size_t{1},
                                      std::size_t{13}, n + 5}) {
        std::vector<std::atomic<int>> hits(n);
        for (auto& h : hits) h.store(0);
        pool.ParallelFor(n, threads,
                         [&](std::size_t i) { hits[i].fetch_add(1); }, grain);
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " threads=" << threads
                                       << " grain=" << grain << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, SerialBudgetRunsInlineInAscendingOrder) {
  ThreadPool pool;
  std::vector<std::size_t> order;
  pool.ParallelFor(100, /*max_threads=*/1,
                   [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  // And no worker threads were spawned for it.
  EXPECT_EQ(pool.num_workers(), 0);
}

TEST(ThreadPool, GrowsOnDemandAndNeverShrinks) {
  ThreadPool pool;
  EXPECT_EQ(pool.num_workers(), 0);
  pool.ParallelFor(32, 3, [](std::size_t) {});
  EXPECT_EQ(pool.num_workers(), 2);  // caller + 2 helpers = 3 executors
  pool.ParallelFor(32, 2, [](std::size_t) {});
  EXPECT_EQ(pool.num_workers(), 2);  // smaller request: no shrink
  pool.ParallelFor(32, 5, [](std::size_t) {});
  EXPECT_EQ(pool.num_workers(), 4);
  pool.EnsureWorkers(ThreadPool::kMaxWorkers + 100);
  EXPECT_EQ(pool.num_workers(), ThreadPool::kMaxWorkers);
}

TEST(ThreadPool, ReusableAcrossManySubmits) {
  ThreadPool pool;
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round)
    pool.ParallelFor(50, 4, [&](std::size_t i) {
      total.fetch_add(static_cast<long>(i));
    });
  EXPECT_EQ(total.load(), 200L * (49 * 50 / 2));
  EXPECT_EQ(pool.num_workers(), 3);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool;
  EXPECT_THROW(
      pool.ParallelFor(100, 4,
                       [](std::size_t i) {
                         if (i == 37) throw std::runtime_error("bid failed");
                       },
                       /*grain=*/1),
      std::runtime_error);
  // The pool must stay fully usable after a failed job.
  std::atomic<int> ran{0};
  pool.ParallelFor(100, 4, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ExceptionOnSerialPathPropagatesToo) {
  ThreadPool pool;
  EXPECT_THROW(pool.ParallelFor(10, 1,
                                [](std::size_t i) {
                                  if (i == 3) throw std::logic_error("x");
                                }),
               std::logic_error);
}

TEST(ThreadPool, NestedParallelForCompletesWithoutDeadlock) {
  // A ParallelFor issued from inside a pool task (an auction round inside a
  // sweep scenario) must complete even when every worker is busy: the inner
  // caller drains its own chunks.
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(8, 4, [&](std::size_t) {
    pool.ParallelFor(16, 4,
                     [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPool, GlobalPoolIsSharedAndFreeFunctionUsesIt) {
  std::atomic<int> ran{0};
  ParallelFor(64, 4, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64);
  EXPECT_GE(ThreadPool::Global().num_workers(), 3);
}

// ---------------------------------------------------------------------------
// Bit-identical equivalence: parallel vs. serial rounds, whole experiments.
// ---------------------------------------------------------------------------

void ExpectSameExperiment(const ExperimentResult& a,
                          const ExperimentResult& b) {
  EXPECT_EQ(a.max_fairness, b.max_fairness);
  EXPECT_EQ(a.median_fairness, b.median_fairness);
  EXPECT_EQ(a.min_fairness, b.min_fairness);
  EXPECT_EQ(a.jains_index, b.jains_index);
  EXPECT_EQ(a.avg_completion_time, b.avg_completion_time);
  EXPECT_EQ(a.gpu_time, b.gpu_time);
  EXPECT_EQ(a.peak_contention, b.peak_contention);
  EXPECT_EQ(a.unfinished_apps, b.unfinished_apps);
  EXPECT_EQ(a.machine_failures, b.machine_failures);
  EXPECT_EQ(a.scheduling_passes, b.scheduling_passes);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.sim_time_advances, b.sim_time_advances);
  EXPECT_EQ(a.finished_apps, b.finished_apps);
  EXPECT_EQ(a.rhos, b.rhos);
  EXPECT_EQ(a.completion_times, b.completion_times);
  EXPECT_EQ(a.placement_scores, b.placement_scores);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].time, b.timeline[i].time);
    EXPECT_EQ(a.timeline[i].app, b.timeline[i].app);
    EXPECT_EQ(a.timeline[i].gpus, b.timeline[i].gpus);
  }
}

// Contended mixed workload (multi-job tuned apps, overlapping lifetimes,
// restarts): plenty of multi-participant auctions for the parallel phases.
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

ExperimentResult RunWithThreads(ExperimentConfig config, int threads) {
  config.themis.auction_threads = threads;
  return RunExperiment(config);
}

class ParallelRoundEquivalenceTest
    : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(ParallelRoundEquivalenceTest, ThreadCountsMatchSerialBitForBit) {
  const ExperimentConfig config = ContendedConfig(GetParam());
  const ExperimentResult serial = RunWithThreads(config, 0);
  EXPECT_EQ(serial.unfinished_apps, 0);
  EXPECT_GT(serial.rounds_executed, 0);
  for (const int threads : {1, 2, 8}) {
    const ExperimentResult parallel = RunWithThreads(config, threads);
    ExpectSameExperiment(serial, parallel);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, ParallelRoundEquivalenceTest,
                         ::testing::Values(PolicyKind::kThemis,
                                           PolicyKind::kGandiva,
                                           PolicyKind::kTiresias,
                                           PolicyKind::kSlaq,
                                           PolicyKind::kDrf));

TEST(ParallelRoundEquivalence, HoldsUnderMachineFailures) {
  ExperimentConfig config = ContendedConfig(PolicyKind::kThemis);
  config.sim.machine_mtbf_minutes = 300.0;
  config.sim.machine_repair_minutes = 45.0;
  const ExperimentResult serial = RunWithThreads(config, 0);
  const ExperimentResult parallel = RunWithThreads(config, 8);
  EXPECT_GT(serial.machine_failures, 0);
  ExpectSameExperiment(serial, parallel);
}

TEST(ParallelRoundEquivalence, HoldsOnHeterogeneousGenerations) {
  ExperimentConfig config = ContendedConfig(PolicyKind::kThemis);
  ApplyGenerationMix(config.cluster,
                     ParseGenerationMix("K80:0.25,V100:0.5,A100:0.25"));
  const ExperimentResult serial = RunWithThreads(config, 0);
  const ExperimentResult parallel = RunWithThreads(config, 8);
  ExpectSameExperiment(serial, parallel);
}

TEST(ParallelRoundEquivalence, HoldsOnStreamedTraces) {
  const ExperimentConfig base = ContendedConfig(PolicyKind::kThemis);
  const auto apps = TraceGenerator(base.trace).Generate();
  auto run = [&](int threads) {
    ExperimentConfig config = base;
    config.themis.auction_threads = threads;
    config.sim.arrival_lookahead_minutes = 30.0;
    config.sim.retire_finished_apps = true;
    return RunStreamingExperiment(config,
                                  std::make_unique<VectorTraceReader>(apps));
  };
  const ExperimentResult serial = run(0);
  const ExperimentResult parallel = run(8);
  ExpectSameExperiment(serial, parallel);
  EXPECT_EQ(serial.total_apps, apps.size());
}

// The round audits hold after every round of a parallel run, and the
// audited run is still the serial one bit for bit.
TEST(ParallelRoundEquivalence, RoundAuditsHoldAtEightThreads) {
  ExperimentConfig config = ContendedConfig(PolicyKind::kThemis);
  config.themis.auction_threads = 8;
  Simulator sim(config.cluster, TraceGenerator(config.trace).Generate(),
                MakePolicy(config.policy, config.themis), config.sim);
  long long audited = 0;
  sim.set_round_observer([&](const ResourceOffer& offer,
                             const GrantSet& grants) {
    AuditRoundCore(sim.round_core());
    AuditRoundGrants(sim.round_core(), offer, grants);
    ++audited;
  });
  const ExperimentResult parallel = SummarizeRun(config, sim.Run());
  EXPECT_GT(audited, 0);
  EXPECT_EQ(parallel.rounds_executed, audited);
  ExpectSameExperiment(RunWithThreads(config, 0), parallel);
}

// ---------------------------------------------------------------------------
// Stateful estimator modes: silent serial fallback, identical RNG streams.
// ---------------------------------------------------------------------------

TEST(ParallelRoundFallback, NoisyEstimatorFallsBackToSerialExactly) {
  // kNoisy draws one RNG sample per RemainingWork call, so its estimator
  // call *sequence* is part of the result. A parallel thread budget must
  // change nothing: the round silently takes the serial path, and every
  // downstream random decision — hence the whole experiment — is
  // bit-identical to auction_threads = 0.
  ExperimentConfig config = ContendedConfig(PolicyKind::kThemis);
  config.sim.estimator.mode = EstimationMode::kNoisy;
  config.sim.estimator.theta = 0.15;
  const ExperimentResult serial = RunWithThreads(config, 0);
  for (const int threads : {2, 8}) {
    const ExperimentResult parallel = RunWithThreads(config, threads);
    ExpectSameExperiment(serial, parallel);
  }
}

TEST(ParallelRoundFallback, CurveFitEstimatorFallsBackToSerialExactly) {
  ExperimentConfig config = ContendedConfig(PolicyKind::kThemis);
  config.sim.estimator.mode = EstimationMode::kCurveFit;
  const ExperimentResult serial = RunWithThreads(config, 0);
  const ExperimentResult parallel = RunWithThreads(config, 8);
  ExpectSameExperiment(serial, parallel);
}

// ---------------------------------------------------------------------------
// Config plumbing and validation.
// ---------------------------------------------------------------------------

// One check on ThemisConfig covers every entry point and every policy kind.
TEST(ParallelRoundConfig, NegativeAuctionThreadsIsRejected) {
  ThemisConfig themis;
  themis.auction_threads = -1;
  EXPECT_THROW(themis.Validate(), std::invalid_argument);
  for (const PolicyKind kind : {PolicyKind::kThemis, PolicyKind::kTiresias}) {
    ExperimentConfig config = ContendedConfig(kind);
    config.themis = themis;
    EXPECT_THROW(RunExperiment(config), std::invalid_argument);
    EXPECT_THROW(RunStreamingExperiment(
                     config, std::make_unique<VectorTraceReader>(
                                 TraceGenerator(config.trace).Generate())),
                 std::invalid_argument);
  }
  server::ArbiterConfig arbiter;
  arbiter.themis = themis;
  EXPECT_THROW(server::ArbiterCore core(arbiter), std::invalid_argument);
}

TEST(ParallelRoundConfig, ScenarioKeyIsThemisAuctionThreads) {
  const auto specs = LoadScenarios(R"({
    "scenarios": [ { "name": "t", "themis": { "auction_threads": 4 } } ]
  })");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].config.themis.auction_threads, 4);
  EXPECT_THROW(LoadScenarios(R"({
    "scenarios": [ { "name": "t", "themis": { "auction_threads": -2 } } ]
  })"),
               std::invalid_argument);
  // The thread budget is a themis key only; under sim it fails the load.
  EXPECT_THROW(LoadScenarios(R"({
    "scenarios": [ { "name": "t", "sim": { "round_threads": 4 } } ]
  })"),
               std::runtime_error);
}

TEST(ParallelRoundConfig, SweepRunnerStaysBitIdenticalOnTheSharedPool) {
  // RunParallel now rides the shared pool; the documented "parallel ==
  // serial" sweep property must survive the migration.
  const std::vector<ScenarioSpec> grid = PolicySeedGrid(
      ContendedConfig(PolicyKind::kThemis),
      {PolicyKind::kThemis, PolicyKind::kTiresias}, {33, 34});
  const std::vector<ScenarioRun> serial = SweepRunner(1).Run(grid);
  const std::vector<ScenarioRun> parallel = SweepRunner(4).Run(grid);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
    ExpectSameExperiment(serial[i].result, parallel[i].result);
  }
}

}  // namespace
}  // namespace themis
