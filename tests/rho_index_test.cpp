// Tests for core/rho_index.h, the maintained filter index behind
// ThemisPolicy::SelectParticipants:
//   - a per-round oracle: before every round of whole contended runs
//     (preloaded, streamed, under failures, on mixed generations, with the
//     short-app tie-break off, with a parallel probe, at f = 0 and f = 1,
//     under epsilon batching), the indexed participant cut must equal the
//     literal probe-everything filter (tests/literal_filter.h) id for id,
//     and the checks must leave the run's result unchanged;
//   - the invariant the index rests on: a gangless app probes to exactly
//     kUnboundedRho without touching the estimator's RNG;
//   - the index agrees with a from-scratch classification
//     (ExpectIndexMatchesBruteForce, tests/round_audit.h) after arbitrary
//     event sequences;
//   - the cut follows the comparator's tie-break chain exactly;
//   - the cut's edges: nobody hungry, a sated holder, its size against f.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "core/rho_index.h"
#include "core/themis_policy.h"
#include "literal_filter.h"
#include "round_audit.h"
#include "round_harness.h"
#include "sim/experiment.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace themis {
namespace {

// ---------------------------------------------------------------------------
// Per-round oracle: indexed cut == literal cut before every real round.
// ---------------------------------------------------------------------------

/// Runs ThemisPolicy, but before every round requires SelectParticipants to
/// return the literal filter's ordered ids. Both probes are pure under the
/// clairvoyant estimator, so the wrapped run must equal an unwrapped one.
class FilterOracleScheduler final : public IRoundScheduler {
 public:
  FilterOracleScheduler(ThemisConfig config, int* rounds_checked)
      : policy_(config), config_(config), rounds_checked_(rounds_checked) {}

  GrantSet RunRound(const ResourceOffer& offer,
                    SchedulerContext& ctx) override {
    const Agent agent(&ctx.topology(), &ctx.estimator(), ctx.now());
    const std::vector<AppId> literal =
        AppIds(LiteralFilter(ctx.apps(), agent, config_));
    EXPECT_EQ(AppIds(policy_.SelectParticipants(ctx, agent)), literal)
        << "round " << offer.round_id << " at t=" << offer.time;
    ++*rounds_checked_;
    return policy_.RunRound(offer, ctx);
  }
  const char* name() const override { return "Themis (filter oracle)"; }

 private:
  ThemisPolicy policy_;
  ThemisConfig config_;
  int* rounds_checked_;
};

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
// restarts): everything that can make the two filters diverge.
ExperimentConfig ContendedConfig() {
  ExperimentConfig config;
  config.cluster = ClusterSpec::Uniform(2, 4, 4, 2);
  config.policy = PolicyKind::kThemis;
  config.trace.seed = 33;
  config.trace.num_apps = 25;
  config.trace.jobs_per_app_median = 6.0;
  config.trace.jobs_per_app_max = 12;
  config.sim.seed = 33;
  return config;
}

/// Runs `config` through the oracle and checks the run against the plain
/// RunExperiment / RunStreamingExperiment result.
void ExpectOracleHolds(ExperimentConfig config, bool streamed = false) {
  std::vector<AppSpec> apps = TraceGenerator(config.trace).Generate();
  int checked = 0;
  auto oracle = std::make_unique<FilterOracleScheduler>(config.themis,
                                                        &checked);
  ExperimentResult plain;
  std::unique_ptr<Simulator> sim;
  if (streamed) {
    config.sim.arrival_lookahead_minutes = 30.0;
    config.sim.retire_finished_apps = true;
    plain = RunStreamingExperiment(config,
                                   std::make_unique<VectorTraceReader>(apps));
    sim = std::make_unique<Simulator>(
        config.cluster, std::make_unique<VectorTraceReader>(std::move(apps)),
        std::move(oracle), config.sim);
  } else {
    plain = RunExperiment(config);
    sim = std::make_unique<Simulator>(config.cluster, std::move(apps),
                                      std::move(oracle), config.sim);
  }
  const ExperimentResult checked_run = SummarizeRun(config, sim->Run());
  EXPECT_GT(checked, 0);
  EXPECT_EQ(checked_run.unfinished_apps, 0);
  ExpectSameExperiment(checked_run, plain);
}

TEST(FilterOracle, HoldsEveryRoundPreloaded) {
  ExpectOracleHolds(ContendedConfig());
}

TEST(FilterOracle, HoldsEveryRoundStreamed) {
  ExpectOracleHolds(ContendedConfig(), /*streamed=*/true);
}

TEST(FilterOracle, HoldsEveryRoundUnderMachineFailures) {
  ExperimentConfig config = ContendedConfig();
  config.sim.machine_mtbf_minutes = 300.0;
  config.sim.machine_repair_minutes = 45.0;
  ExpectOracleHolds(config);
}

TEST(FilterOracle, HoldsEveryRoundOnHeterogeneousGenerations) {
  ExperimentConfig config = ContendedConfig();
  ApplyGenerationMix(config.cluster,
                     ParseGenerationMix("K80:0.25,V100:0.5,A100:0.25"));
  ExpectOracleHolds(config);
}

TEST(FilterOracle, HoldsEveryRoundWithShortAppTiebreakOff) {
  ExperimentConfig config = ContendedConfig();
  config.themis.short_app_tiebreak = false;
  ExpectOracleHolds(config);
}

// The holder probe fans out over the thread pool; its cut must still be the
// serial literal scan's.
TEST(FilterOracle, HoldsEveryRoundWithParallelProbe) {
  ExperimentConfig config = ContendedConfig();
  config.themis.auction_threads = 4;
  ExpectOracleHolds(config);
}

// f = 0: the cut is every hungry app, so the whole merge order is checked.
TEST(FilterOracle, HoldsEveryRoundWhenEveryHungryAppIsOffered) {
  ExperimentConfig config = ContendedConfig();
  config.themis.fairness_knob = 0.0;
  ExpectOracleHolds(config);
}

// f = 1: the cut is clamped to the single worst-off app.
TEST(FilterOracle, HoldsEveryRoundWhenOneAppIsOffered) {
  ExperimentConfig config = ContendedConfig();
  config.themis.fairness_knob = 1.0;
  ExpectOracleHolds(config);
}

// Epsilon batching reclaims several leases per round, so more holders go
// gangless between two probes.
TEST(FilterOracle, HoldsEveryRoundUnderEpsilonBatching) {
  ExperimentConfig config = ContendedConfig();
  config.sim.auction_epsilon_minutes = 5.0;
  ExpectOracleHolds(config);
}

// ---------------------------------------------------------------------------
// Dirty-tracking property: after any event sequence, the index agrees with a
// from-scratch classification and ordering.
// ---------------------------------------------------------------------------

JobSpec PropJobSpec(double work, int num_tasks, int gpus_per_task) {
  JobSpec spec;
  spec.total_work = work;
  spec.total_iterations = 1000.0;
  spec.num_tasks = num_tasks;
  spec.gpus_per_task = gpus_per_task;
  spec.model = ModelByName("ResNet50");
  spec.loss = LossCurve(0.1 * std::pow(1001.0, 0.6), 0.6, 0.0);
  return spec;
}

std::unique_ptr<AppState> PropApp(AppId id, double ideal_time, int jobs) {
  auto app = std::make_unique<AppState>();
  app->id = id;
  app->spec.target_loss = 0.1;
  app->arrived = true;
  app->ideal_time = ideal_time;
  for (JobId j = 0; j < static_cast<JobId>(jobs); ++j) {
    JobState job;
    job.id = j;
    job.spec = PropJobSpec(40.0, 2, 2);
    job.parallelism_cap = job.spec.MaxParallelism();
    app->jobs.push_back(std::move(job));
  }
  return app;
}

TEST(RhoIndexProperty, AgreesWithBruteForceAfterRandomEventSequence) {
  Rng rng(2024);
  std::vector<std::unique_ptr<AppState>> apps;
  RhoIndex index;
  const int kApps = 40;
  for (AppId id = 0; id < kApps; ++id) {
    // Duplicate ideal times on purpose so the (ideal_time, id) chain is
    // exercised past its first link.
    apps.push_back(PropApp(id, 1.0 + static_cast<double>(id % 7), 3));
    // Half the population arrives later, through the "arrival" event below.
    apps.back()->arrived = (id % 2 == 0);
    index.Update(apps.back().get());
  }
  ExpectIndexMatchesBruteForce(index, apps, true);

  GpuId next_gpu = 0;
  for (int step = 0; step < 2000; ++step) {
    AppState* app = apps[rng.UniformInt(0, kApps - 1)].get();
    JobState& job = app->jobs[rng.UniformInt(0, 2)];
    switch (rng.UniformInt(0, 6)) {
      case 0:  // grant: the job gains one gang
        job.gpus.push_back(next_gpu++);
        job.gpus.push_back(next_gpu++);
        break;
      case 1:  // lease expiry / failure revocation: the job loses its gang
        job.gpus.clear();
        break;
      case 2:  // tuner kill
        job.alive = false;
        job.gpus.clear();
        break;
      case 3:  // tuner cap change (can zero or restore UnmetDemand)
        job.parallelism_cap = rng.UniformInt(0, job.spec.MaxParallelism());
        break;
      case 4:  // arrival
        app->arrived = true;
        break;
      case 5:  // app finish: all gangs revoked
        app->finished = true;
        for (JobState& j : app->jobs) j.gpus.clear();
        break;
      default:  // no-op event: Update must be idempotent
        break;
    }
    index.Update(app);
    if (step % 100 == 99) ExpectIndexMatchesBruteForce(index, apps, true);
  }
  ExpectIndexMatchesBruteForce(index, apps, true);
}

TEST(RhoIndexProperty, SetTiebreakReordersTheUnboundedClass) {
  std::vector<std::unique_ptr<AppState>> apps;
  RhoIndex index;
  // Descending ideal times so (ideal, id) order differs from id order.
  for (AppId id = 0; id < 6; ++id) {
    apps.push_back(PropApp(id, 10.0 - static_cast<double>(id), 1));
    index.Update(apps.back().get());
  }
  ExpectIndexMatchesBruteForce(index, apps, true);
  index.SetTiebreak(false);
  ExpectIndexMatchesBruteForce(index, apps, false);
  index.SetTiebreak(true);
  ExpectIndexMatchesBruteForce(index, apps, true);
}

// ---------------------------------------------------------------------------
// The invariant the index rests on.
// ---------------------------------------------------------------------------

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// A gangless app's rho is the kUnboundedRho constant, bit for bit, and the
// probe that computes it never reaches the estimator: under kNoisy the next
// RemainingWork draw equals a same-seed twin's that skipped the probe. A
// holder's probe does draw, which shows the twin comparison can fail.
TEST(RhoIndexInvariant, GanglessProbeIsTheConstantAndDrawsNothing) {
  Cluster cluster(ClusterSpec::Uniform(2, 2, 4, 2));
  EstimatorConfig noisy;
  noisy.mode = EstimationMode::kNoisy;
  noisy.theta = 0.15;
  noisy.seed = 11;
  auto app = PropApp(0, 5.0, 3);
  app->jobs[0].done = 12.0;  // progress does not bound a gangless app
  const JobSpec& spec = app->jobs[1].spec;
  ASSERT_GT(app->UnmetDemand(), 0);

  WorkEstimator probed(noisy), twin(noisy);
  const double rho = Agent(&cluster.topology(), &probed, 30.0).CurrentRho(*app);
  EXPECT_EQ(Bits(rho), Bits(kUnboundedRho));
  EXPECT_EQ(Bits(probed.RemainingWork(spec, 100.0, 0.1)),
            Bits(twin.RemainingWork(spec, 100.0, 0.1)));

  app->jobs[0].gpus = {0, 1};
  WorkEstimator holder_probed(noisy), holder_twin(noisy);
  const double bounded =
      Agent(&cluster.topology(), &holder_probed, 30.0).CurrentRho(*app);
  EXPECT_LT(bounded, kUnboundedRho);
  EXPECT_NE(Bits(holder_probed.RemainingWork(spec, 100.0, 0.1)),
            Bits(holder_twin.RemainingWork(spec, 100.0, 0.1)));
}

// ---------------------------------------------------------------------------
// Tie-break-chain exactness through the policy's indexed cut, checked
// against the literal oracle.
// ---------------------------------------------------------------------------

struct World {
  World() : cluster(ClusterSpec::Uniform(2, 2, 4, 2)), est({}), rng(7) {}
  Cluster cluster;
  WorkEstimator est;
  Rng rng;
  RoundHarness harness{cluster, est, rng};
  std::vector<std::unique_ptr<AppState>> apps;

  void AddApp(AppId id, double ideal_time) {
    apps.push_back(PropApp(id, ideal_time, 1));
  }

  /// One round through the oracle-checked policy.
  GrantSet Schedule(ThemisConfig cfg) {
    int checked = 0;
    FilterOracleScheduler policy(cfg, &checked);
    GrantSet grants = harness.SyncAndRun(policy, apps);
    EXPECT_EQ(checked, 1);
    return grants;
  }
};

// All-unbounded population with colliding and distinct ideal times: the cut
// must follow (ideal_time asc, id asc) exactly when short_app_tiebreak is
// set, and (id asc) when it is not.
TEST(TiebreakExactness, IndexedCutMatchesLiteralCutOnPureTies) {
  for (const bool short_tiebreak : {true, false}) {
    World world;
    for (AppId id = 0; id < 8; ++id)
      world.AddApp(id, (id < 4) ? 5.0 : 9.0 - static_cast<double>(id));
    ThemisConfig cfg;
    cfg.fairness_knob = 0.9;  // ceil(0.1 * 8) = 1 participant: the head app
    cfg.short_app_tiebreak = short_tiebreak;
    const GrantSet grants = world.Schedule(cfg);
    EXPECT_EQ(grants.diagnostics.auction_participants, 1);
    // The auction's grant (staged before any leftovers) goes to the
    // comparator's head app: with the short-app tie-break, the smallest
    // ideal_time (app 7, ideal 2.0); without it, the smallest id.
    ASSERT_FALSE(grants.grants.empty());
    EXPECT_EQ(grants.grants[0].app, short_tiebreak ? 7 : 0);
  }
}

// Mixed population: holders with bounded rho interleaved with gangless apps.
// The indexed merge must land the bounded apps at the same comparator
// positions the full sort gives them.
TEST(TiebreakExactness, MergePlacesBoundedHoldersExactly) {
  for (const double knob : {0.0, 0.5, 0.9}) {
    World world;
    for (AppId id = 0; id < 6; ++id)
      world.AddApp(id, 4.0 + static_cast<double>(id));
    // Apps 1 and 4 hold one whole gang each (bounded rho, still hungry).
    world.cluster.Allocate(/*gpu=*/0, 1, 0, 20.0);
    world.cluster.Allocate(/*gpu=*/1, 1, 0, 20.0);
    world.apps[1]->jobs[0].gpus = {0, 1};
    world.cluster.Allocate(/*gpu=*/8, 4, 0, 20.0);
    world.cluster.Allocate(/*gpu=*/9, 4, 0, 20.0);
    world.apps[4]->jobs[0].gpus = {8, 9};
    ThemisConfig cfg;
    cfg.fairness_knob = knob;
    const GrantSet grants = world.Schedule(cfg);
    EXPECT_TRUE(grants.diagnostics.auction_ran);
  }
}

// An app that loses its whole gang re-enters the unbounded class with
// last_rho pinned back to the constant — the stale bounded value from its
// holder rounds must not leak into the merge comparator.
TEST(TiebreakExactness, ReleasedHolderRejoinsUnboundedClassFresh) {
  std::vector<std::unique_ptr<AppState>> apps;
  apps.push_back(PropApp(0, 5.0, 1));
  RhoIndex index;
  AppState* app = apps[0].get();
  app->jobs[0].gpus = {0, 1};
  index.Update(app);
  ASSERT_EQ(index.holders().size(), 1u);
  app->last_rho = 3.25;  // what a holder probe might have cached

  app->jobs[0].gpus.clear();  // lease expiry
  index.Update(app);
  EXPECT_TRUE(index.holders().empty());
  ASSERT_EQ(index.num_unbounded(), 1u);
  EXPECT_EQ(app->last_rho, kUnboundedRho);
}

// ---------------------------------------------------------------------------
// Cut edges, through the oracle-checked policy.
// ---------------------------------------------------------------------------

// No app is hungry: both filters return nothing and the round runs no
// auction and stages no grant.
TEST(FilterCut, EmptyWhenNoAppIsHungry) {
  World world;
  for (AppId id = 0; id < 4; ++id) {
    world.AddApp(id, 3.0 + static_cast<double>(id));
    world.apps.back()->jobs[0].parallelism_cap = 0;
  }
  const GrantSet grants = world.Schedule(ThemisConfig{});
  EXPECT_FALSE(grants.diagnostics.auction_ran);
  EXPECT_TRUE(grants.grants.empty());
}

// A holder whose demand is met is re-probed (its last_rho becomes bounded)
// but is not a candidate, so it neither joins the cut nor counts toward N.
TEST(FilterCut, SatedHolderIsProbedButNotOffered) {
  World world;
  for (AppId id = 0; id < 3; ++id)
    world.AddApp(id, 4.0 + static_cast<double>(id));
  AppState& sated = *world.apps[0];
  world.cluster.Allocate(/*gpu=*/0, 0, 0, 20.0);
  world.cluster.Allocate(/*gpu=*/1, 0, 0, 20.0);
  sated.jobs[0].gpus = {0, 1};
  sated.jobs[0].parallelism_cap = 2;  // one gang: already held
  ASSERT_EQ(sated.UnmetDemand(), 0);
  ThemisConfig cfg;
  cfg.fairness_knob = 0.0;  // offer every candidate
  const GrantSet grants = world.Schedule(cfg);
  EXPECT_LT(sated.last_rho, kUnboundedRho);
  EXPECT_EQ(grants.diagnostics.auction_participants, 2);
  for (const Grant& grant : grants.grants) EXPECT_NE(grant.app, 0);
}

// The cut is max(1, ceil((1-f) N)) of the N hungry apps, here N = 7.
TEST(FilterCut, SizeIsTheCeilingOfTheUnfairFraction) {
  const std::pair<double, int> cases[] = {
      {0.0, 7}, {0.2, 6}, {0.5, 4}, {0.8, 2}, {0.9, 1}, {1.0, 1}};
  for (const auto& [knob, expected] : cases) {
    World world;
    for (AppId id = 0; id < 7; ++id)
      world.AddApp(id, 2.0 + static_cast<double>(id));
    ThemisConfig cfg;
    cfg.fairness_knob = knob;
    const GrantSet grants = world.Schedule(cfg);
    EXPECT_EQ(grants.diagnostics.auction_participants, expected)
        << "f = " << knob;
  }
}

}  // namespace
}  // namespace themis
