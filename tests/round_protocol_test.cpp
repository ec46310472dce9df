// Tests for core/round.h: the offer/bid/grant round protocol.
//
//   - Staging: RunRound never touches the cluster; ApplyGrants is the single
//     lease-application path and rejects double application.
//   - The context carries the round's RhoIndex, which the filter reads.
//   - The simulator records every round's diagnostics and observes every
//     applied grant.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "core/rho_index.h"
#include "core/themis_policy.h"
#include "round_audit.h"
#include "sim/experiment.h"

namespace themis {
namespace {

// ---------------------------------------------------------------------------
// Staging semantics.
// ---------------------------------------------------------------------------

JobSpec RoundJobSpec(double work, int num_tasks, int gpus_per_task) {
  JobSpec spec;
  spec.total_work = work;
  spec.total_iterations = 1000.0;
  spec.num_tasks = num_tasks;
  spec.gpus_per_task = gpus_per_task;
  spec.model = ModelByName("ResNet50");
  spec.loss = LossCurve(0.1 * std::pow(1001.0, 0.6), 0.6, 0.0);
  return spec;
}

std::unique_ptr<AppState> RoundApp(AppId id, std::vector<JobSpec> jobs) {
  auto app = std::make_unique<AppState>();
  app->id = id;
  app->spec.arrival = 0.0;
  app->spec.target_loss = 0.1;
  app->spec.jobs = jobs;
  app->arrived = true;
  JobId next = 0;
  for (const JobSpec& js : jobs) {
    JobState job;
    job.id = next++;
    job.spec = js;
    job.parallelism_cap = js.MaxParallelism();
    app->jobs.push_back(std::move(job));
  }
  app->ideal_time = std::max(1e-9, app->spec.IdealRunningTime());
  return app;
}

TEST(RoundProtocol, RunRoundStagesWithoutTouchingTheCluster) {
  Cluster cluster(ClusterSpec::Uniform(2, 2, 4, 2));
  auto app = RoundApp(0, {RoundJobSpec(40.0, 2, 4)});
  AppList list{app.get()};
  WorkEstimator est({});
  Rng rng(1);

  const ResourceOffer offer = MakeOffer(7, 5.0, 20.0, cluster);
  EXPECT_EQ(offer.TotalGpus(), 16);
  EXPECT_EQ(offer.free_per_machine, cluster.FreeGpusPerMachine());

  RhoIndex index;
  index.Update(app.get());
  SchedulerContext ctx(offer, &cluster, &est, &list, index, &rng);
  ThemisPolicy policy;
  const GrantSet grants = policy.RunRound(offer, ctx);

  // The round carries the offer's identity and lease terms.
  EXPECT_EQ(grants.round_id, 7u);
  EXPECT_DOUBLE_EQ(grants.lease_expiry, 25.0);
  // The job recorded its gang (the AGENT side)...
  EXPECT_EQ(app->GpusHeld(), 8);
  EXPECT_EQ(grants.TotalGpus(), 8);
  // ...but no lease exists until ApplyGrants (the ARBITER side).
  EXPECT_EQ(cluster.num_allocated(), 0);

  EXPECT_EQ(ApplyGrants(grants, cluster), 8);
  EXPECT_EQ(cluster.num_allocated(), 8);
  for (const Grant& g : grants.grants)
    for (GpuId gpu : g.gpus) {
      ASSERT_FALSE(cluster.IsFree(gpu));
      EXPECT_EQ(cluster.lease(gpu)->app, g.app);
      EXPECT_EQ(cluster.lease(gpu)->job, g.job);
      EXPECT_DOUBLE_EQ(cluster.lease(gpu)->expiry, 25.0);
    }

  // Double application would double-grant; the cluster rejects it.
  EXPECT_THROW(ApplyGrants(grants, cluster), std::exception);
}

TEST(RoundProtocol, ContextRejectsGrantsOutsideTheOffer) {
  Cluster cluster(ClusterSpec::Uniform(1, 1, 4, 2));
  cluster.Allocate(0, 9, 0, 100.0);  // GPU 0 is not in the offer
  auto app = RoundApp(0, {RoundJobSpec(40.0, 1, 1)});
  AppList list{app.get()};
  WorkEstimator est({});
  Rng rng(1);
  RhoIndex index;
  SchedulerContext ctx(MakeOffer(0, 0.0, 20.0, cluster), &cluster, &est,
                       &list, index, &rng);
  EXPECT_THROW(ctx.Grant(*app, app->jobs[0], {0}), std::logic_error);
  // Granting the same pooled GPU twice is equally impossible.
  ctx.Grant(*app, app->jobs[0], {1});
  EXPECT_THROW(ctx.Grant(*app, app->jobs[0], {1}), std::logic_error);
}

TEST(RoundProtocol, PoolViewsShrinkAsGrantsAreStaged) {
  Cluster cluster(ClusterSpec::Uniform(1, 2, 4, 2));
  auto app = RoundApp(0, {RoundJobSpec(40.0, 2, 2)});
  AppList list{app.get()};
  WorkEstimator est({});
  Rng rng(1);
  RhoIndex index;
  SchedulerContext ctx(MakeOffer(0, 0.0, 20.0, cluster), &cluster, &est,
                       &list, index, &rng);
  EXPECT_EQ(ctx.free_pool().size(), 8);
  ctx.Grant(*app, app->jobs[0], {0, 1, 4});
  EXPECT_EQ(ctx.free_pool().size(), 5);
  EXPECT_EQ(ctx.free_pool().on_machine(0).size(), 2u);
  const std::span<const GpuId> on_1 = ctx.free_pool().on_machine(1);
  EXPECT_EQ(std::vector<GpuId>(on_1.begin(), on_1.end()),
            (std::vector<GpuId>{5, 6, 7}));
  // The cluster still shows everything free: nothing was applied.
  EXPECT_EQ(cluster.num_free(), 8);

  const GrantSet grants = ctx.TakeGrants();
  EXPECT_EQ(grants.diagnostics.offered_gpus, 8);
  EXPECT_EQ(grants.diagnostics.granted_gpus, 3);
  EXPECT_EQ(grants.diagnostics.leftover_gpus, 5);
}

// The context hands the scheduler the round's RhoIndex itself, and Themis
// filters from it rather than from the app list: an app the index does not
// file is never offered the pool.
TEST(RoundProtocol, ContextCarriesTheIndexItWasBuiltWith) {
  Cluster cluster(ClusterSpec::Uniform(1, 2, 4, 2));
  auto filed = RoundApp(0, {RoundJobSpec(40.0, 1, 2)});
  auto unfiled = RoundApp(1, {RoundJobSpec(40.0, 1, 2)});
  AppList list{filed.get(), unfiled.get()};
  WorkEstimator est({});
  Rng rng(1);
  RhoIndex index;
  index.Update(filed.get());
  SchedulerContext ctx(MakeOffer(0, 0.0, 20.0, cluster), &cluster, &est,
                       &list, index, &rng);
  EXPECT_EQ(ctx.rho_index(), &index);

  ThemisConfig config;
  config.fairness_knob = 0.0;  // offer every candidate the index holds
  const ThemisPolicy policy(config);
  const Agent agent(&ctx.topology(), &ctx.estimator(), ctx.now());
  const std::vector<AppState*> cut = policy.SelectParticipants(ctx, agent);
  ASSERT_EQ(cut.size(), 1u);
  EXPECT_EQ(cut[0], filed.get());
}

// ---------------------------------------------------------------------------
// The simulator's side of the protocol.
// ---------------------------------------------------------------------------

TEST(RoundProtocol, SimulatorRecordsAuctionDiagnostics) {
  // Each round's GrantSet carries its own diagnostics — the per-round home
  // of what used to be stateful ThemisPolicy counters — and the round
  // observer sees them for every round the simulator runs.
  ExperimentConfig config = SimScaleConfig(PolicyKind::kThemis, 42, 10);
  TraceGenerator gen(config.trace);
  Simulator sim(config.cluster, gen.Generate(),
                MakePolicy(config.policy, config.themis), config.sim);
  long long rounds = 0;
  long long auctions = 0;
  sim.set_round_observer(
      [&](const ResourceOffer& offer, const GrantSet& grants) {
        ++rounds;
        const RoundDiagnostics& diag = grants.diagnostics;
        EXPECT_EQ(diag.offered_gpus, offer.TotalGpus());
        EXPECT_EQ(diag.offered_gpus, diag.granted_gpus + diag.leftover_gpus)
            << "round " << offer.round_id;
        EXPECT_EQ(diag.granted_gpus, grants.TotalGpus());
        if (diag.auction_ran) ++auctions;
      });
  sim.Run();
  EXPECT_GT(rounds, 0);
  EXPECT_GT(auctions, 0);
}

// The grant audit is not vacuous: it passes the round the simulator really
// ran, and fails the same round with a GPU granted twice, a grant the
// cluster never leased, or a machine granted more than it offered.
TEST(RoundProtocol, GrantAuditFlagsBrokenRounds) {
  ExperimentConfig config = SimScaleConfig(PolicyKind::kThemis, 42, 10);
  TraceGenerator gen(config.trace);
  Simulator sim(config.cluster, gen.Generate(),
                MakePolicy(config.policy, config.themis), config.sim);
  int checked = 0;
  sim.set_round_observer([&](const ResourceOffer& offer,
                             const GrantSet& grants) {
    if (checked > 0 || grants.grants.empty()) return;
    ++checked;
    auto failures = [&](const ResourceOffer& o, const GrantSet& g) {
      ::testing::TestPartResultArray results;
      {
        const ::testing::ScopedFakeTestPartResultReporter reporter(
            ::testing::ScopedFakeTestPartResultReporter::
                INTERCEPT_ONLY_CURRENT_THREAD,
            &results);
        AuditRoundGrants(sim.round_core(), o, g);
      }
      return results.size();
    };
    EXPECT_EQ(failures(offer, grants), 0);

    GrantSet twice = grants;
    twice.grants.push_back(grants.grants.front());
    EXPECT_GT(failures(offer, twice), 0);

    GrantSet dropped = grants;
    dropped.grants.pop_back();
    EXPECT_GT(failures(offer, dropped), 0);

    ResourceOffer shrunk = offer;
    const GpuId g = grants.grants.front().gpus.front();
    shrunk.free_per_machine[sim.cluster().topology().gpu(g).machine] = 0;
    EXPECT_GT(failures(shrunk, grants), 0);
  });
  sim.Run();
  EXPECT_EQ(checked, 1);
}

TEST(RoundProtocol, RoundObserverSeesEveryAppliedGrant) {
  ExperimentConfig config = SimScaleConfig(PolicyKind::kDrf, 42, 8);
  TraceGenerator gen(config.trace);
  Simulator sim(config.cluster, gen.Generate(),
                MakePolicy(config.policy, config.themis), config.sim);
  long long observed_rounds = 0;
  long long observed_gpus = 0;
  std::uint64_t last_round = 0;
  sim.set_round_observer(
      [&](const ResourceOffer& offer, const GrantSet& grants) {
        ++observed_rounds;
        observed_gpus += grants.TotalGpus();
        EXPECT_GE(offer.round_id, last_round);
        last_round = offer.round_id;
        EXPECT_EQ(grants.diagnostics.offered_gpus, offer.TotalGpus());
        EXPECT_EQ(grants.diagnostics.offered_gpus,
                  grants.diagnostics.granted_gpus +
                      grants.diagnostics.leftover_gpus);
      });
  const SimResult run = sim.Run();
  EXPECT_GT(observed_rounds, 0);
  EXPECT_LE(observed_rounds, run.scheduling_passes);
  EXPECT_GT(observed_gpus, 0);
}

}  // namespace
}  // namespace themis
