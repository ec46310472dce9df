// Tests for core/themis_policy.h: the ARBITER's offer filtering (fairness
// knob), auction-driven grants, and work-conserving leftover allocation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>

#include "core/rho_index.h"
#include "core/themis_policy.h"
#include "leftover_oracle.h"
#include "round_harness.h"
#include "workload/trace_gen.h"

namespace themis {
namespace {

JobSpec MakeJobSpec(double work, int num_tasks, int gpus_per_task,
                    const char* model = "ResNet50") {
  JobSpec spec;
  spec.total_work = work;
  spec.total_iterations = 1000.0;
  spec.num_tasks = num_tasks;
  spec.gpus_per_task = gpus_per_task;
  spec.model = ModelByName(model);
  spec.loss = LossCurve(0.1 * std::pow(1001.0, 0.6), 0.6, 0.0);
  return spec;
}

std::unique_ptr<AppState> MakeApp(AppId id, Time arrival,
                                  std::vector<JobSpec> jobs) {
  auto app = std::make_unique<AppState>();
  app->id = id;
  app->spec.arrival = arrival;
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

class ThemisPolicyTest : public ::testing::Test {
 protected:
  ThemisPolicyTest()
      : cluster_(ClusterSpec::Uniform(2, 2, 4, 2)), est_({}), rng_(1) {}

  GrantSet Schedule(ThemisPolicy& policy, Time now = 0.0) {
    return harness_.SyncAndRun(policy, apps_, now);
  }

  Cluster cluster_;
  WorkEstimator est_;
  Rng rng_;
  RoundHarness harness_{cluster_, est_, rng_};
  std::vector<std::unique_ptr<AppState>> apps_;
};

TEST_F(ThemisPolicyTest, SingleAppGetsItsFullDemand) {
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 4)}));
  ThemisPolicy policy;
  Schedule(policy);
  EXPECT_EQ(apps_[0]->GpusHeld(), 8);
  EXPECT_EQ(cluster_.num_allocated(), 8);
}

TEST_F(ThemisPolicyTest, GrantsAreLeasedToTheRightJob) {
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 4)}));
  ThemisPolicy policy;
  Schedule(policy);
  const std::vector<GpuId>& held = apps_[0]->jobs[0].gpus;
  EXPECT_EQ(held.size(), 4u);
  for (GpuId g : held) {
    ASSERT_TRUE(cluster_.lease(g).has_value());
    EXPECT_EQ(cluster_.lease(g)->app, 0u);
    EXPECT_EQ(cluster_.lease(g)->job, 0u);
    EXPECT_EQ(cluster_.lease(g)->expiry, 20.0);
  }
  EXPECT_EQ(cluster_.num_allocated(), 4);
}

TEST_F(ThemisPolicyTest, WorstRhoAppWinsUnderContention) {
  // App 0 already holds a gang (bounded rho); app 1 holds nothing
  // (unbounded rho). With f = 0.8 and two hungry apps only app 1 is offered
  // the pool, and must win the remaining GPUs it can use.
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 2)}));
  apps_.push_back(MakeApp(1, 0.0, {MakeJobSpec(40.0, 2, 2)}));
  cluster_.Allocate(0, 0, 0, 20.0);
  cluster_.Allocate(1, 0, 0, 20.0);
  apps_[0]->jobs[0].gpus = {0, 1};

  ThemisConfig cfg;
  cfg.fairness_knob = 0.8;
  ThemisPolicy policy(cfg);
  Schedule(policy);
  EXPECT_EQ(apps_[1]->GpusHeld(), 4);  // full demand of the starved app
}

TEST_F(ThemisPolicyTest, WorkConservationFillsLeftoverDemand) {
  // Three 4-GPU-hungry apps on 16 GPUs: everything that fits a gang must be
  // allocated after the pass, regardless of f.
  for (AppId i = 0; i < 3; ++i)
    apps_.push_back(MakeApp(i, 0.0, {MakeJobSpec(40.0, 2, 4)}));
  ThemisConfig cfg;
  cfg.fairness_knob = 0.9;
  ThemisPolicy policy(cfg);
  Schedule(policy);
  int held = 0;
  for (auto& app : apps_) held += app->GpusHeld();
  EXPECT_EQ(held, 16);
  EXPECT_EQ(cluster_.num_free(), 0);
}

TEST_F(ThemisPolicyTest, LeftoverGoesToNonParticipantsFirst) {
  // f = 0.5 over two hungry apps -> only the worse one participates. The
  // other (non-participant) should still receive leftovers rather than the
  // pool going unused once the winner's demand is met.
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 4)}));  // demand 4
  apps_.push_back(MakeApp(1, 0.0, {MakeJobSpec(40.0, 1, 4)}));  // demand 4
  ThemisConfig cfg;
  cfg.fairness_knob = 0.5;
  ThemisPolicy policy(cfg);
  Schedule(policy);
  EXPECT_EQ(apps_[0]->GpusHeld() + apps_[1]->GpusHeld(), 8);
  EXPECT_GT(apps_[0]->GpusHeld(), 0);
  EXPECT_GT(apps_[1]->GpusHeld(), 0);
}

TEST_F(ThemisPolicyTest, FairnessKnobControlsParticipantCount) {
  // 4 hungry apps; f = 0.75 -> ceil(0.25 * 4) = 1 participant; the probe
  // still updates everyone's cached rho.
  for (AppId i = 0; i < 4; ++i)
    apps_.push_back(MakeApp(i, 0.0, {MakeJobSpec(40.0, 1, 2)}));
  ThemisConfig cfg;
  cfg.fairness_knob = 0.75;
  ThemisPolicy policy(cfg);
  Schedule(policy);
  for (auto& app : apps_) EXPECT_GT(app->last_rho, 0.0);
  // All demand fits (4 apps x 2 GPUs = 8 <= 16): work conservation feeds
  // non-participants too.
  for (auto& app : apps_) EXPECT_EQ(app->GpusHeld(), 2);
}

TEST_F(ThemisPolicyTest, NoDemandNoGrants) {
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 2)}));
  apps_[0]->jobs[0].gpus = {0, 1};
  cluster_.Allocate(0, 0, 0, 20.0);
  cluster_.Allocate(1, 0, 0, 20.0);
  ThemisPolicy policy;
  Schedule(policy);
  EXPECT_EQ(apps_[0]->GpusHeld(), 2);
  EXPECT_EQ(cluster_.num_allocated(), 2);
}

TEST_F(ThemisPolicyTest, PlacementSensitiveAppGetsColocatedGang) {
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 4, "VGG16")}));
  ThemisPolicy policy;
  Schedule(policy);
  const auto& gpus = apps_[0]->jobs[0].gpus;
  ASSERT_EQ(gpus.size(), 4u);
  EXPECT_LE(static_cast<int>(cluster_.topology().SpanLevel(gpus)),
            static_cast<int>(LocalityLevel::kMachine));
}

TEST_F(ThemisPolicyTest, DeterministicAcrossIdenticalRuns) {
  auto run_once = [&]() {
    Cluster cluster(ClusterSpec::Uniform(2, 2, 4, 2));
    std::vector<std::unique_ptr<AppState>> apps;
    for (AppId i = 0; i < 3; ++i)
      apps.push_back(MakeApp(i, 0.0, {MakeJobSpec(40.0, 2, 2)}));
    WorkEstimator est({});
    Rng rng(7);
    ThemisPolicy policy;
    RoundHarness(cluster, est, rng).SyncAndRun(policy, apps);
    std::vector<std::vector<GpuId>> out;
    for (auto& a : apps)
      for (const JobState& job : a->jobs) out.push_back(job.gpus);
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(ThemisPolicyTest, RoundDiagnosticsReportTheAuction) {
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 2)}));
  ThemisPolicy policy;
  const GrantSet grants = Schedule(policy);
  EXPECT_TRUE(grants.diagnostics.auction_ran);
  EXPECT_EQ(grants.diagnostics.auction_participants, 1);
  EXPECT_EQ(grants.diagnostics.offered_gpus, 16);
  EXPECT_EQ(grants.diagnostics.granted_gpus, 2);
  EXPECT_EQ(grants.diagnostics.leftover_gpus, 14);
  EXPECT_EQ(grants.TotalGpus(), 2);
}

TEST_F(ThemisPolicyTest, DiagnosticsResetEveryRound) {
  // The old stateful counters accumulated across simulator runs when a
  // policy instance was reused; per-round GrantSet diagnostics must not.
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 2)}));
  ThemisPolicy policy;
  const GrantSet first = Schedule(policy);
  EXPECT_EQ(first.diagnostics.granted_gpus, 2);
  // Demand met: the next round offers the remaining 14 GPUs, grants none.
  const GrantSet second = Schedule(policy);
  EXPECT_EQ(second.diagnostics.offered_gpus, 14);
  EXPECT_EQ(second.diagnostics.granted_gpus, 0);
  EXPECT_FALSE(second.diagnostics.auction_ran);
  EXPECT_TRUE(second.grants.empty());
}

// ---------------------------------------------------------------------------
// The leftover stage against the reference loop in tests/leftover_oracle.h.

/// One random leftover stage on a 256-GPU cluster, built from `seed` alone
/// so two worlds with the same arguments are identical: 1-40 apps with 1-4
/// jobs each (shapes drawn from the trace generator, re-shaped to gangs of
/// 1, 2, 4 or 8 GPUs and up to 24 tasks). A third of the jobs hold random
/// whole gangs, now and then one GPU short or over, on shuffled GPUs, so
/// big apps spread over many machines; some jobs are killed, finished or
/// capped, some carry a placement constraint. The offer is a random
/// ascending subset of the GPUs nobody holds — what an auction left, empty
/// one time in eight — and each app took part in the auction with
/// probability 0.3.
struct LeftoverWorld {
  LeftoverWorld(std::uint64_t seed, bool mixed, EstimationMode mode)
      : cluster(mixed ? ClusterSpec::Simulation256Mixed()
                      : ClusterSpec::Simulation256()),
        estimator(EstimatorConfig{mode, mode == EstimationMode::kNoisy ? 0.2 : 0.0,
                                  seed ^ 0x5eedull}),
        rng(seed * 31 + 7) {
    Rng gen(seed);
    const Topology& topo = cluster.topology();
    std::vector<GpuId> free(topo.num_gpus());
    for (GpuId g = 0; g < static_cast<GpuId>(free.size()); ++g) free[g] = g;
    gen.Shuffle(free);
    now = gen.Uniform(1.0, 500.0);
    const int gangs[] = {1, 2, 4, 8};
    const LocalityLevel spans[] = {LocalityLevel::kSlot,
                                   LocalityLevel::kMachine,
                                   LocalityLevel::kRack,
                                   LocalityLevel::kCrossRack};
    const int num_apps = gen.UniformInt(1, 40);
    for (int a = 0; a < num_apps; ++a) {
      TraceConfig trace;
      trace.seed = gen.NextU64();
      trace.num_apps = 1;
      trace.jobs_per_app_median = 2.0;
      trace.jobs_per_app_max = 4;
      auto app = std::make_unique<AppState>();
      app->id = static_cast<AppId>(a);
      app->spec = TraceGenerator(trace).Generate().front();
      app->spec.arrival = gen.Uniform(0.0, now);
      app->arrived = true;
      JobId next = 0;
      for (JobSpec& js : app->spec.jobs) {
        js.gpus_per_task = gangs[gen.UniformInt(0, 3)];
        js.num_tasks = gen.UniformInt(1, 24);
        js.max_span = gen.UniformInt(0, 3) == 0 ? spans[gen.UniformInt(0, 3)]
                                                : LocalityLevel::kCrossRack;
        JobState job;
        job.id = next++;
        job.spec = js;
        job.done = js.total_work * gen.Uniform(0.0, 0.9);
        job.parallelism_cap =
            js.gpus_per_task * gen.UniformInt(1, js.num_tasks);
        const int fate = gen.UniformInt(0, 9);
        if (fate == 0) job.alive = false;
        if (fate == 1) job.finished = true;
        int held = gen.UniformInt(0, 2) != 0
                       ? 0
                       : js.gpus_per_task *
                             gen.UniformInt(0, job.parallelism_cap /
                                                   js.gpus_per_task);
        if (gen.UniformInt(0, 7) == 0) held += gen.UniformInt(-1, 1);
        for (int k = 0; k < held && !free.empty(); ++k) {
          job.gpus.push_back(free.back());
          cluster.Allocate(free.back(), app->id, job.id, now + 20.0);
          free.pop_back();
        }
        app->jobs.push_back(std::move(job));
      }
      app->ideal_time = std::max(1e-9, app->spec.IdealRunningTime());
      index.Update(app.get());
      apps.push_back(app.get());
      if (gen.NextDouble() < 0.3) participants.push_back(app.get());
      owned.push_back(std::move(app));
    }
    const double keep = gen.UniformInt(0, 7) == 0 ? 0.0 : gen.Uniform(0.05, 1.0);
    offer.time = now;
    offer.lease_duration = 20.0;
    for (GpuId g : free)
      if (gen.NextDouble() < keep) offer.gpus.push_back(g);
    std::sort(offer.gpus.begin(), offer.gpus.end());
  }

  Cluster cluster;
  WorkEstimator estimator;
  Rng rng;  // the round's RNG
  Time now = 0.0;
  std::vector<std::unique_ptr<AppState>> owned;
  AppList apps;
  RhoIndex index;
  std::vector<AppState*> participants;
  ResourceOffer offer;
};

class LeftoverOracle
    : public ::testing::TestWithParam<std::tuple<bool, EstimationMode>> {};

TEST_P(LeftoverOracle, StagesTheReferenceGrantsAndDraws) {
  const auto [mixed, mode] = GetParam();
  long long grants = 0;
  int contested = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    LeftoverWorld fast(seed, mixed, mode);
    LeftoverWorld ref(seed, mixed, mode);
    SchedulerContext fast_ctx(fast.offer, &fast.cluster, &fast.estimator,
                              &fast.apps, fast.index, &fast.rng);
    SchedulerContext ref_ctx(ref.offer, &ref.cluster, &ref.estimator,
                             &ref.apps, ref.index, &ref.rng);
    const Agent agent(&fast.cluster.topology(), &fast.estimator, fast.now);
    AllocateLeftovers(fast_ctx, agent, fast.participants);
    oracle::AllocateLeftovers(ref_ctx, ref.participants);

    const GrantSet got = fast_ctx.TakeGrants();
    const GrantSet want = ref_ctx.TakeGrants();
    ASSERT_EQ(got.grants.size(), want.grants.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.grants.size(); ++i) {
      EXPECT_EQ(got.grants[i].app, want.grants[i].app) << "seed " << seed;
      EXPECT_EQ(got.grants[i].job, want.grants[i].job) << "seed " << seed;
      ASSERT_EQ(got.grants[i].gpus, want.grants[i].gpus)
          << "seed " << seed << " grant " << i;
    }
    grants += static_cast<long long>(got.grants.size());
    std::set<AppId> winners;
    for (const Grant& g : got.grants) winners.insert(g.app);
    if (winners.size() > 1) ++contested;

    // Both streams must sit at the same place: the round's RNG drew once
    // per gang, and the estimator was asked the same sequence.
    EXPECT_EQ(fast.rng.NextU64(), ref.rng.NextU64()) << "seed " << seed;
    const JobSpec& probe = fast.owned.front()->jobs.front().spec;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  fast.estimator.RemainingWork(probe, 0.0, 0.1)),
              std::bit_cast<std::uint64_t>(
                  ref.estimator.RemainingWork(probe, 0.0, 0.1)))
        << "seed " << seed;
  }
  // The stages must hand out real leftovers, to several apps at a time.
  EXPECT_GT(grants, 2500) << grants;
  EXPECT_GT(contested, 150) << contested;
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, LeftoverOracle,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(EstimationMode::kClairvoyant,
                                         EstimationMode::kNoisy)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "Mixed" : "Uniform") +
             (std::get<1>(info.param) == EstimationMode::kNoisy
                  ? "Noisy"
                  : "Clairvoyant");
    });

TEST(LeftoverOracleJobOrder, MatchesStableSortWithTiedWork) {
  // Jobs copied from one spec at the same progress tie on remaining work,
  // so only the tie-break by job index orders them.
  Rng gen(20261019);
  int ties = 0;
  // One buffer for every call, as the leftover stage keeps it: a stale
  // entry left from a longer order would show up here.
  std::vector<std::pair<Work, int>> order;
  for (const EstimationMode mode :
       {EstimationMode::kClairvoyant, EstimationMode::kNoisy}) {
    EstimatorConfig cfg{mode, mode == EstimationMode::kNoisy ? 0.2 : 0.0, 17};
    WorkEstimator fast_est(cfg);
    WorkEstimator ref_est(cfg);
    const Topology topo(ClusterSpec::Simulation256());
    for (int n = 0; n < 200; ++n) {
      std::vector<JobSpec> specs;
      const int shapes = gen.UniformInt(1, 3);
      for (int s = 0; s < shapes; ++s)
        specs.push_back(MakeJobSpec(gen.Uniform(10.0, 100.0), 2, 1));
      std::vector<JobSpec> jobs;
      // Past 16 jobs std::sort stops being an insertion sort, so a sort
      // that ignored the index would reorder ties.
      const int num_jobs = gen.UniformInt(1, 40);
      for (int j = 0; j < num_jobs; ++j)
        jobs.push_back(specs[gen.UniformInt(0, shapes - 1)]);
      auto app = MakeApp(static_cast<AppId>(n), 0.0, jobs);
      for (JobState& job : app->jobs) {
        job.done = gen.UniformInt(0, 1) == 0 ? 0.0 : job.spec.total_work / 2;
        const int fate = gen.UniformInt(0, 7);
        if (fate == 0) job.alive = false;
        if (fate == 1) job.finished = true;
      }
      const Agent agent(&topo, &fast_est, 0.0);
      agent.JobPriorityOrder(*app, order);
      std::vector<int> got;
      for (const auto& [left, j] : order) got.push_back(j);
      const std::vector<int> want = oracle::JobPriorityOrder(*app, ref_est);
      ASSERT_EQ(got, want) << "app " << n;
      for (std::size_t i = 1; i < got.size(); ++i)
        if (app->jobs[got[i - 1]].spec.total_work ==
                app->jobs[got[i]].spec.total_work &&
            app->jobs[got[i - 1]].done == app->jobs[got[i]].done)
          ++ties;
    }
    // Same draw position afterwards: one call per active job, nothing more.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  fast_est.RemainingWork(MakeJobSpec(50.0, 1, 1), 0.0, 0.1)),
              std::bit_cast<std::uint64_t>(
                  ref_est.RemainingWork(MakeJobSpec(50.0, 1, 1), 0.0, 0.1)));
  }
  EXPECT_GT(ties, 100);
}

}  // namespace
}  // namespace themis
