// Tests for core/themis_policy.h: the ARBITER's offer filtering (fairness
// knob), auction-driven grants, and work-conserving leftover allocation.
#include <gtest/gtest.h>

#include <cmath>

#include "core/themis_policy.h"
#include "round_harness.h"

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

}  // namespace
}  // namespace themis
