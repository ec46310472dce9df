// Tests for baselines/: the Gandiva / Tiresias / SLAQ emulations of Sec. 8.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/drf.h"
#include "baselines/gandiva.h"
#include "baselines/slaq.h"
#include "baselines/tiresias.h"
#include "round_harness.h"

namespace themis {
namespace {

JobSpec MakeJobSpec(double work, int num_tasks, int gpus_per_task,
                    double decay = 0.6, const char* model = "ResNet50") {
  JobSpec spec;
  spec.total_work = work;
  spec.total_iterations = 1000.0;
  spec.num_tasks = num_tasks;
  spec.gpus_per_task = gpus_per_task;
  spec.model = ModelByName(model);
  spec.loss = LossCurve(0.1 * std::pow(1001.0, decay), decay, 0.0);
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

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest()
      : cluster_(ClusterSpec::Uniform(2, 2, 4, 2)), est_({}), rng_(1) {}

  void Schedule(IRoundScheduler& policy, Time now = 0.0) {
    harness_.SyncAndRun(policy, apps_, now);
  }

  Cluster cluster_;
  WorkEstimator est_;
  Rng rng_;
  RoundHarness harness_{cluster_, est_, rng_};
  std::vector<std::unique_ptr<AppState>> apps_;
};

TEST_F(BaselineTest, TiresiasServesLeastAttainedServiceFirst) {
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 4)}));
  apps_.push_back(MakeApp(1, 0.0, {MakeJobSpec(40.0, 1, 4)}));
  apps_[0]->attained_service = 100.0;
  apps_[1]->attained_service = 5.0;

  // Only one gang available.
  for (GpuId g = 4; g < 16; ++g) cluster_.Allocate(g, 99, 0, 100.0);
  TiresiasPolicy policy;
  Schedule(policy);
  EXPECT_EQ(apps_[1]->GpusHeld(), 4);
  EXPECT_EQ(apps_[0]->GpusHeld(), 0);
}

TEST_F(BaselineTest, TiresiasIsPlacementUnaware) {
  // Free GPUs: one on each of four machines plus a full machine; Tiresias
  // takes ids in order, spreading the gang, instead of packing.
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 4, 0.6, "VGG16")}));
  // Block GPUs so the lowest ids span machines: free = {3, 7, 11, 15, ...}.
  for (GpuId g = 0; g < 16; ++g)
    if (g % 4 != 3) cluster_.Allocate(g, 99, 0, 100.0);
  TiresiasPolicy policy;
  Schedule(policy);
  ASSERT_EQ(apps_[0]->jobs[0].gpus.size(), 4u);
  EXPECT_EQ(cluster_.topology().SpanLevel(apps_[0]->jobs[0].gpus),
            LocalityLevel::kCrossRack);
}

TEST_F(BaselineTest, TiresiasRoundRobinsAcrossEqualService) {
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 4)}));
  apps_.push_back(MakeApp(1, 0.0, {MakeJobSpec(40.0, 2, 4)}));
  TiresiasPolicy policy;
  Schedule(policy);
  // 16 GPUs, demand 8 + 8: both fully served.
  EXPECT_EQ(apps_[0]->GpusHeld(), 8);
  EXPECT_EQ(apps_[1]->GpusHeld(), 8);
}

TEST_F(BaselineTest, GandivaPacksGangsForLocality) {
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 4, 0.6, "VGG16")}));
  GandivaPolicy policy;
  Schedule(policy);
  ASSERT_EQ(apps_[0]->jobs[0].gpus.size(), 4u);
  EXPECT_LE(static_cast<int>(
                cluster_.topology().SpanLevel(apps_[0]->jobs[0].gpus)),
            static_cast<int>(LocalityLevel::kMachine));
}

TEST_F(BaselineTest, GandivaGrowsJobsNearTheirExistingGpus) {
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 2)}));
  apps_[0]->jobs[0].gpus = {4, 5};
  cluster_.Allocate(4, 0, 0, 100.0);
  cluster_.Allocate(5, 0, 0, 100.0);
  GandivaPolicy policy;
  Schedule(policy);
  ASSERT_EQ(apps_[0]->jobs[0].gpus.size(), 4u);
  // The second gang lands on the same machine (GPUs 6, 7).
  EXPECT_EQ(cluster_.topology().SpanLevel(apps_[0]->jobs[0].gpus),
            LocalityLevel::kMachine);
}

TEST_F(BaselineTest, GandivaIsWorkConserving) {
  for (AppId i = 0; i < 4; ++i)
    apps_.push_back(MakeApp(i, 0.0, {MakeJobSpec(40.0, 1, 4)}));
  GandivaPolicy policy;
  Schedule(policy);
  EXPECT_EQ(cluster_.num_free(), 0);
}

TEST_F(BaselineTest, SlaqPrefersSteeperLossCurves) {
  // decay 1.2 converges much faster than 0.3: bigger marginal loss drop.
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(400.0, 1, 4, 0.3)}));
  apps_.push_back(MakeApp(1, 0.0, {MakeJobSpec(400.0, 1, 4, 1.2)}));
  // Single gang available.
  for (GpuId g = 4; g < 16; ++g) cluster_.Allocate(g, 99, 0, 100.0);
  SlaqPolicy policy;
  Schedule(policy);
  EXPECT_EQ(apps_[1]->GpusHeld(), 4);
  EXPECT_EQ(apps_[0]->GpusHeld(), 0);
}

TEST_F(BaselineTest, SlaqStillServesConvergedJobsWhenUncontested) {
  // A nearly converged job has ~zero marginal loss decrease, but SLAQ must
  // stay work conserving.
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 4)}));
  apps_[0]->jobs[0].done = 39.99;
  SlaqPolicy policy;
  Schedule(policy);
  EXPECT_EQ(apps_[0]->GpusHeld(), 4);
}

TEST_F(BaselineTest, AllBaselinesHonorGangGranularity) {
  for (auto make : {+[]() -> std::unique_ptr<IRoundScheduler> {
                      return std::make_unique<GandivaPolicy>();
                    },
                    +[]() -> std::unique_ptr<IRoundScheduler> {
                      return std::make_unique<TiresiasPolicy>();
                    },
                    +[]() -> std::unique_ptr<IRoundScheduler> {
                      return std::make_unique<SlaqPolicy>();
                    }}) {
    Cluster cluster(ClusterSpec::Uniform(1, 1, 4, 2));
    std::vector<std::unique_ptr<AppState>> apps;
    apps.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 3)}));  // 3-GPU gangs
    WorkEstimator est({});
    Rng rng(1);
    auto policy = make();
    RoundHarness(cluster, est, rng).SyncAndRun(*policy, apps);
    // 4 free GPUs, 3-GPU gangs: exactly one gang granted.
    EXPECT_EQ(apps[0]->GpusHeld(), 3) << policy->name();
  }
}


TEST_F(BaselineTest, DrfServesSmallestInstantaneousShareFirst) {
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 4)}));
  apps_.push_back(MakeApp(1, 0.0, {MakeJobSpec(40.0, 2, 4)}));
  // App 0 already holds a gang.
  apps_[0]->jobs[0].gpus = {0, 1, 2, 3};
  for (GpuId g = 0; g < 4; ++g) cluster_.Allocate(g, 0, 0, 100.0);
  // Only one more gang free.
  for (GpuId g = 8; g < 16; ++g) cluster_.Allocate(g, 99, 0, 100.0);
  DrfPolicy policy;
  Schedule(policy);
  EXPECT_EQ(apps_[1]->GpusHeld(), 4);  // the zero-share app wins
  EXPECT_EQ(apps_[0]->GpusHeld(), 4);
}

TEST_F(BaselineTest, DrfEqualizesSharesRoundRobin) {
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 4)}));
  apps_.push_back(MakeApp(1, 0.0, {MakeJobSpec(40.0, 2, 4)}));
  DrfPolicy policy;
  Schedule(policy);
  EXPECT_EQ(apps_[0]->GpusHeld(), 8);
  EXPECT_EQ(apps_[1]->GpusHeld(), 8);
}

TEST_F(BaselineTest, DrfIsPlacementUnaware) {
  apps_.push_back(MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 4, 0.6, "VGG16")}));
  for (GpuId g = 0; g < 16; ++g)
    if (g % 4 != 3) cluster_.Allocate(g, 99, 0, 100.0);
  DrfPolicy policy;
  Schedule(policy);
  ASSERT_EQ(apps_[0]->jobs[0].gpus.size(), 4u);
  EXPECT_EQ(cluster_.topology().SpanLevel(apps_[0]->jobs[0].gpus),
            LocalityLevel::kCrossRack);
}

}  // namespace
}  // namespace themis
