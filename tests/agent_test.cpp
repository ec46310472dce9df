// Tests for core/agent.h: rho estimation (Sec. 5.2 steps 1-7), valuation
// tables, and app-internal GPU distribution.
#include <gtest/gtest.h>

#include <cmath>

#include "core/agent.h"

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

class AgentTest : public ::testing::Test {
 protected:
  AgentTest() : topo_(ClusterSpec::Uniform(2, 2, 4, 2)), est_({}) {}

  Topology topo_;
  WorkEstimator est_;
};

TEST_F(AgentTest, NoAllocationMeansUnboundedRho) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 2)});
  Agent agent(&topo_, &est_, 10.0);
  EXPECT_DOUBLE_EQ(agent.CurrentRho(*app), kUnboundedRho);
}

TEST_F(AgentTest, CurrentRhoMatchesHandComputation) {
  // T_ID = 40 / 4 = 10. With 2 slot-local GPUs at t=5:
  // T_SH = 5 + 40/2 = 25 -> rho = 2.5.
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 2)});
  app->jobs[0].gpus = {0, 1};
  Agent agent(&topo_, &est_, 5.0);
  EXPECT_NEAR(agent.CurrentRho(*app), 2.5, 1e-9);
}

TEST_F(AgentTest, RhoUsesPlacementSlowdown) {
  // Same GPUs count but spanning racks: VGG16 pays S = 0.35.
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 2, "VGG16")});
  app->jobs[0].gpus = {0, 8};  // cross-rack pair
  Agent agent(&topo_, &est_, 0.0);
  const double s = ModelByName("VGG16").sensitivity.cross_rack;
  EXPECT_NEAR(agent.CurrentRho(*app), (40.0 / (2.0 * s)) / 10.0, 1e-9);
}

TEST_F(AgentTest, MinOverJobsPicksBestJob) {
  // Two jobs; only the second (short) one has GPUs: it drives T_SH.
  auto app = MakeApp(0, 0.0, {MakeJobSpec(80.0, 1, 2), MakeJobSpec(20.0, 1, 2)});
  app->jobs[1].gpus = {0, 1};
  Agent agent(&topo_, &est_, 0.0);
  // T_ID = min(80/2, 20/2) = 10; T_SH = 20/2 = 10 -> rho = 1.
  EXPECT_NEAR(agent.CurrentRho(*app), 1.0, 1e-9);
}

TEST_F(AgentTest, PartialGangContributesNothing) {
  // 3 GPUs with 2-GPU gangs: only 2 usable; with 1 GPU: none usable.
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 2)});
  app->jobs[0].gpus = {0};
  Agent agent(&topo_, &est_, 0.0);
  EXPECT_DOUBLE_EQ(agent.CurrentRho(*app), kUnboundedRho);
  app->jobs[0].gpus = {0, 1, 2};
  EXPECT_NEAR(agent.CurrentRho(*app), (40.0 / 2.0) / 10.0, 1e-9);
}

TEST_F(AgentTest, HypotheticalRhoImprovesWithExtraGpus) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 2)});
  app->jobs[0].gpus = {0, 1};
  Agent agent(&topo_, &est_, 5.0);
  const double current = agent.CurrentRho(*app);
  const double with_extra = agent.HypotheticalRho(*app, {2, 3});
  EXPECT_LT(with_extra, current);
}

TEST_F(AgentTest, FinishedAndDeadJobsAreIgnored) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 2), MakeJobSpec(40.0, 1, 2)});
  app->jobs[0].gpus = {0, 1};
  app->jobs[0].alive = false;  // killed: its GPUs don't count
  Agent agent(&topo_, &est_, 0.0);
  EXPECT_DOUBLE_EQ(agent.CurrentRho(*app), kUnboundedRho);
}

TEST_F(AgentTest, BidTableShapeIsValid) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 2), MakeJobSpec(60.0, 1, 2)});
  Agent agent(&topo_, &est_, 0.0);
  const std::vector<GpuId> offered{0, 1, 2, 3, 4, 5};
  const AgentBid bid = agent.PrepareBid(*app, offered, 6);

  std::vector<int> offered_vec(topo_.num_machines(), 0);
  for (GpuId g : offered) ++offered_vec[topo_.gpu(g).machine];
  EXPECT_EQ(ValidateBid(bid.table, offered_vec), "");
  EXPECT_EQ(bid.table.rows.size(), bid.row_gpus.size());
  EXPECT_LE(bid.table.rows.size(), 7u);  // zero row + max_rows

  // rho weakly improves with bigger bundles.
  for (std::size_t r = 1; r < bid.table.rows.size(); ++r) {
    EXPECT_LE(bid.table.rows[r].rho, bid.table.rows[r - 1].rho + 1e-9);
    EXPECT_EQ(bid.table.rows[r].TotalGpus(),
              static_cast<int>(bid.row_gpus[r].size()));
  }
}

TEST_F(AgentTest, BidRowsAreGangMultiples) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 3, 4)});
  Agent agent(&topo_, &est_, 0.0);
  std::vector<GpuId> offered;
  for (GpuId g = 0; g < 16; ++g) offered.push_back(g);
  const AgentBid bid = agent.PrepareBid(*app, offered, 6);
  for (std::size_t r = 1; r < bid.table.rows.size(); ++r)
    EXPECT_EQ(bid.table.rows[r].TotalGpus() % 4, 0);
  // Largest row covers the whole demand (12 = 3 tasks x 4 GPUs).
  EXPECT_EQ(bid.table.rows.back().TotalGpus(), 12);
}

TEST_F(AgentTest, BidRespectsParallelismCap) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 4, 2)});
  app->jobs[0].parallelism_cap = 4;  // tuner demoted the job
  Agent agent(&topo_, &est_, 0.0);
  std::vector<GpuId> offered;
  for (GpuId g = 0; g < 16; ++g) offered.push_back(g);
  const AgentBid bid = agent.PrepareBid(*app, offered, 6);
  EXPECT_EQ(bid.table.rows.back().TotalGpus(), 4);
}

TEST_F(AgentTest, ZeroDemandAppBidsOnlyZeroRow) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 1, 2)});
  app->jobs[0].gpus = {0, 1};  // demand met
  Agent agent(&topo_, &est_, 0.0);
  const AgentBid bid = agent.PrepareBid(*app, {2, 3, 4}, 6);
  EXPECT_EQ(bid.table.rows.size(), 1u);
}

TEST_F(AgentTest, DistributePrefersShortestRemainingJob) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(80.0, 1, 2), MakeJobSpec(20.0, 1, 2)});
  Agent agent(&topo_, &est_, 0.0);
  std::vector<std::pair<Work, int>> order;
  agent.JobPriorityOrder(*app, order);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].second, 1);  // 20 < 80

  const auto assignments = agent.DistributeToJobs(*app, {0, 1});
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].job_index, 1);
  EXPECT_EQ(assignments[0].gpus.size(), 2u);
}

TEST_F(AgentTest, DistributeHonorsGangsAndCaps) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 2, 4)});
  Agent agent(&topo_, &est_, 0.0);
  // 6 GPUs with 4-GPU gangs: only one gang fits.
  const auto assignments = agent.DistributeToJobs(*app, {0, 1, 2, 3, 4, 5});
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].gpus.size(), 4u);
}

TEST_F(AgentTest, DistributeSpillsToSecondJob) {
  auto app = MakeApp(0, 0.0, {MakeJobSpec(20.0, 1, 2), MakeJobSpec(80.0, 1, 2)});
  Agent agent(&topo_, &est_, 0.0);
  const auto assignments = agent.DistributeToJobs(*app, {0, 1, 2, 3});
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].job_index, 0);
  EXPECT_EQ(assignments[1].job_index, 1);
}

TEST_F(AgentTest, ValuationHomogeneity) {
  // V = 1/rho must be homogeneous of degree ~1: doubling the allocation on
  // the same machines halves rho (when no elapsed time blurs it).
  auto app = MakeApp(0, 0.0, {MakeJobSpec(40.0, 4, 2)});
  Agent agent(&topo_, &est_, 0.0);
  const double rho_2 = agent.HypotheticalRho(*app, {0, 1});
  const double rho_4 = agent.HypotheticalRho(*app, {0, 1, 2, 3});
  // {0,1} is slot-local, {0,1,2,3} machine-local; ResNet50 machine S = 0.99.
  const double s = ModelByName("ResNet50").sensitivity.machine;
  EXPECT_NEAR(rho_2 / rho_4, 2.0 * s, 1e-6);
}

}  // namespace
}  // namespace themis
