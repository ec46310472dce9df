// Property-style sweeps (TEST_P) over seeds and policies: simulator
// invariants that must hold for every run — conservation of work, lease
// exclusivity (enforced by Cluster's throwing invariants), bounded rho,
// deterministic replay — plus PA mechanism properties on random instances.
#include <gtest/gtest.h>

#include <cmath>

#include "auction/partial_allocation.h"
#include "common/rng.h"
#include "sim/experiment.h"

namespace themis {
namespace {

struct SweepParam {
  PolicyKind policy;
  std::uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  return std::string(ToString(info.param.policy)) + "_seed" +
         std::to_string(info.param.seed);
}

class SimInvariantTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SimInvariantTest, EveryAppFinishesExactlyOnceWithSaneMetrics) {
  const auto param = GetParam();
  auto cfg = SimScaleConfig(param.policy, param.seed, 35);
  cfg.trace.contention_factor = 2.0;
  const ExperimentResult r = RunExperiment(cfg);

  // Completion: all 35 apps finish, none twice.
  EXPECT_EQ(r.unfinished_apps, 0);
  EXPECT_EQ(r.rhos.size(), 35u);

  for (std::size_t i = 0; i < r.rhos.size(); ++i) {
    // rho >= ~1: nobody finishes faster than running alone, ideally placed.
    EXPECT_GT(r.rhos[i], 0.95) << "app " << i;
    EXPECT_TRUE(std::isfinite(r.rhos[i]));
    EXPECT_GT(r.completion_times[i], 0.0);
  }
  for (double s : r.placement_scores) {
    EXPECT_GE(s, 0.4 - 1e-9);
    EXPECT_LE(s, 1.0 + 1e-9);
  }
  // GPU time can never undercut the total useful work performed (S <= 1
  // means every serial GPU-minute costs at least one allocated GPU-minute).
  EXPECT_GT(r.gpu_time, 0.0);
  EXPECT_GE(r.jains_index, 0.0);
  EXPECT_LE(r.jains_index, 1.0 + 1e-9);
}

TEST_P(SimInvariantTest, ReplayIsBitIdentical) {
  const auto param = GetParam();
  auto cfg = SimScaleConfig(param.policy, param.seed, 20);
  const ExperimentResult a = RunExperiment(cfg);
  const ExperimentResult b = RunExperiment(cfg);
  EXPECT_EQ(a.rhos, b.rhos);
  EXPECT_EQ(a.completion_times, b.completion_times);
  EXPECT_DOUBLE_EQ(a.gpu_time, b.gpu_time);
  EXPECT_DOUBLE_EQ(a.max_fairness, b.max_fairness);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, SimInvariantTest,
    ::testing::Values(SweepParam{PolicyKind::kThemis, 1},
                      SweepParam{PolicyKind::kThemis, 2},
                      SweepParam{PolicyKind::kThemis, 3},
                      SweepParam{PolicyKind::kGandiva, 1},
                      SweepParam{PolicyKind::kGandiva, 2},
                      SweepParam{PolicyKind::kTiresias, 1},
                      SweepParam{PolicyKind::kTiresias, 2},
                      SweepParam{PolicyKind::kSlaq, 1},
                      SweepParam{PolicyKind::kSlaq, 2}),
    ParamName);

class PaRandomInstanceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PaRandomInstanceTest, MechanismInvariantsHold) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const int machines = rng.UniformInt(1, 6);
    std::vector<int> offered(machines);
    int total_offered = 0;
    for (int& o : offered) {
      o = rng.UniformInt(0, 4);
      total_offered += o;
    }
    const int n_apps = rng.UniformInt(1, 6);
    std::vector<BidTable> bids;
    for (int i = 0; i < n_apps; ++i) {
      BidTable t;
      t.app = static_cast<AppId>(i);
      const double rho0 = rng.Uniform(2.0, 100.0);
      BidRow zero;
      zero.gpus_per_machine.assign(machines, 0);
      zero.rho = rho0;
      t.rows.push_back(zero);
      const int rows = rng.UniformInt(0, 4);
      for (int r = 0; r < rows; ++r) {
        BidRow row;
        row.gpus_per_machine.resize(machines);
        int total = 0;
        for (int m = 0; m < machines; ++m) {
          row.gpus_per_machine[m] = rng.UniformInt(0, offered[m]);
          total += row.gpus_per_machine[m];
        }
        if (total == 0) continue;
        row.rho = rho0 / (1.0 + rng.Uniform(0.1, 2.0) * total);
        t.rows.push_back(row);
      }
      bids.push_back(std::move(t));
    }

    std::vector<const BidTable*> borrowed;
    for (const BidTable& t : bids) borrowed.push_back(&t);
    const PaResult result = PartialAllocation(borrowed, offered);
    ASSERT_EQ(result.winners.size(), bids.size());

    std::vector<int> used(machines, 0);
    for (std::size_t i = 0; i < result.winners.size(); ++i) {
      const PaWinner& w = result.winners[i];
      // Hidden payments: retention in [0, 1].
      EXPECT_GE(w.c, 0.0);
      EXPECT_LE(w.c, 1.0);
      // Grant <= c * chosen row, elementwise (floor).
      const BidRow& row = bids[i].rows[w.row];
      for (int m = 0; m < machines; ++m) {
        EXPECT_GE(w.granted[m], 0);
        EXPECT_LE(w.granted[m], row.gpus_per_machine[m]);
        used[m] += w.granted[m];
      }
    }
    // Feasibility + leftover accounting.
    for (int m = 0; m < machines; ++m) {
      EXPECT_LE(used[m], offered[m]);
      EXPECT_EQ(result.leftover[m], offered[m] - used[m]);
    }
  }
}

TEST_P(PaRandomInstanceTest, RemovingABidderNeverHurtsTheOthers) {
  // The c_i <= 1 property follows from R_pf^{-i} being at least as good for
  // the others; verify that welfare-without-i >= others' welfare-with-i.
  Rng rng(GetParam() * 31 + 5);
  const int machines = 3;
  const std::vector<int> offered{3, 3, 3};
  std::vector<BidTable> bids;
  const int n_apps = 4;
  for (int i = 0; i < n_apps; ++i) {
    BidTable t;
    t.app = static_cast<AppId>(i);
    const double rho0 = rng.Uniform(2.0, 50.0);
    BidRow zero;
    zero.gpus_per_machine.assign(machines, 0);
    zero.rho = rho0;
    t.rows.push_back(zero);
    for (int r = 0; r < 3; ++r) {
      BidRow row;
      row.gpus_per_machine.assign(machines, 0);
      row.gpus_per_machine[rng.UniformInt(0, machines - 1)] =
          rng.UniformInt(1, 3);
      row.rho = rho0 / (1.0 + row.TotalGpus());
      t.rows.push_back(row);
    }
    bids.push_back(std::move(t));
  }

  PaConfig cfg;
  cfg.max_nodes = 1'000'000;
  std::vector<const BidTable*> all;
  for (const BidTable& t : bids) all.push_back(&t);
  const PfSolution full = SolveProportionalFair(all, offered, cfg);
  for (int drop = 0; drop < n_apps; ++drop) {
    std::vector<const BidTable*> others;
    double others_log_in_full = 0.0;
    for (int i = 0; i < n_apps; ++i) {
      if (i == drop) continue;
      others.push_back(&bids[i]);
      others_log_in_full += std::log(bids[i].rows[full.rows[i]].Value());
    }
    const PfSolution without = SolveProportionalFair(others, offered, cfg);
    EXPECT_GE(without.log_welfare, others_log_in_full - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaRandomInstanceTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

class LeaseSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(LeaseSweepTest, SimCompletesAcrossLeaseDurations) {
  auto cfg = SimScaleConfig(PolicyKind::kThemis, 77, 30);
  cfg.sim.lease_minutes = GetParam();
  const ExperimentResult r = RunExperiment(cfg);
  EXPECT_EQ(r.unfinished_apps, 0);
  EXPECT_GT(r.max_fairness, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Fig4cLeases, LeaseSweepTest,
                         ::testing::Values(5.0, 10.0, 20.0, 30.0, 40.0));

class KnobSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(KnobSweepTest, SimCompletesAcrossFairnessKnobs) {
  auto cfg = SimScaleConfig(PolicyKind::kThemis, 78, 30);
  cfg.themis.fairness_knob = GetParam();
  const ExperimentResult r = RunExperiment(cfg);
  EXPECT_EQ(r.unfinished_apps, 0);
}

INSTANTIATE_TEST_SUITE_P(Fig4aKnobs, KnobSweepTest,
                         ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.8, 1.0));


// Cluster-shape sweep: the scheduler must behave on degenerate topologies
// (single-GPU machines, one big machine, odd slot sizes), not just the
// paper's two clusters.
struct ShapeParam {
  int racks;
  int machines;
  int gpus;
  int slot;
};

class ClusterShapeTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(ClusterShapeTest, ThemisCompletesOnAnyTopology) {
  const ShapeParam p = GetParam();
  ExperimentConfig cfg;
  cfg.cluster = ClusterSpec::Uniform(p.racks, p.machines, p.gpus, p.slot);
  cfg.policy = PolicyKind::kThemis;
  cfg.trace.seed = 321;
  cfg.trace.num_apps = 10;
  cfg.trace.jobs_per_app_median = 3.0;
  cfg.trace.jobs_per_app_max = 6;
  // Keep gangs feasible on tiny clusters: 2-GPU tasks only.
  cfg.trace.frac_four_gpu_tasks =
      (p.racks * p.machines * p.gpus >= 8) ? 0.7 : 0.0;
  cfg.sim.lease_minutes = 10.0;
  const ExperimentResult r = RunExperiment(cfg);
  EXPECT_EQ(r.unfinished_apps, 0)
      << p.racks << "x" << p.machines << "x" << p.gpus;
  for (double rho : r.rhos) EXPECT_GT(rho, 0.9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClusterShapeTest,
    ::testing::Values(ShapeParam{1, 1, 8, 2},    // one big machine
                      ShapeParam{1, 8, 2, 2},    // all 2-GPU machines
                      ShapeParam{2, 4, 4, 4},    // whole-machine slots
                      ShapeParam{4, 2, 4, 1},    // 1-GPU slots (no NVLink)
                      ShapeParam{1, 16, 2, 1},   // wide flat cluster
                      ShapeParam{3, 3, 3, 3}));  // odd sizes

TEST(ShapeEdgeCases, TinyClusterWithBigGangsStarvesGracefully) {
  // A job demanding a 4-GPU gang on a 2-GPU cluster can never run; the
  // simulator must hit max_time and report it (not hang or crash).
  AppSpec app;
  app.arrival = 0.0;
  app.tuner = TunerKind::kNone;
  app.target_loss = 0.1;
  JobSpec job;
  job.total_work = 10.0;
  job.total_iterations = 100.0;
  job.num_tasks = 1;
  job.gpus_per_task = 4;
  job.model = ModelByName("ResNet50");
  job.loss = LossCurve(0.1 * std::pow(101.0, 0.6), 0.6, 0.0);
  app.jobs = {job};
  ExperimentConfig cfg;
  cfg.cluster = ClusterSpec::Uniform(1, 1, 2, 2);
  cfg.policy = PolicyKind::kThemis;
  cfg.sim.max_time = 100.0;  // bounded: the run must return promptly
  const ExperimentResult r = RunExperimentWithApps(cfg, {app});
  EXPECT_EQ(r.unfinished_apps, 1);
}

}  // namespace
}  // namespace themis
