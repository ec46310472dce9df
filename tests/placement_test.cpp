// Tests for placement/: model profiles, slowdown arithmetic, placement
// scores, greedy locality-aware and fastest-first GPU picking and their
// GpuPool, checked against the reference pickers in placement_oracle.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>

#include "common/rng.h"
#include "placement/model_profile.h"
#include "placement/placement_model.h"
#include "placement_oracle.h"

namespace themis {
namespace {

TEST(ModelProfile, CanonicalModelsMatchFig2Roster) {
  const auto& models = CanonicalModels();
  ASSERT_EQ(models.size(), 5u);
  for (const char* name :
       {"VGG16", "VGG19", "AlexNet", "Inceptionv3", "ResNet50"})
    EXPECT_NO_THROW(ModelByName(name));
  EXPECT_THROW(ModelByName("GPT3"), std::out_of_range);
}

// Every level is in (0, 1], and a wider span never runs faster.
TEST(ModelProfile, AllSensitivityProfilesValid) {
  for (const auto& m : CanonicalModels()) {
    const SensitivityProfile& s = m.sensitivity;
    double prev = 1.0;
    for (const double level : {s.slot, s.machine, s.rack, s.cross_rack}) {
      EXPECT_GT(level, 0.0) << m.name;
      EXPECT_LE(level, prev) << m.name;
      prev = level;
    }
  }
}

TEST(ModelProfile, VggFamilyIsNetworkIntensiveResNetIsNot) {
  EXPECT_TRUE(ModelByName("VGG16").network_intensive);
  EXPECT_TRUE(ModelByName("VGG19").network_intensive);
  EXPECT_FALSE(ModelByName("ResNet50").network_intensive);
  EXPECT_TRUE(SensitiveModel().network_intensive);
  EXPECT_FALSE(InsensitiveModel().network_intensive);
}

TEST(ModelProfile, Fig2CrossServerRatios) {
  // Fig. 2 shape: VGG16 ~2x slower when 4 GPUs span two servers (rack
  // level); ResNet50 nearly unaffected.
  const double vgg = ModelByName("VGG16").sensitivity.rack;
  const double resnet = ModelByName("ResNet50").sensitivity.rack;
  EXPECT_NEAR(1.0 / vgg, 2.0, 0.25);
  EXPECT_GT(resnet, 0.93);
}

class PlacementFixture : public ::testing::Test {
 protected:
  // 2 racks x 2 machines x 4 GPUs (2-GPU NVLink slots).
  Topology topo_{ClusterSpec::Uniform(2, 2, 4, 2)};
  const ModelProfile& vgg_ = ModelByName("VGG16");
  const ModelProfile& resnet_ = ModelByName("ResNet50");
};

TEST_F(PlacementFixture, SlowdownFollowsSpanLevel) {
  EXPECT_DOUBLE_EQ(Slowdown(vgg_, {0, 1}, topo_), vgg_.sensitivity.slot);
  EXPECT_DOUBLE_EQ(Slowdown(vgg_, {0, 2}, topo_), vgg_.sensitivity.machine);
  EXPECT_DOUBLE_EQ(Slowdown(vgg_, {0, 4}, topo_), vgg_.sensitivity.rack);
  EXPECT_DOUBLE_EQ(Slowdown(vgg_, {0, 8}, topo_), vgg_.sensitivity.cross_rack);
}

TEST_F(PlacementFixture, EmptySetIsIdeal) {
  EXPECT_DOUBLE_EQ(Slowdown(vgg_, {}, topo_), 1.0);
  EXPECT_DOUBLE_EQ(PlacementScore({}, topo_), 1.0);
  EXPECT_DOUBLE_EQ(EffectiveRate(vgg_, {}, topo_), 0.0);
}

TEST_F(PlacementFixture, PlacementScoreFourLevels) {
  EXPECT_DOUBLE_EQ(PlacementScore({0, 1}, topo_), 1.0);
  EXPECT_DOUBLE_EQ(PlacementScore({0, 2}, topo_), 0.8);
  EXPECT_DOUBLE_EQ(PlacementScore({0, 4}, topo_), 0.6);
  EXPECT_DOUBLE_EQ(PlacementScore({0, 8}, topo_), 0.4);
}

TEST_F(PlacementFixture, EffectiveRateScalesWithGpusAndSlowdown) {
  // 2 GPUs on one slot: rate 2; 2 GPUs across racks: rate 2 * S_xrack.
  EXPECT_DOUBLE_EQ(EffectiveRate(vgg_, {0, 1}, topo_), 2.0);
  EXPECT_DOUBLE_EQ(EffectiveRate(vgg_, {0, 8}, topo_),
                   2.0 * vgg_.sensitivity.cross_rack);
  // ResNet is barely affected by spread.
  EXPECT_GT(EffectiveRate(resnet_, {0, 8}, topo_), 1.7);
}

TEST_F(PlacementFixture, MachineLocalBeatsSpreadForVgg) {
  const double local = EffectiveRate(vgg_, {0, 1, 2, 3}, topo_);
  const double spread = EffectiveRate(vgg_, {0, 1, 4, 5}, topo_);
  EXPECT_GT(local, spread);
}

TEST_F(PlacementFixture, PickBestPlacedFitsInOneMachine) {
  const GpuPool free({0, 1, 2, 3, 4, 5}, topo_);
  const auto picked = PickBestPlaced(4, free);
  ASSERT_EQ(picked.size(), 4u);
  EXPECT_EQ(topo_.SpanLevel(picked), LocalityLevel::kMachine);
}

TEST_F(PlacementFixture, PickBestPlacedPrefersTightestFit) {
  // Machine 0 has 2 free, machine 1 has 4 free: a 2-GPU request should take
  // machine 0's pair and leave the larger block intact.
  const GpuPool free({0, 1, 4, 5, 6, 7}, topo_);
  const auto picked = PickBestPlaced(2, free);
  EXPECT_EQ(picked, (std::vector<GpuId>{0, 1}));
}

TEST_F(PlacementFixture, PickBestPlacedSpansWithinPreferredRack) {
  // 6 GPUs can't fit one machine (4 max); should stay within one rack.
  const GpuPool free({0, 1, 2, 3, 4, 5, 8, 9}, topo_);
  const auto picked = PickBestPlaced(6, free);
  ASSERT_EQ(picked.size(), 6u);
  EXPECT_EQ(topo_.SpanLevel(picked), LocalityLevel::kRack);
}

TEST_F(PlacementFixture, PickBestPlacedReturnsAllWhenScarce) {
  const GpuPool free({0, 9}, topo_);
  EXPECT_EQ(PickBestPlaced(5, free).size(), 2u);
  EXPECT_EQ(PickBestPlaced(0, free).size(), 0u);
  EXPECT_EQ(PickBestPlaced(3, GpuPool({}, topo_)).size(), 0u);
}

TEST_F(PlacementFixture, PickBestPlacedNearPrefersAnchorMachine) {
  // Anchor on machine 1 (gpu 4); free GPUs on machines 0 and 1: the pick
  // must co-locate with the anchor even though machine 0 has more free.
  const GpuPool free({0, 1, 2, 5, 6}, topo_);
  const auto picked = PickBestPlacedNear(2, free, {4}, topo_);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked, (std::vector<GpuId>{5, 6}));
}

TEST_F(PlacementFixture, PickBestPlacedNearFallsBackToAnchorRack) {
  // Anchor on machine 0 (rack 0); no free GPUs there, but machine 1 shares
  // the rack while machine 2 does not.
  const GpuPool free({8, 9, 4, 5}, topo_);
  const auto picked = PickBestPlacedNear(2, free, {0}, topo_);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(topo_.gpu(picked[0]).rack, 0u);
  EXPECT_EQ(topo_.gpu(picked[1]).rack, 0u);
}

TEST_F(PlacementFixture, PickBestPlacedNearWithEmptyAnchorEqualsPlain) {
  const GpuPool free({0, 1, 2, 3, 4}, topo_);
  EXPECT_EQ(PickBestPlacedNear(3, free, {}, topo_),
            PickBestPlaced(3, free));
}

std::vector<GpuId> PoolContents(const GpuPool& pool) {
  std::vector<GpuId> out;
  for (const GpuPool::Bucket& b : pool.buckets())
    for (GpuId g : pool.gpus(b)) out.push_back(g);
  return out;
}

TEST_F(PlacementFixture, GpuPoolBucketsByMachineKeepingInputOrder) {
  // Machines 2, 0 and 1 interleaved, descending inside machine 0.
  const GpuPool pool({9, 3, 1, 8, 4, 0}, topo_);
  EXPECT_EQ(pool.size(), 6);
  ASSERT_EQ(pool.buckets().size(), 3u);
  EXPECT_EQ(pool.buckets()[0].machine, 0u);
  EXPECT_EQ(pool.buckets()[1].machine, 1u);
  EXPECT_EQ(pool.buckets()[2].machine, 2u);
  EXPECT_EQ(PoolContents(pool), (std::vector<GpuId>{3, 1, 0, 4, 9, 8}));
}

TEST_F(PlacementFixture, GpuPoolRemoveKeepsOrderAndDropsEmptyBuckets) {
  GpuPool pool({0, 1, 2, 4, 8}, topo_);
  pool.Remove(1);
  EXPECT_EQ(PoolContents(pool), (std::vector<GpuId>{0, 2, 4, 8}));
  EXPECT_EQ(pool.size(), 4);
  pool.Remove(4);
  ASSERT_EQ(pool.buckets().size(), 2u);  // machine 1 emptied
  EXPECT_EQ(pool.buckets()[1].machine, 2u);
  EXPECT_THROW(pool.Remove(4), std::logic_error);   // already removed
  EXPECT_THROW(pool.Remove(12), std::logic_error);  // machine never pooled
  EXPECT_EQ(pool.size(), 3);
  for (GpuId g : {0, 2, 8}) pool.Remove(g);
  EXPECT_TRUE(pool.empty());
  EXPECT_TRUE(pool.buckets().empty());
}

TEST_F(PlacementFixture, GpuPoolFindsGpusByMachine) {
  GpuPool pool({0, 2, 3, 9, 8}, topo_);
  EXPECT_EQ(std::vector<GpuId>(pool.on_machine(0).begin(),
                               pool.on_machine(0).end()),
            (std::vector<GpuId>{0, 2, 3}));
  EXPECT_EQ(std::vector<GpuId>(pool.on_machine(2).begin(),
                               pool.on_machine(2).end()),
            (std::vector<GpuId>{9, 8}));  // input order
  EXPECT_TRUE(pool.on_machine(1).empty());
  EXPECT_TRUE(pool.on_machine(3).empty());
  pool.Remove(3);
  EXPECT_EQ(std::vector<GpuId>(pool.on_machine(0).begin(),
                               pool.on_machine(0).end()),
            (std::vector<GpuId>{0, 2}));
  pool.Remove(9);
  pool.Remove(8);
  EXPECT_TRUE(pool.on_machine(2).empty());
}

// GpuPool picks must equal the map-grouping oracle's, pick for pick, over
// random pools (ascending, grouped but unordered within a machine, and
// shuffled), random anchors, every count from 0 to size + 2, and
// pick-then-Remove sequences that shrink the pool the way a bid does.
TEST(PlacementOracle, GpuPoolPicksMatchMapGrouping) {
  Rng rng(4242);
  int compared = 0;
  for (const ClusterSpec& spec :
       {ClusterSpec::Simulation256(), ClusterSpec::Simulation256Mixed(),
        ClusterSpec::Uniform(2, 2, 4, 2)}) {
    const Topology topo(spec);
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<GpuId> free;
      const double keep = rng.Uniform(0.0, 1.0);
      for (GpuId g = 0; g < static_cast<GpuId>(topo.num_gpus()); ++g)
        if (rng.NextDouble() < keep) free.push_back(g);
      switch (rng.UniformInt(0, 2)) {
        case 0: break;  // ascending, like an offer
        case 1:         // grouped by machine, shuffled within each
          rng.Shuffle(free);
          std::stable_sort(free.begin(), free.end(), [&](GpuId a, GpuId b) {
            return topo.gpu(a).machine < topo.gpu(b).machine;
          });
          break;
        default: rng.Shuffle(free); break;
      }
      GpuPool pool(free, topo);
      ASSERT_EQ(pool.size(), static_cast<int>(free.size()));
      bool full_sweep = true;  // every count on the fresh pool
      for (int step = 0; step < 30; ++step) {
        std::vector<GpuId> anchor;
        const int anchored = rng.UniformInt(0, 6);
        for (int k = 0; k < anchored; ++k)
          anchor.push_back(
              static_cast<GpuId>(rng.UniformInt(0, topo.num_gpus() - 1)));
        std::vector<int> counts;
        const int n = pool.size();
        if (full_sweep) {
          for (int count = 0; count <= n + 2; ++count) counts.push_back(count);
        } else {
          counts = {0, 1, 2, 3, 4, 6, rng.UniformInt(0, n + 2), n - 1, n,
                    n + 1, n + 2};
        }
        full_sweep = false;
        for (int count : counts) {
          ASSERT_EQ(PickBestPlaced(count, pool),
                    oracle::PickBestPlaced(count, free, topo))
              << "count " << count;
          ASSERT_EQ(PickBestPlacedNear(count, pool, anchor, topo),
                    oracle::PickBestPlacedNear(count, free, anchor, topo))
              << "count " << count;
          ++compared;
        }
        if (free.empty()) break;
        // Take one gang-sized pick out of both, as a bid increment does.
        const std::vector<GpuId> taken = PickBestPlacedNear(
            rng.UniformInt(1, 4), pool, anchor, topo);
        for (GpuId g : taken) {
          pool.Remove(g);
          free.erase(std::find(free.begin(), free.end(), g));
        }
        ASSERT_EQ(PoolContents(pool), PoolContents(GpuPool(free, topo)));
      }
    }
  }
  EXPECT_GT(compared, 10000);
}

/// 2 racks x 3 machines x 4 GPUs, speeds K80 / A100 / K80 | V100 / A100 /
/// K80: equal speeds on non-adjacent machines, so the tie order shows.
ClusterSpec SmallMixedSpec() {
  ClusterSpec spec = ClusterSpec::Uniform(2, 3, 4, 2);
  const char* gens[] = {"K80", "A100", "K80", "V100", "A100", "K80"};
  int i = 0;
  for (RackSpec& rack : spec.racks)
    for (MachineSpec& m : rack.machines)
      m.generation = GpuGenerationByName(gens[i++]);
  return spec;
}

// PickFastest must equal the speed-ordered topology walk, pick for pick, on
// random ascending pools (offers are ascending), every count from 0 to
// size + 2, and sequences that remove either a fastest-first gang (as a
// baseline's grant does) or random GPUs. The pool's membership and
// per-machine views are checked against the same vector at every step.
TEST(PlacementOracle, PickFastestMatchesSpeedOrderedWalk) {
  Rng rng(2020);
  int compared = 0;
  for (const ClusterSpec& spec :
       {ClusterSpec::Simulation256(), ClusterSpec::Simulation256Mixed(),
        SmallMixedSpec()}) {
    const Topology topo(spec);
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<GpuId> free;
      const double keep = rng.Uniform(0.0, 1.0);
      for (GpuId g = 0; g < static_cast<GpuId>(topo.num_gpus()); ++g)
        if (rng.NextDouble() < keep) free.push_back(g);
      GpuPool pool(free, topo);
      for (int step = 0; step < 30; ++step) {
        const int n = pool.size();
        std::vector<int> counts;
        if (step == 0) {
          for (int count = 0; count <= n + 2; ++count) counts.push_back(count);
        } else {
          counts = {0, 1, 2, 3, 4, 8, rng.UniformInt(0, n + 2), n - 1, n,
                    n + 1, n + 2};
        }
        for (int count : counts) {
          ASSERT_EQ(PickFastest(count, pool),
                    oracle::PickFastest(count, free, topo))
              << "count " << count;
          ++compared;
        }
        for (MachineId m = 0; m < static_cast<MachineId>(topo.num_machines());
             ++m) {
          std::vector<GpuId> expected;
          for (GpuId g : free)
            if (topo.gpu(g).machine == m) expected.push_back(g);
          const std::span<const GpuId> on = pool.on_machine(m);
          ASSERT_EQ(std::vector<GpuId>(on.begin(), on.end()), expected);
        }
        if (free.empty()) break;
        std::vector<GpuId> taken;
        if (rng.UniformInt(0, 1) == 0) {
          taken = PickFastest(rng.UniformInt(1, 4), pool);
        } else {
          for (int k = rng.UniformInt(1, 3); k > 0; --k) {
            const GpuId g = free[rng.UniformInt(
                0, static_cast<int>(free.size()) - 1)];
            if (std::find(taken.begin(), taken.end(), g) == taken.end())
              taken.push_back(g);
          }
        }
        for (GpuId g : taken) {
          pool.Remove(g);
          free.erase(std::find(free.begin(), free.end(), g));
        }
        ASSERT_EQ(pool.size(), static_cast<int>(free.size()));
      }
    }
  }
  EXPECT_GT(compared, 5000);
}

class SlowdownLevelTest
    : public ::testing::TestWithParam<std::tuple<const char*, LocalityLevel>> {};

TEST_P(SlowdownLevelTest, SlowdownAtLevelMatchesProfileField) {
  const auto& [name, level] = GetParam();
  const ModelProfile& m = ModelByName(name);
  const double s = SlowdownAtLevel(m, level);
  EXPECT_GT(s, 0.0);
  EXPECT_LE(s, 1.0);
  // Deeper spreads are never faster.
  if (level != LocalityLevel::kSlot) {
    EXPECT_LE(s, SlowdownAtLevel(m, static_cast<LocalityLevel>(
                                        static_cast<int>(level) - 1)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAllLevels, SlowdownLevelTest,
    ::testing::Combine(::testing::Values("VGG16", "VGG19", "AlexNet",
                                         "Inceptionv3", "ResNet50"),
                       ::testing::Values(LocalityLevel::kSlot,
                                         LocalityLevel::kMachine,
                                         LocalityLevel::kRack,
                                         LocalityLevel::kCrossRack)));

}  // namespace
}  // namespace themis
