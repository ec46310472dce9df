// Tests for cluster/: topology indexing, locality levels, lease state.
#include <gtest/gtest.h>

#include "cluster/cluster.h"

namespace themis {
namespace {

TEST(ClusterSpec, Simulation256HasExactly256Gpus) {
  const ClusterSpec spec = ClusterSpec::Simulation256();
  EXPECT_EQ(spec.TotalGpus(), 256);
  EXPECT_EQ(static_cast<int>(spec.racks.size()), 4);
}

TEST(ClusterSpec, Simulation256IsHeterogeneous) {
  const ClusterSpec spec = ClusterSpec::Simulation256();
  bool has1 = false, has2 = false, has4 = false;
  for (const auto& rack : spec.racks)
    for (const auto& m : rack.machines) {
      has1 |= m.num_gpus == 1;
      has2 |= m.num_gpus == 2;
      has4 |= m.num_gpus == 4;
    }
  EXPECT_TRUE(has1 && has2 && has4);
}

TEST(ClusterSpec, Testbed50HasExactly50Gpus) {
  const ClusterSpec spec = ClusterSpec::Testbed50();
  EXPECT_EQ(spec.TotalGpus(), 50);
  EXPECT_EQ(static_cast<int>(spec.racks.size()), 2);
}

TEST(ClusterSpec, NamesResolvePresetsAndUniformShapes) {
  EXPECT_EQ(ClusterSpec::FromName("sim256").TotalMachines(), 88);
  EXPECT_GT(ClusterSpec::FromName("sim256-mixed").TotalEffectiveGpus(), 256.0);
  EXPECT_EQ(ClusterSpec::FromName("testbed50").TotalMachines(), 18);
  EXPECT_GT(ClusterSpec::FromName("testbed50-mixed").TotalEffectiveGpus(),
            50.0);
  const ClusterSpec shape = ClusterSpec::FromName("2x4x3");
  EXPECT_EQ(shape.TotalMachines(), 8);
  EXPECT_EQ(shape.TotalGpus(), 24);
  EXPECT_EQ(shape.racks[0].machines[0].gpus_per_slot, 1);  // odd G
  EXPECT_EQ(ClusterSpec::FromName("1x2x4").racks[0].machines[1].gpus_per_slot,
            2);
  for (const char* bad : {"", "sim", "2x4", "2x4x4x1", "2x0x4", "2x4x4 ",
                          "ax4x4", "2x4x4.5", "-2x4x4"})
    EXPECT_THROW(ClusterSpec::FromName(bad), std::invalid_argument) << bad;
  // The scenario loader's "preset" takes the presets only.
  EXPECT_FALSE(ClusterSpec::Preset("2x4x4"));
}

TEST(ClusterSpec, UniformCounts) {
  const ClusterSpec spec = ClusterSpec::Uniform(3, 4, 8, 4);
  EXPECT_EQ(spec.TotalGpus(), 96);
  EXPECT_EQ(spec.TotalMachines(), 12);
}

TEST(Topology, GpuCoordinatesAreConsistent) {
  const Topology topo(ClusterSpec::Uniform(2, 3, 4, 2));
  EXPECT_EQ(topo.num_gpus(), 24);
  EXPECT_EQ(topo.num_machines(), 6);
  EXPECT_EQ(topo.num_racks(), 2);
  for (GpuId g = 0; g < 24; ++g) {
    const GpuCoord& c = topo.gpu(g);
    EXPECT_EQ(c.gpu, g);
    EXPECT_EQ(c.machine, g / 4);
    EXPECT_EQ(c.rack, g / 12);
    EXPECT_EQ(c.slot, (g % 4) / 2);
    EXPECT_EQ(c.index_in_slot, static_cast<int>(g % 2));
  }
}

TEST(Topology, MachineGpusAreContiguous) {
  const Topology topo(ClusterSpec::Uniform(1, 2, 4, 2));
  EXPECT_EQ(topo.machine_gpus(0), (std::vector<GpuId>{0, 1, 2, 3}));
  EXPECT_EQ(topo.machine_gpus(1), (std::vector<GpuId>{4, 5, 6, 7}));
}

TEST(Topology, RejectsInvalidSpecs) {
  ClusterSpec bad;
  bad.racks.push_back(RackSpec{{MachineSpec{3, 2}}});  // 3 not multiple of 2
  EXPECT_THROW(Topology{bad}, std::invalid_argument);
  ClusterSpec zero;
  zero.racks.push_back(RackSpec{{MachineSpec{0, 1}}});
  EXPECT_THROW(Topology{zero}, std::invalid_argument);
}

TEST(Topology, SpanLevels) {
  // 1 rack of 2 machines, each 4 GPUs in 2-GPU slots; plus a second rack.
  const Topology topo(ClusterSpec::Uniform(2, 2, 4, 2));
  EXPECT_EQ(topo.SpanLevel({}), LocalityLevel::kSlot);
  EXPECT_EQ(topo.SpanLevel({0}), LocalityLevel::kSlot);
  EXPECT_EQ(topo.SpanLevel({0, 1}), LocalityLevel::kSlot);       // same slot
  EXPECT_EQ(topo.SpanLevel({0, 2}), LocalityLevel::kMachine);    // slots 0+1
  EXPECT_EQ(topo.SpanLevel({0, 4}), LocalityLevel::kRack);       // machines 0+1
  EXPECT_EQ(topo.SpanLevel({0, 8}), LocalityLevel::kCrossRack);  // racks 0+1
  EXPECT_EQ(topo.SpanLevel({0, 1, 2, 3}), LocalityLevel::kMachine);
}

TEST(Topology, ToStringNames) {
  EXPECT_STREQ(ToString(LocalityLevel::kSlot), "slot");
  EXPECT_STREQ(ToString(LocalityLevel::kCrossRack), "cross-rack");
}

class ClusterLeaseTest : public ::testing::Test {
 protected:
  Cluster cluster_{ClusterSpec::Uniform(1, 2, 4, 2)};
};

TEST_F(ClusterLeaseTest, StartsAllFree) {
  EXPECT_EQ(cluster_.num_free(), 8);
  EXPECT_EQ(cluster_.num_allocated(), 0);
  EXPECT_EQ(cluster_.FreeGpus().size(), 8u);
}

TEST_F(ClusterLeaseTest, AllocateAndRelease) {
  cluster_.Allocate(3, /*app=*/1, /*job=*/0, /*expiry=*/20.0);
  EXPECT_FALSE(cluster_.IsFree(3));
  EXPECT_EQ(cluster_.num_allocated(), 1);
  ASSERT_TRUE(cluster_.lease(3).has_value());
  EXPECT_EQ(cluster_.lease(3)->app, 1u);
  EXPECT_EQ(cluster_.lease(3)->expiry, 20.0);
  cluster_.Release(3);
  EXPECT_TRUE(cluster_.IsFree(3));
  EXPECT_EQ(cluster_.num_allocated(), 0);
}

TEST_F(ClusterLeaseTest, DoubleAllocationThrows) {
  cluster_.Allocate(0, 1, 0, 10.0);
  EXPECT_THROW(cluster_.Allocate(0, 2, 0, 10.0), std::logic_error);
}

TEST_F(ClusterLeaseTest, DoubleReleaseThrows) {
  EXPECT_THROW(cluster_.Release(0), std::logic_error);
}

TEST_F(ClusterLeaseTest, OutOfRangeThrows) {
  EXPECT_THROW(cluster_.Allocate(100, 1, 0, 1.0), std::out_of_range);
  EXPECT_THROW(cluster_.Release(100), std::out_of_range);
}

TEST_F(ClusterLeaseTest, FreeGpusPerMachine) {
  cluster_.Allocate(0, 1, 0, 10.0);
  cluster_.Allocate(5, 1, 0, 10.0);
  const std::vector<int> free = cluster_.FreeGpusPerMachine();
  ASSERT_EQ(free.size(), 2u);
  EXPECT_EQ(free[0], 3);
  EXPECT_EQ(free[1], 3);
}

TEST_F(ClusterLeaseTest, ExpiredGpus) {
  cluster_.Allocate(0, 1, 0, 10.0);
  cluster_.Allocate(1, 1, 0, 30.0);
  EXPECT_EQ(cluster_.ExpiredGpus(5.0).size(), 0u);
  EXPECT_EQ(cluster_.ExpiredGpus(10.0), (std::vector<GpuId>{0}));
  EXPECT_EQ(cluster_.ExpiredGpus(30.0), (std::vector<GpuId>{0, 1}));
  // ExpiredGpus does not release.
  EXPECT_FALSE(cluster_.IsFree(0));
}

TEST_F(ClusterLeaseTest, MachineDownHidesFreeGpus) {
  cluster_.SetMachineDown(0, true);
  EXPECT_TRUE(cluster_.IsMachineDown(0));
  EXPECT_EQ(cluster_.FreeGpus(), (std::vector<GpuId>{4, 5, 6, 7}));
  EXPECT_EQ(cluster_.FreeGpusPerMachine()[0], 0);
  EXPECT_THROW(cluster_.Allocate(0, 1, 0, 10.0), std::logic_error);
}

TEST_F(ClusterLeaseTest, MachineRepairRestoresService) {
  cluster_.SetMachineDown(0, true);
  cluster_.SetMachineDown(0, false);
  EXPECT_FALSE(cluster_.IsMachineDown(0));
  EXPECT_EQ(cluster_.FreeGpus().size(), 8u);
  EXPECT_NO_THROW(cluster_.Allocate(0, 1, 0, 10.0));
}

TEST_F(ClusterLeaseTest, DownMachineKeepsExistingLeasesVisible) {
  // Marking a machine down does not implicitly release leases; the
  // simulator revokes them explicitly (failure handling owns that policy).
  cluster_.Allocate(0, 1, 0, 10.0);
  cluster_.SetMachineDown(0, true);
  EXPECT_FALSE(cluster_.IsFree(0));
  ASSERT_TRUE(cluster_.lease(0).has_value());
  EXPECT_EQ(cluster_.lease(0)->app, 1u);
  EXPECT_EQ(cluster_.lease(0)->job, 0u);
}

}  // namespace
}  // namespace themis
