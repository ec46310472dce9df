// Property test for the indexed Cluster: drives long random sequences of
// Allocate / Release / expiry reclaim / failure-revoke / machine up-down
// transitions and asserts after every step that the maintained indices
// (per-machine free lists, expiry set) agree with a brute-force rescan of
// the per-GPU lease table — the ground truth the old scan-based
// implementation read directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"

namespace themis {
namespace {

/// Brute-force reference views recomputed from lease()/IsMachineDown() only.
struct Rescan {
  std::vector<GpuId> free;
  std::vector<int> free_per_machine;

  explicit Rescan(const Cluster& c) : free_per_machine(c.num_machines(), 0) {
    for (GpuId g = 0; g < static_cast<GpuId>(c.num_gpus()); ++g) {
      if (!c.IsFree(g)) continue;
      const MachineId m = c.topology().gpu(g).machine;
      // Counts ignore down machines like FreeGpusPerMachine does.
      if (!c.IsMachineDown(m)) {
        free.push_back(g);
        ++free_per_machine[m];
      }
    }
  }

  static std::vector<GpuId> Expired(const Cluster& c, Time now) {
    std::vector<GpuId> out;
    for (GpuId g = 0; g < static_cast<GpuId>(c.num_gpus()); ++g)
      if (!c.IsFree(g) && c.lease(g)->expiry <= now) out.push_back(g);
    return out;
  }

  static Time NextExpiry(const Cluster& c, Time t) {
    Time best = kInfiniteTime;
    for (GpuId g = 0; g < static_cast<GpuId>(c.num_gpus()); ++g)
      if (!c.IsFree(g) && c.lease(g)->expiry > t)
        best = std::min(best, c.lease(g)->expiry);
    return best;
  }
};

void ExpectIndicesMatchRescan(const Cluster& c, Time now) {
  const Rescan ref(c);
  ASSERT_EQ(c.FreeGpus(), ref.free);
  ASSERT_EQ(c.FreeGpusPerMachine(), ref.free_per_machine);

  for (Time probe : {now - 7.0, now, now + 13.0}) {
    ASSERT_EQ(c.ExpiredGpus(probe), Rescan::Expired(c, probe)) << "t=" << probe;
    ASSERT_EQ(c.NextExpiryAfter(probe), Rescan::NextExpiry(c, probe))
        << "t=" << probe;
  }

  int allocated = 0;
  for (GpuId g = 0; g < static_cast<GpuId>(c.num_gpus()); ++g)
    if (!c.IsFree(g)) ++allocated;
  ASSERT_EQ(c.num_allocated(), allocated);
  ASSERT_EQ(c.num_free(), c.num_gpus() - allocated);
}

TEST(ClusterInvariants, RandomOperationSequencesMatchBruteForce) {
  // Heterogeneous-ish shape: 3 racks x 4 machines x 4 GPUs (2-GPU slots).
  Cluster cluster(ClusterSpec::Uniform(3, 4, 4, 2));
  const int kApps = 6, kJobs = 3;
  Rng rng(0xC1D5);
  Time now = 0.0;

  for (int step = 0; step < 4000; ++step) {
    const int op = rng.UniformInt(0, 99);
    now += rng.Uniform(0.0, 1.0);

    if (op < 45) {
      // Allocate a random free (up-machine) GPU.
      const std::vector<GpuId> free = cluster.FreeGpus();
      if (!free.empty()) {
        const GpuId g = free[rng.UniformInt(0, static_cast<int>(free.size()) - 1)];
        cluster.Allocate(g, rng.UniformInt(0, kApps - 1),
                         rng.UniformInt(0, kJobs - 1),
                         now + rng.Uniform(1.0, 40.0));
      }
    } else if (op < 70) {
      // Release a random held GPU.
      std::vector<GpuId> held;
      for (GpuId g = 0; g < static_cast<GpuId>(cluster.num_gpus()); ++g)
        if (!cluster.IsFree(g)) held.push_back(g);
      if (!held.empty())
        cluster.Release(held[rng.UniformInt(0, static_cast<int>(held.size()) - 1)]);
    } else if (op < 85) {
      // Reclaim every expired lease, the sequence RoundCore::BeginRound
      // performs at the start of a round.
      for (GpuId g : cluster.ExpiredGpus(now)) cluster.Release(g);
    } else if (op < 92) {
      // Failure-revoke: machine goes down and its leases are released, the
      // sequence the simulator performs on kMachineFail.
      const MachineId m = rng.UniformInt(0, cluster.num_machines() - 1);
      cluster.SetMachineDown(m, true);
      for (GpuId g : cluster.topology().machine_gpus(m))
        if (!cluster.IsFree(g)) cluster.Release(g);
    } else {
      // Repair a random machine (no-op when already up).
      cluster.SetMachineDown(rng.UniformInt(0, cluster.num_machines() - 1),
                             false);
    }

    if (step % 10 == 0) ExpectIndicesMatchRescan(cluster, now);
  }
  ExpectIndicesMatchRescan(cluster, now);
}

TEST(ClusterInvariants, ReclaimLoopNeverLeavesStaleExpiries) {
  // Mimic the simulator's lease-tick reclaim: allocate everything with
  // staggered expiries, repeatedly reclaim-at-tick and re-grant, and verify
  // the expiry index never resurrects a reclaimed lease.
  Cluster cluster(ClusterSpec::Uniform(1, 4, 4, 2));
  Rng rng(7);
  for (GpuId g = 0; g < 16; ++g)
    cluster.Allocate(g, g % 3, 0, 10.0 + static_cast<double>(g % 5));
  Time now = 0.0;
  for (int round = 0; round < 200; ++round) {
    now = cluster.NextExpiryAfter(now);
    if (!std::isfinite(now)) break;
    for (GpuId g : cluster.ExpiredGpus(now)) {
      cluster.Release(g);
      if (rng.UniformInt(0, 3) != 0)
        cluster.Allocate(g, rng.UniformInt(0, 2), 0, now + rng.Uniform(1.0, 9.0));
    }
    ASSERT_TRUE(cluster.ExpiredGpus(now).empty());
    ExpectIndicesMatchRescan(cluster, now);
  }
}

TEST(ClusterInvariants, NextExpiryAfterIsStrict) {
  Cluster cluster(ClusterSpec::Uniform(1, 2, 4, 2));
  EXPECT_EQ(cluster.NextExpiryAfter(0.0), kInfiniteTime);
  cluster.Allocate(0, 1, 0, 10.0);
  cluster.Allocate(1, 1, 0, 30.0);
  EXPECT_DOUBLE_EQ(cluster.NextExpiryAfter(0.0), 10.0);
  EXPECT_DOUBLE_EQ(cluster.NextExpiryAfter(10.0), 30.0);  // strictly after
  EXPECT_EQ(cluster.NextExpiryAfter(30.0), kInfiniteTime);
  cluster.Release(0);
  cluster.Allocate(0, 1, 0, 50.0);
  EXPECT_DOUBLE_EQ(cluster.NextExpiryAfter(30.0), 50.0);
}

}  // namespace
}  // namespace themis
