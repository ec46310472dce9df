// Tests for core/federation.h: cluster partitioning, app routing, the
// federated run, and its cross-shard invariants (no GPU granted twice
// across shards; the merge preserves per-app holdings and app order;
// --shards=1 reproduces the unsharded simulator exactly; each shard's run
// passes the round audits).
#include <gtest/gtest.h>

#include <numeric>

#include "core/federation.h"
#include "round_audit.h"

namespace themis {
namespace {

TEST(PartitionCluster, SingleShardKeepsTheWholeSpec) {
  const ClusterSpec global = ClusterSpec::Simulation256();
  const auto shards = PartitionCluster(global, 1);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].first_machine, 0u);
  EXPECT_EQ(shards[0].first_gpu, 0u);
  EXPECT_EQ(shards[0].num_machines, global.TotalMachines());
  EXPECT_EQ(shards[0].num_gpus, global.TotalGpus());
  // Identical topology, rack for rack.
  ASSERT_EQ(shards[0].spec.racks.size(), global.racks.size());
  for (std::size_t r = 0; r < global.racks.size(); ++r) {
    ASSERT_EQ(shards[0].spec.racks[r].machines.size(),
              global.racks[r].machines.size());
    for (std::size_t m = 0; m < global.racks[r].machines.size(); ++m) {
      EXPECT_EQ(shards[0].spec.racks[r].machines[m].num_gpus,
                global.racks[r].machines[m].num_gpus);
      EXPECT_EQ(shards[0].spec.racks[r].machines[m].gpus_per_slot,
                global.racks[r].machines[m].gpus_per_slot);
    }
  }
}

TEST(PartitionCluster, ContiguousBalancedDisjointCover) {
  const ClusterSpec global = ClusterSpec::Simulation256();
  for (int n : {2, 3, 4, 8}) {
    const auto shards = PartitionCluster(global, n);
    ASSERT_EQ(shards.size(), static_cast<std::size_t>(n));
    int machines = 0, gpus = 0, min_m = global.TotalMachines(), max_m = 0;
    MachineId next_machine = 0;
    GpuId next_gpu = 0;
    for (const FederationShard& s : shards) {
      // Contiguous: each shard starts where the previous one ended.
      EXPECT_EQ(s.first_machine, next_machine);
      EXPECT_EQ(s.first_gpu, next_gpu);
      // Internally consistent with its own spec.
      EXPECT_EQ(s.num_machines, s.spec.TotalMachines());
      EXPECT_EQ(s.num_gpus, s.spec.TotalGpus());
      next_machine += static_cast<MachineId>(s.num_machines);
      next_gpu += static_cast<GpuId>(s.num_gpus);
      machines += s.num_machines;
      gpus += s.num_gpus;
      min_m = std::min(min_m, s.num_machines);
      max_m = std::max(max_m, s.num_machines);
    }
    EXPECT_EQ(machines, global.TotalMachines()) << n;
    EXPECT_EQ(gpus, global.TotalGpus()) << n;
    EXPECT_LE(max_m - min_m, 1) << n;  // balanced within one machine
  }
}

TEST(PartitionCluster, RejectsImpossibleShardCounts) {
  const ClusterSpec global = ClusterSpec::Uniform(1, 4, 2, 2);
  EXPECT_THROW(PartitionCluster(global, 0), std::invalid_argument);
  EXPECT_THROW(PartitionCluster(global, -2), std::invalid_argument);
  EXPECT_THROW(PartitionCluster(global, 5), std::invalid_argument);
}

TEST(PartitionCluster, ShardLocalGpuIdsMapBackByOffset) {
  // The global topology numbers machines/GPUs contiguously in rack-major
  // order, so shard-local topology ids + the shard offsets recover the
  // global coordinates.
  const ClusterSpec global = ClusterSpec::Simulation256();
  const Topology global_topo(global);
  for (const FederationShard& s : PartitionCluster(global, 4)) {
    const Topology shard_topo(s.spec);
    ASSERT_EQ(shard_topo.num_gpus(), s.num_gpus);
    for (GpuId g = 0; g < static_cast<GpuId>(s.num_gpus); ++g) {
      const GpuCoord& local = shard_topo.gpu(g);
      const GpuCoord& glob = global_topo.gpu(s.first_gpu + g);
      EXPECT_EQ(local.machine + s.first_machine, glob.machine);
      EXPECT_EQ(local.slot, glob.slot);
      EXPECT_EQ(local.index_in_slot, glob.index_in_slot);
    }
  }
}

TEST(Routing, DeterministicAndComplete) {
  TraceConfig trace;
  trace.seed = 5;
  trace.num_apps = 24;
  const std::vector<AppSpec> apps = TraceGenerator(trace).Generate();
  const ShardedArbiter arbiter(ClusterSpec::Simulation256(), 4);

  const FederationRouting a = arbiter.Route(apps);
  const FederationRouting b = arbiter.Route(apps);
  std::size_t routed = 0;
  std::vector<char> seen(apps.size(), 0);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(a.shard_apps[s].size(), a.global_index[s].size());
    EXPECT_EQ(a.global_index[s], b.global_index[s]);
    for (std::size_t idx : a.global_index[s]) {
      ASSERT_LT(idx, apps.size());
      EXPECT_EQ(seen[idx], 0) << "app routed twice";
      seen[idx] = 1;
      ++routed;
    }
  }
  EXPECT_EQ(routed, apps.size());
}

TEST(Routing, PlacementHintIsPluggable) {
  TraceConfig trace;
  trace.seed = 5;
  trace.num_apps = 10;
  const std::vector<AppSpec> apps = TraceGenerator(trace).Generate();
  // Everything to the last shard.
  const ShardedArbiter arbiter(
      ClusterSpec::Simulation256(), 3,
      [](const AppSpec&, const std::vector<ShardLoadView>& loads) {
        return static_cast<int>(loads.size()) - 1;
      });
  const FederationRouting routing = arbiter.Route(apps);
  EXPECT_TRUE(routing.shard_apps[0].empty());
  EXPECT_TRUE(routing.shard_apps[1].empty());
  EXPECT_EQ(routing.shard_apps[2].size(), apps.size());
}

ExperimentConfig FederationTestConfig(std::uint64_t seed, int num_apps) {
  ExperimentConfig config = SimScaleConfig(PolicyKind::kThemis, seed, num_apps);
  config.trace.contention_factor = 2.0;
  return config;
}

TEST(ShardedArbiter, OneShardMatchesTheUnshardedSimulatorExactly) {
  const ExperimentConfig config = FederationTestConfig(42, 30);
  const std::vector<AppSpec> apps =
      TraceGenerator(config.trace).Generate();

  const ExperimentResult direct = RunExperimentWithApps(config, apps);
  const FederationResult fed =
      ShardedArbiter(config.cluster, 1).Run(config, apps);

  // Identical scheduling decisions: the per-app vectors are bit-identical.
  EXPECT_EQ(fed.merged.finished_apps, direct.finished_apps);
  EXPECT_EQ(fed.merged.rhos, direct.rhos);
  EXPECT_EQ(fed.merged.completion_times, direct.completion_times);
  EXPECT_EQ(fed.merged.placement_scores, direct.placement_scores);
  EXPECT_EQ(fed.merged.unfinished_apps, direct.unfinished_apps);
  EXPECT_EQ(fed.merged.scheduling_passes, direct.scheduling_passes);
  EXPECT_DOUBLE_EQ(fed.merged.gpu_time, direct.gpu_time);
  // Summary metrics are recomputed over AppId-ordered vectors; the only
  // tolerated difference vs the collector is floating-point summation
  // order (it accumulates in finish order), so "near" is ulp-tight.
  EXPECT_NEAR(fed.merged.max_fairness, direct.max_fairness, 1e-12);
  EXPECT_NEAR(fed.merged.median_fairness, direct.median_fairness, 1e-12);
  EXPECT_NEAR(fed.merged.jains_index, direct.jains_index, 1e-12);
  EXPECT_NEAR(fed.merged.avg_completion_time, direct.avg_completion_time,
              1e-9);
  EXPECT_EQ(fed.cross_shard_double_grants, 0);
  EXPECT_EQ(fed.out_of_range_grants, 0);
}

TEST(ShardedArbiter, FourShardsHoldTheCrossShardInvariants) {
  const ExperimentConfig config = FederationTestConfig(42, 40);
  const std::vector<AppSpec> apps =
      TraceGenerator(config.trace).Generate();

  const ShardedArbiter arbiter(config.cluster, 4);
  const FederationResult fed = arbiter.Run(config, apps);

  EXPECT_EQ(fed.num_shards, 4);
  EXPECT_EQ(fed.cross_shard_double_grants, 0);
  EXPECT_EQ(fed.out_of_range_grants, 0);
  EXPECT_GT(fed.total_granted_gpus, 0);

  // The merge preserves per-app accounting: every app's granted total came
  // from exactly one shard, and the totals add up.
  ASSERT_EQ(fed.granted_per_app.size(), apps.size());
  const long long sum = std::accumulate(fed.granted_per_app.begin(),
                                        fed.granted_per_app.end(), 0LL);
  EXPECT_EQ(sum, fed.total_granted_gpus);

  // Merged per-app vectors are in global submission order and complete.
  ASSERT_EQ(static_cast<int>(fed.merged.finished_apps.size()) +
                fed.merged.unfinished_apps,
            static_cast<int>(apps.size()));
  for (std::size_t i = 1; i < fed.merged.finished_apps.size(); ++i)
    EXPECT_LT(fed.merged.finished_apps[i - 1], fed.merged.finished_apps[i]);
  int apps_total = 0;
  for (int per_shard : fed.apps_per_shard) apps_total += per_shard;
  EXPECT_EQ(apps_total, static_cast<int>(apps.size()));

  // Every app that finished actually received GPUs.
  for (std::size_t i = 0; i < fed.merged.finished_apps.size(); ++i)
    EXPECT_GT(fed.granted_per_app[fed.merged.finished_apps[i]], 0)
        << "finished app " << fed.merged.finished_apps[i]
        << " was never granted a GPU";
}

TEST(ShardedArbiter, ParallelShardRunsMatchSerialOnes) {
  const ExperimentConfig config = FederationTestConfig(7, 24);
  const std::vector<AppSpec> apps =
      TraceGenerator(config.trace).Generate();
  const ShardedArbiter arbiter(config.cluster, 4);
  const FederationResult serial = arbiter.Run(config, apps, /*threads=*/1);
  const FederationResult parallel = arbiter.Run(config, apps, /*threads=*/4);
  EXPECT_EQ(serial.merged.rhos, parallel.merged.rhos);
  EXPECT_EQ(serial.merged.completion_times, parallel.merged.completion_times);
  EXPECT_EQ(serial.total_granted_gpus, parallel.total_granted_gpus);
  EXPECT_EQ(serial.granted_per_app, parallel.granted_per_app);
}

// Each shard is an ordinary simulator run over the apps routed to it: the
// round audits hold after every one of its rounds, and the audited run
// reproduces the shard's entry in the federated result.
TEST(ShardedArbiter, EachShardIsAnAuditedSimulatorRun) {
  const ExperimentConfig config = FederationTestConfig(42, 40);
  const std::vector<AppSpec> apps =
      TraceGenerator(config.trace).Generate();
  const ShardedArbiter arbiter(config.cluster, 4);
  const FederationRouting routing = arbiter.Route(apps);
  const FederationResult fed = arbiter.Run(config, apps);
  ASSERT_EQ(fed.per_shard.size(), 4u);

  for (int s = 0; s < arbiter.num_shards(); ++s) {
    // The shard's config, derived as ShardedArbiter::Run derives it.
    ExperimentConfig shard_config = config;
    shard_config.cluster = arbiter.shards()[s].spec;
    shard_config.sim.seed =
        s == 0 ? config.sim.seed : DeriveScenarioSeed(config.sim.seed, s);
    Simulator sim(shard_config.cluster, routing.shard_apps[s],
                  MakePolicy(shard_config.policy, shard_config.themis),
                  shard_config.sim);
    long long audited = 0;
    sim.set_round_observer([&](const ResourceOffer& offer,
                               const GrantSet& grants) {
      AuditRoundCore(sim.round_core());
      AuditRoundGrants(sim.round_core(), offer, grants);
      ++audited;
    });
    const ExperimentResult got = SummarizeRun(shard_config, sim.Run());
    const ExperimentResult& want = fed.per_shard[s];
    EXPECT_GT(audited, 0) << "shard " << s;
    EXPECT_EQ(got.rounds_executed, audited) << "shard " << s;
    EXPECT_EQ(got.finished_apps, want.finished_apps) << "shard " << s;
    EXPECT_EQ(got.rhos, want.rhos) << "shard " << s;
    EXPECT_EQ(got.completion_times, want.completion_times) << "shard " << s;
    EXPECT_EQ(got.placement_scores, want.placement_scores) << "shard " << s;
    EXPECT_EQ(got.unfinished_apps, want.unfinished_apps) << "shard " << s;
    EXPECT_EQ(got.scheduling_passes, want.scheduling_passes) << "shard " << s;
    EXPECT_EQ(got.rounds_executed, want.rounds_executed) << "shard " << s;
    EXPECT_EQ(got.events_processed, want.events_processed) << "shard " << s;
    EXPECT_EQ(got.gpu_time, want.gpu_time) << "shard " << s;
    EXPECT_EQ(got.jains_index, want.jains_index) << "shard " << s;
  }
}

}  // namespace
}  // namespace themis
