// Sharded multi-cluster federation (ROADMAP "Sharded multi-cluster").
//
// A ShardedArbiter partitions a cluster's machines across N shards — one
// ARBITER (round scheduler + Cluster) each — routes arriving apps to shards
// through a pluggable placement hint, simulates the shards in parallel on
// the sweep thread pool, and merges the results back into global app order.
// The round protocol (core/round.h) is what makes this a layering rather
// than a rewrite: each shard runs ordinary offer -> bid -> grant rounds
// against its own pool, and the federation only ever sees plain
// ResourceOffer / GrantSet messages through the simulator's round observer,
// which it audits for the cross-shard invariants (every granted GPU belongs
// to the granting shard's range; no GPU is ever granted by two shards).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/round.h"
#include "sim/experiment.h"

namespace themis {

/// One shard of a partitioned cluster: a contiguous machine range of the
/// global topology, with the id offsets that map shard-local machine/GPU
/// ids back to global ones (global gpu = first_gpu + local gpu; machine
/// ids likewise — the global topology numbers both contiguously in
/// rack-major order, and partitions are contiguous in that order).
struct FederationShard {
  int index = 0;
  ClusterSpec spec;
  MachineId first_machine = 0;
  int num_machines = 0;
  GpuId first_gpu = 0;
  int num_gpus = 0;
};

/// Split `global`'s machines into `num_shards` contiguous ranges (rack
/// substructure preserved; a rack spanning a shard boundary is split).
/// Ranges differ by at most one machine. Throws std::invalid_argument when
/// num_shards < 1 or exceeds the machine count.
std::vector<FederationShard> PartitionCluster(const ClusterSpec& global,
                                              int num_shards);

/// What a placement hint sees about each shard when routing one app.
struct ShardLoadView {
  int capacity_gpus = 0;
  /// Speed-weighted capacity (sum of generation speed over the shard's
  /// GPUs): the aggregate shard speed hints route by. Equals capacity_gpus
  /// on speed-1.0 clusters.
  double capacity_effective_gpus = 0.0;
  /// Sum of max-parallelism GPU demand of apps routed so far.
  long long routed_demand = 0;
};

/// Routes an arriving app: returns the target shard index. Called in app
/// submission order with the loads of everything routed before, so hints
/// are deterministic online policies.
using PlacementHint =
    std::function<int(const AppSpec&, const std::vector<ShardLoadView>&)>;

/// Default hint: the feasible shard (capacity fits the app's largest task
/// gang) with the lowest routed_demand / effective-capacity ratio — a shard
/// of faster machines absorbs proportionally more demand; ties go to the
/// lower index. Falls back to the largest shard when none is feasible. On
/// speed-1.0 clusters effective capacity equals the GPU count and routing
/// is unchanged.
PlacementHint LeastLoadedPlacement();

/// Outcome of routing a trace: per-shard app lists plus, for shard s and
/// shard-local app l, the original submission index global_index[s][l] —
/// also the shard-local AppId the shard's simulator will assign, since apps
/// are handed over in routed order.
struct FederationRouting {
  std::vector<std::vector<AppSpec>> shard_apps;
  std::vector<std::vector<std::size_t>> global_index;
};

struct FederationResult {
  int num_shards = 1;
  /// Shard results stitched back into global app order, with the summary
  /// metrics recomputed over the merged per-app vectors (identical formulas
  /// to MetricsCollector, so a 1-shard federation reproduces the unsharded
  /// result bit-for-bit). peak_contention is the max over shards;
  /// gpu_time / failures / passes are sums.
  ExperimentResult merged;
  std::vector<ExperimentResult> per_shard;
  std::vector<int> apps_per_shard;
  /// Scheduling passes summed over shards.
  long long total_rounds = 0;
  /// GPUs granted across all shards' rounds (lease renewals included).
  long long total_granted_gpus = 0;
  /// Total GPUs each app was granted over the run, indexed by original
  /// submission order — shard merge must preserve per-app holdings.
  std::vector<long long> granted_per_app;
  /// Invariant violations; both must be 0. Audited from the observed
  /// GrantSet streams, not assumed from the partition.
  int cross_shard_double_grants = 0;
  int out_of_range_grants = 0;
};

class ShardedArbiter {
 public:
  /// Throws like PartitionCluster on an invalid shard count.
  ShardedArbiter(const ClusterSpec& global, int num_shards,
                 PlacementHint hint = LeastLoadedPlacement());

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const std::vector<FederationShard>& shards() const { return shards_; }
  int total_gpus() const { return total_gpus_; }

  /// Route `apps` (in submission order) to shards with the placement hint.
  FederationRouting Route(const std::vector<AppSpec>& apps) const;

  /// Run the federated experiment: each shard simulates its own cluster and
  /// routed apps with its own policy instance (config.policy / themis
  /// knobs), in parallel on the sweep thread pool, auditing every round's
  /// GrantSet. config.cluster is ignored — the partition decides topology.
  /// Shard 0 keeps config.sim.seed so a 1-shard federation matches the
  /// unsharded simulator exactly; later shards get position-derived seeds.
  FederationResult Run(const ExperimentConfig& config,
                       const std::vector<AppSpec>& apps,
                       int num_threads = 0) const;

 private:
  std::vector<FederationShard> shards_;
  PlacementHint hint_;
  int total_gpus_ = 0;
};

}  // namespace themis
