// Placement-sensitivity arithmetic (Sec. 5.2).
//
// With ideal placement a job's running time scales linearly with its GPU
// count G: time = serialTime / G. Real scaling is degraded by the slowdown
// factor S(G->) <= 1 determined by the widest topology boundary the GPU set
// spans: time = serialTime / (G * S). This module computes S for a concrete
// GPU set, the paper's 4-level placement *score* (Sec. 8.1 metrics), and
// greedy locality-aware GPU selection used by agents when they turn a
// per-machine allocation vector into concrete GPUs. The pickers read a
// GpuPool, the candidate GPUs bucketed by machine once per bid or round;
// a round's SchedulerContext keeps its free pool in one, so every policy
// picks from the pool its grants shrink.
#pragma once

#include <span>
#include <vector>

#include "cluster/cluster.h"
#include "placement/model_profile.h"

namespace themis {

/// Slowdown S in (0,1] for `model` when its job runs on `gpus`.
/// Empty set yields 1.0 (vacuously ideal; callers guard G=0 separately).
double Slowdown(const ModelProfile& model, const std::vector<GpuId>& gpus,
                const Topology& topo);

/// Slowdown looked up by locality level alone.
double SlowdownAtLevel(const ModelProfile& model, LocalityLevel level);

/// The model-independent placement score used in Fig. 7: 1.0 for slot
/// locality, then 0.8 / 0.6 / 0.4 for machine / rack / cross-rack spans.
double PlacementScore(const std::vector<GpuId>& gpus, const Topology& topo);

/// Effective progress rate (serial GPU-minutes consumed per minute) of a job
/// running `gpus.size()` GPUs with the given model:
/// G * S * min(generation speed over the set). Synchronous SGD paces every
/// iteration on the slowest worker, so a mixed-generation gang runs at its
/// minimum speed; on speed-1.0 clusters this is the plain G * S.
double EffectiveRate(const ModelProfile& model, const std::vector<GpuId>& gpus,
                     const Topology& topo);

/// A set of GPUs bucketed by machine, the pool the pickers choose from.
/// Buckets run in ascending machine id; each keeps its GPUs in input order
/// (callers that hand over a bid row's GPUs first and then other free GPUs
/// rely on this: the row's GPUs stay first on their machines). Building is
/// O(pool) when the input is already grouped by machine (an ascending-id
/// free list is) and O(pool log pool) otherwise; it never touches the rest
/// of the cluster, and the pool holds no cluster-sized state, so a per-bid
/// pool stays O(pool). Callers build one pool per bid or round and Remove
/// what they pick, instead of regrouping a vector on every pick.
class GpuPool {
 public:
  struct Bucket {
    MachineId machine;
    RackId rack;
    double speed;
    int offset;  // first slot in the pool's GPU array
    int size;    // GPUs still pooled on this machine
  };

  GpuPool(const std::vector<GpuId>& gpus, const Topology& topo);

  int size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Non-empty buckets, ascending machine id.
  const std::vector<Bucket>& buckets() const { return buckets_; }
  /// A bucket's GPUs, in input order.
  std::span<const GpuId> gpus(const Bucket& b) const {
    return {gpus_.data() + b.offset, static_cast<std::size_t>(b.size)};
  }
  /// The pooled GPUs on machine `m`, in input order; empty if none.
  /// O(log buckets).
  std::span<const GpuId> on_machine(MachineId m) const;

  /// Remove a picked GPU, keeping the order of the rest; an emptied bucket
  /// is dropped. Throws std::logic_error if `g` is not pooled.
  void Remove(GpuId g);

 private:
  /// Index of machine `m`'s bucket, or -1 when none is pooled.
  int Find(MachineId m) const;

  /// Fills the buckets from GPUs already grouped by machine.
  void Build(const std::vector<GpuId>& gpus);

  const Topology* topo_;
  std::vector<GpuId> gpus_;  // bucket-contiguous
  std::vector<Bucket> buckets_;
  int size_ = 0;
};

/// Pick `count` GPUs from `pool` greedily maximizing locality: prefer one
/// machine that fits the whole request (fastest, then tightest), otherwise
/// fill machine by machine inside the rack with the most pooled GPUs.
/// Returns fewer than `count` if the pool is smaller. Deterministic; does
/// not modify the pool.
std::vector<GpuId> PickBestPlaced(int count, const GpuPool& pool);

/// Same, but anchored: prefer machines where `anchor` GPUs already live,
/// then their racks (used for leftover allocation, Sec. 5.1 step 3, and job
/// growth). An empty anchor falls back to PickBestPlaced.
std::vector<GpuId> PickBestPlacedNear(int count, const GpuPool& pool,
                                      const std::vector<GpuId>& anchor,
                                      const Topology& topo);
/// Same pick, written into `picked` (cleared first), so a loop reuses its
/// capacity.
void PickBestPlacedNear(int count, const GpuPool& pool,
                        const std::vector<GpuId>& anchor, const Topology& topo,
                        std::vector<GpuId>& picked);

/// The `count` fastest pooled GPUs, placement-unaware: machines by
/// descending generation speed (ties ascending machine id), each machine's
/// GPUs in pool order. On a uniform-speed cluster with an ascending pool
/// this is the first `count` pooled ids — the greedy baselines' pick.
/// Returns fewer than `count` if the pool is smaller; does not modify it.
std::vector<GpuId> PickFastest(int count, const GpuPool& pool);

}  // namespace themis
