// Mutable cluster state: which app/job owns each GPU and until when.
//
// THEMIS associates a lease with every GPU (Sec. 3). An allocation is binding
// for the lease duration; when the lease expires the GPU returns to the pool
// the ARBITER auctions off. The Cluster class enforces the single-owner
// invariant (a GPU is held by at most one app at a time) and provides the
// free-GPU views the round offers.
//
// State is *indexed*, not scanned: alongside the per-GPU lease table (the
// ground truth) the cluster maintains
//   - a per-machine sorted free-GPU list (free views in O(free + machines)),
//   - an ordered set of (expiry, gpu) pairs (expiry queries and the next
//     lease tick in O(log n)),
//   - a down flag per machine (a down machine offers no free GPUs).
// Allocate and Release keep the indices consistent with the lease table.
// Who holds what per app lives in the jobs' gangs (JobState::gpus); the
// round audit (tests/round_audit.h) checks that gangs and leases agree.
#pragma once

#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "common/types.h"

namespace themis {

struct Lease {
  AppId app = kNoApp;
  JobId job = kNoJob;
  Time expiry = 0.0;
};

class Cluster {
 public:
  explicit Cluster(ClusterSpec spec);

  const Topology& topology() const { return topo_; }
  int num_gpus() const { return topo_.num_gpus(); }
  int num_machines() const { return topo_.num_machines(); }

  bool IsFree(GpuId gpu) const { return !leases_[gpu].has_value(); }
  const std::optional<Lease>& lease(GpuId gpu) const { return leases_[gpu]; }

  /// All currently unallocated GPUs, in ascending GPU-id order.
  std::vector<GpuId> FreeGpus() const;

  /// Free GPU count per machine; index = MachineId. This is the resource
  /// vector R-> the ARBITER offers in auctions (one dimension per machine).
  std::vector<int> FreeGpusPerMachine() const;

  /// Grant `gpu` to (app, job) until `expiry`. Throws if the GPU is taken.
  void Allocate(GpuId gpu, AppId app, JobId job, Time expiry);

  /// Release a GPU back to the free pool. Throws if it was already free.
  void Release(GpuId gpu);

  /// GPUs whose lease expired at or before `now`, ascending GPU-id order.
  /// Does not release them; the simulator decides when reclaimed GPUs enter
  /// an auction.
  std::vector<GpuId> ExpiredGpus(Time now) const;

  /// True when at least one lease has expired at or before `t` — the O(1)
  /// staleness probe for lease-tick events: a tick with nothing expired
  /// advances time but demands no scheduling pass.
  bool HasExpiredLease(Time t) const {
    return !expiries_.empty() && expiries_.begin()->first <= t;
  }

  /// Earliest lease expiry strictly after `t`; kInfiniteTime when no lease
  /// expires later. Drives the simulator's next lease tick without scanning.
  Time NextExpiryAfter(Time t) const;

  /// Latest lease expiry at or before `t`; -kInfiniteTime when none. The
  /// epsilon-batched auction jumps to this instant so every lease expiring
  /// within the window is reclaimed by one pass.
  Time LatestExpiryAtOrBefore(Time t) const {
    auto it = expiries_.upper_bound({t, std::numeric_limits<GpuId>::max()});
    if (it == expiries_.begin()) return -kInfiniteTime;
    return std::prev(it)->first;
  }

  /// Failure-domain support (Sec. 6 "Scheduling after failures"): a machine
  /// marked down contributes no free GPUs and rejects allocations. Releasing
  /// the GPUs an app held on the failed machine is the simulator's job.
  void SetMachineDown(MachineId machine, bool down);
  bool IsMachineDown(MachineId machine) const { return machine_down_[machine]; }

  int num_allocated() const { return num_allocated_; }
  int num_free() const { return num_gpus() - num_allocated_; }

 private:
  Topology topo_;
  /// Ground truth: per-GPU lease. The indices below are derived views.
  std::vector<std::optional<Lease>> leases_;
  std::vector<bool> machine_down_;
  int num_allocated_ = 0;

  /// Free GPUs per machine, each list sorted ascending. Machine GPU ids are
  /// contiguous, so concatenating the lists in machine order yields the
  /// global ascending free list.
  std::vector<std::vector<GpuId>> free_on_machine_;

  /// (expiry, gpu) for every leased GPU; begin() is the earliest expiry.
  std::set<std::pair<Time, GpuId>> expiries_;
};

}  // namespace themis
