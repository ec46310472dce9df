// The ARBITER <-> AGENT round protocol (Fig. 3 / Pseudocode 1), reified as
// the public scheduling API.
//
// One scheduling pass is one *round*: the ARBITER publishes a ResourceOffer
// (the free pool plus its per-machine shape and the lease terms), a round
// scheduler answers with a GrantSet (per-(app, job) GPU bundles plus
// diagnostics), and the round core — never the policy — turns the grants into
// binding leases through the single ApplyGrants path. IRoundScheduler is the
// only policy interface: all five policies implement RunRound, and a caller
// that drives one round by hand (a test, a bench) builds the offer with
// MakeOffer and applies the returned set itself. Offers and grant sets
// are plain data: they carry ids and GPU lists, not Cluster pointers, so a
// federation layer can route them between sharded ARBITERs (core/federation)
// and a batching layer can coalesce several lease ticks into one bigger
// offer without new interfaces.
//
// Policies consume the offer through a FreePool — an O(1)-membership,
// O(1)-removal, ordered view of the offered GPUs — so the greedy baselines
// no longer erase from free vectors with O(n) std::remove.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/topology.h"
#include "common/types.h"

namespace themis {

class Cluster;
class SchedulerContext;

/// Step 1-2 of the round: the ARBITER's published free pool. `gpus` is the
/// complete current free pool in ascending id order and `free_per_machine`
/// is the matching auction resource vector R-> (index = MachineId), so a
/// policy never recounts the pool. `machine_speeds` prices the vector:
/// machine m offers free_per_machine[m] GPUs of relative generation speed
/// machine_speeds[m], so bidders can value faster machines without topology
/// access — offers stay plain routable data across federation shards.
struct ResourceOffer {
  /// Monotonic per-ARBITER round number (the simulator uses its pass count).
  std::uint64_t round_id = 0;
  /// Simulated time the round runs at.
  Time time = 0.0;
  /// Lease duration for every grant of this round.
  Time lease_duration = 0.0;
  std::vector<GpuId> gpus;
  std::vector<int> free_per_machine;
  /// Relative generation speed per machine, aligned with free_per_machine.
  std::vector<double> machine_speeds;

  int TotalGpus() const { return static_cast<int>(gpus.size()); }
  /// Offered capacity in effective (speed-weighted) GPUs.
  double TotalEffectiveGpus() const;
};

/// Snapshot the cluster's free pool into an offer.
ResourceOffer MakeOffer(std::uint64_t round_id, Time now, Time lease_duration,
                        const Cluster& cluster);

/// One bundle of a round's outcome: `gpus` leased to (app, job).
struct Grant {
  AppId app = kNoApp;
  JobId job = kNoJob;
  std::vector<GpuId> gpus;
};

/// Per-round diagnostics, reset by construction every round (they used to be
/// stateful counters on ThemisPolicy and leaked across simulator runs when a
/// policy instance was reused).
struct RoundDiagnostics {
  /// GPUs in the round's offer.
  int offered_gpus = 0;
  /// GPUs handed out by the round's grants.
  int granted_gpus = 0;
  /// Offered GPUs still free after the round (stage-3 residue).
  int leftover_gpus = 0;
  /// True when a Partial Allocation auction ran (Themis rounds with at
  /// least one hungry app); the greedy baselines never set it.
  bool auction_ran = false;
  /// Apps offered the pool in the auction (the worst-off 1-f fraction).
  int auction_participants = 0;
};

/// The policy's answer to an offer. Plain data, applied by ApplyGrants.
struct GrantSet {
  /// Copied from the offer that produced this set.
  std::uint64_t round_id = 0;
  /// Lease expiry every grant binds to: offer.time + offer.lease_duration.
  Time lease_expiry = 0.0;
  std::vector<Grant> grants;
  RoundDiagnostics diagnostics;

  int TotalGpus() const;
};

/// The single lease-application path: create the binding lease for every
/// granted GPU. The job-side gang (JobState::gpus) was already recorded when
/// the grant was staged through SchedulerContext::Grant — the AGENT side of
/// the protocol; this is the ARBITER side. Cluster::Allocate throws if a GPU
/// is already taken, so double-applying a set (or applying two sets that
/// grant the same GPU) fails loudly. Returns the number of GPUs leased.
int ApplyGrants(const GrantSet& grants, Cluster& cluster);

/// Ordered mutable view of an offer's free pool. Membership and removal are
/// O(1) (intrusive doubly-linked list over GPU ids + a bitmap); ascending
/// iteration is O(pool size); per-machine counts are maintained on removal.
class FreePool {
 public:
  FreePool() = default;
  FreePool(const std::vector<GpuId>& gpus, const Topology& topo);

  int size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool Contains(GpuId g) const {
    return g < in_.size() && in_[g] != 0;
  }

  /// Remove a GPU from the pool (it was granted). O(1); `g` must be present.
  void Remove(GpuId g);

  /// Free count per machine for the GPUs still in the pool.
  const std::vector<int>& per_machine() const { return per_machine_; }

  /// First pooled GPU (ascending), or kNoGpu when empty.
  GpuId First() const { return next_[sentinel_]; }
  /// Pooled GPU after `g` (ascending), or kNoGpu when `g` is the last.
  GpuId Next(GpuId g) const {
    const GpuId n = next_[g];
    return n == sentinel_ ? kNoGpu : n;
  }

  /// The pool as an ascending vector (for placement helpers that want a
  /// random-access view). O(pool size).
  std::vector<GpuId> ToVector() const;

  /// The first min(n, size()) pooled GPUs, ascending.
  std::vector<GpuId> FirstN(int n) const;

  /// The min(n, size()) fastest pooled GPUs: machines by descending
  /// generation speed (ties ascending machine id), ascending GPU id within
  /// a machine. On a uniform-speed topology this is exactly FirstN — the
  /// deterministic speed-aware pick the greedy baselines take their gangs
  /// from.
  std::vector<GpuId> FirstNFastest(int n) const;

 private:
  GpuId sentinel_ = 0;           // == num_gpus; list head/tail anchor
  std::vector<GpuId> next_;      // size num_gpus + 1; next_[sentinel_] = head
  std::vector<GpuId> prev_;
  std::vector<unsigned char> in_;
  std::vector<int> per_machine_;
  const Topology* topo_ = nullptr;
  int size_ = 0;
};

/// A round scheduler — the bottom level of the two-level architecture
/// (Sec. 2.3) in protocol form. Given an offer it stages grants through the
/// context (which keeps the pool, the per-machine counts, and the job gangs
/// consistent as grants accumulate) and returns the finished GrantSet. It
/// must not mutate the cluster: lease creation is the caller's job, through
/// ApplyGrants.
class IRoundScheduler {
 public:
  virtual ~IRoundScheduler() = default;

  /// Run one offer -> bid -> grant round. Precondition: the context was
  /// built from `offer`.
  virtual GrantSet RunRound(const ResourceOffer& offer,
                            SchedulerContext& ctx) = 0;

  virtual const char* name() const = 0;
};

}  // namespace themis
