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
// Policies consume the offer through the context's GpuPool
// (placement/placement_model.h): the offered GPUs bucketed by machine, which
// every staged grant shrinks, so all five policies pick from one pool.
#pragma once

#include <cstdint>
#include <vector>

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

/// A round scheduler — the bottom level of the two-level architecture
/// (Sec. 2.3) in protocol form. Given an offer it stages grants through the
/// context (which keeps the pool and the job gangs consistent as grants
/// accumulate) and returns the finished GrantSet. It must not mutate the
/// cluster: lease creation is the caller's job, through ApplyGrants.
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
