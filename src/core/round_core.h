// The ARBITER's round state machine (Sec. 5.1's central allocator, Fig. 3),
// written once and clocked by two callers: the event-driven Simulator and
// the themis_arbiterd service (server/ArbiterCore).
//
// RoundCore owns everything a round reads or writes — the cluster and its
// leases, the app store, the active and lease-holder sets, the maintained
// RhoIndex, the work estimator and its RNG stream, and the round scheduler —
// and keeps them consistent at every mutation. It never reads a clock:
// every entry point takes the time from its caller, which decides only
// *when* apps arrive, progress accrues, rounds run and jobs finish. Finish
// detection stays with the caller (the simulator projects finish instants,
// the daemon scans at round boundaries), through Converged and FinishJob.
//
// A round is split in two so a caller can fan the offer out and await bids
// in between: BeginRound reclaims expired leases (remembering each touched
// gang), steps the tuners and publishes the offer; FinishRound runs the
// scheduler, applies the grants and charges a checkpoint restart to every
// gang that changed — a gang renewed intact across a lease expiry is not
// charged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "core/rho_index.h"
#include "core/round.h"
#include "estimator/work_estimator.h"
#include "sim/state.h"

namespace themis {

class RoundCore {
 public:
  RoundCore(ClusterSpec cluster_spec,
            std::unique_ptr<IRoundScheduler> scheduler, Time lease_minutes,
            Time restart_overhead_minutes, const EstimatorConfig& estimator,
            std::uint64_t seed);

  // --- App store ----------------------------------------------------------

  /// Build the state for `spec` under the next AppId (T_ID, tuner, jobs).
  /// The app is stored but not active until Admit.
  AppState& AddApp(AppSpec spec);
  /// The app arrives: its tuner starts and it joins the active set.
  void Admit(AppState& app);
  /// Destroy a finished app's state; FindApp returns null for it after.
  void RetireApp(AppId id);
  AppState* FindApp(AppId id) { return Lookup(id); }
  const AppState* FindApp(AppId id) const { return Lookup(id); }
  /// Resident apps, indexed by AppId minus the number of retired apps at
  /// the front; retired slots are null until the front is popped.
  const std::deque<std::unique_ptr<AppState>>& apps() const { return apps_; }
  /// Apps added so far (the next AppId).
  AppId next_app_id() const { return next_app_id_; }

  // --- Time ---------------------------------------------------------------

  /// Accrue progress for lease holders over [now(), t]: held GPUs consume
  /// GPU-minutes for the whole interval (attained service is speed-weighted),
  /// training progresses from max(now(), resume_at). Returns false (and does
  /// nothing) unless t is later than now().
  bool AdvanceTo(Time t);
  /// The time progress was last accrued to.
  Time now() const { return last_advance_; }
  /// Raw GPU-minutes held across all leases so far.
  Work gpu_minutes() const { return gpu_minutes_; }

  // --- Jobs and apps ------------------------------------------------------

  /// True once `job` has reached its target accuracy (within the finish
  /// tolerance that absorbs segment-wise progress accumulation).
  static bool Converged(const JobState& job);
  /// `job` converged at `t`. The first job to reach the target is the app's
  /// best model, so the app finishes too (Sec. 2.1): it leaves the active
  /// set and its other live jobs are terminated.
  void FinishJob(Time t, AppState& app, JobState& job);
  /// The same state transitions as a finish for an app whose AGENT left,
  /// without counting it as finished. No-op when already finished.
  void EvictApp(Time t, AppState& app);
  /// Take `machine` down and revoke every lease on it; the affected jobs
  /// restart from checkpoints. Returns the number of leases revoked.
  int FailMachine(Time t, MachineId machine);
  void RepairMachine(MachineId machine);

  // --- Rounds -------------------------------------------------------------

  /// First half of a round at `now`: reclaim expired leases, step the dirty
  /// tuners, and publish the offer. Returns no offer when the free pool or
  /// the active set is empty. Must be followed by FinishRound.
  std::optional<ResourceOffer> BeginRound(Time now);
  /// Second half: run the scheduler over `offer` (the one BeginRound just
  /// published; null when it published none), apply the grants, and charge
  /// restarts to every changed gang. Returns the applied GrantSet (empty
  /// without an offer).
  GrantSet FinishRound(const ResourceOffer* offer);
  /// Apps whose holdings may have changed since the previous round settled
  /// (admissions, failures, tuner kills, reclaims, grants), ascending and
  /// unique. Valid until the next FinishRound.
  const std::vector<AppId>& round_touched_apps() const {
    return round_touched_apps_;
  }

  // --- Read accessors -----------------------------------------------------

  const Cluster& cluster() const { return cluster_; }
  /// Arrived, unfinished apps, ascending AppId.
  const AppList& active_apps() const { return active_apps_; }
  /// Active apps holding at least one leased GPU, ascending AppId.
  const AppList& holding_apps() const { return holding_apps_; }
  const RhoIndex& rho_index() const { return rho_index_; }
  /// Rounds begun so far; the current round's id.
  std::uint64_t passes() const { return passes_; }
  std::size_t finished_apps() const { return finished_apps_; }
  /// Sum over active apps of AppState::CapDemand() (the contention
  /// numerator), maintained in integers.
  long long total_cap_demand() const { return total_cap_demand_; }

 private:
  AppState* Lookup(AppId id) const;
  /// The tuner (or a finish) stopped `job`: release its gang.
  void KillJob(JobState& job);
  void FinishApp(Time t, AppState& app);
  void ActivateApp(AppState& app);
  void DeactivateApp(AppId id);
  /// Re-derive `app`'s holder membership (and its RhoIndex class) after a
  /// gang mutation. Every gang mutation funnels through here.
  void UpdateHolding(AppState& app);
  /// Queue `app` for the next round's tuner walk (its views may have
  /// changed): admission and progress accrual do this.
  void MarkTunerDirty(AppState& app);
  void StepTuner(Time t, AppState& app);
  void CloseApp(Time t, AppState& app);
  /// The gang changed at `t`: invalidate the job's allocation epoch and
  /// stall progress for the checkpoint restart.
  void ChargeRestart(Time t, JobState& job);
  void Touch(AppId id) { touched_apps_.push_back(id); }

  Cluster cluster_;
  std::unique_ptr<IRoundScheduler> scheduler_;
  WorkEstimator estimator_;
  Rng rng_;
  Time lease_minutes_;
  Time restart_overhead_minutes_;

  std::deque<std::unique_ptr<AppState>> apps_;
  AppId apps_base_ = 0;
  AppId next_app_id_ = 0;
  AppList active_apps_;
  AppList holding_apps_;
  RhoIndex rho_index_;

  /// Apps whose tuner views may have changed since their last Step
  /// (AppState::tuner_dirty guards duplicates); sorted and walked by
  /// BeginRound.
  std::vector<AppId> tuner_dirty_apps_;
  std::vector<AppId> touched_apps_;
  std::vector<AppId> round_touched_apps_;
  /// Scratch JobView buffer reused across tuner steps.
  std::vector<JobView> views_scratch_;
  /// Gangs as they were before this round's reclaim, per touched job.
  std::map<std::pair<AppId, JobId>, std::vector<GpuId>> reclaimed_before_;
  Time round_time_ = 0.0;

  Time last_advance_ = 0.0;
  Work gpu_minutes_ = 0.0;
  std::uint64_t passes_ = 0;
  std::size_t finished_apps_ = 0;
  long long total_cap_demand_ = 0;
};

}  // namespace themis
