// The ARBITER behind themis_arbiterd (Sec. 5.1's central resource
// allocator, run as a service instead of inside the simulator).
//
// ArbiterCore is a thin wrapper over the shared round state machine
// (core/round_core.h), the same RoundCore the simulator clocks: accrual,
// lease reclaim, tuner steps, RunRound + ApplyGrants and restart charging
// are implemented there, once. The wrapper adds what a service needs:
//   - a *virtual* clock: round k runs at k * round_interval_minutes,
//     independent of wall time;
//   - finish detection at round boundaries, reported in
//     RoundStart::finished (the simulator projects finish instants);
//   - guards against mutating state while a round's offer is out;
//   - the running GrantDigest of every applied grant.
//
// All state a policy reads lives in the core, never with the AGENTs (the
// paper's semi-trusted AGENT model), so a BID on the wire only signals
// liveness and declared demand. Daemon-served rounds are therefore
// bit-identical to driving the same core in-process: both are the same
// BeginRound()/FinishRound() call sequence on the same state.
//
// The round is split so the daemon can fan out the offer and await bids
// in between: BeginRound() advances the clock, accrues progress, finishes
// converged apps and runs the core's first half (an offer-less round
// settles at once); FinishRound() runs the core's second half over the
// offer and folds the grants into the digest. No mutation may happen
// between the halves. RunOneRound() calls both back-to-back.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/cluster.h"
#include "common/knobs.h"
#include "core/round_core.h"
#include "core/themis_policy.h"
#include "estimator/work_estimator.h"
#include "net/wire.h"
#include "sim/experiment.h"
#include "sim/state.h"

namespace themis::server {

struct ArbiterConfig {
  ClusterSpec cluster = ClusterSpec::Simulation256();
  PolicyKind policy = PolicyKind::kThemis;
  ThemisConfig themis;
  EstimatorConfig estimator;
  /// GPU lease duration in virtual minutes.
  Time lease_minutes = 20.0;
  /// Virtual minutes between rounds: round k runs at k * interval.
  Time round_interval_minutes = 5.0;
  /// Progress stall charged to a job whenever its gang changes.
  Time restart_overhead_minutes = 0.75;
  std::uint64_t seed = 1234;

  /// Throws std::invalid_argument naming the offending knob.
  void Validate() const;
};

/// The knobs of an ArbiterConfig, for flags only (no file format reads
/// one); its ThemisConfig takes ThemisKnobs.
KnobTable ArbiterKnobs(ArbiterConfig& config);

/// The first half of a round: what the daemon fans out.
struct RoundStart {
  std::uint64_t round_id = 0;
  Time time = 0.0;
  /// Apps that finished at this round boundary (their best model reached
  /// the target); their AGENTs get CLOSE-worthy notice in the GRANT frame.
  std::vector<AppId> finished;
  /// True when there is an offer to auction (free GPUs and active apps).
  bool have_offer = false;
  ResourceOffer offer;
};

class ArbiterCore {
 public:
  explicit ArbiterCore(const ArbiterConfig& config);

  /// Register an app at the current virtual time (spec.arrival is
  /// overwritten with now()). Returns its AppId. Registration order is part
  /// of the deterministic contract: daemon and reference must register the
  /// same specs in the same order to produce identical rounds.
  AppId RegisterApp(AppSpec spec);

  /// Evict an app (its AGENT disconnected): kill its jobs, release its
  /// leases. Must not be called between BeginRound and FinishRound.
  void RemoveApp(AppId id);

  RoundStart BeginRound();
  /// `offer` must be the offer BeginRound just published.
  GrantSet FinishRound(const ResourceOffer& offer);

  /// Both halves back-to-back — the in-process reference path. When
  /// `start` is non-null the round's first half is copied out.
  GrantSet RunOneRound(RoundStart* start = nullptr);

  Time now() const { return core_.now(); }
  std::uint64_t rounds_run() const { return core_.passes(); }
  std::size_t apps_registered() const { return core_.next_app_id(); }
  std::size_t apps_active() const { return core_.active_apps().size(); }
  std::size_t apps_finished() const { return core_.finished_apps(); }
  const net::GrantDigest& digest() const { return digest_; }
  const Cluster& cluster() const { return core_.cluster(); }
  const AppState* app(AppId id) const { return core_.FindApp(id); }
  /// The shared round state machine (read-only).
  const RoundCore& round_core() const { return core_; }

  /// Declared whole-gang demand still unmet for an app (what an honest
  /// AGENT would put in its BID). 0 for finished/unknown apps.
  int UnmetDemand(AppId id) const;

 private:
  ArbiterConfig config_;
  RoundCore core_;
  net::GrantDigest digest_;
  bool round_open_ = false;
};

}  // namespace themis::server
