// Maintained rho index for the ARBITER's filter step (Fig. 3, steps 1-2).
//
// The literal filter probes every active app for rho and stable_sorts the
// full candidate vector each round — O(n log n) in the live population even
// when a single lease expired. This index makes the filter O(k log n) in the
// apps actually touched since the last round by exploiting one invariant of
// the rho arithmetic (core/agent.cpp):
//
//   An app holding no GPUs on any job has rho EXACTLY kUnboundedRho — the
//   probe skips every gangless job before consulting the estimator, the
//   running minimum stays infinite, and RhoFromSharedTime short-circuits
//   non-finite shared time to the kUnboundedRho constant with no arithmetic
//   on ideal_time and zero estimator (hence zero RNG) calls.
//
// That value is *time-invariant*: pure time advance cannot change it. It
// changes only when the app gains a gang — a grant — and the remaining
// tie-break terms of the sort comparator (ideal_time, id) are immutable per
// app. So the index keeps the gangless hungry apps ("unbounded candidates")
// in a std::set ordered by the comparator's tie-break chain, updated only on
// the events that can reclassify an app: grant/release/kill (any gang
// mutation), tuner cap change (demand mutation), arrival, and finish. Apps
// holding at least one GPU ("holders") have genuinely time-dependent rho —
// progress, stalls, and estimator noise move it every round — so they are
// kept as a small ascending-id set, bounded by cluster capacity rather than
// population, and re-probed each round with the exact arithmetic and
// estimator-call order of the full scan. Merging the freshly sorted holders
// with the pre-ordered unbounded class under the full comparator (a strict
// total order thanks to the id tie-break) reproduces the literal
// stable_sort's output bit-for-bit, and the merge stops after the top
// 1-f fraction instead of materializing the whole order.
//
// Membership is re-derived from AppState alone (Update is idempotent), so
// every round-core hook simply calls Update(app) after mutating it. The
// round core (core/round_core.h) owns one RhoIndex and threads it through
// SchedulerContext::rho_index(); contexts built without one (legacy tests,
// external embedders) leave the pointer null and ThemisPolicy falls back to
// the literal scan. ThemisConfig::incremental_filter = false forces the
// literal scan even when an index is present (the bisect escape hatch).
#pragma once

#include <cstddef>
#include <set>
#include <vector>

#include "sim/state.h"

namespace themis {

class RhoIndex {
 public:
  /// Orders the unbounded candidates by the sort comparator's tie-break
  /// chain — every member's rho is the same kUnboundedRho constant, so the
  /// chain below IS the full comparator restricted to this class.
  struct UnboundedLess {
    bool short_app_tiebreak = true;
    bool operator()(const AppState* a, const AppState* b) const {
      if (short_app_tiebreak && a->ideal_time != b->ideal_time)
        return a->ideal_time < b->ideal_time;
      return a->id < b->id;
    }
  };
  using UnboundedSet = std::set<AppState*, UnboundedLess>;

  /// Re-derive `app`'s class from its current state and move it between the
  /// holder / unbounded-candidate / absent sets as needed. Idempotent; call
  /// after any mutation that can change gang holdings, demand, or liveness
  /// (grant, release, kill, tuner step, arrival, finish). Classifying an
  /// active app as gangless also pins app->last_rho to kUnboundedRho — the
  /// value the probe would compute — so the merge comparator reads fresh
  /// floats without re-probing the class.
  void Update(AppState* app);

  /// Switch the tie-break chain (ThemisConfig::short_app_tiebreak). Reorders
  /// the unbounded set when the mode actually changes; a no-op otherwise.
  /// Policies call this once per round before reading the sets.
  void SetTiebreak(bool short_app_tiebreak);

  /// Active apps holding at least one leased GPU, ascending AppId — the
  /// re-probe set, bounded by cluster capacity. Probing these in order
  /// reproduces the full scan's estimator-call sequence exactly: gangless
  /// apps contribute no estimator calls, so the full scan's sequence is
  /// precisely "holders, ascending id".
  const std::vector<AppState*>& holders() const { return holders_; }

  /// Gangless apps with unmet demand, in comparator order (worst-off first
  /// after the bounded class at equal rho — all members tie at
  /// kUnboundedRho, so tie-break order is total order here).
  const UnboundedSet& unbounded_candidates() const { return unbounded_; }

  std::size_t num_unbounded() const { return unbounded_.size(); }
  bool short_app_tiebreak() const { return short_app_tiebreak_; }

 private:
  // AppState::rho_index_class values.
  static constexpr std::uint8_t kAbsent = 0;
  static constexpr std::uint8_t kHolder = 1;
  static constexpr std::uint8_t kUnbounded = 2;

  std::vector<AppState*> holders_;  // ascending id
  UnboundedSet unbounded_{UnboundedLess{true}};
  bool short_app_tiebreak_ = true;
};

}  // namespace themis
