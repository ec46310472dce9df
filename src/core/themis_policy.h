// The THEMIS ARBITER — Pseudocode 1 of the paper, as one protocol round.
//
// On every round with free GPUs:
//   1. probe the active apps' AGENTs for their current rho,
//   2. offer the round's pool to the worst-off 1-f fraction (the fairness
//      knob f trades finish-time fairness for placement efficiency,
//      Sec. 8.2),
//   3. collect one valuation-table bid per offered app,
//   4. run the Partial Allocation mechanism to pick winning rows and apply
//      hidden payments,
//   5. stage each winner's (scaled) bundle as grants, letting the app's own
//      scheduler spread it over constituent jobs, and
//   6. stage leftover GPUs work-conservingly for apps outside the auction,
//      one gang at a time, preferring machines those apps already occupy
//      (Sec. 5.1 "Leftover Allocation"). The stage picks from the
//      context's pool, shrunk by the auction's grants, and lists the hungry
//      apps once, each with its smallest growable gang; every iteration
//      filters that list by the pool's size. An app's distinct machines are
//      listed the first time it is a candidate, and a grant merges the
//      gang's machines into the winner's list and refreshes only the
//      winner's entry (its gangs are the only ones that changed, and the
//      pool only shrinks). So a gang costs its pick, the winner's job order
//      and the candidate checks, never a pass over all the winner holds.
//      A round whose auction took the whole pool skips the stage before
//      listing anything.
// The returned GrantSet carries the round's auction diagnostics (offered /
// granted / leftover counts, participant count); applying the leases is the
// caller's job via ApplyGrants.
//
// Steps 1-2 (SelectParticipants) run over the round core's RhoIndex
// (core/rho_index.h): only apps holding GPUs can have a rho that moved, so
// only they are re-probed, and the result equals probing and sorting every
// active app. That literal scan is kept as a test oracle
// (tests/literal_filter.h) checked before every round of a whole run.
//
// Heterogeneous generations: the auction prices speed-weighted shares
// without any PA change, because every valuation is a rho and rho is built
// from speed-aware quantities — T_SH uses EffectiveJobRate (G * S *
// min-gang-speed) and T_ID assumes the cluster's fastest generation — so a
// bundle of A100 machines values higher than the same GPU count of K80s,
// and the hidden payments price that difference. The offer's
// machine_speeds vector carries the same information to external bidders.
#pragma once

#include "auction/partial_allocation.h"
#include "core/agent.h"
#include "sim/policy.h"

namespace themis {

struct ThemisConfig {
  /// Fairness knob f in [0, 1]: the free pool is offered to the 1-f fraction
  /// of apps with the worst rho. Paper default 0.8 (Sec. 8.2).
  double fairness_knob = 0.8;
  /// Max non-zero rows per bid table.
  int max_bid_rows = 6;
  /// Ablation switch for the Sec. 8.3.1 / Fig. 8 behaviour: break equal-rho
  /// ties toward apps with smaller ideal running time ("we break ties in
  /// favor of shorter apps"). When false, ties fall back to app id.
  bool short_app_tiebreak = true;
  /// Thread budget for the round's embarrassingly parallel phases — the rho
  /// probe over GPU holders and per-participant bid preparation (each worker
  /// writes only its own app / its own pre-sized bids[i] slot, so results are
  /// bit-identical to the serial loop at any thread count). 0 or 1 = serial;
  /// >= 2 = run on the shared process pool (common/parallel.h). The parallel
  /// path engages only under the stateless kClairvoyant estimator; kNoisy /
  /// kCurveFit share RNG / fit state whose draw order the serial loop
  /// defines, so those modes silently fall back to serial. Baseline
  /// policies ignore it.
  int auction_threads = 0;
  PaConfig pa;

  /// Throws std::invalid_argument when auction_threads < 0, fairness_knob
  /// is outside [0, 1] (NaN included) or max_bid_rows < 1. The scenario
  /// loader, the simulator runners and ArbiterCore call it for every policy
  /// kind.
  void Validate() const;
};

class ThemisPolicy final : public IRoundScheduler {
 public:
  explicit ThemisPolicy(ThemisConfig config = {});

  GrantSet RunRound(const ResourceOffer& offer, SchedulerContext& ctx) override;
  const char* name() const override { return "Themis"; }

  /// Steps 1-2: probe rho and return the worst-off max(1, ceil((1-f) N))
  /// of the N hungry apps, worst first — empty when no app is hungry. Reads
  /// the context's RhoIndex: only GPU holders are re-probed (ascending id),
  /// and the gangless class, whose rho is the kUnboundedRho constant, comes
  /// pre-ordered from the index. Writes last_rho of every holder.
  std::vector<AppState*> SelectParticipants(SchedulerContext& ctx,
                                            const Agent& agent) const;

 private:
  /// Thread budget for the round's data-parallel phases (probe, bid prep).
  int RoundThreads(SchedulerContext& ctx) const;

  ThemisConfig config_;
};

/// Step 6: hand out whatever is still in the context's pool after the
/// auction, one gang at a time, first to apps outside `participants`, then
/// to anyone still hungry. Draws the winner of each gang from ctx.rng().
void AllocateLeftovers(SchedulerContext& ctx, const Agent& agent,
                       const std::vector<AppState*>& participants);

}  // namespace themis
