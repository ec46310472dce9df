// The Partial Allocation (PA) mechanism — Pseudocode 2 of the paper, after
// Cole, Gkatzelis & Goel, "Mechanism design for fair division" (EC'13).
//
// Stage 1 (proportional fairness): choose one row per bidding app maximizing
// the product of valuations Prod_i V_i subject to the per-machine capacity of
// the offer. The paper solves this with Gurobi. We use a deterministic
// branch-and-bound instead, which needs no commercial solver and is exact on
// the small tables AGENTs send (a handful of rows per app). It is seeded by
// a greedy + local-search incumbent, and when the search space exceeds a
// node budget it returns the best answer found so far, marked inexact.
//
// Each app's rows are visited in descending value, ties in table order, and
// a row is skipped when it asks at least as many GPUs, on every machine, as
// a row visited before it. AGENT rows are cumulative bundles, so on a scarce
// offer many later rows add GPUs without lowering rho. A skipped row's
// dominator fits wherever it fits, is worth at least as much and is tried
// first, so the skipped row could never start a strict improvement: every
// search that finishes, and the budget-0 greedy path, returns the same rows,
// c_i and welfare as a search over every row. The node budget counts
// branch-and-bound nodes over the kept rows only; a search it cuts short
// may stop at a different incumbent than one that also branched on the
// skipped rows.
//
// Stage 2 (hidden payments / truth-telling): each app i keeps only a fraction
//     c_i = Prod_{j!=i} V_j(R_pf) / Prod_{j!=i} V_j(R_pf^{-i})
// of its proportionally fair bundle, where R_pf^{-i} is the optimum of the
// market without app i. Removing a bidder can only help the others, so
// c_i <= 1; the withheld (1 - c_i) share is the hidden payment that makes
// truthful reporting of V a dominant strategy for homogeneous valuations.
//
// Stage 1 and the N stage-2 re-solves all search one problem, built once per
// auction: the tables are validated, their logs taken, their rows sorted and
// their dominated rows dropped once, and a re-solve skips app i by index. Each row is kept sparse, as the
// list of machines it asks for, since a row touches a few machines of an
// offer that may span dozens.
//
// Stage 3 (leftovers): what the code guarantees is c_i in [0, 1] (clamped)
// and, on each machine, a grant of floor(c_i * the PF row's GPUs there): never
// more than the row, never less than c_i of it, rounded down. It does not
// bound the share left unallocated. Cole et al.'s 1/e bound is for divisible
// goods; with one discrete row per bidder it does not hold. On 4000 random
// auctions (1-3 machines of 1-6 GPUs, 2-4 bidders, at most 4 rows each,
// default PaConfig), 23% of row winners had c_i < 1/e (minimum 0.070), and
// PA left on average 76% of the offered GPUs unallocated. The ARBITER later
// hands those out work-conservingly to apps outside the auction (that step
// needs cluster state and lives with the policy, not here).
#pragma once

#include <cstdint>
#include <vector>

#include "auction/bid.h"

namespace themis {

struct PaConfig {
  /// Node budget for the exact branch-and-bound; beyond it the incumbent
  /// (greedy + local search) answer is returned.
  std::int64_t max_nodes = 200000;
  /// Local-search improvement passes over the greedy solution.
  int local_search_passes = 4;
  /// Ablation switch: when false, stage 2 is skipped (c_i = 1 for every
  /// winner) — the mechanism degenerates to plain proportional fairness,
  /// losing its truth-telling incentive. Exposed for the ablation bench.
  /// The result is then stage 1 alone: its rows, log_welfare and exact are
  /// the proportionally fair solve's.
  bool hidden_payments = true;
};

struct PaWinner {
  AppId app = kNoApp;
  /// Index of the winning row in the app's bid table (0 == zero row).
  int row = 0;
  /// Hidden-payment retention fraction c_i, clamped into [0, 1]. It is 1
  /// for a zero-row winner and with hidden payments off. The upper clamp
  /// absorbs rounding when i's absence does not help the others, and a
  /// re-solve cut short by the node budget that undershoots the market
  /// without i. c is 0 only where exp underflows: i's presence costs the
  /// others more than ~745 in log welfare. A small positive c can still
  /// floor every machine's grant to zero.
  double c = 1.0;
  /// Final granted GPUs per machine: floor(c * row), elementwise.
  std::vector<int> granted;
};

struct PaResult {
  /// One entry per bidding app, in input order.
  std::vector<PaWinner> winners;
  /// Offer minus all grants: the leftover pool for stage 3.
  std::vector<int> leftover;
  /// log of Prod_i V_i at the proportionally fair optimum (diagnostics).
  double log_welfare = 0.0;
  /// True if every per-app subproblem was solved exactly.
  bool exact = true;
};

/// Run the PA mechanism. `bids` must each validate against `offered`
/// (ValidateBid); violations throw std::invalid_argument. Tables stay
/// wherever the caller already holds them (e.g. inside AgentBid) and are
/// never copied; every pointer must be non-null and outlive the call.
PaResult PartialAllocation(const std::vector<const BidTable*>& bids,
                           const std::vector<int>& offered,
                           const PaConfig& config = {});

}  // namespace themis
