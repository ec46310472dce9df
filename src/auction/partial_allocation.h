// The Partial Allocation (PA) mechanism — Pseudocode 2 of the paper, after
// Cole, Gkatzelis & Goel, "Mechanism design for fair division" (EC'13).
//
// Stage 1 (proportional fairness): choose one row per bidding app maximizing
// the product of valuations Prod_i V_i subject to the per-machine capacity of
// the offer. The paper solves this with Gurobi; we use a deterministic
// branch-and-bound over the (small) bid tables seeded by a greedy incumbent,
// falling back to greedy + pairwise local search when the search space
// exceeds a node budget (DESIGN.md substitution #3).
//
// Stage 2 (hidden payments / truth-telling): each app i keeps only a fraction
//     c_i = Prod_{j!=i} V_j(R_pf) / Prod_{j!=i} V_j(R_pf^{-i})
// of its proportionally fair bundle, where R_pf^{-i} is the optimum of the
// market without app i. Removing a bidder can only help the others, so
// c_i <= 1; the withheld (1 - c_i) share is the hidden payment that makes
// truthful reporting of V a dominant strategy for homogeneous valuations.
//
// Stage 3 (leftovers): hidden payments may leave GPUs unallocated — at most a
// 1/e fraction in the worst case — which the ARBITER later hands out work-
// conservingly to apps outside the auction (that step needs cluster state and
// lives with the policy, not here).
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
  bool hidden_payments = true;
};

struct PaWinner {
  AppId app = kNoApp;
  /// Index of the winning row in the app's bid table (0 == zero row).
  int row = 0;
  /// Hidden-payment retention fraction c_i in (0, 1].
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

/// Exposed for testing: stage-1 proportional-fair row selection only.
/// Returns the chosen row index per app and the achieved log-welfare.
struct PfSolution {
  std::vector<int> rows;
  double log_welfare = 0.0;
  bool exact = true;
};
PfSolution SolveProportionalFair(const std::vector<const BidTable*>& bids,
                                 const std::vector<int>& offered,
                                 const PaConfig& config = {});

}  // namespace themis
