// Exhaustive reference for the Partial Allocation mechanism (Pseudocode 2)
// on tiny auctions: it enumerates every feasible row assignment instead of
// searching, so it shares no code or search order with the solver.
//
// Only usable where the product of the table sizes is small (the oracle
// suite keeps to <= 5 apps, <= 4 rows, <= 4 machines: at most 1024
// assignments per market).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "auction/bid.h"

namespace themis {

inline constexpr std::size_t kOracleNoSkip = static_cast<std::size_t>(-1);

namespace oracle_detail {

inline void Enumerate(const std::vector<const BidTable*>& bids,
                      std::size_t skip, std::size_t i,
                      std::vector<int>& remaining, double log_so_far,
                      double& best) {
  if (i == bids.size()) {
    best = std::max(best, log_so_far);
    return;
  }
  if (i == skip) {
    Enumerate(bids, skip, i + 1, remaining, log_so_far, best);
    return;
  }
  for (const BidRow& row : bids[i]->rows) {
    bool fits = true;
    for (std::size_t m = 0; m < remaining.size(); ++m)
      fits = fits && row.gpus_per_machine[m] <= remaining[m];
    if (!fits) continue;
    for (std::size_t m = 0; m < remaining.size(); ++m)
      remaining[m] -= row.gpus_per_machine[m];
    Enumerate(bids, skip, i + 1, remaining, log_so_far + std::log(row.Value()),
              best);
    for (std::size_t m = 0; m < remaining.size(); ++m)
      remaining[m] += row.gpus_per_machine[m];
  }
}

}  // namespace oracle_detail

/// Max over every feasible assignment of sum_j log V_j(row_j), over all
/// apps except `skip` (the market without that app).
inline double OracleMaxLogWelfare(const std::vector<const BidTable*>& bids,
                                  const std::vector<int>& offered,
                                  std::size_t skip = kOracleNoSkip) {
  std::vector<int> remaining = offered;
  double best = -1e300;
  oracle_detail::Enumerate(bids, skip, 0, remaining, 0.0, best);
  return best;
}

/// sum_j log V_j(rows[j]) over all apps except `skip`.
inline double OracleLogWelfare(const std::vector<const BidTable*>& bids,
                               const std::vector<int>& rows,
                               std::size_t skip = kOracleNoSkip) {
  double total = 0.0;
  for (std::size_t j = 0; j < bids.size(); ++j)
    if (j != skip) total += std::log(bids[j]->rows[rows[j]].Value());
  return total;
}

/// Pseudocode 2's hidden-payment ratio for app i, given the proportionally
/// fair assignment `rows`: the others' welfare with i present over their
/// best welfare without i, c_i = Prod_{j!=i} V_j(R_pf) / Prod_{j!=i}
/// V_j(R_pf^{-i}).
inline double OracleRetention(const std::vector<const BidTable*>& bids,
                              const std::vector<int>& offered,
                              const std::vector<int>& rows, std::size_t i) {
  return std::exp(OracleLogWelfare(bids, rows, i) -
                  OracleMaxLogWelfare(bids, offered, i));
}

}  // namespace themis
