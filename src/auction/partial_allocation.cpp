#include "auction/partial_allocation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace themis {
namespace {

void Validate(const std::vector<const BidTable*>& bids,
              const std::vector<int>& offered, const char* who) {
  for (const BidTable* b : bids) {
    if (b == nullptr)
      throw std::invalid_argument(std::string(who) + ": null bid table");
    const std::string err = ValidateBid(*b, offered);
    if (!err.empty()) throw std::invalid_argument(std::string(who) + ": " + err);
  }
}

/// Precomputed log-valuations; rows sorted by descending value per app so the
/// branch-and-bound explores promising rows first.
struct Problem {
  const std::vector<const BidTable*>* bids = nullptr;
  std::vector<int> offered;
  /// log V for bids[i]->rows[r].
  std::vector<std::vector<double>> log_value;
  /// Row visit order per app (descending log value).
  std::vector<std::vector<int>> row_order;
  /// Best (max) log value per app, for optimistic pruning bounds.
  std::vector<double> best_log;
};

Problem BuildProblem(const std::vector<const BidTable*>& bids,
                     const std::vector<int>& offered) {
  Problem p;
  p.bids = &bids;
  p.offered = offered;
  p.log_value.resize(bids.size());
  p.row_order.resize(bids.size());
  p.best_log.resize(bids.size());
  for (std::size_t i = 0; i < bids.size(); ++i) {
    const auto& rows = bids[i]->rows;
    p.log_value[i].resize(rows.size());
    p.row_order[i].resize(rows.size());
    double best = -1e18;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      p.log_value[i][r] = std::log(rows[r].Value());
      p.row_order[i][r] = static_cast<int>(r);
      best = std::max(best, p.log_value[i][r]);
    }
    std::stable_sort(p.row_order[i].begin(), p.row_order[i].end(),
                     [&](int a, int b) { return p.log_value[i][a] > p.log_value[i][b]; });
    p.best_log[i] = best;
  }
  return p;
}

bool Fits(const BidRow& row, const std::vector<int>& remaining) {
  for (std::size_t m = 0; m < remaining.size(); ++m)
    if (row.gpus_per_machine[m] > remaining[m]) return false;
  return true;
}

void Consume(const BidRow& row, std::vector<int>& remaining, int sign) {
  for (std::size_t m = 0; m < remaining.size(); ++m)
    remaining[m] -= sign * row.gpus_per_machine[m];
}

double TotalLog(const Problem& p, const std::vector<int>& rows) {
  double total = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) total += p.log_value[i][rows[i]];
  return total;
}

/// Greedy incumbent: apps ordered by how much they stand to gain (best row
/// vs. zero row), each taking its best feasible row. Deterministic.
std::vector<int> GreedySolve(const Problem& p) {
  const auto& bids = *p.bids;
  std::vector<std::size_t> order(bids.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double gain_a = p.best_log[a] - p.log_value[a][0];
    const double gain_b = p.best_log[b] - p.log_value[b][0];
    return gain_a > gain_b;
  });

  std::vector<int> rows(bids.size(), 0);
  std::vector<int> remaining = p.offered;
  for (std::size_t i : order) {
    for (int r : p.row_order[i]) {
      if (Fits(bids[i]->rows[r], remaining)) {
        rows[i] = r;
        Consume(bids[i]->rows[r], remaining, +1);
        break;
      }
    }
  }
  return rows;
}

/// One improvement pass: for each app, try every alternative row holding the
/// others fixed; accept the best strictly improving switch. Repeats up to
/// `passes` times or until a fixed point.
void LocalSearch(const Problem& p, std::vector<int>& rows, int passes) {
  const auto& bids = *p.bids;
  std::vector<int> remaining = p.offered;
  for (std::size_t i = 0; i < rows.size(); ++i)
    Consume(bids[i]->rows[rows[i]], remaining, +1);

  for (int pass = 0; pass < passes; ++pass) {
    bool improved = false;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      // Free app i's current row, then look for the best feasible row.
      Consume(bids[i]->rows[rows[i]], remaining, -1);
      int best_row = rows[i];
      double best_log = p.log_value[i][rows[i]];
      for (int r : p.row_order[i]) {
        if (p.log_value[i][r] <= best_log) break;  // sorted: no better rows left
        if (Fits(bids[i]->rows[r], remaining)) {
          best_row = r;
          best_log = p.log_value[i][r];
          break;
        }
      }
      if (best_row != rows[i]) {
        rows[i] = best_row;
        improved = true;
      }
      Consume(bids[i]->rows[rows[i]], remaining, +1);
    }
    if (!improved) break;
  }
}

struct BnbState {
  std::vector<int> best_rows;
  double best_log = -1e18;
  std::int64_t nodes = 0;
  bool exhausted = true;
};

// The branch-and-bound recursion and its driver carry most of an auction's
// time, and their speed swings by ~40% with where they fall relative to
// 32-byte code boundaries (measured on an Intel Xeon, perfbench sim-burst),
// enough to move whole-round cost by ~20%. Pinning their alignment keeps
// that cost independent of the code laid out before them.
[[gnu::aligned(32)]] void Bnb(const Problem& p, std::size_t i,
                              std::vector<int>& rows,
                              std::vector<int>& remaining, double log_so_far,
                              double* suffix_best, std::int64_t max_nodes,
                              BnbState& state) {
  if (state.nodes >= max_nodes) {
    state.exhausted = false;
    return;
  }
  ++state.nodes;
  const auto& bids = *p.bids;
  if (i == bids.size()) {
    if (log_so_far > state.best_log) {
      state.best_log = log_so_far;
      state.best_rows = rows;
    }
    return;
  }
  // Optimistic bound: remaining apps all take their best row (capacity-free).
  if (log_so_far + suffix_best[i] <= state.best_log) return;

  for (int r : p.row_order[i]) {
    if (!Fits(bids[i]->rows[r], remaining)) continue;
    rows[i] = r;
    Consume(bids[i]->rows[r], remaining, +1);
    Bnb(p, i + 1, rows, remaining, log_so_far + p.log_value[i][r], suffix_best,
        max_nodes, state);
    Consume(bids[i]->rows[r], remaining, -1);
  }
  rows[i] = 0;
}

[[gnu::aligned(32)]] PfSolution Solve(const Problem& p,
                                      const PaConfig& config) {
  const auto& bids = *p.bids;
  PfSolution sol;
  if (bids.empty()) return sol;

  std::vector<int> rows = GreedySolve(p);
  LocalSearch(p, rows, config.local_search_passes);

  // suffix_best[i] = sum of best logs over apps i..end.
  std::vector<double> suffix(bids.size() + 1, 0.0);
  for (std::size_t i = bids.size(); i-- > 0;)
    suffix[i] = suffix[i + 1] + p.best_log[i];

  BnbState state;
  state.best_rows = rows;
  state.best_log = TotalLog(p, rows);
  std::vector<int> work_rows(bids.size(), 0);
  std::vector<int> remaining = p.offered;
  Bnb(p, 0, work_rows, remaining, 0.0, suffix.data(), config.max_nodes, state);

  sol.rows = state.best_rows;
  sol.log_welfare = state.best_log;
  sol.exact = state.exhausted;
  return sol;
}

}  // namespace

PfSolution SolveProportionalFair(const std::vector<const BidTable*>& bids,
                                 const std::vector<int>& offered,
                                 const PaConfig& config) {
  Validate(bids, offered, "SolveProportionalFair");
  const Problem p = BuildProblem(bids, offered);
  return Solve(p, config);
}

PaResult PartialAllocation(const std::vector<const BidTable*>& bids,
                           const std::vector<int>& offered,
                           const PaConfig& config) {
  Validate(bids, offered, "PartialAllocation");

  PaResult result;
  result.leftover = offered;
  if (bids.empty()) return result;

  const Problem p = BuildProblem(bids, offered);
  const PfSolution pf = Solve(p, config);
  result.log_welfare = pf.log_welfare;
  result.exact = pf.exact;

  // Hidden payments: compare the others' welfare with and without each app.
  result.winners.resize(bids.size());
  std::vector<const BidTable*> others;
  others.reserve(bids.size() - 1);
  for (std::size_t i = 0; i < bids.size(); ++i) {
    PaWinner& w = result.winners[i];
    w.app = bids[i]->app;
    w.row = pf.rows[i];
    w.granted.assign(offered.size(), 0);

    const BidRow& row = bids[i]->rows[w.row];
    if (row.IsZero()) {
      w.c = 1.0;  // nothing granted, nothing withheld
      continue;
    }
    if (!config.hidden_payments) {
      w.c = 1.0;
      w.granted = row.gpus_per_machine;
      for (std::size_t m = 0; m < offered.size(); ++m)
        result.leftover[m] -= w.granted[m];
      continue;
    }

    // Market without app i — borrowed pointers, no table copies.
    others.clear();
    for (std::size_t j = 0; j < bids.size(); ++j)
      if (j != i) others.push_back(bids[j]);
    const PfSolution without = SolveProportionalFair(others, offered, config);
    if (!without.exact) result.exact = false;

    // Others' log-welfare inside the full optimum.
    double with_log = pf.log_welfare - p.log_value[i][w.row];
    // c_i = exp(with - without) <= 1 (removing i frees resources). Clamp to
    // guard against approximate subproblem solutions.
    w.c = std::clamp(std::exp(with_log - without.log_welfare), 0.0, 1.0);

    for (std::size_t m = 0; m < offered.size(); ++m) {
      const int granted = static_cast<int>(
          std::floor(w.c * static_cast<double>(row.gpus_per_machine[m]) + 1e-9));
      w.granted[m] = granted;
      result.leftover[m] -= granted;
    }
  }
  return result;
}

}  // namespace themis
