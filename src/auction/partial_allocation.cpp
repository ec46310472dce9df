#include "auction/partial_allocation.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

namespace themis {
namespace {

void Validate(const std::vector<const BidTable*>& bids,
              const std::vector<int>& offered) {
  for (const BidTable* b : bids) {
    if (b == nullptr)
      throw std::invalid_argument("PartialAllocation: null bid table");
    const std::string err = ValidateBid(*b, offered);
    if (!err.empty()) throw std::invalid_argument("PartialAllocation: " + err);
  }
}

/// No app skipped: the full market.
constexpr std::size_t kNoSkip = static_cast<std::size_t>(-1);

/// One nonzero entry of a bid row.
struct Ask {
  int machine = 0;
  int gpus = 0;
};

/// One auction in the form the search reads, built once per auction and
/// shared by the stage-1 solve and every hidden-payment re-solve. Rows are
/// flattened across apps: app i owns flat rows first_row[i] ..
/// first_row[i + 1] - 1, and flat row g asks for asks[first_ask[g]] ..
/// asks[first_ask[g + 1] - 1], its nonzero machines only and in machine
/// order, since a row touches a few machines of the offer.
struct Problem {
  std::vector<int> offered;
  std::vector<std::size_t> first_row;
  /// log V per flat row.
  std::vector<double> log_value;
  /// Per app, the row indices it visits, in visit order: descending log
  /// value, ties in table order, so the branch-and-bound explores promising
  /// rows first. App i's run is row_order[first_visit[i]] ..
  /// row_order[first_visit[i + 1] - 1]; rows dominated by an earlier one
  /// are left out.
  std::vector<int> row_order;
  std::vector<std::size_t> first_visit;
  /// Best (max) log value per app, for optimistic pruning bounds.
  std::vector<double> best_log;
  /// Apps by descending gain of their best row over their zero row, ties in
  /// input order: the greedy incumbent's order.
  std::vector<std::size_t> greedy_order;
  std::vector<std::size_t> first_ask;
  std::vector<Ask> asks;

  std::size_t apps() const { return best_log.size(); }
  double Log(std::size_t i, int r) const { return log_value[first_row[i] + r]; }
  std::span<const int> Order(std::size_t i) const {
    return {row_order.data() + first_visit[i],
            row_order.data() + first_visit[i + 1]};
  }
};

/// True if flat row `a` asks no more GPUs than flat row `b` on every
/// machine, so `a` fits wherever `b` fits. Walks both sparse ask lists.
bool AsksNoMore(const Problem& p, std::size_t a, std::size_t b) {
  std::size_t k = p.first_ask[b];
  for (std::size_t j = p.first_ask[a]; j < p.first_ask[a + 1]; ++j) {
    while (k < p.first_ask[b + 1] && p.asks[k].machine < p.asks[j].machine)
      ++k;
    if (k == p.first_ask[b + 1] || p.asks[k].machine != p.asks[j].machine ||
        p.asks[k].gpus < p.asks[j].gpus)
      return false;
  }
  return true;
}

Problem BuildProblem(const std::vector<const BidTable*>& bids,
                     const std::vector<int>& offered) {
  Problem p;
  p.offered = offered;
  p.best_log.resize(bids.size());
  p.first_row.push_back(0);
  p.first_visit.push_back(0);
  p.first_ask.push_back(0);
  for (std::size_t i = 0; i < bids.size(); ++i) {
    const auto& rows = bids[i]->rows;
    const std::size_t base = p.log_value.size();
    double best = -1e18;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      p.log_value.push_back(std::log(rows[r].Value()));
      p.row_order.push_back(static_cast<int>(r));
      best = std::max(best, p.log_value.back());
      const auto& gpus = rows[r].gpus_per_machine;
      for (std::size_t m = 0; m < gpus.size(); ++m)
        if (gpus[m] != 0) p.asks.push_back({static_cast<int>(m), gpus[m]});
      p.first_ask.push_back(p.asks.size());
    }
    const auto visit = p.row_order.begin() + p.first_visit[i];
    std::stable_sort(visit, p.row_order.end(), [&](int a, int b) {
      return p.log_value[base + a] > p.log_value[base + b];
    });
    // Drop a row when a row kept before it asks at most as many GPUs on
    // every machine. That row fits wherever the dropped one fits, is worth
    // at least as much and is tried first, so every subtree under the
    // dropped row is matched by one already searched that is at least as
    // good; the greedy and local-search passes take the first fitting row.
    auto kept = visit;
    for (auto r = visit; r != p.row_order.end(); ++r)
      if (std::none_of(visit, kept, [&](int k) {
            return AsksNoMore(p, base + k, base + *r);
          }))
        *kept++ = *r;
    p.row_order.erase(kept, p.row_order.end());
    p.first_visit.push_back(p.row_order.size());
    p.best_log[i] = best;
    p.first_row.push_back(p.log_value.size());
  }
  p.greedy_order.resize(bids.size());
  for (std::size_t i = 0; i < bids.size(); ++i) p.greedy_order[i] = i;
  std::stable_sort(p.greedy_order.begin(), p.greedy_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return p.best_log[a] - p.Log(a, 0) >
                            p.best_log[b] - p.Log(b, 0);
                   });
  return p;
}

// Validation puts every zero row within the offer and rejects negative asks,
// so the remaining capacity never drops below zero: a row's zero entries
// always fit, and only its asks need checking.
bool Fits(const Problem& p, std::size_t i, int r,
          const std::vector<int>& remaining) {
  const std::size_t g = p.first_row[i] + r;
  for (std::size_t k = p.first_ask[g]; k < p.first_ask[g + 1]; ++k)
    if (p.asks[k].gpus > remaining[p.asks[k].machine]) return false;
  return true;
}

void Consume(const Problem& p, std::size_t i, int r,
             std::vector<int>& remaining, int sign) {
  const std::size_t g = p.first_row[i] + r;
  for (std::size_t k = p.first_ask[g]; k < p.first_ask[g + 1]; ++k)
    remaining[p.asks[k].machine] -= sign * p.asks[k].gpus;
}

double TotalLog(const Problem& p, const std::vector<std::size_t>& apps,
                const std::vector<int>& rows) {
  double total = 0.0;
  for (std::size_t i : apps) total += p.Log(i, rows[i]);
  return total;
}

/// Greedy incumbent: apps in greedy order, each taking its best feasible
/// row. Deterministic.
std::vector<int> GreedySolve(const Problem& p, std::size_t skip) {
  std::vector<int> rows(p.apps(), 0);
  std::vector<int> remaining = p.offered;
  for (std::size_t i : p.greedy_order) {
    if (i == skip) continue;
    for (int r : p.Order(i)) {
      if (Fits(p, i, r, remaining)) {
        rows[i] = r;
        Consume(p, i, r, remaining, +1);
        break;
      }
    }
  }
  return rows;
}

/// One improvement pass: for each app, try every alternative row holding the
/// others fixed; accept the best strictly improving switch. Repeats up to
/// `passes` times or until a fixed point.
void LocalSearch(const Problem& p, const std::vector<std::size_t>& apps,
                 std::vector<int>& rows, int passes) {
  std::vector<int> remaining = p.offered;
  for (std::size_t i : apps) Consume(p, i, rows[i], remaining, +1);

  for (int pass = 0; pass < passes; ++pass) {
    bool improved = false;
    for (std::size_t i : apps) {
      // Free app i's current row, then look for the best feasible row.
      Consume(p, i, rows[i], remaining, -1);
      int best_row = rows[i];
      double best_log = p.Log(i, rows[i]);
      for (int r : p.Order(i)) {
        if (p.Log(i, r) <= best_log) break;  // sorted: no better rows left
        if (Fits(p, i, r, remaining)) {
          best_row = r;
          best_log = p.Log(i, r);
          break;
        }
      }
      if (best_row != rows[i]) {
        rows[i] = best_row;
        improved = true;
      }
      Consume(p, i, rows[i], remaining, +1);
    }
    if (!improved) break;
  }
}

/// Stage 1's answer: the chosen row per app and the achieved log welfare.
struct PfSolution {
  std::vector<int> rows;
  double log_welfare = 0.0;
  bool exact = true;
};

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
//
// `apps` lists the apps in the market in input order; depth d assigns a
// row to apps[d].
[[gnu::aligned(32)]] void Bnb(const Problem& p,
                              const std::vector<std::size_t>& apps,
                              std::size_t d, std::vector<int>& rows,
                              std::vector<int>& remaining, double log_so_far,
                              const double* suffix_best, std::int64_t max_nodes,
                              BnbState& state) {
  if (state.nodes >= max_nodes) {
    state.exhausted = false;
    return;
  }
  ++state.nodes;
  if (d == apps.size()) {
    if (log_so_far > state.best_log) {
      state.best_log = log_so_far;
      state.best_rows = rows;
    }
    return;
  }
  // Optimistic bound: remaining apps all take their best row (capacity-free).
  if (log_so_far + suffix_best[d] <= state.best_log) return;

  const std::size_t i = apps[d];
  for (int r : p.Order(i)) {
    if (!Fits(p, i, r, remaining)) continue;
    rows[i] = r;
    Consume(p, i, r, remaining, +1);
    Bnb(p, apps, d + 1, rows, remaining, log_so_far + p.Log(i, r), suffix_best,
        max_nodes, state);
    Consume(p, i, r, remaining, -1);
  }
  rows[i] = 0;
}

/// Proportional-fair rows for the market of every app but `skip` (kNoSkip:
/// all of them). The result's rows are indexed by app; rows[skip] is 0.
[[gnu::aligned(32)]] PfSolution Solve(const Problem& p, std::size_t skip,
                                      const PaConfig& config) {
  PfSolution sol;
  std::vector<std::size_t> apps;
  apps.reserve(p.apps());
  for (std::size_t i = 0; i < p.apps(); ++i)
    if (i != skip) apps.push_back(i);
  if (apps.empty()) return sol;

  std::vector<int> rows = GreedySolve(p, skip);
  LocalSearch(p, apps, rows, config.local_search_passes);

  // suffix_best[d] = sum of best logs over apps[d..end].
  std::vector<double> suffix(apps.size() + 1, 0.0);
  for (std::size_t d = apps.size(); d-- > 0;)
    suffix[d] = suffix[d + 1] + p.best_log[apps[d]];

  BnbState state;
  state.best_rows = rows;
  state.best_log = TotalLog(p, apps, rows);
  std::vector<int> work_rows(p.apps(), 0);
  std::vector<int> remaining = p.offered;
  Bnb(p, apps, 0, work_rows, remaining, 0.0, suffix.data(), config.max_nodes,
      state);

  sol.rows = std::move(state.best_rows);
  sol.log_welfare = state.best_log;
  sol.exact = state.exhausted;
  return sol;
}

}  // namespace

PaResult PartialAllocation(const std::vector<const BidTable*>& bids,
                           const std::vector<int>& offered,
                           const PaConfig& config) {
  Validate(bids, offered);

  PaResult result;
  result.leftover = offered;
  if (bids.empty()) return result;

  const Problem p = BuildProblem(bids, offered);
  const PfSolution pf = Solve(p, kNoSkip, config);
  result.log_welfare = pf.log_welfare;
  result.exact = pf.exact;

  // Hidden payments: compare the others' welfare with and without each app.
  result.winners.resize(bids.size());
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

    // Market without app i: the same problem, searched with i skipped.
    const PfSolution without = Solve(p, i, config);
    if (!without.exact) result.exact = false;

    // Others' log-welfare inside the full optimum.
    const double with_log = pf.log_welfare - p.Log(i, w.row);
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
