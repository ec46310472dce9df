// Tests for auction/: bid validation and the Partial Allocation mechanism
// (Pseudocode 2) — proportional fairness, hidden payments, truthfulness.
#include <gtest/gtest.h>

#include <cmath>

#include "auction/partial_allocation.h"
#include "common/rng.h"

namespace themis {
namespace {

BidRow Row(std::vector<int> gpus, double rho) {
  BidRow r;
  r.gpus_per_machine = std::move(gpus);
  r.rho = rho;
  return r;
}

BidTable Table(AppId app, std::vector<BidRow> rows) {
  BidTable t;
  t.app = app;
  t.rows = std::move(rows);
  return t;
}

/// The solver's input form: pointers borrowed from `tables`.
std::vector<const BidTable*> Borrow(const std::vector<BidTable>& tables) {
  std::vector<const BidTable*> out;
  for (const BidTable& t : tables) out.push_back(&t);
  return out;
}

TEST(BidValidation, AcceptsWellFormedBid) {
  const auto bid = Table(1, {Row({0, 0}, 8.0), Row({2, 0}, 4.0)});
  EXPECT_EQ(ValidateBid(bid, {4, 4}), "");
}

TEST(BidValidation, RejectsEmptyAndMissingZeroRow) {
  EXPECT_NE(ValidateBid(Table(1, {}), {4}), "");
  EXPECT_NE(ValidateBid(Table(1, {Row({1}, 4.0)}), {4}), "");
}

TEST(BidValidation, RejectsOverAskAndBadDimensions) {
  EXPECT_NE(ValidateBid(Table(1, {Row({0}, 8.0), Row({5}, 4.0)}), {4}), "");
  EXPECT_NE(ValidateBid(Table(1, {Row({0, 0}, 8.0)}), {4}), "");
  EXPECT_NE(ValidateBid(Table(1, {Row({0}, 8.0), Row({-1}, 4.0)}), {4}), "");
}

TEST(BidValidation, RejectsNonPositiveRhoAndWorseningRows) {
  EXPECT_NE(ValidateBid(Table(1, {Row({0}, 0.0)}), {4}), "");
  // Extra GPUs may not make rho worse than the zero row.
  EXPECT_NE(ValidateBid(Table(1, {Row({0}, 4.0), Row({2}, 9.0)}), {4}), "");
}

TEST(BidRow, ValueIsReciprocalRho) {
  EXPECT_DOUBLE_EQ(Row({1}, 4.0).Value(), 0.25);
  EXPECT_EQ(Row({0, 3}, 1.0).TotalGpus(), 3);
  EXPECT_TRUE(Row({0, 0}, 1.0).IsZero());
}

TEST(PartialAllocation, EmptyBidsLeaveEverything) {
  const PaResult r = PartialAllocation({}, {4, 4});
  EXPECT_TRUE(r.winners.empty());
  EXPECT_EQ(r.leftover, (std::vector<int>{4, 4}));
}

TEST(PartialAllocation, SingleBidderAloneKeepsFullBundle) {
  // With no competitors, removing the bidder changes nothing for "others"
  // (empty product), so c = 1 and the whole proportional-fair bundle lands.
  const auto bid = Table(1, {Row({0}, 10.0), Row({4}, 2.5)});
  const PaResult r = PartialAllocation({&bid}, {4});
  ASSERT_EQ(r.winners.size(), 1u);
  EXPECT_EQ(r.winners[0].row, 1);
  EXPECT_DOUBLE_EQ(r.winners[0].c, 1.0);
  EXPECT_EQ(r.winners[0].granted, (std::vector<int>{4}));
  EXPECT_EQ(r.leftover, (std::vector<int>{0}));
}

TEST(PartialAllocation, PicksWelfareMaximizingAssignment) {
  // Two apps, one 4-GPU machine. App A gains 4x from the bundle, app B only
  // 1.25x: welfare is maximized by giving the machine to A.
  const auto a = Table(1, {Row({0}, 8.0), Row({4}, 2.0)});
  const auto b = Table(2, {Row({0}, 5.0), Row({4}, 4.0)});
  const PfSolution pf = SolveProportionalFair({&a, &b}, {4});
  EXPECT_EQ(pf.rows, (std::vector<int>{1, 0}));
  EXPECT_TRUE(pf.exact);
}

TEST(PartialAllocation, SplitsAcrossMachinesWhenProductPrefersIt) {
  // Two machines of 2; each app doubles its value with one machine and
  // gains nothing more from the second: product prefers one each.
  const auto a = Table(1, {Row({0, 0}, 8.0), Row({2, 0}, 4.0), Row({2, 2}, 3.9)});
  const auto b = Table(2, {Row({0, 0}, 8.0), Row({0, 2}, 4.0), Row({2, 2}, 3.9)});
  const PfSolution pf = SolveProportionalFair({&a, &b}, {2, 2});
  EXPECT_EQ(pf.rows, (std::vector<int>{1, 1}));
}

TEST(PartialAllocation, HiddenPaymentShrinksContestedGrants) {
  // Both apps want the same 4 GPUs with identical valuations: whoever wins
  // pays a hidden payment (c < 1), so part of the machine is left over.
  const auto a = Table(1, {Row({0}, 8.0), Row({4}, 2.0)});
  const auto b = Table(2, {Row({0}, 8.0), Row({4}, 2.0)});
  const PaResult r = PartialAllocation({&a, &b}, {4});
  int granted_total = 0;
  for (const PaWinner& w : r.winners) {
    EXPECT_LE(w.c, 1.0);
    granted_total += w.granted[0];
  }
  // One app wins the bundle but keeps only c * 4 < 4 GPUs.
  EXPECT_LT(granted_total, 4);
  EXPECT_GT(r.leftover[0], 0);
}

TEST(PartialAllocation, UncontestedBiddersKeepEverything) {
  // Disjoint interests: no competition, c = 1 for both, zero leftover.
  const auto a = Table(1, {Row({0, 0}, 8.0), Row({4, 0}, 2.0)});
  const auto b = Table(2, {Row({0, 0}, 8.0), Row({0, 4}, 2.0)});
  const PaResult r = PartialAllocation({&a, &b}, {4, 4});
  for (const PaWinner& w : r.winners) EXPECT_NEAR(w.c, 1.0, 1e-9);
  EXPECT_EQ(r.leftover, (std::vector<int>{0, 0}));
}

TEST(PartialAllocation, ZeroRowWinnersGetNothing) {
  // B's gain is negligible; A's is big. B should win nothing and keep c=1.
  const auto a = Table(1, {Row({0}, 100.0), Row({4}, 1.0)});
  const auto b = Table(2, {Row({0}, 2.0), Row({4}, 1.9)});
  const PaResult r = PartialAllocation({&a, &b}, {4});
  EXPECT_EQ(r.winners[0].row, 1);
  EXPECT_EQ(r.winners[1].row, 0);
  EXPECT_EQ(r.winners[1].granted, (std::vector<int>{0}));
}

TEST(PartialAllocation, GrantsNeverExceedOffer) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const int machines = rng.UniformInt(1, 4);
    std::vector<int> offered(machines);
    for (int& o : offered) o = rng.UniformInt(1, 4);
    std::vector<BidTable> bids;
    const int n_apps = rng.UniformInt(1, 5);
    for (int i = 0; i < n_apps; ++i) {
      const double rho0 = rng.Uniform(2.0, 50.0);
      BidTable t = Table(static_cast<AppId>(i), {Row(std::vector<int>(machines, 0), rho0)});
      const int n_rows = rng.UniformInt(1, 3);
      for (int r = 0; r < n_rows; ++r) {
        std::vector<int> ask(machines);
        int total = 0;
        for (int m = 0; m < machines; ++m) {
          ask[m] = rng.UniformInt(0, offered[m]);
          total += ask[m];
        }
        if (total == 0) continue;
        t.rows.push_back(Row(ask, rho0 / (1.0 + total)));
      }
      bids.push_back(std::move(t));
    }
    const PaResult result = PartialAllocation(Borrow(bids), offered);
    std::vector<int> used(machines, 0);
    for (const PaWinner& w : result.winners) {
      EXPECT_GE(w.c, 0.0);
      EXPECT_LE(w.c, 1.0);
      for (int m = 0; m < machines; ++m) {
        EXPECT_GE(w.granted[m], 0);
        used[m] += w.granted[m];
      }
    }
    for (int m = 0; m < machines; ++m) {
      EXPECT_LE(used[m], offered[m]);
      EXPECT_EQ(result.leftover[m], offered[m] - used[m]);
      EXPECT_GE(result.leftover[m], 0);
    }
  }
}

TEST(PartialAllocation, TruthTellingBeatsExaggerationForTheLiar) {
  // App B exaggerates its valuation (reports much smaller rho than truth).
  // The PA mechanism reacts with a heavier hidden payment against B in the
  // contested market, so B does not end up with more *truthfully valued*
  // GPUs than under honest reporting.
  const auto a = Table(1, {Row({0}, 10.0), Row({4}, 2.5)});
  const auto b_honest = Table(2, {Row({0}, 10.0), Row({4}, 2.5)});
  const auto b_liar = Table(2, {Row({0}, 10.0), Row({4}, 0.1)});

  const PaResult honest = PartialAllocation({&a, &b_honest}, {4});
  const PaResult lying = PartialAllocation({&a, &b_liar}, {4});

  // Identical bids: symmetric welfare; exaggeration flips the win to B...
  EXPECT_EQ(lying.winners[1].row, 1);
  // ...but the hidden payment c_B shrinks relative to the honest outcome's
  // winner retention, capping what the liar can extract.
  const int honest_gpus =
      std::max(honest.winners[0].granted[0], honest.winners[1].granted[0]);
  EXPECT_LE(lying.winners[1].granted[0], honest_gpus + 1);
}

TEST(PartialAllocation, LeftoverBoundedByEFraction) {
  // Theory: PA leaves at most a (1 - 1/e) fraction... the paper states "at
  // most 1/e worst-case fraction of total available resources are leftover".
  // Check the 1/e bound on a range of random contested instances.
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const int machines = 2;
    std::vector<int> offered{8, 8};
    std::vector<BidTable> bids;
    const int n_apps = rng.UniformInt(2, 6);
    for (int i = 0; i < n_apps; ++i) {
      const double rho0 = rng.Uniform(4.0, 40.0);
      BidTable t = Table(static_cast<AppId>(i), {Row({0, 0}, rho0)});
      for (int k = 1; k <= 2; ++k) {
        const int ask = 2 * k;
        t.rows.push_back(Row({ask, 0}, rho0 / (1.0 + ask)));
        t.rows.push_back(Row({0, ask}, rho0 / (1.0 + ask)));
      }
      bids.push_back(std::move(t));
    }
    const PaResult r = PartialAllocation(Borrow(bids), offered);
    int leftover = 0;
    const int total = 16;
    for (int m = 0; m < machines; ++m) leftover += r.leftover[m];
    // The continuous mechanism guarantees at most a 1/e leftover *value*
    // fraction; our row-discretized variant (floor(c * row)) can strand a
    // few more GPUs, all of which the ARBITER re-allocates work-conservingly
    // (Sec. 5.1 step 3). Assert a 3/4 resource-fraction ceiling here; the
    // end-to-end work-conservation is covered by the policy tests.
    EXPECT_LE(leftover, (3 * total) / 4);
  }
}

TEST(PartialAllocation, ParetoEfficiencyOfProportionalFairStage) {
  // At the PF optimum no app can switch to a strictly better row while all
  // others keep theirs (capacity permitting) — otherwise the product would
  // not have been maximal.
  const auto a = Table(1, {Row({0, 0}, 9.0), Row({2, 0}, 5.0), Row({2, 2}, 3.0)});
  const auto b = Table(2, {Row({0, 0}, 7.0), Row({0, 2}, 4.0), Row({2, 2}, 2.5)});
  const std::vector<int> offered{2, 2};
  const PfSolution pf = SolveProportionalFair({&a, &b}, offered);
  const std::vector<BidTable> bids{a, b};
  std::vector<int> used(2, 0);
  for (std::size_t i = 0; i < bids.size(); ++i)
    for (int m = 0; m < 2; ++m)
      used[m] += bids[i].rows[pf.rows[i]].gpus_per_machine[m];
  for (std::size_t i = 0; i < bids.size(); ++i) {
    for (std::size_t r = 0; r < bids[i].rows.size(); ++r) {
      if (static_cast<int>(r) == pf.rows[i]) continue;
      bool fits = true;
      for (int m = 0; m < 2; ++m) {
        const int next = used[m] - bids[i].rows[pf.rows[i]].gpus_per_machine[m] +
                         bids[i].rows[r].gpus_per_machine[m];
        if (next > offered[m]) fits = false;
      }
      if (fits) {
        EXPECT_LE(bids[i].rows[r].Value(),
                  bids[i].rows[pf.rows[i]].Value() + 1e-12);
      }
    }
  }
}

TEST(PartialAllocation, ThrowsOnInvalidBid) {
  const BidTable bad = Table(1, {Row({9}, 1.0)});
  EXPECT_THROW(PartialAllocation({&bad}, {4}), std::invalid_argument);
}

TEST(PartialAllocation, GreedyFallbackStaysFeasible) {
  // Force the node budget to zero: the greedy + local-search answer must
  // still be feasible and report exact = false.
  PaConfig cfg;
  cfg.max_nodes = 0;
  std::vector<BidTable> bids;
  for (int i = 0; i < 6; ++i) {
    BidTable t = Table(static_cast<AppId>(i), {Row({0, 0}, 10.0)});
    t.rows.push_back(Row({2, 0}, 5.0));
    t.rows.push_back(Row({0, 2}, 5.0));
    bids.push_back(std::move(t));
  }
  const PaResult r = PartialAllocation(Borrow(bids), {4, 4}, cfg);
  EXPECT_FALSE(r.exact);
  std::vector<int> used(2, 0);
  for (const PaWinner& w : r.winners)
    for (int m = 0; m < 2; ++m) used[m] += w.granted[m];
  EXPECT_LE(used[0], 4);
  EXPECT_LE(used[1], 4);
}

class PaScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(PaScaleTest, ExactAndGreedyAgreeOnWelfareOrBetter) {
  const int n_apps = GetParam();
  Rng rng(static_cast<std::uint64_t>(n_apps) * 97);
  std::vector<int> offered{6, 6, 6};
  std::vector<BidTable> bids;
  for (int i = 0; i < n_apps; ++i) {
    const double rho0 = rng.Uniform(3.0, 30.0);
    BidTable t = Table(static_cast<AppId>(i), {Row({0, 0, 0}, rho0)});
    for (int r = 0; r < 3; ++r) {
      std::vector<int> ask(3, 0);
      ask[rng.UniformInt(0, 2)] = 2 * rng.UniformInt(1, 3);
      int total = ask[0] + ask[1] + ask[2];
      t.rows.push_back(Row(ask, rho0 / (1.0 + total)));
    }
    bids.push_back(std::move(t));
  }
  PaConfig exact_cfg;
  exact_cfg.max_nodes = 5'000'000;
  const PfSolution exact =
      SolveProportionalFair(Borrow(bids), offered, exact_cfg);
  PaConfig greedy_cfg;
  greedy_cfg.max_nodes = 0;
  const PfSolution greedy =
      SolveProportionalFair(Borrow(bids), offered, greedy_cfg);
  EXPECT_TRUE(exact.exact);
  EXPECT_GE(exact.log_welfare, greedy.log_welfare - 1e-9);
  // Greedy + local search is only the over-budget fallback; it should land
  // within a constant factor of the optimum on these instances.
  EXPECT_GE(greedy.log_welfare, exact.log_welfare - 2.5);
}

INSTANTIATE_TEST_SUITE_P(Apps, PaScaleTest, ::testing::Values(2, 3, 4, 6, 8));


TEST(PartialAllocation, HiddenPaymentsOffGrantsFullRows) {
  // Ablation switch: with hidden payments disabled the mechanism is plain
  // proportional fairness — winners keep their entire chosen row (c = 1).
  const auto a = Table(1, {Row({0}, 8.0), Row({4}, 2.0)});
  const auto b = Table(2, {Row({0}, 8.0), Row({4}, 2.0)});
  PaConfig cfg;
  cfg.hidden_payments = false;
  const PaResult r = PartialAllocation({&a, &b}, {4}, cfg);
  int granted = 0;
  for (const PaWinner& w : r.winners) {
    EXPECT_DOUBLE_EQ(w.c, 1.0);
    granted += w.granted[0];
  }
  EXPECT_EQ(granted, 4);  // the whole machine is handed out
  EXPECT_EQ(r.leftover[0], 0);
}

}  // namespace
}  // namespace themis
