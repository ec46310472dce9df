// Property tests for the constant-memory sketches behind bounded-memory
// metrics: P² streaming quantiles vs the exact Percentile, reservoir
// sampling determinism and small-stream identity, and the moment
// accumulator's exact reproduction of Jain's index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace themis {
namespace {

TEST(P2Quantile, RejectsOutOfRangeQuantile) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(-0.5), std::invalid_argument);
}

TEST(P2Quantile, EmptyStreamIsZero) {
  EXPECT_DOUBLE_EQ(P2Quantile(0.5).Value(), 0.0);
}

TEST(P2Quantile, ExactForFiveOrFewerObservations) {
  const std::vector<double> xs = {9.0, 1.0, 5.0, 3.0, 7.0};
  for (std::size_t n = 1; n <= xs.size(); ++n) {
    P2Quantile med(0.5);
    std::vector<double> prefix(xs.begin(), xs.begin() + n);
    for (double x : prefix) med.Add(x);
    EXPECT_DOUBLE_EQ(med.Value(), Percentile(prefix, 50.0))
        << "prefix length " << n;
  }
}

class P2AccuracyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(P2AccuracyTest, MedianWithinOnePercentOnLognormal) {
  Rng rng(GetParam());
  P2Quantile med(0.5);
  std::vector<double> all;
  for (int i = 0; i < 20000; ++i) {
    const double x = std::exp(rng.Normal(0.0, 0.75));
    med.Add(x);
    all.push_back(x);
  }
  const double exact = Percentile(all, 50.0);
  EXPECT_NEAR(med.Value(), exact, 0.01 * exact);
}

TEST_P(P2AccuracyTest, TailQuantileWithinTolerance) {
  Rng rng(GetParam() ^ 0xABCDULL);
  P2Quantile p90(0.9);
  std::vector<double> all;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.NextDouble() * 100.0;  // uniform [0, 100)
    p90.Add(x);
    all.push_back(x);
  }
  // Uniform is the easy case; 1% of the range is a conservative bound.
  EXPECT_NEAR(p90.Value(), Percentile(all, 90.0), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, P2AccuracyTest,
                         ::testing::Values(1u, 42u, 1234u, 9999u));

TEST(P2Quantile, MonotoneInputConverges) {
  P2Quantile med(0.5);
  for (int i = 1; i <= 1001; ++i) med.Add(static_cast<double>(i));
  // True median is 501; P2 should land very close on smooth input.
  EXPECT_NEAR(med.Value(), 501.0, 5.0);
}

TEST(Reservoir, IdentityBelowCapacity) {
  Reservoir<double> res(16);
  for (int i = 0; i < 10; ++i) res.Add(static_cast<double>(i));
  ASSERT_EQ(res.items().size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(res.items()[i], i);
  EXPECT_EQ(res.count(), 10u);
}

TEST(Reservoir, NeverExceedsCapacity) {
  Reservoir<int> res(8, 7);
  for (int i = 0; i < 1000; ++i) res.Add(i);
  EXPECT_EQ(res.items().size(), 8u);
  EXPECT_EQ(res.count(), 1000u);
}

TEST(Reservoir, DeterministicInSeed) {
  Reservoir<int> a(8, 99), b(8, 99), c(8, 100);
  for (int i = 0; i < 500; ++i) {
    a.Add(i);
    b.Add(i);
    c.Add(i);
  }
  EXPECT_EQ(a.items(), b.items());
  EXPECT_NE(a.items(), c.items());
}

TEST(Reservoir, SampleIsRoughlyUniform) {
  // Each element should be retained with probability capacity/stream.
  // Average many independent reservoirs and check first-half coverage.
  const int stream = 200, cap = 20, trials = 300;
  int first_half_hits = 0;
  for (int t = 0; t < trials; ++t) {
    Reservoir<int> res(cap, 1000 + t);
    for (int i = 0; i < stream; ++i) res.Add(i);
    for (int v : res.items())
      if (v < stream / 2) ++first_half_hits;
  }
  const double frac =
      static_cast<double>(first_half_hits) / (trials * cap);
  EXPECT_NEAR(frac, 0.5, 0.05);
}

TEST(MomentAccumulator, JainsIndexExactlyMatchesVectorForm) {
  Rng rng(4242);
  std::vector<double> xs;
  MomentAccumulator acc;
  for (int i = 0; i < 777; ++i) {
    const double x = rng.NextDouble() * 10.0 + 0.1;
    xs.push_back(x);
    acc.Add(x);
  }
  // Same additions in the same order: bit-for-bit equal, not just close.
  EXPECT_EQ(acc.JainsIndex(), JainsIndex(xs));
  EXPECT_EQ(acc.count(), xs.size());
}

TEST(MomentAccumulator, EmptyAndDegenerateStreams) {
  MomentAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.JainsIndex(), 1.0);
  acc.Add(0.0);
  EXPECT_DOUBLE_EQ(acc.JainsIndex(), 1.0);  // all-zero stream
}

TEST(MomentAccumulator, UniformStreamIsPerfectlyFair) {
  MomentAccumulator acc;
  for (int i = 0; i < 50; ++i) acc.Add(3.5);
  EXPECT_NEAR(acc.JainsIndex(), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.sum(), 50 * 3.5);
}

}  // namespace
}  // namespace themis
