// Small statistics toolkit used by metrics collection and the benchmark
// harness: percentiles, CDF extraction, Jain's fairness index, and a
// streaming summary accumulator — plus the constant-memory sketches the
// bounded-memory metrics mode is built on (P² streaming quantiles, uniform
// reservoir sampling, running moments). The sketches never allocate beyond
// their fixed budget, so a million-app replay costs the same metric memory
// as a fifty-app one.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"

namespace themis {

/// Jain's fairness index: (sum x)^2 / (n * sum x^2). Returns 1.0 for an
/// empty or perfectly uniform sample; always in (0, 1].
double JainsIndex(std::span<const double> values);

/// Linear-interpolation percentile; p in [0, 100]. Requires non-empty input.
double Percentile(std::vector<double> values, double p);

/// A (value, cumulative-fraction) staircase suitable for printing the CDF
/// figures the paper reports (Figs. 1, 6, 7).
struct CdfPoint {
  double value;
  double fraction;
};
std::vector<CdfPoint> Cdf(std::vector<double> values);

/// Render a CDF as fixed-width rows, optionally downsampled to at most
/// `max_rows` evenly spaced points so bench output stays readable.
std::string FormatCdf(const std::vector<CdfPoint>& cdf, std::size_t max_rows = 20);

/// Streaming min/max/mean/count accumulator.
class Summary {
 public:
  void Add(double v);
  std::size_t count() const { return count_; }
  double min() const;
  double max() const;
  double mean() const;
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Running first and second moments in O(1) memory. Jain's fairness index is
/// (sum x)^2 / (n * sum x^2), so a moment accumulator reproduces JainsIndex
/// *exactly* (same additions in the same order as the vector-based form) —
/// the fairness summaries of the bounded-memory metrics mode are not
/// approximations.
class MomentAccumulator {
 public:
  void Add(double v);
  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double sum_squares() const { return sum_squares_; }
  /// Jain's index of the values seen; 1.0 for an empty stream.
  double JainsIndex() const;

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double sum_squares_ = 0.0;
};

/// P² (Jain & Chlamtac 1985) single-quantile estimator: tracks one quantile
/// of a stream with five markers — constant memory, no sorting. Exact for
/// the first five observations; afterwards the markers drift toward the
/// true quantile with well-studied accuracy (typically well under 1% for
/// smooth distributions). Used for the streaming median/percentiles of the
/// bounded-memory metrics mode.
class P2Quantile {
 public:
  /// `quantile` in (0, 1), e.g. 0.5 for the median.
  explicit P2Quantile(double quantile);

  void Add(double x);
  std::size_t count() const { return count_; }
  /// Current estimate. Exact (linear-interpolated) while count <= 5;
  /// 0.0 for an empty stream.
  double Value() const;

 private:
  double p_;
  std::size_t count_ = 0;
  std::array<double, 5> q_{};   // marker heights
  std::array<double, 5> n_{};   // marker positions (1-based)
  std::array<double, 5> np_{};  // desired positions
  std::array<double, 5> dn_{};  // desired-position increments
};

/// Fixed-capacity uniform random sample of a stream (Vitter's Algorithm R),
/// deterministic in its seed. Keeps every element while the stream is no
/// larger than the capacity, so small runs lose nothing; past the capacity
/// each element of the stream is retained with equal probability. Backs the
/// per-app distributions (rho / ACT / placement CDFs) in bounded-memory
/// metrics mode.
template <typename T>
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity, std::uint64_t seed = 0x5EEDULL)
      : capacity_(capacity), rng_(seed) {
    items_.reserve(capacity);
  }

  void Add(const T& v) {
    ++seen_;
    if (items_.size() < capacity_) {
      items_.push_back(v);
      return;
    }
    // Keep the new element with probability capacity/seen, evicting a
    // uniformly random incumbent — every stream element ends up retained
    // with equal probability.
    const std::uint64_t j = rng_.NextU64() % seen_;
    if (j < capacity_) items_[static_cast<std::size_t>(j)] = v;
  }

  /// Elements seen so far (not the sample size).
  std::size_t count() const { return seen_; }
  std::size_t capacity() const { return capacity_; }
  /// The current sample. Insertion-ordered while count() <= capacity();
  /// unordered afterwards.
  const std::vector<T>& items() const { return items_; }

 private:
  std::size_t capacity_;
  std::uint64_t seen_ = 0;
  Rng rng_;
  std::vector<T> items_;
};

}  // namespace themis
