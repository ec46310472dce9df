#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace themis {

double JainsIndex(std::span<const double> values) {
  if (values.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(values.size()) * sum_sq);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("Percentile: empty input");
  std::sort(values.begin(), values.end());
  if (p <= 0.0) return values.front();
  if (p >= 100.0) return values.back();
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::vector<CdfPoint> Cdf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  std::vector<CdfPoint> out;
  out.reserve(values.size());
  const double n = static_cast<double>(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out.push_back({values[i], static_cast<double>(i + 1) / n});
  }
  return out;
}

std::string FormatCdf(const std::vector<CdfPoint>& cdf, std::size_t max_rows) {
  std::string out;
  if (cdf.empty()) return out;
  const std::size_t n = cdf.size();
  const std::size_t rows = std::min(max_rows, n);
  char buf[64];
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t idx = (rows == 1) ? n - 1 : r * (n - 1) / (rows - 1);
    std::snprintf(buf, sizeof(buf), "%12.2f  %6.3f\n", cdf[idx].value,
                  cdf[idx].fraction);
    out += buf;
  }
  return out;
}

void Summary::Add(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  sum_ += v;
  ++count_;
}

double Summary::min() const { return count_ ? min_ : 0.0; }
double Summary::max() const { return count_ ? max_ : 0.0; }
double Summary::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

void MomentAccumulator::Add(double v) {
  ++count_;
  sum_ += v;
  sum_squares_ += v * v;
}

double MomentAccumulator::JainsIndex() const {
  if (count_ == 0 || sum_squares_ == 0.0) return 1.0;
  return (sum_ * sum_) / (static_cast<double>(count_) * sum_squares_);
}

P2Quantile::P2Quantile(double quantile) : p_(quantile) {
  if (!(quantile > 0.0) || !(quantile < 1.0))
    throw std::invalid_argument("P2Quantile: quantile must be in (0, 1)");
  dn_ = {0.0, p_ / 2.0, p_, (1.0 + p_) / 2.0, 1.0};
}

void P2Quantile::Add(double x) {
  if (count_ < 5) {
    q_[count_++] = x;
    if (count_ == 5) {
      std::sort(q_.begin(), q_.end());
      for (int i = 0; i < 5; ++i) n_[i] = static_cast<double>(i + 1);
      np_ = {1.0, 1.0 + 2.0 * p_, 1.0 + 4.0 * p_, 3.0 + 2.0 * p_, 5.0};
    }
    return;
  }
  ++count_;

  // Find the cell the observation falls into, extending the extremes.
  int k;
  if (x < q_[0]) {
    q_[0] = x;
    k = 0;
  } else if (x >= q_[4]) {
    q_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= q_[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) n_[i] += 1.0;
  for (int i = 0; i < 5; ++i) np_[i] += dn_[i];

  // Adjust the three interior markers toward their desired positions with
  // the piecewise-parabolic (P²) formula, falling back to linear when the
  // parabola would leave the bracketing heights out of order.
  for (int i = 1; i <= 3; ++i) {
    const double d = np_[i] - n_[i];
    if ((d >= 1.0 && n_[i + 1] - n_[i] > 1.0) ||
        (d <= -1.0 && n_[i - 1] - n_[i] < -1.0)) {
      const double s = d >= 0 ? 1.0 : -1.0;
      const double qp =
          q_[i] + s / (n_[i + 1] - n_[i - 1]) *
                      ((n_[i] - n_[i - 1] + s) * (q_[i + 1] - q_[i]) /
                           (n_[i + 1] - n_[i]) +
                       (n_[i + 1] - n_[i] - s) * (q_[i] - q_[i - 1]) /
                           (n_[i] - n_[i - 1]));
      if (q_[i - 1] < qp && qp < q_[i + 1]) {
        q_[i] = qp;
      } else {
        const int j = i + static_cast<int>(s);
        q_[i] += s * (q_[j] - q_[i]) / (n_[j] - n_[i]);
      }
      n_[i] += s;
    }
  }
}

double P2Quantile::Value() const {
  if (count_ == 0) return 0.0;
  if (count_ <= 5) {
    std::vector<double> sorted(q_.begin(), q_.begin() + count_);
    return Percentile(std::move(sorted), p_ * 100.0);
  }
  return q_[2];
}

}  // namespace themis
