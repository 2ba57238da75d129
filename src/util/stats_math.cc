#include "util/stats_math.h"

#include <algorithm>
#include <cmath>

namespace ibfs {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ == 0) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double IntegerMoments::stddev() const {
  if (count_ == 0) return 0.0;
  // n^2 * variance = n * sum(x^2) - sum(x)^2, exact in 128 bits; only the
  // final conversion and division round.
  const __int128 n = count_;
  const __int128 scaled = n * sum_squares_ - static_cast<__int128>(sum_) * sum_;
  const double n_d = static_cast<double>(count_);
  return std::sqrt(static_cast<double>(scaled) / (n_d * n_d));
}

double StdDev(std::span<const double> values) {
  RunningStats s;
  for (double v : values) s.Add(v);
  return s.stddev();
}

double Mean(std::span<const double> values) {
  RunningStats s;
  for (double v : values) s.Add(v);
  return s.mean();
}

double GeoMean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace ibfs
