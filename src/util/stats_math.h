#ifndef IBFS_UTIL_STATS_MATH_H_
#define IBFS_UTIL_STATS_MATH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace ibfs {

/// Streaming mean/variance accumulator (Welford's algorithm). Numerically
/// stable for the long counter series produced by the benchmark harnesses.
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Population variance (divides by n).
  double variance() const;
  /// Population standard deviation.
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Exact moments of a non-negative integer series: count, sum, sum of
/// squares, min and max. Add is a few integer ops with no division, so it
/// can sit on a per-item hot path where RunningStats' Welford update (one
/// floating-point division on a loop-carried chain) cannot; the standard
/// deviation is derived on demand. Exact while the sum of squares fits in
/// int64 (2^20 samples of up to 2^21 each).
class IntegerMoments {
 public:
  void Add(int64_t x) {
    ++count_;
    sum_ += x;
    sum_squares_ += x * x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  int64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return count_ > 0 ? min_ : 0; }
  int64_t max() const { return count_ > 0 ? max_ : 0; }
  /// Population standard deviation (divides by n).
  double stddev() const;

 private:
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t sum_squares_ = 0;
  int64_t min_ = std::numeric_limits<int64_t>::max();
  int64_t max_ = std::numeric_limits<int64_t>::min();
};

/// Population standard deviation of a sequence (convenience wrapper).
double StdDev(std::span<const double> values);

/// Arithmetic mean; returns 0 for an empty span.
double Mean(std::span<const double> values);

/// Geometric mean; all values must be > 0. Returns 0 for an empty span.
double GeoMean(std::span<const double> values);

}  // namespace ibfs

#endif  // IBFS_UTIL_STATS_MATH_H_
