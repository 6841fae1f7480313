// Online and batch statistics used by the experiment harness.
//
// OnlineStats accumulates mean/variance via Welford's algorithm so that a
// bench can stream millions of trial outcomes without storing them.
// Sample keeps raw values for quantiles and bootstrap confidence intervals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace radiocast::util {

/// Streaming mean / variance / min / max (Welford).
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Unbiased sample variance; 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Half-width of a ~95% normal-approximation confidence interval.
  double ci95_halfwidth() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch sample retaining raw values; supports quantiles.
class Sample {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { values_.reserve(n); }

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// q in [0,1]; linear interpolation between order statistics.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  const std::vector<double>& values() const { return values_; }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Wilson score interval for a binomial proportion — the success-rate
/// interval the experiment harness reports. Unlike the normal ("Wald")
/// interval it stays inside [0,1] and behaves at 0/n and n/n, which is
/// exactly the regime w.h.p. protocols live in (success counts at or near
/// `trials`). `z` is the normal quantile (1.96 ~ 95%).
struct WilsonInterval {
  double lo = 0.0;
  double hi = 1.0;
};
WilsonInterval wilson_interval(std::size_t successes, std::size_t trials,
                               double z = 1.96);

/// Least-squares fit of y = a + b*x; the benches use it for marginal
/// costs (rounds per extra message or source).
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LinearFit fit_linear(const std::vector<double>& x,
                     const std::vector<double>& y);

/// Simple histogram over [lo, hi) with uniform bins; out-of-range values
/// clamp into the edge bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);
  void add(double x);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  /// Render as an ASCII bar chart (for bench output).
  std::string ascii(std::size_t width = 50) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace radiocast::util
