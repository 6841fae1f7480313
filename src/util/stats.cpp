#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace radiocast::util {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::mean() const { return n_ ? mean_ : 0.0; }

double OnlineStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }
double OnlineStats::min() const { return n_ ? min_ : 0.0; }
double OnlineStats::max() const { return n_ ? max_ : 0.0; }

double OnlineStats::ci95_halfwidth() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

WilsonInterval wilson_interval(std::size_t successes, std::size_t trials,
                               double z) {
  if (trials == 0) return {0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(std::min(successes, trials)) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double centre = p + z2 / (2.0 * n);
  const double spread =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return {std::max(0.0, (centre - spread) / denom),
          std::min(1.0, (centre + spread) / denom)};
}

void Sample::ensure_sorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Sample::mean() const {
  if (values_.empty()) return 0.0;
  double s = 0.0;
  for (double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

double Sample::stddev() const {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (double v : values_) s += (v - m) * (v - m);
  return std::sqrt(s / static_cast<double>(values_.size() - 1));
}

double Sample::min() const {
  ensure_sorted();
  return values_.empty() ? 0.0 : values_.front();
}

double Sample::max() const {
  ensure_sorted();
  return values_.empty() ? 0.0 : values_.back();
}

double Sample::quantile(double q) const {
  if (values_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

LinearFit fit_linear(const std::vector<double>& x,
                     const std::vector<double>& y) {
  assert(x.size() == y.size());
  LinearFit fit;
  const std::size_t n = x.size();
  if (n < 2) return fit;
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx == 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r2 = syy == 0.0 ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  assert(hi > lo && bins > 0);
}

void Histogram::add(double x) {
  const double t = (x - lo_) / (hi_ - lo_);
  std::size_t i;
  if (t < 0.0) {
    i = 0;
  } else if (t >= 1.0) {
    i = counts_.size() - 1;
  } else {
    i = static_cast<std::size_t>(t * static_cast<double>(counts_.size()));
  }
  ++counts_[i];
  ++total_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

std::string Histogram::ascii(std::size_t width) const {
  std::ostringstream os;
  std::size_t peak = 0;
  for (auto c : counts_) peak = std::max(peak, c);
  if (peak == 0) peak = 1;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::size_t bar = counts_[i] * width / peak;
    os << "[";
    os.width(10);
    os << bin_lo(i) << ", ";
    os.width(10);
    os << bin_hi(i) << ") ";
    for (std::size_t b = 0; b < bar; ++b) os << '#';
    os << "  " << counts_[i] << "\n";
  }
  return os.str();
}

}  // namespace radiocast::util
