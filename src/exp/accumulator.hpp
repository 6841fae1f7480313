// Per-grid-point statistics for the sweep subsystem.
//
// One Accumulator summarises every Monte-Carlo replication that landed on
// one grid point (one (family, param, n, protocol, medium, recovery)
// combination): streaming Welford mean/stddev over round counts, order
// statistics (min/median/p95/max), success rates with Wilson score
// intervals, auxiliary per-replication metrics (deliveries, transmissions,
// informed counts), the per-phase radio::PhaseTimers rollup, and the
// core/theory bound overlay evaluated at the grid point.
//
// Round statistics are computed over SUCCESSFUL replications only —
// a failed replication's round count is just its budget, which would
// poison the curve the paper's bounds are compared against. Failures still
// count toward trials() and therefore widen the Wilson interval.
#pragma once

#include <cstddef>
#include <limits>

#include "radio/medium.hpp"
#include "util/stats.hpp"

namespace radiocast::exp {

class Accumulator {
 public:
  /// "This replication did not report the metric" (mirrors the Runner's
  /// NaN-means-absent convention).
  static constexpr double kAbsent = std::numeric_limits<double>::quiet_NaN();

  /// One replication outcome. `rounds` is folded into the round statistics
  /// only when success is true; NaN auxiliary metrics are skipped (scalar
  /// cores that do not report them).
  void add(bool success, double rounds, double deliveries = kAbsent,
           double transmissions = kAbsent, double informed = kAbsent);

  /// Rolls up a lane batch's medium phase breakdown (whole-batch numbers;
  /// call once per batch, not per lane).
  void add_phases(const radio::PhaseTimers& phases);
  /// Wall time attributed to this grid point (whole-batch, like phases).
  void add_wall_ms(double wall_ms);

  /// Theory overlay: the core/theory bound evaluated at this grid point.
  void set_theory_bound(double bound) { theory_bound_ = bound; }

  // ---- totals
  std::size_t trials() const { return trials_; }
  std::size_t successes() const { return successes_; }
  double success_rate() const;
  util::WilsonInterval wilson(double z = 1.96) const;

  // ---- round statistics (successful replications only)
  /// Welford mean/stddev/min/max.
  const util::OnlineStats& rounds() const { return rounds_stats_; }
  double rounds_median() const { return rounds_sample_.empty() ? 0.0 : rounds_sample_.median(); }
  double rounds_p95() const { return rounds_sample_.empty() ? 0.0 : rounds_sample_.quantile(0.95); }

  // ---- auxiliary metrics
  const util::OnlineStats& deliveries() const { return deliveries_; }
  const util::OnlineStats& transmissions() const { return transmissions_; }
  const util::OnlineStats& informed() const { return informed_; }

  // ---- overlay
  double theory_bound() const { return theory_bound_; }
  /// mean rounds / bound — the paper-shape column; 0 when no bound or no
  /// successful replication.
  double rounds_over_bound() const;

  // ---- timing rollups (measurement, excluded from deterministic output)
  const radio::PhaseTimers& phases() const { return phases_; }
  double wall_ms() const { return wall_ms_; }

 private:
  std::size_t trials_ = 0;
  std::size_t successes_ = 0;
  util::OnlineStats rounds_stats_;
  util::Sample rounds_sample_;
  util::OnlineStats deliveries_;
  util::OnlineStats transmissions_;
  util::OnlineStats informed_;
  double theory_bound_ = 0.0;
  radio::PhaseTimers phases_;
  double wall_ms_ = 0.0;
};

}  // namespace radiocast::exp
