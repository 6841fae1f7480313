#include "sim/runner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace radiocast::sim {

Runner::Runner(int threads) : threads_(threads < 1 ? 1 : threads) {}

std::vector<util::OnlineStats> Runner::replicate_batched(
    int reps, std::uint64_t base_seed, std::size_t metric_count,
    int lane_width,
    const std::function<std::vector<std::vector<double>>(
        int first_rep, const std::vector<std::uint64_t>& seeds)>&
        batch_body) {
  if (lane_width < 1) {
    throw std::invalid_argument("Runner::replicate_batched: lane_width < 1");
  }
  const int batches = reps <= 0 ? 0 : (reps + lane_width - 1) / lane_width;
  const auto per_batch = map(batches, [&](int b) {
    const int first = b * lane_width;
    const int count = std::min(lane_width, reps - first);
    std::vector<std::uint64_t> seeds(static_cast<std::size_t>(count));
    for (int l = 0; l < count; ++l) {
      seeds[static_cast<std::size_t>(l)] =
          util::mix_seed(base_seed, static_cast<std::uint64_t>(first + l));
    }
    auto lanes = batch_body(first, seeds);
    if (lanes.size() != static_cast<std::size_t>(count)) {
      throw std::logic_error("Runner::replicate_batched: body returned " +
                             std::to_string(lanes.size()) +
                             " lanes, expected " + std::to_string(count));
    }
    for (const auto& metrics : lanes) {
      if (metrics.size() != metric_count) {
        throw std::logic_error(
            "Runner::replicate_batched: lane returned " +
            std::to_string(metrics.size()) + " metrics, expected " +
            std::to_string(metric_count));
      }
    }
    return lanes;
  });
  std::vector<util::OnlineStats> stats(metric_count);
  for (const auto& lanes : per_batch) {
    for (const auto& metrics : lanes) {
      for (std::size_t m = 0; m < metric_count; ++m) {
        if (!std::isnan(metrics[m])) stats[m].add(metrics[m]);
      }
    }
  }
  return stats;
}

std::vector<util::OnlineStats> Runner::replicate(
    int reps, std::uint64_t base_seed, std::size_t metric_count,
    const std::function<std::vector<double>(int rep, std::uint64_t seed)>&
        body) {
  const auto per_rep = map(reps, [&](int rep) {
    std::vector<double> metrics =
        body(rep, util::mix_seed(base_seed, static_cast<std::uint64_t>(rep)));
    if (metrics.size() != metric_count) {
      throw std::logic_error(
          "Runner::replicate: body returned " +
          std::to_string(metrics.size()) + " metrics, expected " +
          std::to_string(metric_count));
    }
    return metrics;
  });
  std::vector<util::OnlineStats> stats(metric_count);
  for (const auto& metrics : per_rep) {
    for (std::size_t m = 0; m < metric_count; ++m) {
      if (!std::isnan(metrics[m])) stats[m].add(metrics[m]);
    }
  }
  return stats;
}

}  // namespace radiocast::sim
