// Replication runner: the one sweep x replication loop shared by every
// scenario.
//
// Scenarios describe a sweep point as `reps` independent replications,
// each fully determined by (base_seed, rep index); the runner executes
// them across a thread pool and merges results *in replication order*, so
// the output is byte-identical for any --threads=N. The only contract a
// replication body must honour is: no state shared between replications
// (derive a fresh Rng from the seed argument).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace radiocast::sim {

class Runner {
 public:
  /// threads <= 1 means run everything inline on the caller's thread.
  explicit Runner(int threads = 1);

  int threads() const { return threads_; }

  /// Deterministic parallel map: invokes fn(i) for i in [0, count), using
  /// up to threads() workers, and returns the results ordered by index.
  /// Results are independent of the thread count provided fn(i) depends
  /// only on i. The first exception thrown by any fn(i) is rethrown.
  template <typename Fn>
  auto map(int count, Fn&& fn) -> std::vector<decltype(fn(0))> {
    std::vector<decltype(fn(0))> results(
        static_cast<std::size_t>(count < 0 ? 0 : count));
    util::parallel_for(count, threads_, "runner.task", "runner-worker",
                       [&](int i) {
                         results[static_cast<std::size_t>(i)] = fn(i);
                       });
    return results;
  }

  /// Replication sweep: runs `reps` replications of `body`, each handed
  /// its index and the derived seed mix_seed(base_seed, rep). The body
  /// returns one double per metric (NaN = metric absent this replication,
  /// e.g. a failed run); the vectors are merged into per-metric
  /// OnlineStats in replication order.
  std::vector<util::OnlineStats> replicate(
      int reps, std::uint64_t base_seed, std::size_t metric_count,
      const std::function<std::vector<double>(int rep, std::uint64_t seed)>&
          body);

  /// Lane-batched replication sweep: groups `reps` into batches of up to
  /// `lane_width` consecutive replications and invokes `batch_body(first,
  /// seeds)` once per batch, where seeds[l] is the derived seed of
  /// replication first + l (the same mix_seed(base_seed, rep) stream
  /// replicate() uses, so a scenario can switch between the two without
  /// changing per-replication seeds). Batches are distributed over the
  /// thread pool; the body returns one metric vector per lane and the
  /// merge is in replication order, preserving the byte-determinism
  /// contract. Built for radio::BatchNetwork (lane_width up to 64), but
  /// any lane_width >= 1 is accepted.
  std::vector<util::OnlineStats> replicate_batched(
      int reps, std::uint64_t base_seed, std::size_t metric_count,
      int lane_width,
      const std::function<std::vector<std::vector<double>>(
          int first_rep, const std::vector<std::uint64_t>& seeds)>&
          batch_body);

 private:
  int threads_;
};

}  // namespace radiocast::sim
