// Medium backend comparison: the scaling axes the pluggable radio::Medium
// interface opens up.
//
// Part 1 — replication batching. A 64-seed Monte-Carlo of a decay-style
// probabilistic flood on a Gnp instance, run twice: the scalar backend
// resolving each seed's rounds independently (sim::Runner::replicate), and
// the bitslice backend resolving all 64 seeds per CSR traversal
// (sim::Runner::replicate_batched + radio::BatchNetwork). The headline
// number is replication throughput; the acceptance bar is bitslice >= 8x
// scalar.
//
// Part 2 — sparse-tail rounds. A geometrically decaying transmitter
// schedule on a large Gnp instance (the long-tail shape of Decay back-off
// and broadcast mop-up phases: after a few dense rounds, almost every
// round has a handful of transmitters), resolved by bitslice's step_lanes
// from two lists: an n-entry list naming every node (zero lane masks for
// the silent ones, so the prologue walks all n, like an n-word mask
// scan) and the active-only list (the prologue walks the transmitters,
// so tail-round cost follows active_listeners, not n). Outcomes are
// cross-checksummed; the acceptance bar is the active-only list >= 5x the
// n-entry list per tail round at n = 1e6 (full mode).
//
// Part 4 — pooled dense rounds. 64-lane gather-shaped resolve_lanes
// rounds on bitslice at 1/2/4 workers: the slice pool runs
// degree-balanced listener slices (slices x lanes); outcomes stay
// byte-identical for every worker count. (Part numbers match the
// recorded bench history, which still holds the retired Part 3.)
//
// Parts 1, 2 and 4 relay one fixed value, so their rounds fold a constant
// plane into a shared knowledge plane: bitslice's const-fold skips sender
// recovery, and only the delivered masks are read.
//
// --medium=scalar|bitslice restricts the comparison to one backend (used
// by the CI smoke matrix); by default all rows run.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/pargen.hpp"
#include "radio/batch_network.hpp"
#include "radio/network.hpp"
#include "schedule/decay.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

using namespace radiocast;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr radio::Payload kFloodValue = 42;

/// One scalar replication of the flood: informed nodes transmit with the
/// decay-cycle probability, deliveries inform their listeners. Returns
/// {rounds to inform the source's component, total deliveries, wall ms}.
std::vector<double> flood_scalar(const graph::Graph& g, graph::NodeId src,
                                 std::uint32_t reachable, std::uint64_t cap,
                                 std::uint64_t seed,
                                 radio::PhaseTimers& phases) {
  const double t0 = now_ms();
  const graph::NodeId n = g.node_count();
  const std::uint32_t depth = schedule::decay_round_length(n);
  radio::Network net(g);
  util::Rng rng(seed);
  std::vector<std::uint8_t> informed(n, 0);
  std::vector<graph::NodeId> informed_list{src};
  informed[src] = 1;
  std::uint32_t informed_count = 1;
  std::vector<graph::NodeId> tx;
  std::vector<radio::Payload> pay;
  radio::SparseOutcome out;
  std::uint64_t r = 0;
  while (informed_count < reachable && r < cap) {
    const double p = schedule::decay_probability(
        static_cast<std::uint32_t>(r % depth) + 1);
    tx.clear();
    pay.clear();
    for (const graph::NodeId v : informed_list) {
      if (rng.bernoulli(p)) {
        tx.push_back(v);
        pay.push_back(kFloodValue);
      }
    }
    net.resolve(tx, pay, out);
    for (const auto& d : out.deliveries) {
      if (!informed[d.node]) {
        informed[d.node] = 1;
        informed_list.push_back(d.node);
        ++informed_count;
      }
    }
    ++r;
  }
  phases = net.medium().phase_timers();
  return {static_cast<double>(r),
          static_cast<double>(net.total_deliveries()), now_ms() - t0};
}

/// One bitslice batch of the flood: all lanes advance per round through a
/// single BatchNetwork step_lanes. Returns one {rounds, deliveries, wall ms}
/// vector per lane (wall is the batch wall divided across lanes).
std::vector<std::vector<double>> flood_bitslice(
    const graph::Graph& g, graph::NodeId src, std::uint32_t reachable,
    std::uint64_t cap, const std::vector<std::uint64_t>& seeds,
    radio::PhaseTimers& phases) {
  const double t0 = now_ms();
  const graph::NodeId n = g.node_count();
  const int lanes = static_cast<int>(seeds.size());
  const std::uint64_t lane_mask = radio::lane_mask(lanes);
  const std::uint32_t depth = schedule::decay_round_length(n);
  radio::BatchNetwork bn(g, lanes);
  // One stream drives every lane's coins; lanes decouple through the
  // per-lane bit positions, and the batch is seeded from its first lane.
  // Coin words come from splitmix64 — the library's cheap stateless mixer
  // — because the batch draws whole 64-lane words, not distributions.
  std::uint64_t coin_state = util::mix_seed(seeds[0], 0xb175);
  std::vector<std::uint64_t> informed_mask(n, 0);
  informed_mask[src] = lane_mask;
  std::vector<std::uint32_t> informed_count(static_cast<std::size_t>(lanes),
                                            1);
  std::vector<std::uint64_t> rounds_done(static_cast<std::size_t>(lanes), 0);
  std::vector<radio::ActiveTx> tx;
  const std::vector<radio::Payload> payload(n, kFloodValue);
  std::vector<radio::Payload> heard(n, radio::kNoPayload);
  radio::BatchOutcome out;
  std::uint64_t active = reachable > 1 ? lane_mask : 0;
  std::uint64_t r = 0;
  while (active != 0 && r < cap) {
    const std::uint32_t s = static_cast<std::uint32_t>(r % depth) + 1;
    tx.clear();
    for (graph::NodeId v = 0; v < n; ++v) {
      const std::uint64_t m = informed_mask[v] & active;
      if (m == 0) continue;
      // Bernoulli(2^-s) per lane: AND of s independent coin words (all
      // bits die early for large s, so the chain usually short-circuits).
      std::uint64_t coin = util::splitmix64(coin_state);
      for (std::uint32_t j = 1; j < s && coin != 0; ++j) {
        coin &= util::splitmix64(coin_state);
      }
      if ((m & coin) != 0) tx.push_back({v, m & coin});
    }
    // Constant-plane fold: the flood needs who-got-informed, not which
    // neighbour delivered, so the const-fold skips sender recovery.
    bn.step_lanes(tx, payload, lanes, radio::KnowledgePlanes::shared(heard),
                  out);
    for (const auto& dm : out.delivered) {
      std::uint64_t fresh = dm.lanes & ~informed_mask[dm.node];
      if (fresh == 0) continue;
      informed_mask[dm.node] |= fresh;
      while (fresh != 0) {
        ++informed_count[std::countr_zero(fresh)];
        fresh &= fresh - 1;
      }
    }
    ++r;
    for (int l = 0; l < lanes; ++l) {
      const std::uint64_t bit = std::uint64_t{1} << l;
      if ((active & bit) && informed_count[l] >= reachable) {
        rounds_done[l] = r;
        active &= ~bit;
      }
    }
  }
  phases = bn.medium().phase_timers();
  const double wall = now_ms() - t0;
  std::vector<std::vector<double>> result;
  result.reserve(static_cast<std::size_t>(lanes));
  for (int l = 0; l < lanes; ++l) {
    result.push_back({static_cast<double>(rounds_done[l] == 0 && reachable > 1
                                              ? cap
                                              : rounds_done[l]),
                      static_cast<double>(bn.deliveries_by_lane()[l]),
                      wall / lanes});
  }
  return result;
}

}  // namespace

RADIOCAST_SCENARIO(medium_backends, "medium-backends",
                   "radio medium backends: bitslice 64-seed batching, "
                   "sparse-tail and pooled dense rounds vs the scalar "
                   "kernel") {
  const bool quick = ctx.quick();
  const std::uint64_t seed = ctx.seed(7);
  const bool restricted = ctx.cli.has("medium");
  const radio::MediumKind only = ctx.medium_kind();
  auto enabled = [&](radio::MediumKind k) { return !restricted || only == k; };

  // ---- Part 1: 64-seed Monte-Carlo replication batch on Gnp ------------
  {
    util::Rng grng(seed);
    const graph::NodeId n = quick ? 4000 : 8000;
    const double p = 16.0 / n;  // avg degree ~16
    const graph::Graph g = graph::gnp(n, p, grng);
    const graph::NodeId src = 0;
    const auto dist = graph::bfs_distances(g, src);
    std::uint32_t reachable = 0;
    for (const auto d : dist) {
      if (d != graph::kUnreachable) ++reachable;
    }
    const int reps = ctx.reps(64, 64);
    const std::uint64_t cap = quick ? 2000 : 8000;

    util::Table t({"backend", "reps", "rounds", "deliveries", "wall ms",
                   "reps/s", "speedup"});
    double scalar_wall = 0.0;
    auto add_row = [&](const std::string& backend,
                       const std::vector<util::OnlineStats>& stats,
                       double wall) {
      t.row()
          .add(backend)
          .add(static_cast<double>(reps), 0)
          .add(stats[0].mean(), 1)
          .add(stats[1].mean(), 0)
          .add(wall, 1)
          .add(wall > 0 ? reps * 1e3 / wall : 0.0, 1)
          .add(scalar_wall > 0 && wall > 0 ? scalar_wall / wall : 1.0, 2);
    };

    if (enabled(radio::MediumKind::kScalar)) {
      const double t0 = now_ms();
      const auto stats = ctx.runner.replicate(
          reps, seed, 3, [&](int rep, std::uint64_t rep_seed) {
            radio::PhaseTimers phases;
            auto m = flood_scalar(g, src, reachable, cap, rep_seed, phases);
            ctx.record({"scalar", rep, m[0], m[1], m[2], "scalar", 1, "",
                        static_cast<double>(phases.traverse_ns),
                        static_cast<double>(phases.output_ns),
                        static_cast<double>(phases.recover_ns),
                        static_cast<double>(phases.active_listeners)});
            return m;
          });
      scalar_wall = now_ms() - t0;
      add_row("scalar", stats, scalar_wall);
    }
    if (enabled(radio::MediumKind::kBitslice)) {
      const double t0 = now_ms();
      const auto stats = ctx.runner.replicate_batched(
          reps, seed, 3, radio::kMaxLanes,
          [&](int first_rep, const std::vector<std::uint64_t>& seeds) {
            radio::PhaseTimers phases;
            auto lanes = flood_bitslice(g, src, reachable, cap, seeds, phases);
            const double share = 1.0 / static_cast<double>(lanes.size());
            for (std::size_t l = 0; l < lanes.size(); ++l) {
              // Mask-only flood: no sender recovery runs, so no strategy
              // is recorded and recover_ns stays 0 by construction.
              ctx.record({"bitslice", first_rep + static_cast<int>(l),
                          lanes[l][0], lanes[l][1], lanes[l][2], "bitslice",
                          static_cast<int>(seeds.size()), "",
                          static_cast<double>(phases.traverse_ns) * share,
                          static_cast<double>(phases.output_ns) * share,
                          static_cast<double>(phases.recover_ns) * share,
                          static_cast<double>(phases.active_listeners) *
                              share});
            }
            return lanes;
          });
      add_row("bitslice", stats, now_ms() - t0);
    }
    ctx.emit(t,
             "decay-flood Monte-Carlo on gnp(n=" + std::to_string(n) +
                 ", avg_deg~16), " + std::to_string(reps) + " seeds",
             "medium_backends_batch");
    ctx.note("(bitslice resolves up to 64 replication lanes per CSR "
             "traversal; acceptance bar is >= 8x scalar reps/s)");
  }

  // ---- Part 2: sparse-tail rounds, transmitter list vs dense mask -------
  if (enabled(radio::MediumKind::kBitslice)) {
    const graph::NodeId n = quick ? 100000 : 1000000;
    const graph::Graph g =
        graph::pargen::gnp(n, 8.0 / n, util::mix_seed(seed, 3));
    constexpr int kLanes = radio::kMaxLanes;
    const std::uint64_t live = radio::lane_mask(kLanes);

    // Geometric source decay: the transmitter count halves each round from
    // n/16 down to a floor of 4, then the tail holds there — the long-tail
    // shape where O(n)-per-round entry points burn their time. Each entry
    // gets a random nonzero 64-bit lane mask so the list path's lane
    // composition is exercised, not just lane-0.
    std::vector<std::vector<radio::ActiveTx>> schedule;
    std::size_t tail_begin = 0;
    {
      const int tail_rounds = quick ? 24 : 32;
      std::uint64_t state = util::mix_seed(seed, 4);
      std::uint32_t count = n / 16;
      auto make_round = [&](std::uint32_t c) {
        std::vector<radio::ActiveTx> tx;
        tx.reserve(c);
        for (std::uint32_t i = 0; i < c; ++i) {
          const auto node =
              static_cast<graph::NodeId>(util::splitmix64(state) % n);
          std::uint64_t m = util::splitmix64(state) & live;
          if (m == 0) m = 1;
          tx.push_back({node, m});
        }
        return tx;
      };
      while (count > 4) {
        schedule.push_back(make_round(count));
        count /= 2;
      }
      tail_begin = schedule.size();
      for (int i = 0; i < tail_rounds; ++i) schedule.push_back(make_round(4));
    }
    const auto total_rounds = static_cast<double>(schedule.size());
    const auto tail_rounds =
        static_cast<double>(schedule.size() - tail_begin);
    const std::vector<radio::Payload> payload(n, kFloodValue);

    util::Table t({"entry", "rounds", "active/round", "wall ms",
                   "lane-rounds/s", "tail ns/round", "tail speedup"});
    double all_n_tail_ns = 0.0;
    std::uint64_t all_n_sum = 0;
    std::vector<radio::ActiveTx> all_n(n);
    for (graph::NodeId v = 0; v < n; ++v) all_n[v] = {v, 0};
    std::vector<radio::Payload> heard(n, radio::kNoPayload);
    const radio::KnowledgePlanes best = radio::KnowledgePlanes::shared(heard);
    for (const bool active_only : {false, true}) {
      radio::BatchNetwork bn(g, kLanes, radio::CollisionModel::kNoDetection,
                             radio::MediumKind::kBitslice);
      radio::BatchOutcome out;
      // Times one round handed over as the chosen list. The n-entry list
      // is materialised (and cleared) outside the timed step: the
      // comparison is the medium's cost, not the caller's.
      auto step = [&](const std::vector<radio::ActiveTx>& tx) {
        if (active_only) {
          const double t0 = now_ms();
          bn.step_lanes(tx, payload, kLanes, best, out);
          return now_ms() - t0;
        }
        for (const auto& e : tx) all_n[e.node].lanes |= e.lanes;
        const double t0 = now_ms();
        bn.step_lanes(all_n, payload, kLanes, best, out);
        const double ms = now_ms() - t0;
        for (const auto& e : tx) all_n[e.node].lanes = 0;
        return ms;
      };
      step(schedule.front());  // warmup
      bn.reset_counters();
      bn.medium().reset_phase_timers();
      // Full schedule: checksum the delivered masks (order-independent
      // fold) so both lists are held to identical outcomes.
      std::uint64_t checksum = 0;
      double wall = 0.0;
      for (const auto& tx : schedule) {
        wall += step(tx);
        for (const auto& dm : out.delivered) {
          checksum += (static_cast<std::uint64_t>(dm.node) * 0x9e3779b9u) ^
                      dm.lanes;
        }
      }
      const radio::PhaseTimers phases = bn.medium().phase_timers();
      const double deliveries = static_cast<double>(bn.total_deliveries());

      // Tail segment only, re-run hot: the per-round cost once the active
      // set has collapsed — where O(active) and O(n) diverge.
      const int tail_iters = quick ? 5 : 10;
      double tail_ms = 0.0;
      for (int it = 0; it < tail_iters; ++it) {
        for (std::size_t r = tail_begin; r < schedule.size(); ++r) {
          tail_ms += step(schedule[r]);
        }
      }
      const double tail_ns = tail_ms * 1e6 / (tail_rounds * tail_iters);
      if (!active_only) {
        all_n_tail_ns = tail_ns;
        all_n_sum = checksum;
      } else if (checksum != all_n_sum) {
        ctx.note("WARNING: sparse-tail outcome checksum mismatch between "
                 "the n-entry and active-only lists");
      }

      const double active_per_round =
          static_cast<double>(phases.active_listeners) / total_rounds;
      t.row()
          .add(active_only ? "active-only" : "n-entry")
          .add(total_rounds, 0)
          .add(active_per_round, 0)
          .add(wall, 1)
          .add(wall > 0 ? total_rounds * kLanes * 1e3 / wall : 0.0, 0)
          .add(tail_ns, 0)
          .add(all_n_tail_ns > 0 && tail_ns > 0 ? all_n_tail_ns / tail_ns
                                                 : 1.0,
               2);
      ctx.record({active_only ? "sparse-tail/active-only"
                              : "sparse-tail/n-entry",
                  0, total_rounds, deliveries, wall, "bitslice", kLanes, "",
                  static_cast<double>(phases.traverse_ns),
                  static_cast<double>(phases.output_ns),
                  static_cast<double>(phases.recover_ns),
                  static_cast<double>(phases.active_listeners)});
    }
    ctx.emit(t,
             "bitslice sparse-tail rounds on gnp(n=" + std::to_string(n) +
                 ", avg_deg~8), geometric source decay, 64 lanes",
             "medium_backends_sparse_tail");
    ctx.note("(the active-only list names just the transmitters — tail "
             "cost follows active/round, not n; acceptance bar is >= 5x "
             "the n-entry list on tail rounds at n=1e6)");
  }

  // ---- Part 4: pooled dense rounds (slices x 64 lanes) ----------------
  // Every slice runs the 64-lane gather kernel, so the pooled round is
  // worker-parallel ON TOP of lane-parallel. Outcomes are byte-identical
  // for every worker count (pinned by tests); this table records how the
  // cost moves with workers on this host.
  if (enabled(radio::MediumKind::kBitslice)) {
    util::Rng grng(util::mix_seed(seed, 7));
    const graph::NodeId n = quick ? 20000 : 100000;
    const graph::Graph g = graph::gnp(n, 10.0 / n, grng);
    constexpr int kLanes = radio::kMaxLanes;
    const std::uint64_t live = radio::lane_mask(kLanes);
    std::vector<radio::ActiveTx> tx;
    std::uint64_t state = util::mix_seed(seed, 8);
    for (graph::NodeId v = 0; v < n; ++v) {
      const std::uint64_t m =
          util::splitmix64(state) & util::splitmix64(state) & live;
      if (m != 0) tx.push_back({v, m});
    }
    const std::vector<radio::Payload> payload(n, kFloodValue);
    std::vector<radio::Payload> heard(n, radio::kNoPayload);
    const radio::KnowledgePlanes best = radio::KnowledgePlanes::shared(heard);
    const int iters = quick ? 10 : 20;

    util::Table t({"backend", "workers", "ns/round", "lane-rounds/s",
                   "scaling"});
    double one_worker_ns = 0.0;
    const unsigned hw = std::thread::hardware_concurrency();
    for (const int workers : {1, 2, 4}) {
      if (workers > 1 &&
          static_cast<unsigned>(workers) > std::max(hw, 1u) * 4) {
        continue;
      }
      auto m = radio::make_medium(radio::MediumKind::kBitslice, g,
                                  radio::CollisionModel::kNoDetection,
                                  workers);
      radio::BatchOutcome out;
      m->resolve_lanes(tx, payload, kLanes, best, out);
      const double t0 = now_ms();
      for (int i = 0; i < iters; ++i) {
        m->resolve_lanes(tx, payload, kLanes, best, out);
      }
      const double ns = (now_ms() - t0) * 1e6 / iters;
      if (workers == 1) one_worker_ns = ns;
      const double scaling =
          one_worker_ns > 0 && ns > 0 ? one_worker_ns / ns : 1.0;
      t.row()
          .add("bitslice")
          .add(static_cast<double>(workers), 0)
          .add(ns, 0)
          .add(ns > 0 ? kLanes * 1e9 / ns : 0.0, 0)
          .add(scaling, 2);
      // Every field of this row is a timing (ns/round, rate, scaling), so
      // it is recorded only with --timing on.
      if (ctx.cli.get_bool("timing", true)) {
        ctx.record({"two-level", workers, ns,
                    ns > 0 ? kLanes * 1e9 / ns : 0.0, scaling, "bitslice",
                    kLanes, "", 0.0, 0.0, 0.0, 0.0});
      }
    }
    ctx.emit(t,
             "64-lane batch rounds on gnp(n=" + std::to_string(n) +
                 ", avg_deg~10), dense shape",
             "medium_backends_two_level");
    ctx.note("(bitslice gather rounds on the slice pool: slices x "
             "64 lanes; outcomes byte-identical for every worker count — "
             "scaling needs cores, this host has hardware_concurrency=" +
             std::to_string(std::thread::hardware_concurrency()) + ")");
  }
}
