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
// Part 2 — single-instance sharding. Fixed transmitter sets on a large
// Gnp instance, resolved by the scalar and sharded backends; the sharded
// backend cuts the listener space into degree-balanced slices, runs them
// on a work-stealing worker pool, and merges in slice order so outcomes
// are byte-identical for every worker count.
//
// Part 3 — sparse-tail rounds. A geometrically decaying transmitter
// schedule on a large Gnp instance (the long-tail shape of Decay back-off
// and broadcast mop-up phases: after a few dense rounds, almost every
// round has a handful of transmitters), resolved by bitslice through two
// entry points: step_lanes over each round's materialised n-word mask
// (its prologue scans all n) and step_lanes_active over the transmitter
// list itself (its prologue walks the list, so tail-round cost follows
// active_listeners, not n). Outcomes are cross-checksummed; the
// acceptance bar is the list entry >= 5x the mask entry per tail round at
// n = 1e6 (full mode).
//
// Part 4 — knowledge-plane layout. The 64-lane max-fold kernel timed
// against node-major vs lane-major best[] planes over one dense round's
// deliveries; the acceptance bar is node-major >= 1.3x lane-major.
//
// Part 5 — two-level sharded batch. 64-lane resolve_batch rounds on the
// work-stealing sharded backend (slices x lanes) across worker counts,
// with bitslice as the single-worker reference; outcomes stay
// byte-identical for every worker count.
//
// --medium=scalar|bitslice|sharded restricts the comparison to
// one backend (used by the CI smoke matrix); by default all rows run.
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
/// single BatchNetwork step. Returns one {rounds, deliveries, wall ms}
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
  std::vector<std::uint64_t> tx_mask(n, 0);
  const std::vector<radio::Payload> payload(n, kFloodValue);
  radio::BatchOutcome out;
  std::uint64_t active = reachable > 1 ? lane_mask : 0;
  std::uint64_t r = 0;
  while (active != 0 && r < cap) {
    const std::uint32_t s = static_cast<std::uint32_t>(r % depth) + 1;
    for (graph::NodeId v = 0; v < n; ++v) {
      const std::uint64_t m = informed_mask[v] & active;
      if (m == 0) {
        tx_mask[v] = 0;
        continue;
      }
      // Bernoulli(2^-s) per lane: AND of s independent coin words (all
      // bits die early for large s, so the chain usually short-circuits).
      std::uint64_t coin = util::splitmix64(coin_state);
      for (std::uint32_t j = 1; j < s && coin != 0; ++j) {
        coin &= util::splitmix64(coin_state);
      }
      tx_mask[v] = m & coin;
    }
    // Mask-only resolution: the flood needs who-got-informed, not which
    // neighbour delivered, so skip the sender-recovery pass.
    bn.step(tx_mask, payload, out, /*with_senders=*/false);
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
                   "radio medium backends: bitslice 64-seed batching and "
                   "sharded parallel rounds vs the scalar kernel") {
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

  // ---- Part 2: sharded single-instance round throughput ----------------
  {
    util::Rng grng(util::mix_seed(seed, 2));
    const graph::NodeId n = quick ? 20000 : 200000;
    const graph::Graph g = graph::gnp(n, 10.0 / n, grng);
    const int iters = quick ? 20 : 50;
    // Worker-count precedence: --medium-threads, then an explicit
    // --threads (including 1), then 0 = the backend default (the
    // RADIOCAST_SHARD_THREADS env var, else hardware).
    const int threads =
        ctx.cli.has("medium-threads")
            ? ctx.medium_threads()
            : (ctx.cli.has("threads")
                   ? static_cast<int>(ctx.cli.get_int("threads", 1))
                   : 0);

    util::Table t({"backend", "tx density", "ns/round", "Mlisteners/s",
                   "speedup"});
    for (const double density : {0.002, 0.02, 0.2}) {
      util::Rng trng(util::mix_seed(seed, static_cast<std::uint64_t>(
                                              density * 1e4)));
      std::vector<graph::NodeId> tx;
      std::vector<radio::Payload> pay;
      for (graph::NodeId v = 0; v < n; ++v) {
        if (trng.bernoulli(density)) {
          tx.push_back(v);
          pay.push_back(v);
        }
      }
      double scalar_ns = 0.0;
      for (const radio::MediumKind kind :
           {radio::MediumKind::kScalar, radio::MediumKind::kSharded}) {
        if (!enabled(kind)) continue;
        radio::Network net(g, radio::CollisionModel::kNoDetection, kind,
                           threads);
        radio::SparseOutcome out;
        net.resolve(tx, pay, out);  // warmup
        const double t0 = now_ms();
        for (int i = 0; i < iters; ++i) net.resolve(tx, pay, out);
        const double ns = (now_ms() - t0) * 1e6 / iters;
        if (kind == radio::MediumKind::kScalar) scalar_ns = ns;
        t.row()
            .add(std::string(radio::to_string(kind)))
            .add(density * 100.0, 1)
            .add(ns, 0)
            .add(ns > 0 ? n * 1e3 / ns : 0.0, 1)
            .add(scalar_ns > 0 && ns > 0 ? scalar_ns / ns : 1.0, 2);
      }
    }
    ctx.emit(t,
             "single-instance rounds on gnp(n=" + std::to_string(n) +
                 ", avg_deg~10)",
             "medium_backends_sharded");
    ctx.note("(sharded cuts listeners into degree-balanced CSR shards with "
             "a deterministic merge; its speedup scales with cores — this "
             "host has hardware_concurrency=" +
             std::to_string(std::thread::hardware_concurrency()) + ")");
  }

  // ---- Part 3: sparse-tail rounds, transmitter list vs dense mask -------
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
    double mask_tail_ns = 0.0;
    std::uint64_t mask_sum = 0;
    std::vector<std::uint64_t> mask(n, 0);
    for (const bool listed : {false, true}) {
      radio::BatchNetwork bn(g, kLanes, radio::CollisionModel::kNoDetection,
                             radio::MediumKind::kBitslice);
      radio::BatchOutcome out;
      // Times one round through the chosen entry point. The mask entry's
      // n-word mask is materialised (and cleared) outside the timed step:
      // the comparison is the medium's cost, not the caller's.
      auto step = [&](const std::vector<radio::ActiveTx>& tx) {
        if (listed) {
          const double t0 = now_ms();
          bn.step_lanes_active(tx, payload, out, /*with_senders=*/false);
          return now_ms() - t0;
        }
        for (const auto& e : tx) mask[e.node] |= e.lanes;
        const double t0 = now_ms();
        bn.step_lanes(mask, payload, out, /*with_senders=*/false);
        const double ms = now_ms() - t0;
        for (const auto& e : tx) mask[e.node] = 0;
        return ms;
      };
      step(schedule.front());  // warmup
      bn.reset_counters();
      bn.medium().reset_phase_timers();
      // Full schedule: checksum the delivered masks (order-independent
      // fold) so both entry points are held to identical outcomes.
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
      if (!listed) {
        mask_tail_ns = tail_ns;
        mask_sum = checksum;
      } else if (checksum != mask_sum) {
        ctx.note("WARNING: sparse-tail outcome checksum mismatch between "
                 "step_lanes and step_lanes_active");
      }

      const double active_per_round =
          static_cast<double>(phases.active_listeners) / total_rounds;
      t.row()
          .add(listed ? "step_lanes_active" : "step_lanes")
          .add(total_rounds, 0)
          .add(active_per_round, 0)
          .add(wall, 1)
          .add(wall > 0 ? total_rounds * kLanes * 1e3 / wall : 0.0, 0)
          .add(tail_ns, 0)
          .add(mask_tail_ns > 0 && tail_ns > 0 ? mask_tail_ns / tail_ns : 1.0,
               2);
      // List-driven rounds time their phases as enqueue/drain.
      ctx.record({listed ? "sparse-tail/step_lanes_active"
                         : "sparse-tail/step_lanes",
                  0, total_rounds, deliveries, wall, "bitslice", kLanes, "",
                  static_cast<double>(phases.traverse_ns + phases.enqueue_ns),
                  static_cast<double>(phases.output_ns + phases.drain_ns),
                  static_cast<double>(phases.recover_ns),
                  static_cast<double>(phases.active_listeners)});
    }
    ctx.emit(t,
             "bitslice sparse-tail rounds on gnp(n=" + std::to_string(n) +
                 ", avg_deg~8), geometric source decay, 64 lanes",
             "medium_backends_sparse_tail");
    ctx.note("(step_lanes_active builds the round from the transmitter "
             "list — tail cost follows active/round, not n; acceptance bar "
             "is >= 5x step_lanes on tail rounds at n=1e6)");
  }

  // ---- Part 4: knowledge-plane layout (node-major vs lane-major) -------
  // The 64-lane max-fold writes each delivered listener's won lanes into
  // best[]. Lane-major planes scatter those writes across 64 planes (one
  // cache line each, n*sizeof(Payload) apart); node-major keeps a
  // listener's lane words contiguous. The microbench times the fold kernel
  // itself over a real round's delivered masks; the acceptance bar is
  // node-major >= 1.3x lane-major.
  {
    util::Rng grng(util::mix_seed(seed, 5));
    const graph::NodeId n = quick ? 20000 : 100000;
    const graph::Graph g = graph::gnp(n, 10.0 / n, grng);
    constexpr int kLanes = radio::kMaxLanes;
    const std::uint64_t live = radio::lane_mask(kLanes);
    std::vector<std::uint64_t> tx_mask(n);
    {
      // ~25% per-lane transmit density: the fold-heavy regime where most
      // listeners win in several lanes.
      std::uint64_t state = util::mix_seed(seed, 6);
      for (graph::NodeId v = 0; v < n; ++v) {
        tx_mask[v] = util::splitmix64(state) & util::splitmix64(state) & live;
      }
    }
    const std::vector<radio::Payload> payload(n, kFloodValue);
    radio::BatchOutcome out;
    auto bitslice = radio::make_medium(radio::MediumKind::kBitslice, g,
                                       radio::CollisionModel::kNoDetection);
    bitslice->resolve_batch(tx_mask, payload, kLanes, out,
                            /*with_senders=*/false);
    std::uint64_t fold_writes = 0;
    for (const auto& dm : out.delivered) {
      fold_writes += std::popcount(dm.lanes);
    }

    const int iters = quick ? 30 : 60;
    util::Table t({"best layout", "folds/round", "ns/round", "ns/fold",
                   "speedup"});
    double lane_major_ns = 0.0;
    std::vector<radio::Payload> best(static_cast<std::size_t>(kLanes) * n,
                                     radio::kNoPayload);
    for (const bool node_major : {false, true}) {
      const radio::KnowledgePlanes view =
          node_major ? radio::KnowledgePlanes::node_major(best, n)
                     : radio::KnowledgePlanes::lane_major(best, n);
      const std::size_t bls = view.lane_stride();
      // Monotonically growing payloads keep every fold a real write (the
      // max always improves), so both layouts pay their write traffic.
      std::fill(best.begin(), best.end(), radio::kNoPayload);
      auto fold_round = [&](radio::Payload base) {
        for (const auto& dm : out.delivered) {
          radio::Payload* const brow = view.row(dm.node);
          std::uint64_t hit = dm.lanes;
          do {
            const int lane = std::countr_zero(hit);
            radio::Payload& b =
                brow[static_cast<std::size_t>(lane) * bls];
            const radio::Payload p =
                base + static_cast<radio::Payload>(lane);
            if (b == radio::kNoPayload || p > b) b = p;
            hit &= hit - 1;
          } while (hit != 0);
        }
      };
      fold_round(1);  // warmup + first-touch
      const double t0 = now_ms();
      for (int i = 0; i < iters; ++i) {
        fold_round(static_cast<radio::Payload>(100 + i * kLanes));
      }
      const double ns = (now_ms() - t0) * 1e6 / iters;
      if (!node_major) lane_major_ns = ns;
      t.row()
          .add(node_major ? "node-major" : "lane-major")
          .add(static_cast<double>(fold_writes), 0)
          .add(ns, 0)
          .add(fold_writes > 0 ? ns / static_cast<double>(fold_writes) : 0.0,
               2)
          .add(lane_major_ns > 0 && ns > 0 ? lane_major_ns / ns : 1.0, 2);
      ctx.record({"fold-layout", node_major ? 1 : 0,
                  static_cast<double>(fold_writes), ns, ns, "bitslice",
                  kLanes, node_major ? "node-major" : "lane-major", 0.0, 0.0,
                  0.0, 0.0});
    }
    ctx.emit(t,
             "64-lane max-fold into best[] planes, one dense round's "
             "deliveries on gnp(n=" + std::to_string(n) + ", avg_deg~10)",
             "medium_backends_fold_layout");
    ctx.note("(node-major puts each listener's 64 lane words in one "
             "contiguous run; acceptance bar is >= 1.3x lane-major)");
  }

  // ---- Part 5: two-level sharded batch (slices x 64 lanes) -------------
  // Every slice runs the 64-lane bitslice kernel, so the sharded batch is
  // worker-parallel ON TOP of lane-parallel. Outcomes are byte-identical
  // for every worker count (pinned by tests); this table records how the
  // cost moves with workers on this host.
  if (enabled(radio::MediumKind::kSharded) ||
      enabled(radio::MediumKind::kBitslice)) {
    util::Rng grng(util::mix_seed(seed, 7));
    const graph::NodeId n = quick ? 20000 : 100000;
    const graph::Graph g = graph::gnp(n, 10.0 / n, grng);
    constexpr int kLanes = radio::kMaxLanes;
    const std::uint64_t live = radio::lane_mask(kLanes);
    std::vector<std::uint64_t> tx_mask(n);
    std::uint64_t state = util::mix_seed(seed, 8);
    for (graph::NodeId v = 0; v < n; ++v) {
      tx_mask[v] = util::splitmix64(state) & util::splitmix64(state) & live;
    }
    const std::vector<radio::Payload> payload(n, kFloodValue);
    const int iters = quick ? 10 : 20;

    util::Table t({"backend", "workers", "ns/round", "lane-rounds/s",
                   "scaling"});
    double one_worker_ns = 0.0;
    auto time_medium = [&](radio::Medium& m) {
      radio::BatchOutcome out;
      m.resolve_batch(tx_mask, payload, kLanes, out, /*with_senders=*/false);
      const double t0 = now_ms();
      for (int i = 0; i < iters; ++i) {
        m.resolve_batch(tx_mask, payload, kLanes, out,
                        /*with_senders=*/false);
      }
      return (now_ms() - t0) * 1e6 / iters;
    };
    if (enabled(radio::MediumKind::kBitslice)) {
      auto m = radio::make_medium(radio::MediumKind::kBitslice, g,
                                  radio::CollisionModel::kNoDetection);
      const double ns = time_medium(*m);
      t.row()
          .add("bitslice")
          .add(1.0, 0)
          .add(ns, 0)
          .add(ns > 0 ? kLanes * 1e9 / ns : 0.0, 0)
          .add(1.0, 2);
    }
    if (enabled(radio::MediumKind::kSharded)) {
      const unsigned hw = std::thread::hardware_concurrency();
      for (const int workers : {1, 2, 4}) {
        if (workers > 1 &&
            static_cast<unsigned>(workers) > std::max(hw, 1u) * 4) {
          continue;
        }
        auto m = radio::make_medium(radio::MediumKind::kSharded, g,
                                    radio::CollisionModel::kNoDetection,
                                    workers);
        const double ns = time_medium(*m);
        if (workers == 1) one_worker_ns = ns;
        t.row()
            .add("sharded")
            .add(static_cast<double>(workers), 0)
            .add(ns, 0)
            .add(ns > 0 ? kLanes * 1e9 / ns : 0.0, 0)
            .add(one_worker_ns > 0 && ns > 0 ? one_worker_ns / ns : 1.0, 2);
        ctx.record({"two-level", workers, ns,
                    ns > 0 ? kLanes * 1e9 / ns : 0.0,
                    one_worker_ns > 0 && ns > 0 ? one_worker_ns / ns : 1.0,
                    "sharded", kLanes, "", 0.0, 0.0, 0.0, 0.0});
      }
    }
    ctx.emit(t,
             "64-lane batch rounds on gnp(n=" + std::to_string(n) +
                 ", avg_deg~10), dense shape",
             "medium_backends_two_level");
    ctx.note("(sharded = work-stealing slices x 64 bitslice lanes; "
             "outcomes byte-identical for every worker count — scaling "
             "needs cores, this host has hardware_concurrency=" +
             std::to_string(std::thread::hardware_concurrency()) + ")");
  }
}
