#include "core/propagation.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "schedule/decay.hpp"
#include "util/math.hpp"

namespace radiocast::core {

namespace {

/// Domain separation between the background's two coins: node coins hash
/// (seed ^ kNodeCoinSalt, round, node), cluster coins hash (seed, iteration,
/// centre), so no node coin reuses a cluster coin's hash input.
constexpr std::uint64_t kNodeCoinSalt = 0x6E6F6465636F696EULL;  // "nodecoin"

/// Whether hash h, read as a uniform real in [0, 1) from its top 53 bits,
/// is below 2^-k: for 1 <= k <= 53 exactly when its top k bits are zero.
/// Decay indices never exceed decay_round_length(n) <= 32.
bool coin_passes(std::uint64_t h, std::uint32_t k) {
  assert(k >= 1 && k <= 53);
  return (h >> (64 - k)) == 0;
}

/// Rejects an unusable config before any member is built from it (the
/// member-init list dereferences cfg.graph).
const PropagationEngine::Config& validated(
    const PropagationEngine::Config& cfg) {
  if (cfg.graph == nullptr || cfg.regions == nullptr || cfg.scheds.empty() ||
      !cfg.choose) {
    throw std::invalid_argument("PropagationEngine: incomplete config");
  }
  const NodeId n = cfg.graph->node_count();
  if (cfg.regions->node_count() != n) {
    throw std::invalid_argument(
        "PropagationEngine: region partition does not match the graph");
  }
  for (const schedule::TreeSchedule* s : cfg.scheds) {
    if (s == nullptr) {
      throw std::invalid_argument("PropagationEngine: null schedule");
    }
    if (s->partition().node_count() != n) {
      throw std::invalid_argument(
          "PropagationEngine: schedule partition does not match the graph");
    }
    if (s->mode() != cfg.scheds[0]->mode()) {
      throw std::invalid_argument(
          "PropagationEngine: schedules must share one mode");
    }
  }
  return cfg;
}

}  // namespace

PropagationEngine::PropagationEngine(const Config& cfg)
    : g_(validated(cfg).graph),
      regions_(cfg.regions),
      scheds_(cfg.scheds),
      choose_(cfg.choose),
      icp_background_(cfg.icp_background),
      seed_(cfg.seed),
      net_(*cfg.graph),
      lambda_(schedule::decay_round_length(cfg.graph->node_count())) {
  const NodeId n = g_->node_count();
  reached_.assign(n, 0);
  upval_.assign(n, radio::kNoPayload);
  snap_.assign(n, radio::kNoPayload);
  foreign_at_.assign(n, 0);
  tx_at_.assign(n, 0);
  in_list_.assign(n, 0);
  center_now_.assign(n, graph::kInvalidNode);
  coin_.assign(n, 0);
  elig_at_.assign(n, 0);

  build_region_structures();
  index_.resize(scheds_.size());
  for (std::size_t s = 0; s < scheds_.size(); ++s) build_sched_index(s);
  foreign_slot_.resize(scheds_.size());
  rstate_.assign(region_count_, RegionState{});
}

void PropagationEngine::build_region_structures() {
  const NodeId n = g_->node_count();
  const auto dense = regions_->dense_ids();
  region_count_ = static_cast<std::uint32_t>(dense.center_of_id.size());
  region_of_ = dense.id_of_node;
  region_center_ = dense.center_of_id;
  member_off_.assign(region_count_ + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (region_of_[v] != graph::kInvalidNode) ++member_off_[region_of_[v] + 1];
  }
  for (std::size_t i = 1; i < member_off_.size(); ++i) {
    member_off_[i] += member_off_[i - 1];
  }
  member_.resize(member_off_.back());
  std::vector<std::uint32_t> cursor(member_off_.begin(),
                                    member_off_.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    if (region_of_[v] != graph::kInvalidNode) member_[cursor[region_of_[v]]++] = v;
  }
}

void PropagationEngine::build_sched_index(std::size_t s) {
  const schedule::TreeSchedule& sched = *scheds_[s];
  SchedIndex& idx = index_[s];
  const NodeId n = g_->node_count();

  // Per region: max depth present.
  std::vector<std::uint32_t> max_depth(region_count_, 0);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t r = region_of_[v];
    if (r == graph::kInvalidNode || !sched.in_scope(v)) continue;
    max_depth[r] = std::max(max_depth[r], sched.depth(v));
  }
  idx.region_start.assign(region_count_ + 1, 0);
  idx.depth_start.assign(region_count_ + 1, 0);
  for (std::uint32_t r = 0; r < region_count_; ++r) {
    idx.depth_start[r + 1] = idx.depth_start[r] + max_depth[r] + 2;
  }
  idx.off.assign(idx.depth_start.back(), 0);

  // Counting sort members of each region by depth.
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t r = region_of_[v];
    if (r == graph::kInvalidNode || !sched.in_scope(v)) continue;
    ++idx.region_start[r + 1];
    ++idx.off[idx.depth_start[r] + sched.depth(v) + 1];
  }
  for (std::uint32_t r = 0; r < region_count_; ++r) {
    idx.region_start[r + 1] += idx.region_start[r];
    const std::uint32_t base = idx.depth_start[r];
    const std::uint32_t levels = max_depth[r] + 1;
    for (std::uint32_t d = 0; d < levels; ++d) {
      idx.off[base + d + 1] += idx.off[base + d];
    }
  }
  idx.nodes.resize(idx.region_start.back());
  std::vector<std::uint32_t> cursor(idx.off);  // copy as write cursors
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t r = region_of_[v];
    if (r == graph::kInvalidNode || !sched.in_scope(v)) continue;
    const std::uint32_t slot =
        idx.region_start[r] + cursor[idx.depth_start[r] + sched.depth(v)]++;
    idx.nodes[slot] = v;
  }
}

void PropagationEngine::mark_reached(NodeId v) {
  reached_[v] = 1;
  if (!icp_background_) return;
  // The next background round either rebuilds the eligible list or stays
  // in the iteration stamped elig_stamp_; in the latter, a node already
  // listed, or whose centre's coin failed, has nothing to join.
  if (elig_at_[v] != elig_stamp_ && coin_[center_now_[v]] != elig_stamp_) {
    pending_.push_back(v);
  }
  if (!in_list_[v]) {
    in_list_[v] = 1;
    reached_list_.push_back(v);
  }
}

void PropagationEngine::start_window(std::uint32_t region,
                                     std::vector<Payload>& best) {
  RegionState& st = rstate_[region];
  st.choice = choose_(region_center_[region], st.seq_pos);
  if (st.choice.sched_index >= scheds_.size()) {
    throw std::out_of_range("PropagationEngine: choice.sched_index OOR");
  }
  st.span = std::max<std::uint32_t>(1, st.choice.pass_hops);
  const schedule::TreeSchedule& sched = *scheds_[st.choice.sched_index];
  st.pass_len = sched.mode() == schedule::ScheduleMode::kColored
                    ? st.span * sched.period()
                    : st.span;
  st.phase = Phase::kOutA;
  st.phase_round = 0;
  ++stats_.windows_started;
  // Fresh window: record each member's centre under the new schedule,
  // reset wave state, snapshot centre values and seed the wave at the
  // centres (Algorithm 3 step 1).
  for (std::uint32_t i = member_off_[region]; i < member_off_[region + 1];
       ++i) {
    const NodeId v = member_[i];
    center_now_[v] = sched.center(v);
    reached_[v] = 0;
    upval_[v] = radio::kNoPayload;
    if (center_now_[v] == v) {
      snap_[v] = best[v];
      if (best[v] != radio::kNoPayload) mark_reached(v);
    }
  }
}

void PropagationEngine::begin_phase(std::uint32_t region, Phase phase,
                                    std::vector<Payload>& best) {
  const RegionState& st = rstate_[region];
  const schedule::TreeSchedule& sched = *scheds_[st.choice.sched_index];
  const auto lo = member_off_[region], hi = member_off_[region + 1];
  if (phase == Phase::kInward) {
    // Algorithm 3 step 2: nodes within the hop budget knowing something
    // higher than their centre's snapshot converge-cast it.
    for (std::uint32_t i = lo; i < hi; ++i) {
      const NodeId v = member_[i];
      upval_[v] = radio::kNoPayload;
      if (sched.depth(v) > st.span) continue;
      const Payload csnap = snap_[center_now_[v]];
      if (best[v] != radio::kNoPayload &&
          (csnap == radio::kNoPayload || best[v] > csnap)) {
        upval_[v] = best[v];
      }
    }
  } else {
    // Algorithm 3 step 3: fresh outward wave with the updated centre
    // value.
    for (std::uint32_t i = lo; i < hi; ++i) {
      const NodeId v = member_[i];
      reached_[v] = 0;
      if (center_now_[v] == v && best[v] != radio::kNoPayload) {
        mark_reached(v);
      }
    }
  }
}

void PropagationEngine::finish_inward(std::uint32_t region,
                                      std::vector<Payload>& best) {
  // Centres adopt the converge-cast maximum. Centres are exactly the
  // depth-0 bucket of this region's schedule index.
  const RegionState& st = rstate_[region];
  const SchedIndex& idx = index_[st.choice.sched_index];
  const std::uint32_t base = idx.depth_start[region];
  const std::uint32_t start = idx.region_start[region] + idx.off[base + 0];
  const std::uint32_t end = idx.region_start[region] + idx.off[base + 1];
  for (std::uint32_t i = start; i < end; ++i) {
    const NodeId c = idx.nodes[i];
    if (upval_[c] != radio::kNoPayload &&
        (best[c] == radio::kNoPayload || upval_[c] > best[c])) {
      best[c] = upval_[c];
    }
  }
}

std::uint32_t PropagationEngine::transmit_depth(const RegionState& st) const {
  if (st.phase == Phase::kInward) {
    // Convergecast: deepest curtailed layer first, depth 1 last.
    return st.span - st.phase_round;
  }
  return st.phase_round;  // outward wave time == transmitting depth
}

void PropagationEngine::wave_round(std::vector<Payload>& best) {
  ++round_id_;
  tx_nodes_.clear();
  tx_payload_.clear();
  const bool colored =
      scheds_[0]->mode() == schedule::ScheduleMode::kColored;

  // ---- collect transmitters ---------------------------------------------
  for (std::uint32_t r = 0; r < region_count_; ++r) {
    const RegionState& st = rstate_[r];
    const schedule::TreeSchedule& sched = *scheds_[st.choice.sched_index];
    const SchedIndex& idx = index_[st.choice.sched_index];
    const bool inward = st.phase == Phase::kInward;
    if (!colored) {
      const std::uint32_t d = transmit_depth(st);
      const std::uint32_t levels = idx.levels(r);
      if (d == kNoDepth || d >= levels) continue;
      if (inward && d == 0) continue;  // centres don't converge-cast up
      const std::uint32_t base = idx.depth_start[r];
      const std::uint32_t start = idx.region_start[r] + idx.off[base + d];
      const std::uint32_t end = idx.region_start[r] + idx.off[base + d + 1];
      for (std::uint32_t i = start; i < end; ++i) {
        const NodeId v = idx.nodes[i];
        if (inward) {
          if (upval_[v] != radio::kNoPayload) {
            tx_nodes_.push_back(v);
            tx_payload_.push_back(upval_[v]);
          }
        } else if (reached_[v] && best[v] != radio::kNoPayload) {
          tx_nodes_.push_back(v);
          tx_payload_.push_back(best[v]);
        }
      }
    } else {
      // Colored mode: reached / participating members transmit in their
      // colour slot; physical flooding, one hop per period.
      const std::uint32_t slot = st.phase_round % sched.period();
      for (std::uint32_t i = member_off_[r]; i < member_off_[r + 1]; ++i) {
        const NodeId v = member_[i];
        if (!sched.in_scope(v) || sched.depth(v) > st.span) continue;
        if (sched.color(v) != slot) continue;
        if (inward) {
          if (sched.depth(v) > 0 && upval_[v] != radio::kNoPayload) {
            tx_nodes_.push_back(v);
            tx_payload_.push_back(upval_[v]);
          }
        } else if (reached_[v] && best[v] != radio::kNoPayload) {
          tx_nodes_.push_back(v);
          tx_payload_.push_back(best[v]);
        }
      }
    }
  }

  if (!colored) {
    // ---- pipelined resolution: honest inter-cluster blocking -------------
    for (std::size_t i = 0; i < tx_nodes_.size(); ++i) {
      tx_at_[tx_nodes_[i]] = round_id_;
    }
    // A hop is blocked when a node of another fine cluster transmits next
    // to its receiver, so each transmitter stamps only its foreign
    // neighbours (cached per schedule, see foreign_neighbours): the arcs
    // that can block a hop. Only receivers read the stamps, and a receiver
    // is its transmitter's tree parent or child, which has the
    // transmitter's centre (pinned by Schedule.TreeNeighboursShareTheCentre).
    // So a round whose transmitters all have one centre stamps nothing a
    // receiver reads, and skips the pass.
    const bool one_centre =
        std::all_of(tx_nodes_.begin(), tx_nodes_.end(), [&](NodeId u) {
          return center_now_[u] == center_now_[tx_nodes_.front()];
        });
    if (!one_centre) {
      for (const NodeId u : tx_nodes_) {
        for (const NodeId w : foreign_neighbours(u)) {
          foreign_at_[w] = round_id_;
        }
      }
    }
    for (std::size_t i = 0; i < tx_nodes_.size(); ++i) {
      const NodeId u = tx_nodes_[i];
      const std::uint32_t ru = region_of_[u];
      const RegionState& st = rstate_[ru];
      const schedule::TreeSchedule& sched = *scheds_[st.choice.sched_index];
      if (st.phase == Phase::kInward) {
        const NodeId p = sched.parent(u);
        if (p == u) continue;
        if (foreign_at_[p] == round_id_ || tx_at_[p] == round_id_) {
          ++stats_.wave_blocked;
          continue;
        }
        if (upval_[p] == radio::kNoPayload || tx_payload_[i] > upval_[p]) {
          upval_[p] = tx_payload_[i];
        }
        ++stats_.wave_deliveries;
      } else {
        for (NodeId v : sched.children(u)) {
          if (sched.depth(v) > st.span) continue;
          if (foreign_at_[v] == round_id_ || tx_at_[v] == round_id_) {
            ++stats_.wave_blocked;
            continue;
          }
          if (best[v] == radio::kNoPayload || tx_payload_[i] > best[v]) {
            best[v] = tx_payload_[i];
          }
          if (!reached_[v]) {
            mark_reached(v);
            ++stats_.wave_deliveries;
          }
        }
      }
    }
  } else {
    // ---- colored resolution: the physical medium decides ------------------
    net_.resolve(tx_nodes_, tx_payload_, sparse_out_);
    for (std::size_t i = 0; i < tx_nodes_.size(); ++i) {
      tx_at_[tx_nodes_[i]] = round_id_;
    }
    for (const auto& d : sparse_out_.deliveries) {
      const NodeId v = d.node;
      if (best[v] == radio::kNoPayload || d.payload > best[v]) {
        best[v] = d.payload;
      }
      // Transmitters are in scope, so equal centres mean the same fine
      // cluster, hence the same region.
      const std::uint32_t rv = region_of_[v];
      if (rv == graph::kInvalidNode || center_now_[d.from] != center_now_[v]) {
        continue;
      }
      const RegionState& st = rstate_[rv];
      const schedule::TreeSchedule& sched = *scheds_[st.choice.sched_index];
      if (st.phase == Phase::kInward) {
        if (sched.depth(d.from) == sched.depth(v) + 1 &&
            (upval_[v] == radio::kNoPayload || d.payload > upval_[v])) {
          upval_[v] = d.payload;
          ++stats_.wave_deliveries;
        }
      } else if (reached_[d.from] && !reached_[v]) {
        mark_reached(v);
        ++stats_.wave_deliveries;
      }
    }
  }
  ++stats_.main_rounds;

  // ---- advance window clocks ---------------------------------------------
  for (std::uint32_t r = 0; r < region_count_; ++r) {
    RegionState& st = rstate_[r];
    if (++st.phase_round < st.pass_len) continue;
    st.phase_round = 0;
    switch (st.phase) {
      case Phase::kOutA:
        st.phase = Phase::kInward;
        begin_phase(r, Phase::kInward, best);
        break;
      case Phase::kInward:
        finish_inward(r, best);
        st.phase = Phase::kOutC;
        begin_phase(r, Phase::kOutC, best);
        break;
      case Phase::kOutC:
        ++st.seq_pos;
        start_window(r, best);
        break;
    }
  }
}

std::span<const NodeId> PropagationEngine::foreign_neighbours(NodeId u) {
  const std::uint32_t region = region_of_[u];
  const std::uint32_t s = rstate_[region].choice.sched_index;
  std::vector<ForeignSlot>& slots = foreign_slot_[s];
  if (slots.empty()) slots.resize(g_->node_count());
  ForeignSlot& slot = slots[u];
  if (slot.off == ForeignSlot::kUnbuilt) {
    // w is foreign to u when it has another centre. Fine clusters never
    // span regions, so that holds for every w of another region whatever
    // schedule it runs, and otherwise depends on s alone (w is out of s's
    // scope, holding kInvalidNode, or s gives it another centre). The list
    // therefore stays exact for as long as u's region runs s.
    [[maybe_unused]] const schedule::TreeSchedule& sched = *scheds_[s];
    const NodeId cu = center_now_[u];
    assert(sched.parent(u) == u || sched.center(sched.parent(u)) == cu);
    assert(std::all_of(sched.children(u).begin(), sched.children(u).end(),
                       [&](NodeId v) { return sched.center(v) == cu; }));
    if (foreign_pool_.size() + g_->degree(u) >= ForeignSlot::kUnbuilt) {
      throw std::length_error("PropagationEngine: foreign list pool full");
    }
    slot.off = static_cast<std::uint32_t>(foreign_pool_.size());
    for (const NodeId w : g_->neighbors(u)) {
      assert((center_now_[w] != cu) ==
             (region_of_[w] != region || sched.center(w) != cu));
      if (center_now_[w] != cu) foreign_pool_.push_back(w);
    }
    slot.len = static_cast<std::uint32_t>(foreign_pool_.size()) - slot.off;
  }
  return {foreign_pool_.data() + slot.off, slot.len};
}

void PropagationEngine::background_round(std::vector<Payload>& best) {
  // Algorithm 4 clock: epochs of lambda iterations, iteration i being one
  // Decay round (lambda steps) run by each cluster independently with the
  // coordinated probability 2^-i.
  const std::uint64_t iter_len = lambda_;
  const std::uint64_t epoch_len =
      static_cast<std::uint64_t>(lambda_) * lambda_;
  const std::uint64_t epoch = bg_clock_ / epoch_len;
  const std::uint32_t i =
      static_cast<std::uint32_t>((bg_clock_ % epoch_len) / iter_len) + 1;
  const std::uint32_t step_in_round =
      static_cast<std::uint32_t>(bg_clock_ % iter_len) + 1;
  // Stamp of this Decay iteration, taken before the clock advances: the
  // last step of an iteration must not read as the next one.
  const std::uint64_t stamp = (bg_clock_ / iter_len + 1) << 1;
  const std::uint64_t round_seed =
      util::mix_seed(seed_ ^ kNodeCoinSalt, bg_clock_);
  ++bg_clock_;

  const std::uint64_t iter_seed = util::mix_seed(seed_, epoch * 64 + i);

  // Coordinated per-cluster coin, hashed once per centre per iteration.
  // A node is reached only while it is in its region's current schedule:
  // start_window resets reached_ for the whole region when it rewrites
  // center_now_, and after that only centres (center_now_[v] == v) and
  // same-cluster neighbours of reached nodes become reached. So a reached
  // node's centre is never kInvalidNode.
  auto cluster_passes = [&](NodeId v) {
    const NodeId c = center_now_[v];
    assert(c != graph::kInvalidNode);
    std::uint64_t& coin = coin_[c];
    if ((coin & ~std::uint64_t{1}) != stamp) {
      coin = stamp | (coin_passes(util::mix_seed(iter_seed, c), i) ? 1 : 0);
    }
    return (coin & 1) != 0;
  };
  auto make_eligible = [&](NodeId v) {
    elig_at_[v] = stamp;
    eligible_.push_back(v);
  };

  if (stamp != elig_stamp_) {
    // New Decay iteration: rebuild the eligible list in one walk of the
    // reached list, compacting away entries reset by a window restart.
    elig_stamp_ = stamp;
    eligible_.clear();
    pending_.clear();
    std::size_t w = 0;
    for (std::size_t r = 0; r < reached_list_.size(); ++r) {
      const NodeId v = reached_list_[r];
      if (!reached_[v]) {
        in_list_[v] = 0;
        continue;
      }
      reached_list_[w++] = v;
      if (cluster_passes(v)) make_eligible(v);
    }
    reached_list_.resize(w);
  } else {
    // Nodes reached since the last background round join mid-iteration.
    for (const NodeId v : pending_) {
      if (elig_at_[v] != stamp && reached_[v] && cluster_passes(v)) {
        make_eligible(v);
      }
    }
    pending_.clear();
  }

  tx_nodes_.clear();
  tx_payload_.clear();
  for (const NodeId v : eligible_) {
    // A window restart since v was listed may have reset v or moved it to
    // another fine cluster, so both are checked again.
    if (!reached_[v] || best[v] == radio::kNoPayload || !cluster_passes(v)) {
      continue;
    }
    if (!coin_passes(util::mix_seed(round_seed, v), step_in_round)) continue;
    tx_nodes_.push_back(v);
    tx_payload_.push_back(best[v]);
  }

  if (!tx_nodes_.empty()) {
    net_.resolve(tx_nodes_, tx_payload_, sparse_out_);
    stats_.decay_deliveries += sparse_out_.deliveries.size();
    for (const auto& d : sparse_out_.deliveries) {
      const NodeId v = d.node;
      if (best[v] == radio::kNoPayload || d.payload > best[v]) {
        best[v] = d.payload;
      }
      // Transmitters are reached, so in scope: equal centres mean the same
      // fine cluster.
      if (region_of_[v] == graph::kInvalidNode ||
          center_now_[d.from] != center_now_[v]) {
        continue;
      }
      // Same fine cluster: v now holds its cluster's message — the rescue
      // of Lemma 4.2 — and can also relay it up during inward passes.
      if (!reached_[v]) {
        mark_reached(v);
        ++stats_.rescued;
      }
      if (upval_[v] == radio::kNoPayload || d.payload > upval_[v]) {
        upval_[v] = d.payload;
      }
    }
  }
  ++stats_.background_rounds;
}

std::uint32_t PropagationEngine::step(std::vector<Payload>& best,
                                      util::Rng& /*rng*/) {
  if (!started_) {
    started_ = true;
    for (std::uint32_t r = 0; r < region_count_; ++r) start_window(r, best);
  }
  wave_round(best);
  if (icp_background_) {
    background_round(best);
    return 2;
  }
  return 1;
}

PropagationStats run_single_window(const graph::Graph& g,
                                   const schedule::TreeSchedule& sched,
                                   std::uint32_t pass_hops,
                                   bool icp_background, std::uint64_t seed,
                                   std::vector<Payload>& best,
                                   util::Rng& rng) {
  const cluster::Partition region = cluster::trivial_partition(g.node_count());
  PropagationEngine::Config cfg;
  cfg.graph = &g;
  cfg.regions = &region;
  cfg.scheds = {&sched};
  cfg.choose = [pass_hops](NodeId, std::uint64_t) {
    return WindowChoice{0, pass_hops};
  };
  cfg.icp_background = icp_background;
  cfg.seed = seed;
  PropagationEngine engine(cfg);
  // The second window starts in the step that ends the first one's outC.
  while (engine.stats().windows_started < 2) engine.step(best, rng);
  return engine.stats();
}

}  // namespace radiocast::core
