// PropagationEngine: the windowed Intra-Cluster Propagation machinery that
// realises BOTH processes of Compete (Section 3). It is the repository's
// only implementation of Algorithms 3-4: single-window experiments and
// tests run it too, through run_single_window below.
//
// The observation that lets one engine serve both: Algorithm 2 (the
// background process) is exactly Algorithm 1 (the main process) with a
// trivial coarse clustering (one coarse cluster covering V), a fixed beta
// (D^-0.1) instead of a random one, a round-robin instead of a random
// sequence, and a longer curtail (log n / beta instead of
// log n / (beta log D)). So the engine is parameterised by:
//
//   * a "coarse" region partition (nodes of different regions never share
//     fine clusters; their window clocks are independent),
//   * a grid of fine TreeSchedules (clusterings computed inside regions),
//   * a choice function (coarse centre, sequence position) -> (schedule,
//     hop budget) implementing step 5's shared-randomness sequence or the
//     background's round-robin,
//
// and Compete instantiates it twice, interleaving their steps 1:1.
//
// Each engine step runs one round of the scheduled wave (Algorithm 3's
// current pass, per-region desynchronised) and — when enabled — one round
// of the engine's own Decay background stream (Algorithm 4), so one step
// consumes 2 physical rounds, 4 per Compete step across both engines,
// matching the paper's alternating construction.
//
// Rounds read each node's fine-cluster centre (under its region's current
// schedule) from one array written at window start, so a round's cost
// follows the nodes it touches. Both background coins are hashes, not
// stream draws: the coordinated 2^-i cluster coin of Decay iteration k is
// mix_seed(mix_seed(seed, k), centre), hashed once per centre per
// iteration and cached, and node v's 2^-j coin in background round t is
// mix_seed(mix_seed(seed ^ salt, t), v). So a background round visits only
// the reached nodes whose cluster coin passed (rebuilt once per iteration,
// plus nodes reached since), and its outcome does not depend on the order
// it visits them in. The engine draws nothing from the Rng passed to step.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cluster/exponential_shifts.hpp"
#include "graph/graph.hpp"
#include "radio/network.hpp"
#include "schedule/bfs_schedule.hpp"
#include "util/rng.hpp"

namespace radiocast::core {

using graph::NodeId;
using radio::Payload;

/// What a region runs in its next window.
struct WindowChoice {
  std::uint32_t sched_index = 0;  // into Config::scheds
  std::uint32_t pass_hops = 1;    // the curtail ell
};

struct PropagationStats {
  std::uint64_t main_rounds = 0;       // scheduled-wave rounds
  std::uint64_t background_rounds = 0; // Algorithm 4 rounds
  std::uint64_t windows_started = 0;
  std::uint64_t wave_deliveries = 0;   // successful scheduled hops
  std::uint64_t wave_blocked = 0;      // hops lost to foreign transmitters
  std::uint64_t decay_deliveries = 0;
  std::uint64_t rescued = 0;           // risky nodes re-attached by decay
};

class PropagationEngine {
 public:
  struct Config {
    const graph::Graph* graph = nullptr;
    /// Region partition ("coarse" clustering). Fine schedules must have
    /// been computed with partition_regions over this partition's centres
    /// (or over the whole graph when this partition is trivial).
    const cluster::Partition* regions = nullptr;
    std::vector<const schedule::TreeSchedule*> scheds;
    std::function<WindowChoice(NodeId region_center, std::uint64_t pos)>
        choose;
    bool icp_background = true;  // Algorithm 4 stream
    std::uint64_t seed = 0;
  };

  explicit PropagationEngine(const Config& cfg);

  /// Advances the engine by one step over the shared knowledge vector
  /// `best` (node -> highest message known, radio::kNoPayload if none).
  /// Returns physical rounds consumed (1, or 2 with the background stream).
  /// `rng` is unused: every coin is a hash of Config::seed. The parameter
  /// stays so existing callers keep compiling.
  std::uint32_t step(std::vector<Payload>& best, util::Rng& rng);

  const PropagationStats& stats() const { return stats_; }

  /// Whether v currently holds its fine cluster's message in this window
  /// (the wave reached it, or the background rescued it).
  bool reached(NodeId v) const { return reached_[v] != 0; }

  /// Nodes reached since the last background round, waiting to join its
  /// eligible list. Always 0 on an engine without the background stream.
  std::size_t pending_count() const { return pending_.size(); }

 private:
  // ---- static structure --------------------------------------------------
  const graph::Graph* g_;
  const cluster::Partition* regions_;
  std::vector<const schedule::TreeSchedule*> scheds_;
  std::function<WindowChoice(NodeId, std::uint64_t)> choose_;
  bool icp_background_;
  std::uint64_t seed_;
  radio::Network net_;  // physical medium for the Decay background stream

  std::uint32_t region_count_ = 0;
  std::vector<std::uint32_t> region_of_;     // dense region id per node
  std::vector<NodeId> region_center_;        // per dense id
  std::vector<std::uint32_t> member_off_;    // CSR: region -> member nodes
  std::vector<NodeId> member_;

  /// Per schedule: members of each region sorted by tree depth, with
  /// per-depth offsets, enabling O(#transmitters) wave rounds.
  struct SchedIndex {
    std::vector<NodeId> nodes;                // grouped by region, by depth
    std::vector<std::uint32_t> region_start;  // size region_count+1
    std::vector<std::uint32_t> depth_start;   // per region: start into off_
    std::vector<std::uint32_t> off;           // flattened depth offsets
    std::uint32_t levels(std::uint32_t r) const {
      return depth_start[r + 1] - depth_start[r] - 1;
    }
  };
  std::vector<SchedIndex> index_;

  // ---- per-region window state -------------------------------------------
  enum class Phase : std::uint8_t { kOutA = 0, kInward = 1, kOutC = 2 };
  struct RegionState {
    std::uint64_t seq_pos = 0;
    WindowChoice choice{};
    Phase phase = Phase::kOutA;
    std::uint32_t phase_round = 0;
    std::uint32_t pass_len = 1;  // rounds per pass (hops, or hops*period)
    std::uint32_t span = 1;      // hop budget
  };
  std::vector<RegionState> rstate_;

  // ---- per-node wave state -----------------------------------------------
  std::vector<std::uint8_t> reached_;
  std::vector<Payload> upval_;
  std::vector<Payload> snap_;  // centre snapshot (entry used at centres)
  /// Background stream only: every reached node (plus stale entries,
  /// compacted once per Decay iteration) and its membership flags.
  std::vector<NodeId> reached_list_;
  std::vector<std::uint8_t> in_list_;
  /// Per node: its centre in its region's current schedule, written by
  /// start_window for the region's members; kInvalidNode for nodes in no
  /// region or out of the schedule's scope. Fine clusters never span
  /// regions, so equal centres mean the same fine cluster.
  std::vector<NodeId> center_now_;
  bool started_ = false;

  // round-stamped scratch
  std::vector<std::uint64_t> foreign_at_;
  std::vector<std::uint64_t> tx_at_;
  std::uint64_t round_id_ = 0;

  /// Pipelined blocking: per schedule, per node, the slice of
  /// foreign_pool_ listing the node's foreign neighbours under that
  /// schedule (other region, out of scope, or another centre). A slot is
  /// filled the first time its node transmits under its schedule in a
  /// multi-centre round; a schedule's slot array is allocated then too.
  struct ForeignSlot {
    static constexpr std::uint32_t kUnbuilt = static_cast<std::uint32_t>(-1);
    std::uint32_t off = kUnbuilt;
    std::uint32_t len = 0;
  };
  std::vector<std::vector<ForeignSlot>> foreign_slot_;
  std::vector<NodeId> foreign_pool_;

  std::vector<NodeId> tx_nodes_;
  std::vector<Payload> tx_payload_;
  radio::SparseOutcome sparse_out_;

  // decay background clock
  std::uint64_t bg_clock_ = 0;
  std::uint32_t lambda_;
  /// Per centre id: the coordinated coin of the Decay iteration it was last
  /// hashed in, as (iteration + 1) << 1 | passed. The coin depends only on
  /// (seed, iteration, centre), so it holds across schedules and windows.
  std::vector<std::uint64_t> coin_;
  /// Reached nodes whose cluster coin passed in the iteration stamped
  /// elig_stamp_ (entries may since have been reset; rounds re-check).
  std::vector<NodeId> eligible_;
  std::uint64_t elig_stamp_ = 0;
  /// Per node: the iteration stamp it was last added to eligible_ under.
  std::vector<std::uint64_t> elig_at_;
  /// Nodes marked reached since the last background round.
  std::vector<NodeId> pending_;

  PropagationStats stats_;

  // ---- helpers ------------------------------------------------------------
  void build_region_structures();
  void build_sched_index(std::size_t s);
  /// Picks the region's next schedule and runs the outward pass's setup.
  void start_window(std::uint32_t region, std::vector<Payload>& best);
  /// Sets up the inward or the second outward pass.
  void begin_phase(std::uint32_t region, Phase phase,
                   std::vector<Payload>& best);
  void finish_inward(std::uint32_t region, std::vector<Payload>& best);
  void wave_round(std::vector<Payload>& best);
  /// Transmitter u's foreign neighbours under its region's current
  /// schedule, built on first use.
  std::span<const NodeId> foreign_neighbours(NodeId u);
  void background_round(std::vector<Payload>& best);
  void mark_reached(NodeId v);

  /// Transmitting depth for a region this round, or kNoDepth when idle.
  static constexpr std::uint32_t kNoDepth = static_cast<std::uint32_t>(-1);
  std::uint32_t transmit_depth(const RegionState& st) const;
};

/// Runs exactly one ICP window (outward, inward, outward pass) of `sched`
/// with hop budget `pass_hops` over `best`, on a one-region engine (so every
/// cluster of `sched` starts its window in round 0). Each pass takes
/// pass_hops rounds (times the period in colored mode); with
/// `icp_background` every wave round is followed by one Algorithm 4 round
/// whose coins derive from `seed` (`rng` is unused, as in step). Returns the
/// engine's stats; main_rounds + background_rounds is the window's physical
/// round count.
PropagationStats run_single_window(const graph::Graph& g,
                                   const schedule::TreeSchedule& sched,
                                   std::uint32_t pass_hops,
                                   bool icp_background, std::uint64_t seed,
                                   std::vector<Payload>& best,
                                   util::Rng& rng);

}  // namespace radiocast::core
