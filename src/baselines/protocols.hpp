// Reference per-node protocol implementations against the node-local
// Protocol interface (what a real radio would run).
//
// The algorithm cores in src/core and src/baselines drive Network::step
// directly with vectorised state for speed; the classes here are the same
// algorithms written as honest per-node state machines. Tests cross-check
// the two styles (same success behaviour and round-complexity shape), and
// the examples use these to show how a downstream user writes protocols.
#pragma once

#include <cstdint>
#include <vector>

#include "radio/protocol.hpp"

namespace radiocast::baselines::protocols {

using radio::Action;
using radio::kNoPayload;
using radio::NodeInfo;
using radio::Payload;
using radio::Protocol;
using radio::Round;

/// Bar-Yehuda-Goldreich-Itai broadcast: every informed node runs
/// synchronized Decay (density 2^-(1 + round mod ceil(log2 n))) forever.
/// O((D + log n) log n) rounds whp.
class DecayBroadcast final : public Protocol {
 public:
  /// `initial` is kNoPayload for non-sources.
  explicit DecayBroadcast(Payload initial = kNoPayload);

  void start(const NodeInfo& info, util::Rng rng) override;
  Action on_round(Round round) override;
  void on_message(Round round, Payload payload) override;
  bool done() const override { return best_ != kNoPayload; }

  Payload best() const { return best_; }

 private:
  Payload best_;
  util::Rng rng_{0};
  std::uint32_t lambda_ = 1;
};

/// Czumaj-Rytter / Kowalski-Pelc style broadcast: densities cycle only to
/// 2^-(ceil(log2(n/D)) + 2), with a periodic full-depth cycle.
/// O(D log(n/D) + log^2 n) rounds whp.
class ShallowDecayBroadcast final : public Protocol {
 public:
  explicit ShallowDecayBroadcast(Payload initial = kNoPayload,
                                 std::uint32_t full_cycle_every = 8);

  void start(const NodeInfo& info, util::Rng rng) override;
  Action on_round(Round round) override;
  void on_message(Round round, Payload payload) override;
  bool done() const override { return best_ != kNoPayload; }

 private:
  Payload best_;
  std::uint32_t full_cycle_every_;
  util::Rng rng_{0};
  std::uint32_t shallow_ = 1;
  std::uint32_t full_ = 1;
  // Position within the current cycle, and the current cycle's depth.
  std::uint32_t step_ = 0;
  std::uint32_t cycle_ = 0;
  std::uint32_t cycle_len_ = 1;
};

/// Deterministic round-robin broadcast: in round r, the node with id
/// (r mod n) transmits iff informed. Collision-free by construction, so
/// the frontier provably advances >= 1 hop per n rounds: O(n D) worst
/// case, the folklore deterministic yardstick (the best known
/// deterministic algorithms reach O(n log D)).
class RoundRobinBroadcast final : public Protocol {
 public:
  explicit RoundRobinBroadcast(Payload initial = kNoPayload);

  void start(const NodeInfo& info, util::Rng rng) override;
  Action on_round(Round round) override;
  void on_message(Round round, Payload payload) override;
  bool done() const override { return best_ != kNoPayload; }

 private:
  Payload best_;
  NodeInfo info_{};
};

/// Beep-wave layering (collision-detection model only): the source beeps
/// in round 0; every node that first perceives ANY energy (message or
/// collision) in round t-1 beeps in round t. After D+1 rounds each node
/// knows its BFS layer = the round it first heard energy. This is the
/// classic CD-model synchronization primitive the paper's related work
/// ([11]) builds on; it has no no-CD analogue (energy detection IS
/// collision detection).
class BeepWave final : public Protocol {
 public:
  explicit BeepWave(bool is_source);

  void start(const NodeInfo& info, util::Rng rng) override;
  Action on_round(Round round) override;
  void on_message(Round round, Payload payload) override;
  void on_collision(Round round) override;
  bool done() const override { return layer_ != kNoLayer; }

  static constexpr std::uint32_t kNoLayer = static_cast<std::uint32_t>(-1);
  std::uint32_t layer() const { return layer_; }

 private:
  void heard(Round round);
  bool is_source_;
  std::uint32_t layer_ = kNoLayer;
  bool beeped_ = false;
};

/// Layered broadcast for the collision-detection model: first a BeepWave
/// establishes layers, then informed nodes of layer L run Decay only in
/// rounds ≡ L (mod 3), eliminating cross-layer collisions (same-layer
/// collisions remain and are handled by Decay). The layer schedule gives a
/// constant-factor improvement over plain BGI and demonstrates the CD
/// model; the asymptotically optimal O(D + log^6 n) algorithm of Ghaffari
/// et al. [11] is out of scope (analytic curve reported in the bench).
class LayeredCdBroadcast final : public Protocol {
 public:
  explicit LayeredCdBroadcast(Payload initial = kNoPayload);

  void start(const NodeInfo& info, util::Rng rng) override;
  Action on_round(Round round) override;
  void on_message(Round round, Payload payload) override;
  void on_collision(Round round) override;
  bool done() const override;

 private:
  Payload best_;
  bool is_source_ = false;
  util::Rng rng_{0};
  std::uint32_t lambda_ = 1;
  Round wave_rounds_ = 0;  // rounds reserved for the beep wave
  std::uint32_t layer_ = BeepWave::kNoLayer;
  bool beeped_ = false;
  void heard_energy(Round round);
};

}  // namespace radiocast::baselines::protocols
