// Core model types for the synchronous radio network (Section 1.1 of
// Czumaj-Davies). Nodes act in discrete rounds; per round each node either
// transmits a message to all neighbours or listens. Without collision
// detection, a listener receives iff exactly one neighbour transmits and
// cannot distinguish silence from collision.
#pragma once

#include <cstdint>
#include <limits>

namespace radiocast::radio {

/// Message payload. The algorithms only compare and forward values, so a
/// 64-bit integer suffices (consistent with the paper's note that
/// O(log n)-bit messages are enough).
using Payload = std::uint64_t;

/// Sentinel for "no payload".
constexpr Payload kNoPayload = std::numeric_limits<Payload>::max();

/// The max-fold every relay uses: b = max(b, p), with kNoPayload in `b`
/// meaning "nothing yet" (so any p replaces it). Branchless: kNoPayload + 1
/// wraps to 0, which is <= every p, and for any other b, b + 1 <= p is
/// p > b. Same result as `if (b == kNoPayload || p > b) b = p;`.
constexpr void fold_max(Payload& b, Payload p) { b = b + 1 <= p ? p : b; }

/// Round counter.
using Round = std::uint64_t;

/// What a node does in one round.
struct Action {
  bool transmit = false;
  Payload payload = kNoPayload;

  static Action listen() { return {}; }
  static Action send(Payload p) { return {true, p}; }
};

/// What a listening node perceives in one round.
enum class Reception : std::uint8_t {
  /// Zero neighbours transmitted — or, in the no-collision-detection model,
  /// possibly more than one (indistinguishable).
  kSilence = 0,
  /// Exactly one neighbour transmitted; the message was received.
  kMessage = 1,
  /// >= 2 neighbours transmitted. Only ever reported in the
  /// collision-detection model variant; the default model maps this to
  /// kSilence before the protocol sees it.
  kCollision = 2,
};

/// Which interference model the network reports to protocols.
enum class CollisionModel : std::uint8_t {
  /// Classical model of the paper: no collision detection.
  kNoDetection,
  /// Contrast model (Ghaffari et al. [11]): collisions distinguishable.
  kDetection,
};

}  // namespace radiocast::radio
