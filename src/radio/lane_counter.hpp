// Carry-save per-lane tallies for the bitslice batch kernel: plane j holds
// bit j of every lane's count, so adding a 64-lane mask is a carry-save
// ripple (amortized ~2 word ops) instead of one loop iteration per set bit.
#pragma once

#include <array>
#include <cstdint>

#include "radio/medium.hpp"

namespace radiocast::radio {

struct LaneCounter {
  std::array<std::uint64_t, 32> plane{};
  std::size_t used = 0;  // planes [0, used) may be nonzero

  void add(std::uint64_t mask) {
    for (std::size_t j = 0; mask != 0; ++j) {
      if (j == used) {  // counts fit: used <= ceil(log2(adds)) <= 32
        plane[used++] = mask;
        return;
      }
      const std::uint64_t carry = plane[j] & mask;
      plane[j] ^= mask;
      mask = carry;
    }
  }
  /// Adds each lane's count into out[lane], so the tallies of several
  /// counters (one per pooled slice) sum into one outcome.
  void add_to(std::array<std::uint32_t, kMaxLanes>& out, int lanes) const {
    for (std::size_t j = 0; j < used; ++j) {
      const std::uint64_t w = plane[j];
      if (w == 0) continue;
      for (int l = 0; l < lanes; ++l) {
        out[l] += static_cast<std::uint32_t>(w >> l & 1) << j;
      }
    }
  }
  void reset() {
    for (std::size_t j = 0; j < used; ++j) plane[j] = 0;
    used = 0;
  }
};

}  // namespace radiocast::radio
