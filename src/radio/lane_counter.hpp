// Per-lane tallies for the bitslice batch kernel: how many of the added
// 64-lane masks had each lane's bit set, kept vertically (bit j of every
// lane's count in one word) so an add never loops over lanes.
//
// Cost model. A plain vertical counter ripples each mask's carry up its
// bit planes until no lane carries any more; with 64 lanes some lane
// almost always still carries, so an add walks ~log2(count) planes and
// ends on a mispredicted exit. Instead, masks are buffered in blocks of 16
// and each full block is reduced by a Harley–Seal carry-save-adder tree
// (15 CSAs of 5 word ops; Muła, Kurz and Lemire, "Faster Population
// Counts Using AVX2 Instructions", arXiv:1611.07612) into running
// ones/twos/fours/eights words, bits 0-3 of every count. Only the tree's
// sixteens word (one carry out of bit 3 per lane) ripples into the high
// planes, once per 16 adds. That is ~5 word ops plus a buffered store per
// add.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>

#include "radio/medium.hpp"

namespace radiocast::radio {

struct LaneCounter {
  static constexpr int kBlock = 16;

  std::array<std::uint64_t, kBlock> buf{};  // masks not yet reduced
  int buffered = 0;                         // buf[0, buffered) are live
  // Bits 0-3 of every lane's count of the reduced masks.
  std::uint64_t ones = 0, twos = 0, fours = 0, eights = 0;
  // plane[j] holds bit j + 4 of every lane's count of the reduced masks.
  // Counts stay below 2^32 per round, so 28 high planes suffice.
  std::array<std::uint64_t, 28> plane{};
  std::size_t used = 0;  // planes [0, used) may be nonzero

  void add(std::uint64_t mask) {
    buf[buffered++] = mask;
    if (buffered == kBlock) reduce_block();
  }
  /// Adds each lane's count into out[lane], so the tallies of several
  /// counters (one per pooled slice) sum into one outcome. Leaves the
  /// counter as it was: adds after it keep counting.
  void add_to(std::array<std::uint32_t, kMaxLanes>& out, int lanes) const {
    // Bits 0-4 of the unrippled part: the CSA words (<= 15) plus the
    // partial block (<= 15) stay below 32, so five planes hold them.
    std::array<std::uint64_t, 5> low{ones, twos, fours, eights, 0};
    for (int i = 0; i < buffered; ++i) {
      std::uint64_t m = buf[i];
      for (std::size_t j = 0; m != 0; ++j) {
        const std::uint64_t carry = low[j] & m;
        low[j] ^= m;
        m = carry;
      }
    }
    for (std::size_t j = 0; j < low.size(); ++j) fold(out, lanes, low[j], j);
    for (std::size_t j = 0; j < used; ++j) fold(out, lanes, plane[j], j + 4);
  }
  void reset() {
    for (std::size_t j = 0; j < used; ++j) plane[j] = 0;
    used = 0;
    buffered = 0;
    ones = twos = fours = eights = 0;
  }

 private:
  // Carry-save adder: a + b + c == 2 * high + low, bitwise.
  static void csa(std::uint64_t& high, std::uint64_t& low, std::uint64_t a,
                  std::uint64_t b, std::uint64_t c) {
    const std::uint64_t u = a ^ b;
    high = (a & b) | (u & c);
    low = u ^ c;
  }

  static void fold(std::array<std::uint32_t, kMaxLanes>& out, int lanes,
                   std::uint64_t w, std::size_t bit) {
    if (w == 0) return;
    for (int l = 0; l < lanes; ++l) {
      out[l] += static_cast<std::uint32_t>(w >> l & 1) << bit;
    }
  }

  void reduce_block() {
    std::uint64_t twos_a = 0, twos_b = 0, fours_a = 0, fours_b = 0;
    std::uint64_t eights_a = 0, eights_b = 0, sixteens = 0;
    csa(twos_a, ones, ones, buf[0], buf[1]);
    csa(twos_b, ones, ones, buf[2], buf[3]);
    csa(fours_a, twos, twos, twos_a, twos_b);
    csa(twos_a, ones, ones, buf[4], buf[5]);
    csa(twos_b, ones, ones, buf[6], buf[7]);
    csa(fours_b, twos, twos, twos_a, twos_b);
    csa(eights_a, fours, fours, fours_a, fours_b);
    csa(twos_a, ones, ones, buf[8], buf[9]);
    csa(twos_b, ones, ones, buf[10], buf[11]);
    csa(fours_a, twos, twos, twos_a, twos_b);
    csa(twos_a, ones, ones, buf[12], buf[13]);
    csa(twos_b, ones, ones, buf[14], buf[15]);
    csa(fours_b, twos, twos, twos_a, twos_b);
    csa(eights_b, fours, fours, fours_a, fours_b);
    csa(sixteens, eights, eights, eights_a, eights_b);
    buffered = 0;
    for (std::size_t j = 0; sixteens != 0; ++j) {
      if (j == used) {
        assert(j < plane.size());  // counts stay below 2^32 per round
        plane[used++] = sixteens;
        return;
      }
      const std::uint64_t carry = plane[j] & sixteens;
      plane[j] ^= sixteens;
      sixteens = carry;
    }
  }
};

}  // namespace radiocast::radio
