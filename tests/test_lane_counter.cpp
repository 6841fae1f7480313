// LaneCounter, the bitslice kernel's per-lane tally: every count it folds
// out must equal a naive per-lane uint32 count of the same masks, across
// the 16-mask block boundaries, high planes, partial reads, reset and the
// pooled merge of several counters into one outcome.
#include "radio/lane_counter.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "radio/medium.hpp"
#include "util/rng.hpp"

namespace radiocast::radio {
namespace {

using Counts = std::array<std::uint32_t, kMaxLanes>;

// A naive counter fed the same masks: one uint32 per lane.
struct Naive {
  Counts count{};
  void add(std::uint64_t mask, int lanes) {
    for (int l = 0; l < lanes; ++l) count[l] += mask >> l & 1;
  }
};

std::uint64_t random_mask(util::Rng& rng, int lanes) {
  return rng() & lane_mask(lanes);
}

Counts folded(const LaneCounter& c, int lanes) {
  Counts out{};
  c.add_to(out, lanes);
  return out;
}

TEST(LaneCounter, MatchesNaiveCountsAcrossBlockBoundaries) {
  for (const int lanes : {1, 7, 64}) {
    for (const int adds : {0, 1, 15, 16, 17, 255, 256, 1000}) {
      util::Rng rng(static_cast<std::uint64_t>(lanes * 7919 + adds));
      LaneCounter c;
      Naive naive;
      for (int i = 0; i < adds; ++i) {
        const std::uint64_t m = random_mask(rng, lanes);
        c.add(m);
        naive.add(m, lanes);
      }
      EXPECT_EQ(folded(c, lanes), naive.count)
          << "lanes " << lanes << ", adds " << adds;
    }
  }
}

TEST(LaneCounter, AllSetMasksCountExactly) {
  // Every lane set on every add: each lane's count is the add count, so
  // the high planes carry exactly its binary expansion.
  for (const int adds : {15, 16, 17, 255, 256, 4097}) {
    LaneCounter c;
    for (int i = 0; i < adds; ++i) c.add(~std::uint64_t{0});
    const Counts out = folded(c, 64);
    for (int l = 0; l < 64; ++l) {
      ASSERT_EQ(out[l], static_cast<std::uint32_t>(adds)) << "lane " << l;
    }
  }
}

TEST(LaneCounter, HighPlanesFillOnOneAlwaysSetLane) {
  // Lane 5 is set on all 65,537 + 9 adds, so its count reaches bit 16 and
  // fills the high planes; the other lanes are random.
  constexpr int kAdds = 65537 + 9;
  constexpr std::uint64_t kAlways = std::uint64_t{1} << 5;
  util::Rng rng(65537);
  LaneCounter c;
  Naive naive;
  for (int i = 0; i < kAdds; ++i) {
    const std::uint64_t m = random_mask(rng, 64) | kAlways;
    c.add(m);
    naive.add(m, 64);
  }
  const Counts out = folded(c, 64);
  EXPECT_EQ(out[5], static_cast<std::uint32_t>(kAdds));
  EXPECT_EQ(out, naive.count);
}

TEST(LaneCounter, AddToMidStreamLeavesTheCounterAsItWas) {
  for (const int lanes : {1, 7, 64}) {
    util::Rng rng(static_cast<std::uint64_t>(lanes));
    LaneCounter c;
    Naive naive;
    // Read after every add count from 0 to 40, so reads land on every
    // offset inside a block and right after block reductions.
    for (int i = 0; i <= 40; ++i) {
      const Counts first = folded(c, lanes);
      const Counts second = folded(c, lanes);
      EXPECT_EQ(first, naive.count) << "lanes " << lanes << ", adds " << i;
      EXPECT_EQ(second, first) << "lanes " << lanes << ", adds " << i;
      const std::uint64_t m = random_mask(rng, lanes);
      c.add(m);
      naive.add(m, lanes);
    }
  }
}

TEST(LaneCounter, OnlyTheFirstLanesAreFolded) {
  LaneCounter c;
  for (int i = 0; i < 20; ++i) c.add(~std::uint64_t{0});
  const Counts out = folded(c, 7);
  for (int l = 0; l < 7; ++l) EXPECT_EQ(out[l], 20u);
  for (int l = 7; l < 64; ++l) EXPECT_EQ(out[l], 0u);
}

TEST(LaneCounter, ResetThenReuse) {
  util::Rng rng(3);
  LaneCounter c;
  for (int i = 0; i < 300; ++i) c.add(random_mask(rng, 64));
  c.reset();
  EXPECT_EQ(folded(c, 64), Counts{});
  for (const int adds : {5, 16, 300}) {
    c.reset();
    Naive naive;
    for (int i = 0; i < adds; ++i) {
      const std::uint64_t m = random_mask(rng, 64);
      c.add(m);
      naive.add(m, 64);
    }
    EXPECT_EQ(folded(c, 64), naive.count) << "adds " << adds;
  }
}

TEST(LaneCounter, TwoCountersSumIntoOneOutput) {
  // Pooled slices each keep their own counter; the round adds all of them
  // into one outcome array.
  for (const int lanes : {1, 7, 64}) {
    util::Rng rng(static_cast<std::uint64_t>(100 + lanes));
    LaneCounter a;
    LaneCounter b;
    Naive naive;
    for (int i = 0; i < 53; ++i) {
      const std::uint64_t m = random_mask(rng, lanes);
      a.add(m);
      naive.add(m, lanes);
    }
    for (int i = 0; i < 270; ++i) {
      const std::uint64_t m = random_mask(rng, lanes);
      b.add(m);
      naive.add(m, lanes);
    }
    Counts out{};
    a.add_to(out, lanes);
    b.add_to(out, lanes);
    EXPECT_EQ(out, naive.count) << "lanes " << lanes;
  }
}

}  // namespace
}  // namespace radiocast::radio
