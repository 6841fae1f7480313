// util::parse — the strict numeric parsing behind every configuration
// knob — and the RADIOCAST_SHARD_THREADS hardening: a set-but-invalid
// environment override must throw, never silently fall back to a default
// worker count.
#include "util/parse.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "graph/generators.hpp"
#include "radio/medium.hpp"

namespace radiocast {
namespace {

TEST(Parse, PositiveIntAcceptsPlainIntegers) {
  EXPECT_EQ(util::parse_positive_int("1", "t"), 1);
  EXPECT_EQ(util::parse_positive_int("64", "t"), 64);
  EXPECT_EQ(util::parse_positive_int("2147483647", "t"), 2147483647);
}

TEST(Parse, PositiveIntRejectsJunkZeroAndTrailing) {
  for (const char* bad : {"", "0", "-3", "8x", "x8", "3.5", " 4", "4 ",
                          "99999999999999999999"}) {
    EXPECT_THROW(util::parse_positive_int(bad, "t"), std::invalid_argument)
        << "input: '" << bad << "'";
  }
  try {
    util::parse_positive_int("banana", "RADIOCAST_SHARD_THREADS");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("RADIOCAST_SHARD_THREADS"), std::string::npos);
    EXPECT_NE(msg.find("banana"), std::string::npos);
  }
}

TEST(Parse, Uint) {
  EXPECT_EQ(util::parse_uint("0", "t"), 0u);
  EXPECT_EQ(util::parse_uint("18446744073709551615", "t"),
            18446744073709551615ull);
  EXPECT_THROW(util::parse_uint("-1", "t"), std::invalid_argument);
  EXPECT_THROW(util::parse_uint("1e3", "t"), std::invalid_argument);
}

TEST(Parse, Double) {
  EXPECT_DOUBLE_EQ(util::parse_double("0.125", "t"), 0.125);
  EXPECT_DOUBLE_EQ(util::parse_double("1e-3", "t"), 1e-3);
  EXPECT_DOUBLE_EQ(util::parse_double("-2", "t"), -2.0);
  for (const char* bad : {"", "x", "1.2.3", "1.0x", "nan", "inf"}) {
    EXPECT_THROW(util::parse_double(bad, "t"), std::invalid_argument)
        << "input: '" << bad << "'";
  }
}

// A bitslice medium constructed with threads == 0 consults
// RADIOCAST_SHARD_THREADS; invalid values must throw instead of silently
// falling back to a default worker count.
TEST(Parse, ShardThreadsEnvRejectsInvalidValues) {
  const graph::Graph g = graph::path(16);
  for (const char* bad : {"banana", "0", "-2", "4x"}) {
    ::setenv("RADIOCAST_SHARD_THREADS", bad, 1);
    EXPECT_THROW(radio::make_medium(radio::MediumKind::kBitslice, g,
                                    radio::CollisionModel::kNoDetection),
                 std::invalid_argument)
        << "env value: '" << bad << "'";
  }
  ::setenv("RADIOCAST_SHARD_THREADS", "2", 1);
  EXPECT_NO_THROW(radio::make_medium(radio::MediumKind::kBitslice, g,
                                     radio::CollisionModel::kNoDetection));
  ::unsetenv("RADIOCAST_SHARD_THREADS");
}

}  // namespace
}  // namespace radiocast
