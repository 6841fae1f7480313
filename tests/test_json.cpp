// util::Json: the one JSON implementation behind bench_out emission and
// sweep manifests. The properties that matter downstream: insertion-
// ordered object keys (stable, diffable files), round-trip parse/dump,
// integral doubles rendered without a decimal point, numbers in their
// shortest exact form, and loud errors on malformed documents.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "util/rng.hpp"

namespace radiocast::util {
namespace {

TEST(Json, ScalarsDump) {
  EXPECT_EQ(Json().dump(-1), "null");
  EXPECT_EQ(Json(true).dump(-1), "true");
  EXPECT_EQ(Json(false).dump(-1), "false");
  EXPECT_EQ(Json(42).dump(-1), "42");
  EXPECT_EQ(Json(42.0).dump(-1), "42");  // integral double -> integer form
  EXPECT_EQ(Json(0.5).dump(-1), "0.5");
  EXPECT_EQ(Json("hi").dump(-1), "\"hi\"");
  EXPECT_EQ(Json(std::nan("")).dump(-1), "null");  // JSON has no NaN
}

TEST(Json, ObjectKeepsInsertionOrder) {
  Json j = Json::object();
  j.set("zeta", 1).set("alpha", 2).set("mid", 3);
  EXPECT_EQ(j.dump(-1), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
  // Re-setting an existing key replaces in place, keeping its position.
  j.set("alpha", 9);
  EXPECT_EQ(j.dump(-1), "{\"zeta\":1,\"alpha\":9,\"mid\":3}");
}

TEST(Json, FindAndAccessors) {
  Json j = Json::object();
  j.set("s", "text").set("n", 2.5).set("b", true);
  ASSERT_NE(j.find("s"), nullptr);
  EXPECT_EQ(j.find("s")->as_string(), "text");
  EXPECT_DOUBLE_EQ(j.find("n")->as_number(), 2.5);
  EXPECT_TRUE(j.find("b")->as_bool());
  EXPECT_EQ(j.find("missing"), nullptr);
  EXPECT_THROW(j.find("s")->as_number(), std::invalid_argument);
}

TEST(Json, StringEscaping) {
  Json j = Json(std::string("a\"b\\c\nd"));
  EXPECT_EQ(j.dump(-1), "\"a\\\"b\\\\c\\nd\"");
  const Json back = Json::parse(j.dump(-1));
  EXPECT_EQ(back.as_string(), "a\"b\\c\nd");
}

TEST(Json, ParseDocument) {
  const Json j = Json::parse(R"({
    "version": 1,
    "axes": {"n": [512, 1024], "p": "geom:0.001..0.1:5"},
    "flag": true,
    "nothing": null
  })");
  ASSERT_TRUE(j.is_object());
  EXPECT_DOUBLE_EQ(j.find("version")->as_number(), 1.0);
  const Json* axes = j.find("axes");
  ASSERT_NE(axes, nullptr);
  ASSERT_EQ(axes->find("n")->size(), 2u);
  EXPECT_DOUBLE_EQ(axes->find("n")->at(1).as_number(), 1024.0);
  EXPECT_EQ(axes->find("p")->as_string(), "geom:0.001..0.1:5");
  EXPECT_TRUE(j.find("nothing")->is_null());
}

TEST(Json, RoundTripPreservesStructure) {
  Json j = Json::object();
  j.set("list", Json::array().push_back(1).push_back("two").push_back(false));
  j.set("nested", Json::object().set("x", 1e-3));
  const Json back = Json::parse(j.dump(2));
  EXPECT_EQ(back.dump(-1), j.dump(-1));
}

TEST(Json, NumbersAreShortestExactRoundTrip) {
  EXPECT_EQ(json_number(0.06), "0.06");
  EXPECT_EQ(json_number(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(json_number(-2.5e-7), "-2.5e-07");
  EXPECT_DOUBLE_EQ(Json::parse("1.").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(Json::parse("+.5").as_number(), 0.5);
  // Every finite double, subnormals included, parses back bit for bit
  // (zero is excluded: -0.0 renders as the integer 0).
  Rng rng(2024);
  int checked = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t bits = rng();
    const double v = std::bit_cast<double>(bits);
    if (!std::isfinite(v) || v == 0.0) continue;
    const std::string text = json_number(v);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(Json::parse(text).as_number()),
              bits)
        << text;
    ++checked;
  }
  EXPECT_GT(checked, 9900);
  const double tiny = std::bit_cast<double>(std::uint64_t{1});  // 4.9e-324
  EXPECT_EQ(Json::parse(json_number(tiny)).as_number(), tiny);
}

TEST(Json, ParseErrorsNameTheOffset) {
  EXPECT_THROW(Json::parse(""), std::invalid_argument);
  EXPECT_THROW(Json::parse("{"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(Json::parse("tru"), std::invalid_argument);
  EXPECT_THROW(Json::parse("1 2"), std::invalid_argument);  // trailing junk
  EXPECT_THROW(Json::parse("1e999"), std::invalid_argument);  // overflow
  try {
    Json::parse("[1, oops]");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Json, BuildersRejectTypeMisuse) {
  Json arr = Json::array();
  EXPECT_THROW(arr.set("k", 1), std::invalid_argument);
  Json obj = Json::object();
  EXPECT_THROW(obj.push_back(1), std::invalid_argument);
}

}  // namespace
}  // namespace radiocast::util
