// Tests of the one JSON reader and escaper (util/json.h): every value kind,
// the nesting limit, exact unsigned 64-bit integers, bit-exact %.17g
// doubles, escape round-trips, and rejection of trailing garbage and of
// every truncation of the repo's real documents (a dataset manifest and a
// logging plan).
#include "util/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "design/plan.h"
#include "store/dataset.h"
#include "util/rng.h"

namespace harvest::util {
namespace {

TEST(JsonTest, ParsesEveryKind) {
  const JsonValue v = parse_json(
      " {\"a\": [1, -2.5e3, \"x\"], \"b\": {\"c\": true, \"d\": false},"
      " \"e\": null, \"f\": []} \n");
  ASSERT_EQ(v.kind, JsonValue::kObject);
  ASSERT_EQ(v.members.size(), 4u);
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_EQ(a->items[0].as_uint(), 1u);
  EXPECT_EQ(a->items[1].as_double(), -2500.0);
  EXPECT_EQ(a->items[1].as_uint(), std::nullopt);
  EXPECT_EQ(a->items[2].kind, JsonValue::kString);
  EXPECT_EQ(a->items[2].text, "x");
  EXPECT_EQ(a->items[2].as_double(), std::nullopt);
  const JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->find("c")->boolean);
  EXPECT_EQ(b->find("d")->kind, JsonValue::kBool);
  EXPECT_FALSE(b->find("d")->boolean);
  EXPECT_EQ(v.find("e")->kind, JsonValue::kNull);
  EXPECT_EQ(v.find("f")->kind, JsonValue::kArray);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(a->find("a"), nullptr);  // arrays have no members
}

TEST(JsonTest, NestingBeyondTheLimitIsRejected) {
  const std::string ok = std::string(kJsonMaxDepth, '[') +
                         std::string(kJsonMaxDepth, ']');
  EXPECT_NO_THROW(parse_json(ok));
  const std::string over = std::string(kJsonMaxDepth + 1, '[') +
                           std::string(kJsonMaxDepth + 1, ']');
  EXPECT_THROW(parse_json(over), JsonError);
  // Deep enough to exhaust the stack of an unbounded recursive parser.
  EXPECT_THROW(parse_json(std::string(100000, '[')), JsonError);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(parse_json(objects), JsonError);
}

TEST(JsonTest, Uint64MaxParsesExactlyAndOverflowIsRejected) {
  EXPECT_EQ(parse_json("18446744073709551615").as_uint(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_json("9007199254740993").as_uint(), 9007199254740993u);
  EXPECT_EQ(parse_json("18446744073709551616").as_uint(), std::nullopt);
  EXPECT_EQ(parse_json("99999999999999999999999").as_uint(), std::nullopt);
  EXPECT_EQ(parse_json("0").as_uint(), 0u);
  for (const char* not_unsigned : {"-1", "-0", "1.0", "1e3", "\"7\"", "true"}) {
    EXPECT_EQ(parse_json(not_unsigned).as_uint(), std::nullopt)
        << not_unsigned;
  }
}

TEST(JsonTest, DoublesRoundTripBitExact) {
  using L = std::numeric_limits<double>;
  std::vector<double> values = {0.0,           -0.0,          L::denorm_min(),
                                -L::denorm_min(), L::min(),    L::max(),
                                L::lowest(),   L::epsilon(),  0.1,
                                1.0 / 3.0,     1e-310,        -2.5e-320,
                                2.2250738585072009e-308,      123456789.125};
  Rng rng(17);
  while (values.size() < 5000) {
    const double v = std::bit_cast<double>(rng.next_u64());
    if (std::isfinite(v)) values.push_back(v);
  }
  for (const double v : values) {
    char token[64];
    std::snprintf(token, sizeof(token), "%.17g", v);
    const std::optional<double> back = parse_json(token).as_double();
    ASSERT_TRUE(back.has_value()) << token;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*back),
              std::bit_cast<std::uint64_t>(v))
        << token;
  }
}

TEST(JsonTest, EscapeRoundTripsEveryControlCharacter) {
  std::string all;
  for (int c = 0; c < 0x20; ++c) all.push_back(static_cast<char>(c));
  all += "\"\\/ plain \xc3\xa9";
  const std::string escaped = json_escape(all);
  for (const char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control char";
  }
  EXPECT_EQ(parse_json("\"" + escaped + "\"").text, all);
  for (int c = 0; c < 0x20; ++c) {
    const std::string one(1, static_cast<char>(c));
    EXPECT_EQ(parse_json("\"" + json_escape(one) + "\"").text, one) << c;
  }
}

TEST(JsonTest, StringEscapesDecodeToUtf8) {
  EXPECT_EQ(parse_json(R"("A\u00e9\u20AC")").text,
            "A\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(parse_json(R"("\ud83d\ude00")").text, "\xf0\x9f\x98\x80");
  EXPECT_EQ(parse_json(R"("\b\f\n\r\t\/")").text, "\b\f\n\r\t/");
  for (const char* bad : {R"("\ud83d")", R"("\ude00")", R"("\ud83dA")",
                          R"("\u12")", R"("\u12g4")", R"("\x")", R"("\)"}) {
    EXPECT_THROW(parse_json(bad), JsonError) << bad;
  }
}

TEST(JsonTest, TrailingGarbageIsRejected) {
  for (const char* bad : {"{} x", "1 2", "[1]]", "\"a\"b", "nullx", "{}}",
                          "[1,]", "{\"a\":1,}", "01x", "1.", "1e", "-",
                          "tru", "", "   "}) {
    EXPECT_THROW(parse_json(bad), JsonError) << bad;
  }
  try {
    parse_json("[1] x");
    FAIL() << "trailing garbage accepted";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("at byte 4"), std::string::npos)
        << e.what();
  }
}

/// Every proper prefix of `document` fails, both as JSON and through the
/// document's own reader. The trailing newline goes first: dropping only
/// that leaves a complete document.
template <typename Error, typename Read>
void expect_every_prefix_rejected(std::string document, Read read) {
  while (document.back() == '\n') document.pop_back();
  ASSERT_NO_THROW(read(document));
  for (std::size_t n = 0; n < document.size(); ++n) {
    EXPECT_THROW(parse_json(document.substr(0, n)), JsonError) << n;
    EXPECT_THROW(read(document.substr(0, n)), Error) << n;
  }
}

TEST(JsonTest, EveryProperPrefixOfARealManifestIsRejected) {
  store::Manifest manifest;
  manifest.counts.records_seen = manifest.counts.decisions_seen = 90;
  manifest.counts.rows = 75;
  store::Counts part;
  part.rows = part.records_seen = part.decisions_seen = 40;
  manifest.shards.push_back({"part-00000.hlog", part});
  part.rows = part.records_seen = part.decisions_seen = 35;
  manifest.shards.push_back({"part-00001.hlog", part});
  expect_every_prefix_rejected<std::runtime_error>(
      manifest.to_json(), [](const std::string& text) {
        return store::Manifest::parse_json(text, "prefix");
      });
}

TEST(JsonTest, EveryProperPrefixOfARealPlanIsRejected) {
  design::LoggingPlan plan;
  plan.num_actions = 2;
  plan.dim = 1;
  plan.propensity_floor = 0.05;
  plan.regret_budget = 0.01;
  plan.baseline_epsilon = 0.2;
  plan.reference_weights = {0.1, 0.7, 0.3, -0.2};
  plan.distributions = {0.9, 0.1, 0.25, 0.75};
  plan.stratum_weights = {0.6, 0.4};
  plan.candidate_names = {"trained-greedy", "const(1)"};
  plan.planned_objective = 1.5;
  plan.baseline_objective = 2.75;
  expect_every_prefix_rejected<std::invalid_argument>(
      plan.to_json(), [](const std::string& text) {
        return design::LoggingPlan::parse_json(text, "prefix");
      });
}

}  // namespace
}  // namespace harvest::util
