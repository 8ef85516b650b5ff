// util::json — the batch CLI's machine-readable output must round-trip.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "util/json.hpp"

namespace tegrec::util::json {
namespace {

Value sample_document() {
  Array points;
  points.push_back(Object{{"value", 0.5}, {"gain", 0.3}});
  points.push_back(Object{{"value", 0.75}, {"gain", Value()}});
  return Object{{"schema", 1},
                {"ok", true},
                {"name", std::string("sweep \"x\"\nline2\t\\end")},
                {"empty_list", Array{}},
                {"empty_obj", Object{}},
                {"points", std::move(points)}};
}

TEST(Json, DumpParseAreInverses) {
  const Value doc = sample_document();
  for (const int indent : {0, 2}) {
    const std::string text = dump(doc, indent);
    const Value parsed = parse(text);
    // Canonical comparison: a second dump of the parse must be byte-equal
    // (objects are insertion-ordered, so this is well-defined).
    EXPECT_EQ(dump(parsed, indent), text);
  }
}

TEST(Json, AccessorsAndLookup) {
  const Value doc = parse(dump(sample_document()));
  EXPECT_EQ(doc.at("schema").as_number(), 1.0);
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("name").as_string(), "sweep \"x\"\nline2\t\\end");
  EXPECT_THROW(doc.at("missing"), std::out_of_range);
  const Array& points = doc.at("points").as_array();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_TRUE(points[1].at("gain").is_null());
  EXPECT_THROW(doc.at("schema").as_string(), std::runtime_error);
}

TEST(Json, NumbersSurviveExactly) {
  const Value doc = Object{{"x", 0.1}, {"y", 1e-300}, {"z", 12345678901234.0}};
  const Value parsed = parse(dump(doc));
  EXPECT_EQ(parsed.at("x").as_number(), 0.1);
  EXPECT_EQ(parsed.at("y").as_number(), 1e-300);
  EXPECT_EQ(parsed.at("z").as_number(), 12345678901234.0);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("{"), std::runtime_error);
  EXPECT_THROW(parse("[1,]"), std::runtime_error);
  EXPECT_THROW(parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(parse("true false"), std::runtime_error);  // trailing junk
  EXPECT_THROW(parse("\"unterminated"), std::runtime_error);
}

TEST(Json, RejectsNonFiniteNumbersOnDump) {
  EXPECT_THROW(dump(Value(std::numeric_limits<double>::quiet_NaN())),
               std::invalid_argument);
  EXPECT_THROW(dump(Value(std::numeric_limits<double>::infinity())),
               std::invalid_argument);
}

}  // namespace
}  // namespace tegrec::util::json
