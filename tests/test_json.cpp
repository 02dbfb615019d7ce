// util/json parser tests: the read side of the telemetry/trace/tap
// documents.  Strictness matters for the tap-atomicity guarantee — a torn
// document must *throw*, never parse to something plausible.
#include <gtest/gtest.h>

#include <string>

#include "util/error.h"
#include "util/json.h"

namespace {

using util::JsonValue;
using util::parse_json;

TEST(Json, ParsesScalarsAndContainers) {
  const JsonValue doc = parse_json(
      "{\"s\": \"hi\", \"n\": -2.5e1, \"t\": true, \"f\": false, "
      "\"z\": null, \"a\": [1, 2, 3], \"o\": {\"k\": 7}}");
  EXPECT_EQ(doc.string_at("s"), "hi");
  EXPECT_DOUBLE_EQ(doc.number_at("n"), -25.0);
  EXPECT_TRUE(doc.find("t")->as_bool());
  EXPECT_FALSE(doc.find("f")->as_bool(true));
  EXPECT_TRUE(doc.find("z")->is_null());
  ASSERT_EQ(doc.find("a")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(doc.find("a")->array[2].as_number(), 3.0);
  EXPECT_DOUBLE_EQ(doc.find("o")->number_at("k"), 7.0);
}

TEST(Json, PreservesObjectInsertionOrder) {
  const JsonValue doc = parse_json("{\"b\": 1, \"a\": 2}");
  ASSERT_EQ(doc.object.size(), 2u);
  EXPECT_EQ(doc.object[0].first, "b");
  EXPECT_EQ(doc.object[1].first, "a");
}

TEST(Json, DecodesStringEscapes) {
  const JsonValue doc =
      parse_json("{\"k\": \"a\\\"b\\\\c\\n\\t\\u0041\"}");
  EXPECT_EQ(doc.string_at("k"), "a\"b\\c\n\tA");
}

TEST(Json, MissingKeysFallBack) {
  const JsonValue doc = parse_json("{\"x\": 1}");
  EXPECT_EQ(doc.find("y"), nullptr);
  EXPECT_DOUBLE_EQ(doc.number_at("y", -1.0), -1.0);
  EXPECT_EQ(doc.string_at("y", "dflt"), "dflt");
  // Lookup on a non-object is null, not a crash.
  EXPECT_EQ(doc.find("x")->find("z"), nullptr);
}

TEST(Json, RejectsTornAndMalformedDocuments) {
  EXPECT_THROW(parse_json(""), util::PreconditionError);
  EXPECT_THROW(parse_json("{\"a\": 1"), util::PreconditionError);  // truncated
  EXPECT_THROW(parse_json("{\"a\": 1} x"), util::PreconditionError);  // garbage
  EXPECT_THROW(parse_json("{'a': 1}"), util::PreconditionError);
  EXPECT_THROW(parse_json("{\"a\": 1.2.3}"), util::PreconditionError);
  EXPECT_THROW(parse_json("[1, 2,]"), util::PreconditionError);
  EXPECT_THROW(parse_json("nul"), util::PreconditionError);
}

TEST(Json, CapsNestingDepth) {
  const auto arrays = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(parse_json(arrays(util::kMaxJsonDepth)));
  EXPECT_THROW(parse_json(arrays(util::kMaxJsonDepth + 1)),
               util::PreconditionError);
  // Deep enough to overflow the stack of an uncapped recursive parser.
  EXPECT_THROW(parse_json(arrays(200000)), util::PreconditionError);

  std::string objects;
  for (int i = 0; i <= util::kMaxJsonDepth; ++i) objects += "{\"a\": ";
  objects += "1" + std::string(util::kMaxJsonDepth + 1, '}');
  EXPECT_THROW(parse_json(objects), util::PreconditionError);
  // Depth is nesting, not the number of containers.
  EXPECT_NO_THROW(parse_json("[" + std::string(10 * util::kMaxJsonDepth, ' ') +
                             arrays(util::kMaxJsonDepth - 1) + "," +
                             arrays(util::kMaxJsonDepth - 1) + "]"));
}

}  // namespace
