// util::Json — the bench-report emitter: round-trips, stable key order,
// NaN/inf guards, parse failures.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/assertx.hpp"
#include "util/json.hpp"

namespace cscv::util {
namespace {

TEST(Json, ScalarsDumpCompactly) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7.5).dump(), "-7.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, IntegralDoublesPrintWithoutFraction) {
  // nnz counts and byte totals must round-trip token-identically.
  EXPECT_EQ(Json(1328114108.0).dump(), "1328114108");
  EXPECT_EQ(Json(0.0).dump(), "0");
  EXPECT_EQ(Json(-3.0).dump(), "-3");
}

TEST(Json, NonFiniteNumbersEmitNull) {
  // The guard: NaN/inf may show up in derived metrics (0/0 GFLOP/s on a
  // zero-time run); they must never produce invalid JSON tokens.
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null");
  Json obj = Json::object();
  obj["bad"] = Json(std::nan(""));
  EXPECT_EQ(obj.dump(), "{\"bad\":null}");
  // And the emitted document parses back.
  EXPECT_TRUE(Json::parse(obj.dump()).at("bad").is_null());
}

TEST(Json, ObjectKeysKeepInsertionOrder) {
  Json obj = Json::object();
  obj["zulu"] = Json(1);
  obj["alpha"] = Json(2);
  obj["mike"] = Json(3);
  EXPECT_EQ(obj.dump(), "{\"zulu\":1,\"alpha\":2,\"mike\":3}");
  // Order survives a parse -> dump round-trip (std::map would sort).
  EXPECT_EQ(Json::parse(obj.dump()).dump(), obj.dump());
  // Re-assignment updates in place without reordering.
  obj["alpha"] = Json(9);
  EXPECT_EQ(obj.dump(), "{\"zulu\":1,\"alpha\":9,\"mike\":3}");
}

TEST(Json, RoundTripNestedDocument) {
  Json doc = Json::object();
  doc["name"] = Json("bench");
  doc["count"] = Json(3);
  Json arr = Json::array();
  arr.push_back(Json(1.25));
  arr.push_back(Json("two"));
  arr.push_back(Json());
  Json inner = Json::object();
  inner["ok"] = Json(true);
  arr.push_back(std::move(inner));
  doc["items"] = std::move(arr);

  for (int indent : {-1, 0, 2}) {
    const Json back = Json::parse(doc.dump(indent));
    EXPECT_EQ(back.dump(), doc.dump()) << "indent " << indent;
  }
  EXPECT_EQ(doc.at("items").size(), 4u);
  EXPECT_DOUBLE_EQ(doc.at("items").at(0).as_double(), 1.25);
  EXPECT_TRUE(doc.at("items").at(3).at("ok").as_bool());
}

TEST(Json, StringEscapes) {
  const std::string raw = "a\"b\\c\nd\te\x01" "f";
  const Json j(raw);
  EXPECT_EQ(j.dump(), "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
  EXPECT_EQ(Json::parse(j.dump()).as_string(), raw);
  // \uXXXX escapes decode to UTF-8.
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
}

TEST(Json, ParseAcceptsWhitespaceAndNumbers) {
  const Json j = Json::parse("  { \"a\" : [ 1 , 2.5e2 , -3 ] }\n");
  EXPECT_DOUBLE_EQ(j.at("a").at(1).as_double(), 250.0);
  EXPECT_EQ(j.at("a").at(2).as_int(), -3);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), CheckError);
  EXPECT_THROW(Json::parse("{"), CheckError);
  EXPECT_THROW(Json::parse("[1,]"), CheckError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), CheckError);
  EXPECT_THROW(Json::parse("{'single':1}"), CheckError);
  EXPECT_THROW(Json::parse("\"unterminated"), CheckError);
  EXPECT_THROW(Json::parse("nul"), CheckError);
}

TEST(Json, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  // Containers recurse; a hostile document of thousands of '[' must become
  // a CheckError, not a stack overflow.
  const std::string deep(100000, '[');
  EXPECT_THROW(Json::parse(deep), CheckError);
  std::string closed = std::string(10000, '[') + std::string(10000, ']');
  EXPECT_THROW(Json::parse(closed), CheckError);
  // Well under the bound still parses (nesting an object level too).
  std::string ok = std::string(100, '[') + "{\"a\":1}" + std::string(100, ']');
  const Json j = Json::parse(ok);
  EXPECT_EQ(j.size(), 1u);
}

TEST(Json, TypeMismatchesThrow) {
  const Json j = Json::parse("{\"n\": 1.5}");
  EXPECT_THROW((void)j.at("n").as_string(), CheckError);
  EXPECT_THROW((void)j.at("n").as_int(), CheckError);  // non-integral
  // Outside int64 the cast has no defined result: rejected before it.
  EXPECT_THROW((void)Json::parse("9223372036854775808").as_int(), CheckError);
  EXPECT_THROW((void)Json::parse("-1e19").as_int(), CheckError);
  EXPECT_THROW((void)Json::parse("1e400").as_int(), CheckError);
  EXPECT_EQ(Json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW((void)j.at("missing"), CheckError);
  EXPECT_EQ(j.find("missing"), nullptr);
  EXPECT_EQ(Json(1).find("anything"), nullptr);  // chains safely off scalars
}

TEST(Json, PrettyPrintIsStable) {
  Json doc = Json::object();
  doc["a"] = Json(1);
  Json arr = Json::array();
  arr.push_back(Json(2));
  doc["b"] = std::move(arr);
  EXPECT_EQ(doc.dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

}  // namespace
}  // namespace cscv::util
