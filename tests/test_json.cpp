// util::Json: the one JSON implementation behind bench_out emission and
// sweep manifests. The properties that matter downstream: insertion-
// ordered object keys (stable, diffable files), round-trip parse/dump,
// integral doubles rendered without a decimal point, shortest round-trip
// numbers, and loud errors on malformed or oversized documents — also
// through the two file readers built on it (sweep manifests and the resume
// journal).
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include "exp/checkpoint.hpp"
#include "exp/spec.hpp"

namespace radiocast::util {
namespace {

/// Runs `f`, which must throw E, and returns the message.
template <class E, class F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const E& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an exception";
  return "";
}

std::string nested(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

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

TEST(Json, ParseErrorsNameTheOffset) {
  EXPECT_THROW(Json::parse(""), std::invalid_argument);
  EXPECT_THROW(Json::parse("{"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(Json::parse("tru"), std::invalid_argument);
  EXPECT_THROW(Json::parse("1 2"), std::invalid_argument);  // trailing junk
  try {
    Json::parse("[1, oops]");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Json, NumbersUseTheShortestRoundTripForm) {
  EXPECT_EQ(json_number(0.006), "0.006");
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(-2.5), "-2.5");
  EXPECT_EQ(json_number(1e300), "1e+300");
  for (const double x :
       {0.006, 0.1, 0.3, 1.0 / 3.0, 2.0 / 3.0, 0.1 + 0.2, 1e-7, 123456.789,
        9007199254740993.0, 1e21, 1e300, -1e-300, 5e-324,
        2.2250738585072014e-308,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min(),
        std::nextafter(1.0, 2.0), std::nextafter(0.006, 1.0)}) {
    EXPECT_EQ(Json::parse(json_number(x)).as_number(), x) << json_number(x);
    EXPECT_EQ(Json::parse(json_number(-x)).as_number(), -x);
  }
  EXPECT_EQ(Json::parse("+1.5").as_number(), 1.5);
  EXPECT_THROW(Json::parse("1e999"), std::invalid_argument);
}

TEST(Json, NestingBeyondTheLimitFailsCleanly) {
  EXPECT_EQ(Json::parse(nested(Json::kMaxDepth)).size(), 1u);
  const std::string too_deep = error_of<std::invalid_argument>(
      [] { Json::parse(nested(Json::kMaxDepth + 1)); });
  EXPECT_NE(too_deep.find("nesting"), std::string::npos) << too_deep;
  EXPECT_NE(too_deep.find(std::to_string(Json::kMaxDepth)), std::string::npos);
  // 100,000 unclosed brackets used to recurse until the stack overflowed.
  const std::string brackets = error_of<std::invalid_argument>(
      [] { Json::parse(std::string(100000, '[')); });
  EXPECT_NE(brackets.find("nesting"), std::string::npos) << brackets;
  EXPECT_THROW(Json::parse(std::string(100000, '{')), std::invalid_argument);
  EXPECT_THROW(Json::parse("{\"a\":" + std::string(100000, '[')),
               std::invalid_argument);
}

TEST(Json, InputBeyondTheSizeLimitFailsCleanly) {
  const std::string message = error_of<std::invalid_argument>(
      [] { Json::parse(std::string(Json::kMaxBytes + 1, ' ')); });
  EXPECT_NE(message.find(std::to_string(Json::kMaxBytes)), std::string::npos)
      << message;
}

TEST(Json, DeeplyNestedManifestFailsCleanly) {
  const std::string path =
      ::testing::TempDir() + "radiocast_deep_manifest.json";
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << std::string(100000, '[');
  }
  const std::string message = error_of<std::invalid_argument>(
      [&] { exp::SweepSpec::from_manifest_file(path); });
  EXPECT_NE(message.find("manifest"), std::string::npos) << message;
  EXPECT_NE(message.find("nesting"), std::string::npos) << message;
  std::filesystem::remove(path);
}

/// "R <fnv1a-64 hex> <json>": a journal record whose checksum is valid,
/// so replay reaches the JSON parser.
std::string journal_record(const std::string& json) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : json) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  char crc[17];
  std::snprintf(crc, sizeof crc, "%016llx",
                static_cast<unsigned long long>(hash));
  return "R " + std::string(crc, 16) + " " + json + "\n";
}

TEST(Json, DeeplyNestedJournalRecordFailsCleanly) {
  const std::string dir = ::testing::TempDir() + "radiocast_deep_journal";
  std::filesystem::remove_all(dir);
  exp::SweepSpec spec;
  spec.families = {"gnp"};
  spec.n = {96};
  spec.p = {8.0};
  spec.p_is_degree = true;
  spec.protocols = {"decay"};
  spec.reps = 8;
  {
    auto cp = exp::Checkpoint::start(dir, spec, 2);
    exp::TaskOutcome out;
    out.n_actual = 96;
    cp->record(0, out);
  }
  const std::string path = exp::Checkpoint::journal_path(dir);
  std::string text;
  {
    std::ifstream f(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(f), {});
  }
  const std::string deep = journal_record(std::string(100000, '['));
  const auto write = [&](const std::string& content) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << content;
  };

  // As the final line it reads as a torn append: dropped, rest replayed.
  write(text + deep);
  EXPECT_EQ(exp::Checkpoint::resume(dir, spec, 2)->completed_count(), 1u);

  // As an interior line it is corruption, reported with the limit.
  write(text + deep + journal_record("{}"));
  const std::string message = error_of<std::runtime_error>(
      [&] { exp::Checkpoint::resume(dir, spec, 2); });
  EXPECT_NE(message.find("corrupt journal"), std::string::npos) << message;
  EXPECT_NE(message.find("nesting"), std::string::npos) << message;
  std::filesystem::remove_all(dir);
}

TEST(Json, BuildersRejectTypeMisuse) {
  Json arr = Json::array();
  EXPECT_THROW(arr.set("k", 1), std::invalid_argument);
  Json obj = Json::object();
  EXPECT_THROW(obj.push_back(1), std::invalid_argument);
}

}  // namespace
}  // namespace radiocast::util
