#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace radiocast::util {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsSyntax) {
  const Cli c = make({"--n=100", "--beta=0.5"});
  EXPECT_EQ(c.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(c.get_double("beta", 0.0), 0.5);
}

TEST(Cli, SpaceSyntax) {
  const Cli c = make({"--name", "hello"});
  EXPECT_EQ(c.get_string("name", ""), "hello");
}

TEST(Cli, BareBooleanFlag) {
  const Cli c = make({"--verbose"});
  EXPECT_TRUE(c.get_bool("verbose", false));
  EXPECT_TRUE(c.has("verbose"));
  EXPECT_FALSE(c.has("quiet"));
}

TEST(Cli, BooleanSpellings) {
  EXPECT_TRUE(make({"--x=yes"}).get_bool("x", false));
  EXPECT_TRUE(make({"--x=on"}).get_bool("x", false));
  EXPECT_TRUE(make({"--x=1"}).get_bool("x", false));
  EXPECT_FALSE(make({"--x=no"}).get_bool("x", true));
  EXPECT_FALSE(make({"--x=off"}).get_bool("x", true));
  EXPECT_FALSE(make({"--x=0"}).get_bool("x", true));
}

TEST(Cli, FallbacksWhenMissing) {
  const Cli c = make({});
  EXPECT_EQ(c.get_int("n", 42), 42);
  EXPECT_EQ(c.get_uint("m", 7u), 7u);
  EXPECT_DOUBLE_EQ(c.get_double("d", 1.5), 1.5);
  EXPECT_EQ(c.get_string("s", "dflt"), "dflt");
  EXPECT_TRUE(c.get_bool("b", true));
}

TEST(Cli, PositionalArguments) {
  const Cli c = make({"file1", "--n=3", "file2"});
  ASSERT_EQ(c.positional().size(), 2u);
  EXPECT_EQ(c.positional()[0], "file1");
  EXPECT_EQ(c.positional()[1], "file2");
}

TEST(Cli, SubcommandIsFirstPositional) {
  const Cli c = make({"run", "--n=3", "extra1", "extra2"});
  EXPECT_EQ(c.subcommand(), "run");
  const auto rest = c.subcommand_args();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0], "extra1");
  EXPECT_EQ(rest[1], "extra2");
}

TEST(Cli, SubcommandEmptyWhenNoPositionals) {
  const Cli c = make({"--n=3"});
  EXPECT_EQ(c.subcommand(), "");
  EXPECT_TRUE(c.subcommand_args().empty());
}

TEST(Cli, MalformedNumberThrows) {
  const Cli c = make({"--n=abc"});
  EXPECT_THROW(c.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(c.get_double("n", 0), std::invalid_argument);
  EXPECT_THROW(c.get_bool("n", false), std::invalid_argument);
}

TEST(Cli, NegativeNumbersViaEquals) {
  const Cli c = make({"--delta=-5"});
  EXPECT_EQ(c.get_int("delta", 0), -5);
}

TEST(Cli, GetChoiceAcceptsListedValuesAndFallsBack) {
  const Cli c = make({"--medium=bitslice"});
  EXPECT_EQ(c.get_choice("medium", "scalar", {"scalar", "bitslice", "sharded"}),
            "bitslice");
  EXPECT_EQ(c.get_choice("absent", "scalar", {"scalar", "bitslice"}),
            "scalar");
}

TEST(Cli, GetChoiceRejectsUnknownValueListingLegalOnes) {
  const Cli c = make({"--medium=quantum"});
  try {
    c.get_choice("medium", "scalar", {"scalar", "bitslice", "sharded"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--medium"), std::string::npos);
    EXPECT_NE(msg.find("scalar"), std::string::npos);
    EXPECT_NE(msg.find("bitslice"), std::string::npos);
    EXPECT_NE(msg.find("sharded"), std::string::npos);
    EXPECT_NE(msg.find("quantum"), std::string::npos);
  }
}

TEST(Cli, UsageListsDescribedFlags) {
  Cli c = make({});
  c.describe("n", "number of nodes").describe("seed", "rng seed");
  const std::string u = c.usage();
  EXPECT_NE(u.find("--n"), std::string::npos);
  EXPECT_NE(u.find("number of nodes"), std::string::npos);
  EXPECT_NE(u.find("--seed"), std::string::npos);
}

TEST(Cli, RenderChoicesFormatsLegalValues) {
  constexpr std::string_view kNames[] = {"scalar", "bitslice", "sharded"};
  EXPECT_EQ(Cli::render_choices(kNames), "<scalar|bitslice|sharded>");
  EXPECT_EQ(Cli::render_choices({}), "<>");
}

// Choice-valued flags must enumerate their legal values in the usage
// output, matching exactly what get_choice accepts.
TEST(Cli, UsageEnumeratesChoiceValues) {
  Cli c = make({});
  c.describe("medium", "radio backend", {"scalar", "bitslice", "sharded"})
      .describe("recovery", "sender-recovery strategy",
                {"auto", "rowscan"});
  const std::string u = c.usage();
  EXPECT_NE(u.find("--medium=<scalar|bitslice|sharded>"), std::string::npos);
  EXPECT_NE(u.find("--recovery=<auto|rowscan>"), std::string::npos);
  EXPECT_NE(u.find("radio backend"), std::string::npos);
  EXPECT_NE(u.find("sender-recovery strategy"), std::string::npos);
}

// ---- list-valued flags (sweep axes)

TEST(Cli, GetListSplitsCommas) {
  const Cli c = make({"--family=gnp,rgg,grid"});
  const auto list = c.get_list("family");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "gnp");
  EXPECT_EQ(list[1], "rgg");
  EXPECT_EQ(list[2], "grid");
}

TEST(Cli, GetListMergesRepeatedOccurrences) {
  const Cli c = make({"--family=gnp,rgg", "--family", "grid"});
  const auto list = c.get_list("family");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[2], "grid");
  // Scalar accessors keep "last occurrence wins".
  EXPECT_EQ(c.get_string("family", ""), "grid");
}

TEST(Cli, GetListAbsentAndFallback) {
  const Cli c = make({});
  EXPECT_TRUE(c.get_list("family").empty());
  const auto fallback = c.get_list("family", "gnp,cliquepath");
  ASSERT_EQ(fallback.size(), 2u);
  EXPECT_EQ(fallback[1], "cliquepath");
  // A present flag beats the fallback.
  const Cli d = make({"--family=grid"});
  ASSERT_EQ(d.get_list("family", "gnp,cliquepath").size(), 1u);
}

TEST(Cli, GetListDropsEmptyItems) {
  const Cli c = make({"--n=1,,2,"});
  const auto list = c.get_list("n");
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0], "1");
  EXPECT_EQ(list[1], "2");
}

TEST(Cli, RepeatedScalarFlagLastWins) {
  const Cli c = make({"--n=1", "--n=7"});
  EXPECT_EQ(c.get_int("n", 0), 7);
}

TEST(Cli, UsageRendersListFlags) {
  Cli c = make({});
  c.describe_list("family", "graph families to sweep");
  const std::string u = c.usage();
  EXPECT_NE(u.find("--family=v1,v2,..."), std::string::npos);
  EXPECT_NE(u.find("graph families to sweep"), std::string::npos);
}

}  // namespace
}  // namespace radiocast::util
