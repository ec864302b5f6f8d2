// End-to-end tests of Compete(S) — Theorem 4.1's guarantee (everyone
// learns the highest source message) across graph families, source-set
// sizes, seeds, and ablation configurations.
#include "core/compete.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/leader_election.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sim/instances.hpp"

namespace radiocast::core {
namespace {

TEST(Compete, EmptySourceSetIsVacuousSuccess) {
  const graph::Graph g = graph::path(5);
  const auto r = compete(g, 4, {}, {}, 1);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(Compete, SingleNodeGraph) {
  const graph::Graph g = graph::path(1);
  const auto r = compete(g, 1, {{0, 42}}, {}, 1);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.winner, 42u);
  EXPECT_EQ(r.informed, 1u);
}

TEST(Compete, TwoNodes) {
  const graph::Graph g = graph::path(2);
  const auto r = compete(g, 1, {{0, 7}}, {}, 2);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.best[1], 7u);
}

TEST(Compete, HighestOfManySourcesWins) {
  const graph::Graph g = graph::grid(12, 12);
  std::vector<CompeteSource> sources{{0, 10}, {77, 99}, {143, 50}};
  const auto r = compete(g, 22, sources, {}, 3);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.winner, 99u);
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(r.best[v], 99u) << v;
  }
}

TEST(Compete, DuplicateSourceValuesAllowed) {
  const graph::Graph g = graph::cycle(20);
  std::vector<CompeteSource> sources{{0, 5}, {10, 5}};
  const auto r = compete(g, 10, sources, {}, 4);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.winner, 5u);
}

TEST(Compete, SourceOutOfRangeThrows) {
  const graph::Graph g = graph::path(3);
  EXPECT_THROW(compete(g, 2, {{5, 1}}, {}, 1),
               std::out_of_range);
}

TEST(Compete, AllNodesAreSources) {
  const graph::Graph g = graph::grid(8, 8);
  std::vector<CompeteSource> sources;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    sources.push_back({v, static_cast<radio::Payload>(v)});
  }
  const auto r = compete(g, 14, sources, {}, 5);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.winner, 63u);
}

TEST(Compete, DeterministicGivenSeed) {
  const graph::Graph g = graph::path_of_cliques(10, 6);
  const auto a = compete(g, 28, {{3, 9}}, {}, 77);
  const auto b = compete(g, 28, {{3, 9}}, {}, 77);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.best, b.best);
}

TEST(Compete, DifferentSeedsBothSucceed) {
  const graph::Graph g = graph::path_of_cliques(10, 6);
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    EXPECT_TRUE(compete(g, 28, {{0, 1}}, {}, seed).success)
        << seed;
  }
}

TEST(Compete, ChargedPrecomputeIsPositive) {
  const graph::Graph g = graph::grid(10, 10);
  const auto r = compete(g, 18, {{0, 1}}, {}, 6);
  EXPECT_GT(r.precompute_rounds_charged, 0u);
}

TEST(Compete, StatsReflectActivity) {
  const graph::Graph g = graph::path_of_cliques(15, 6);
  const auto r = compete(g, 44, {{0, 1}}, {}, 7);
  ASSERT_TRUE(r.success);
  EXPECT_GT(r.main_stats.windows_started, 0u);
  EXPECT_GT(r.main_stats.wave_deliveries, 0u);
  EXPECT_GT(r.main_stats.background_rounds, 0u);
  EXPECT_GT(r.background_stats.windows_started, 0u);
}

// Ablations (E9): every configuration must still complete — the paper's
// background processes affect speed, not eventual correctness, because the
// main waves alone also make progress (just not provably fast progress).
TEST(Compete, AblationNoBackgroundProcessStillCompletes) {
  const graph::Graph g = graph::grid(10, 10);
  CompeteParams p;
  p.enable_background = false;
  const auto r = compete(g, 18, {{0, 8}}, p, 8);
  EXPECT_TRUE(r.success);
}

TEST(Compete, AblationNoIcpBackgroundStillCompletesOnGrid) {
  const graph::Graph g = graph::grid(10, 10);
  CompeteParams p;
  p.enable_icp_background = false;
  const auto r = compete(g, 18, {{0, 8}}, p, 9);
  EXPECT_TRUE(r.success);
}

TEST(Compete, AblationFixedBetaStillCompletes) {
  const graph::Graph g = graph::grid(10, 10);
  CompeteParams p;
  p.randomize_beta = false;
  const auto r = compete(g, 18, {{0, 8}}, p, 10);
  EXPECT_TRUE(r.success);
}

TEST(Compete, HwCurtailStillCompletes) {
  const graph::Graph g = graph::grid(10, 10);
  CompeteParams p;
  p.hw_curtail = true;
  const auto r = compete(g, 18, {{0, 8}}, p, 11);
  EXPECT_TRUE(r.success);
}

TEST(Compete, ColoredScheduleModeCompletes) {
  const graph::Graph g = graph::grid(8, 8);
  CompeteParams p;
  p.mode = schedule::ScheduleMode::kColored;
  const auto r = compete(g, 14, {{0, 8}}, p, 12);
  EXPECT_TRUE(r.success);
}

TEST(Compete, RoundBudgetRespected) {
  const graph::Graph g = graph::path(200);
  CompeteParams p;
  p.max_rounds_abs = 101;  // far too few, and no multiple of a cycle
  const auto r = compete(g, 199, {{0, 1}}, p, 13);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.rounds, 101u);
}

void expect_same_outcome(const CompeteResult& a, const CompeteResult& b,
                         const std::string& what) {
  EXPECT_EQ(a.success, b.success) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.informed, b.informed) << what;
  EXPECT_EQ(a.winner, b.winner) << what;
  EXPECT_EQ(a.best, b.best) << what;
  EXPECT_EQ(a.main_stats, b.main_stats) << what;
  EXPECT_EQ(a.background_stats, b.background_stats) << what;
}

// A run reports the round in which the last node learnt the winner, not a
// later one: a budget of exactly that many rounds reproduces the run, and
// one round less makes it fail.
TEST(Compete, ReportsItsExactFinishingRound) {
  const sim::Instance instances[] = {
      sim::make_rgg_instance(3000, 0.04, std::uint64_t{11}),
      sim::make_cliquepath_instance(600, 40),
  };
  for (const sim::Instance& inst : instances) {
    const graph::NodeId n = inst.g.node_count();
    const std::vector<CompeteSource> sources{{0, 7}, {n / 2, 11}};
    for (int v = 0; v < 3; ++v) {
      CompeteParams p;
      if (v == 1) p.mode = schedule::ScheduleMode::kColored;
      if (v == 2) p.hw_curtail = true;
      const std::string what =
          inst.name + " variant " + std::to_string(v);
      const auto r = compete(inst.g, inst.diameter, sources, p, 5);
      ASSERT_TRUE(r.success) << what;
      ASSERT_GT(r.rounds, 0u) << what;
      p.max_rounds_abs = r.rounds;
      expect_same_outcome(
          r, compete(inst.g, inst.diameter, sources, p, 5), what);
      p.max_rounds_abs = r.rounds - 1;
      const auto cut = compete(inst.g, inst.diameter, sources, p, 5);
      EXPECT_FALSE(cut.success) << what;
      EXPECT_EQ(cut.rounds, r.rounds - 1) << what;
      EXPECT_LT(cut.informed, n) << what;
    }
  }
  const sim::Instance& inst = instances[0];
  LeaderElectionParams lp;
  const auto le = elect_leader(inst.g, inst.diameter, lp, 5);
  ASSERT_TRUE(le.success);
  lp.compete.max_rounds_abs = le.rounds;
  const auto same = elect_leader(inst.g, inst.diameter, lp, 5);
  EXPECT_TRUE(same.success);
  EXPECT_EQ(same.rounds, le.rounds);
  EXPECT_EQ(same.leader, le.leader);
  EXPECT_EQ(same.agreeing, le.agreeing);
  lp.compete.max_rounds_abs = le.rounds - 1;
  const auto cut = elect_leader(inst.g, inst.diameter, lp, 5);
  EXPECT_FALSE(cut.success);
  EXPECT_EQ(cut.rounds, le.rounds - 1);
}

// Families x seeds sweep: Theorem 4.1 correctness everywhere.
class CompeteFamilies
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(CompeteFamilies, AllInformed) {
  const auto [fam, seed] = GetParam();
  util::Rng rng(seed * 1000 + fam);
  graph::Graph g;
  switch (fam) {
    case 0: g = graph::path(150); break;
    case 1: g = graph::cycle(150); break;
    case 2: g = graph::grid(12, 13); break;
    case 3: g = graph::path_of_cliques(20, 8); break;
    case 4: g = graph::random_geometric(250, 0.09, rng); break;
    case 5: g = graph::gnp(250, 0.025, rng); break;
    case 6: g = graph::random_recursive_tree(250, rng); break;
    case 7: g = graph::star(100); break;
    case 8: g = graph::caterpillar(30, 4); break;
    default: g = graph::hypercube(7); break;
  }
  const auto d = graph::diameter_double_sweep(g);
  std::vector<CompeteSource> sources{
      {0, 3}, {static_cast<graph::NodeId>(g.node_count() / 2), 11}};
  const auto r = compete(g, std::max(2u, d), sources, {}, seed);
  EXPECT_TRUE(r.success) << "family " << fam << " seed " << seed << ": "
                         << r.informed << "/" << g.node_count();
  EXPECT_EQ(r.winner, 11u);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesSeeds, CompeteFamilies,
    ::testing::Combine(::testing::Range(0, 10),
                       ::testing::Values(1u, 2u, 3u)));

// Golden outcomes: a hash over everything a Compete run reports (rounds,
// informed count, success, every PropagationStats field of both engines,
// the final knowledge vector) on four instance families under the
// pipelined and coloured schedules and both background ablations, plus
// four leader elections. Any change to an outcome, an RNG draw or a
// counter changes a hash; a change that means to do so must re-pin them.
struct Fnv64 {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  void add(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  void add(const PropagationStats& s) {
    add(s.main_rounds);
    add(s.background_rounds);
    add(s.windows_started);
    add(s.wave_deliveries);
    add(s.wave_blocked);
    add(s.decay_deliveries);
    add(s.rescued);
  }
  /// The hash as a C++ literal, for re-pinning.
  std::string literal() const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llXULL",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

TEST(Compete, GoldenOutcomes) {
  const sim::Instance instances[] = {
      sim::make_rgg_instance(3000, 0.04, std::uint64_t{11}),
      sim::make_gnp_instance(3000, 8.0 / 2999.0, std::uint64_t{12}),
      sim::make_cliquepath_instance(600, 40),
      sim::make_grid_instance(40, 50),
  };
  const char* variants[] = {"pipelined", "colored", "no-icp", "no-bg"};
  // expected[instance][variant], each over seeds 1..4.
  const std::uint64_t expected[4][4] = {
      {0xD066DEAC8E5E6651ULL, 0x9FD111AA6C28C719ULL,
       0x44A6FD8044D3DB32ULL, 0x41A189F65BBD5625ULL},
      {0x0E4E285D366A3544ULL, 0x9C27AA5307B97ED2ULL,
       0x9DB2FB3678BB42A8ULL, 0xF0C99824356706C3ULL},
      {0x75ABCB741C3D7591ULL, 0x7764E88B98816961ULL,
       0xED2B2079A8246E5CULL, 0x1AE333877009AFF4ULL},
      {0xF553BCBF70CF42A9ULL, 0xBEC83BE99B30342AULL,
       0x50C4AA14F8CF1E39ULL, 0x769A2DE2830C8433ULL},
  };
  for (int i = 0; i < 4; ++i) {
    const sim::Instance& inst = instances[i];
    const graph::NodeId n = inst.g.node_count();
    const std::vector<CompeteSource> sources{{0, 7}, {n / 2, 11}};
    for (int v = 0; v < 4; ++v) {
      CompeteParams p;
      if (v == 1) p.mode = schedule::ScheduleMode::kColored;
      if (v == 2) p.enable_icp_background = false;
      if (v == 3) p.enable_background = false;
      Fnv64 h;
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const auto r = compete(inst.g, inst.diameter, sources, p, seed);
        h.add(r.rounds);
        h.add(r.informed);
        h.add(r.success ? 1 : 0);
        h.add(r.main_stats);
        h.add(r.background_stats);
        for (const radio::Payload b : r.best) h.add(b);
      }
      EXPECT_EQ(h.h, expected[i][v])
          << inst.name << " / " << variants[v] << ": got " << h.literal();
    }
  }
  Fnv64 h;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    // Two elections on the rgg, two on the clique path.
    const sim::Instance& inst = instances[seed <= 2 ? 0 : 2];
    const auto r = elect_leader(inst.g, inst.diameter, {}, seed);
    h.add(r.success ? 1 : 0);
    h.add(r.rounds);
    h.add(r.precompute_rounds_charged);
    h.add(r.leader);
    h.add(r.candidate_count);
    h.add(r.ids_unique ? 1 : 0);
    h.add(r.agreeing);
  }
  EXPECT_EQ(h.h, 0x5B201FBF93F9EE4FULL)
      << "leader elections: got " << h.literal();
}

}  // namespace
}  // namespace radiocast::core
