// Direct unit tests of PropagationEngine — the windowed machinery shared
// by both Compete processes (Algorithms 1-4).
#include "core/propagation.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "cluster/exponential_shifts.hpp"
#include "graph/generators.hpp"
#include "schedule/bfs_schedule.hpp"
#include "sim/instances.hpp"

namespace radiocast::core {

/// Test access to the engine's sequence-number counter.
struct PropagationEngineProbe {
  static void set_next_seq(PropagationEngine& e, std::uint32_t next) {
    e.next_seq_ = next;
  }
};

namespace {

using radio::kNoPayload;
using radio::Payload;

/// Single-region partition over a path rooted at node 0 (a degenerate
/// "coarse" layer), plus one fine schedule = the same tree. With one
/// cluster there are no foreign collisions: waves must be lossless.
struct PathFixture {
  graph::Graph g;
  cluster::Partition regions;
  cluster::Partition fine;
  std::unique_ptr<schedule::TreeSchedule> sched;

  explicit PathFixture(graph::NodeId n) : g(graph::path(n)) {
    regions.beta = 1.0;
    regions.center.assign(n, 0);
    regions.dist_to_center.assign(n, 0);
    regions.parent.assign(n, 0);
    regions.delta.assign(n, 0.0);
    fine.beta = 0.1;
    fine.center.assign(n, 0);
    fine.dist_to_center.resize(n);
    fine.parent.resize(n);
    fine.delta.assign(n, 0.0);
    for (graph::NodeId v = 0; v < n; ++v) {
      fine.dist_to_center[v] = v;
      fine.parent[v] = v == 0 ? 0 : v - 1;
    }
    sched = std::make_unique<schedule::TreeSchedule>(
        g, fine, schedule::ScheduleMode::kPipelined);
  }

  PropagationEngine::Config config(std::uint32_t hops,
                                   bool background) const {
    PropagationEngine::Config cfg;
    cfg.graph = &g;
    cfg.regions = &regions;
    cfg.scheds = {sched.get()};
    cfg.choose = [hops](graph::NodeId, std::uint64_t) {
      return WindowChoice{0, hops};
    };
    cfg.icp_background = background;
    cfg.seed = 7;
    return cfg;
  }
};

/// Knowledge of `n` nodes with nothing learnt and no winner to count.
Knowledge nothing_known(graph::NodeId n) {
  return Knowledge{std::vector<Payload>(n, kNoPayload)};
}

TEST(PropagationEngine, OutwardWaveCarriesCenterValue) {
  PathFixture fx(12);
  PropagationEngine eng(fx.config(/*hops=*/5, /*background=*/false));
  Knowledge know = nothing_known(12);
  know.best[0] = 42;
  util::Rng rng(1);
  // One pass of 5 rounds informs nodes 1..5.
  for (int i = 0; i < 5; ++i) eng.round(know, rng);
  for (graph::NodeId v = 0; v <= 5; ++v) EXPECT_EQ(know.best[v], 42u) << v;
  EXPECT_EQ(know.best[6], kNoPayload);
}

TEST(PropagationEngine, InwardPassLiftsValueToCenter) {
  PathFixture fx(12);
  PropagationEngine eng(fx.config(5, false));
  Knowledge know = nothing_known(12);
  know.best[0] = 10;
  know.best[4] = 77;  // within the 5-hop budget
  util::Rng rng(2);
  // Full window = 3 passes x 5 rounds.
  for (int i = 0; i < 15; ++i) eng.round(know, rng);
  EXPECT_EQ(know.best[0], 77u);
  // ... and redistributed by pass 3.
  for (graph::NodeId v = 0; v <= 5; ++v) EXPECT_EQ(know.best[v], 77u) << v;
}

TEST(PropagationEngine, CurtailLimitsReach) {
  PathFixture fx(20);
  PropagationEngine eng(fx.config(4, false));
  Knowledge know = nothing_known(20);
  know.best[10] = 99;  // deeper than the curtail: cannot reach the centre
  util::Rng rng(3);
  for (int i = 0; i < 12; ++i) eng.round(know, rng);  // one full window
  EXPECT_EQ(know.best[0], kNoPayload);
}

TEST(PropagationEngine, RoundsAlternateBetweenStreams) {
  PathFixture fx(8);
  PropagationEngine with_bg(fx.config(3, true));
  PropagationEngine without(fx.config(3, false));
  Knowledge a = nothing_known(8), b = nothing_known(8);
  util::Rng rng(4);
  // With the background stream the rounds go wave, Decay, wave, ...
  with_bg.round(a, rng);
  EXPECT_EQ(with_bg.stats().main_rounds, 1u);
  EXPECT_EQ(with_bg.stats().background_rounds, 0u);
  with_bg.round(a, rng);
  EXPECT_EQ(with_bg.stats().main_rounds, 1u);
  EXPECT_EQ(with_bg.stats().background_rounds, 1u);
  // ... without it every round is a wave round.
  without.round(b, rng);
  without.round(b, rng);
  EXPECT_EQ(without.stats().main_rounds, 2u);
  EXPECT_EQ(without.stats().background_rounds, 0u);
}

TEST(PropagationEngine, WindowsAdvanceAndRestart) {
  PathFixture fx(8);
  PropagationEngine eng(fx.config(2, false));
  Knowledge know = nothing_known(8);
  know.best[0] = 5;
  util::Rng rng(5);
  // 3 windows of 3 passes x 2 rounds.
  for (int i = 0; i < 18; ++i) eng.round(know, rng);
  EXPECT_EQ(eng.stats().windows_started, 1u + 3u);  // initial + 3 restarts
}

TEST(PropagationEngine, RepeatedWindowsEventuallyCoverTheCurtailChain) {
  // With hop budget 3, each window pushes the frontier ~3 hops (pass 3
  // re-broadcasts the centre value, and subsequent windows restart from
  // the SAME centre, so progress relies on the inward pass pulling values
  // toward the centre — on a single path cluster the value reaches the end
  // because every node within 3 hops of the centre holds it and the next
  // window's inward pass cannot regress). This asserts monotone coverage.
  PathFixture fx(10);
  PropagationEngine eng(fx.config(3, false));
  Knowledge know = nothing_known(10);
  know.best[0] = 5;
  util::Rng rng(6);
  std::size_t covered_prev = 0;
  for (int w = 0; w < 6; ++w) {
    for (int i = 0; i < 9; ++i) eng.round(know, rng);
    std::size_t covered = 0;
    for (auto b : know.best) covered += b != kNoPayload;
    EXPECT_GE(covered, covered_prev);
    covered_prev = covered;
  }
  // Coverage is capped by the curtail: exactly nodes 0..3.
  EXPECT_EQ(covered_prev, 4u);
}

TEST(PropagationEngine, BackgroundWorkCounters) {
  PathFixture fx(12);
  PropagationEngine eng(fx.config(/*hops=*/3, /*background=*/true));
  Knowledge know = nothing_known(12);
  util::Rng rng(8);
  // Nothing known, nothing reached: the Decay stream draws no coin at all.
  eng.round(know, rng);
  eng.round(know, rng);
  EXPECT_EQ(eng.stats().bg_coins, 0u);
  EXPECT_EQ(eng.stats().bg_candidates, 0u);
  // The centre learns a value; the window's third pass (which starts
  // after the sixth wave round) re-seeds the wave there. From then on the
  // single cluster tosses exactly one coordinated coin per Decay round.
  know.best[0] = 42;
  util::Rng reference = rng;
  for (int i = 2; i < 400; ++i) eng.round(know, rng);
  EXPECT_EQ(eng.stats().background_rounds, 200u);
  EXPECT_EQ(eng.stats().bg_coins, 195u);
  EXPECT_EQ(eng.stats().bg_candidates, 103u);
  // Each node coin is one draw from the caller's stream, and nothing else
  // in the engine draws from it.
  for (std::uint64_t k = 0; k < eng.stats().bg_candidates; ++k) reference();
  EXPECT_EQ(reference(), rng());
}

TEST(PropagationEngine, SequenceNumbersRenumberWithoutChangingOutcomes) {
  // Node coins are drawn in reach order, kept as 32-bit sequence numbers.
  // An engine whose counter starts just below the limit renumbers mid-run
  // and must behave exactly like one that starts at zero.
  const graph::Graph g = graph::grid(12, 12);
  const graph::NodeId n = g.node_count();
  cluster::Partition regions;
  regions.beta = 1.0;
  regions.center.assign(n, 0);
  regions.dist_to_center.assign(n, 0);
  regions.parent.assign(n, 0);
  regions.delta.assign(n, 0.0);
  util::Rng part_rng(9);
  const cluster::Partition fine = cluster::partition(g, 0.5, part_rng);
  const schedule::TreeSchedule sched(g, fine,
                                     schedule::ScheduleMode::kPipelined);
  PropagationEngine::Config cfg;
  cfg.graph = &g;
  cfg.regions = &regions;
  cfg.scheds = {&sched};
  cfg.choose = [](graph::NodeId, std::uint64_t) { return WindowChoice{0, 6}; };
  cfg.seed = 11;

  PropagationEngine fresh(cfg);
  PropagationEngine wrapping(cfg);
  PropagationEngineProbe::set_next_seq(
      wrapping, std::numeric_limits<std::uint32_t>::max() - 40);
  Knowledge a = nothing_known(n);
  a.best[0] = 3;
  a.best[77] = 9;
  Knowledge b = a;
  util::Rng rng_a(12), rng_b(12);
  for (int i = 0; i < 800; ++i) {
    fresh.round(a, rng_a);
    wrapping.round(b, rng_b);
  }
  EXPECT_EQ(a.best, b.best);
  const PropagationStats& sa = fresh.stats();
  const PropagationStats& sb = wrapping.stats();
  EXPECT_GT(sa.bg_candidates, 0u);
  EXPECT_EQ(sa.bg_candidates, sb.bg_candidates);
  EXPECT_EQ(sa.bg_coins, sb.bg_coins);
  EXPECT_EQ(sa.decay_deliveries, sb.decay_deliveries);
  EXPECT_EQ(sa.rescued, sb.rescued);
  EXPECT_EQ(sa.wave_deliveries, sb.wave_deliveries);
  EXPECT_EQ(sa.wave_blocked, sb.wave_blocked);
  EXPECT_EQ(rng_a(), rng_b());
}

TEST(PropagationEngine, KnownCountMatchesAFullRecountEveryRound) {
  // Compete's two engines over one Knowledge, stepped round by round in
  // its order (main wave, main Decay, background wave, background Decay):
  // after every round the O(1) count must equal a recount of the nodes
  // holding the winner. Both schedule modes, so every learn() site runs.
  const sim::Instance instances[] = {
      sim::make_rgg_instance(400, 0.1, std::uint64_t{3}),
      sim::make_cliquepath_instance(240, 24),
  };
  for (const sim::Instance& inst : instances) {
    const graph::Graph& g = inst.g;
    const graph::NodeId n = g.node_count();
    for (const auto mode : {schedule::ScheduleMode::kPipelined,
                            schedule::ScheduleMode::kColored}) {
      util::Rng rng(21);
      const cluster::Partition coarse = cluster::partition(g, 0.1, rng);
      const cluster::Partition fine =
          cluster::partition_regions(g, 0.4, coarse.center, rng);
      const cluster::Partition whole = cluster::trivial_partition(g);
      const cluster::Partition bg_fine = cluster::partition(g, 0.3, rng);
      const schedule::TreeSchedule fine_sched(g, fine, mode);
      const schedule::TreeSchedule bg_sched(g, bg_fine, mode);
      auto config = [](const graph::Graph& graph,
                       const cluster::Partition& regions,
                       const schedule::TreeSchedule& sched,
                       std::uint64_t seed) {
        PropagationEngine::Config cfg;
        cfg.graph = &graph;
        cfg.regions = &regions;
        cfg.scheds = {&sched};
        cfg.choose = [](graph::NodeId, std::uint64_t) {
          return WindowChoice{0, 6};
        };
        cfg.seed = seed;
        return cfg;
      };
      PropagationEngine main_engine(config(g, coarse, fine_sched, 1));
      PropagationEngine bg_engine(config(g, whole, bg_sched, 2));

      Knowledge know{std::vector<Payload>(n, kNoPayload), /*winner=*/11};
      know.learn(0, 7);
      know.learn(n / 2, 11);
      know.learn(n / 2, 11);  // a duplicate source counts once
      know.learn(n - 1, 11);
      util::Rng main_rng(22), bg_rng(23);
      PropagationEngine* order[] = {&main_engine, &main_engine, &bg_engine,
                                    &bg_engine};
      std::uint64_t rounds = 0;
      for (; know.known < n && rounds < 20000; ++rounds) {
        PropagationEngine& e = *order[rounds % 4];
        e.round(know, &e == &main_engine ? main_rng : bg_rng);
        graph::NodeId recount = 0;
        for (const Payload b : know.best) recount += b == know.winner;
        ASSERT_EQ(know.known, recount) << inst.name << " round " << rounds;
      }
      EXPECT_EQ(know.known, n) << inst.name << " after " << rounds;
      EXPECT_GT(main_engine.stats().wave_deliveries, 0u);
      EXPECT_GT(main_engine.stats().decay_deliveries +
                    bg_engine.stats().decay_deliveries,
                0u);
    }
  }
}

TEST(PropagationEngine, InvalidConfigThrows) {
  PathFixture fx(4);
  PropagationEngine::Config cfg = fx.config(2, false);
  cfg.scheds.clear();
  EXPECT_THROW(PropagationEngine{cfg}, std::invalid_argument);
  PropagationEngine::Config cfg2 = fx.config(2, false);
  cfg2.choose = nullptr;
  EXPECT_THROW(PropagationEngine{cfg2}, std::invalid_argument);
}

TEST(PropagationEngine, ChoiceIndexOutOfRangeThrows) {
  PathFixture fx(4);
  PropagationEngine::Config cfg = fx.config(2, false);
  cfg.choose = [](graph::NodeId, std::uint64_t) {
    return WindowChoice{5, 2};  // no such schedule
  };
  PropagationEngine eng(cfg);
  Knowledge know = nothing_known(4);
  util::Rng rng(7);
  EXPECT_THROW(eng.round(know, rng), std::out_of_range);
}

}  // namespace
}  // namespace radiocast::core
