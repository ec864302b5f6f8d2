// Direct unit tests of PropagationEngine — the windowed machinery shared
// by both Compete processes (Algorithms 1-4).
#include "core/propagation.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "cluster/exponential_shifts.hpp"
#include "graph/generators.hpp"
#include "schedule/bfs_schedule.hpp"

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

TEST(PropagationEngine, OutwardWaveCarriesCenterValue) {
  PathFixture fx(12);
  PropagationEngine eng(fx.config(/*hops=*/5, /*background=*/false));
  std::vector<Payload> best(12, kNoPayload);
  best[0] = 42;
  util::Rng rng(1);
  // One pass of 5 rounds informs nodes 1..5.
  for (int i = 0; i < 5; ++i) eng.step(best, rng);
  for (graph::NodeId v = 0; v <= 5; ++v) EXPECT_EQ(best[v], 42u) << v;
  EXPECT_EQ(best[6], kNoPayload);
}

TEST(PropagationEngine, InwardPassLiftsValueToCenter) {
  PathFixture fx(12);
  PropagationEngine eng(fx.config(5, false));
  std::vector<Payload> best(12, kNoPayload);
  best[0] = 10;
  best[4] = 77;  // within the 5-hop budget
  util::Rng rng(2);
  // Full window = 3 passes x 5 rounds.
  for (int i = 0; i < 15; ++i) eng.step(best, rng);
  EXPECT_EQ(best[0], 77u);
  // ... and redistributed by pass 3.
  for (graph::NodeId v = 0; v <= 5; ++v) EXPECT_EQ(best[v], 77u) << v;
}

TEST(PropagationEngine, CurtailLimitsReach) {
  PathFixture fx(20);
  PropagationEngine eng(fx.config(4, false));
  std::vector<Payload> best(20, kNoPayload);
  best[10] = 99;  // deeper than the curtail: cannot reach the centre
  util::Rng rng(3);
  for (int i = 0; i < 12; ++i) eng.step(best, rng);  // one full window
  EXPECT_EQ(best[0], kNoPayload);
}

TEST(PropagationEngine, StepCountsRoundsForBothStreams) {
  PathFixture fx(8);
  PropagationEngine with_bg(fx.config(3, true));
  PropagationEngine without(fx.config(3, false));
  std::vector<Payload> a(8, kNoPayload), b(8, kNoPayload);
  util::Rng rng(4);
  EXPECT_EQ(with_bg.step(a, rng), 2u);
  EXPECT_EQ(without.step(b, rng), 1u);
  EXPECT_EQ(with_bg.stats().background_rounds, 1u);
  EXPECT_EQ(without.stats().background_rounds, 0u);
}

TEST(PropagationEngine, WindowsAdvanceAndRestart) {
  PathFixture fx(8);
  PropagationEngine eng(fx.config(2, false));
  std::vector<Payload> best(8, kNoPayload);
  best[0] = 5;
  util::Rng rng(5);
  // 3 windows of 3 passes x 2 rounds.
  for (int i = 0; i < 18; ++i) eng.step(best, rng);
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
  std::vector<Payload> best(10, kNoPayload);
  best[0] = 5;
  util::Rng rng(6);
  std::size_t covered_prev = 0;
  for (int w = 0; w < 6; ++w) {
    for (int i = 0; i < 9; ++i) eng.step(best, rng);
    std::size_t covered = 0;
    for (auto b : best) covered += b != kNoPayload;
    EXPECT_GE(covered, covered_prev);
    covered_prev = covered;
  }
  // Coverage is capped by the curtail: exactly nodes 0..3.
  EXPECT_EQ(covered_prev, 4u);
}

TEST(PropagationEngine, BackgroundWorkCounters) {
  PathFixture fx(12);
  PropagationEngine eng(fx.config(/*hops=*/3, /*background=*/true));
  std::vector<Payload> best(12, kNoPayload);
  util::Rng rng(8);
  // Nothing known, nothing reached: the Decay stream draws no coin at all.
  eng.step(best, rng);
  EXPECT_EQ(eng.stats().bg_coins, 0u);
  EXPECT_EQ(eng.stats().bg_candidates, 0u);
  // The centre learns a value; the window's third pass (which starts
  // after step 6's wave round) re-seeds the wave there. From then on the
  // single cluster tosses exactly one coordinated coin per round.
  best[0] = 42;
  util::Rng reference = rng;
  for (int i = 1; i < 200; ++i) eng.step(best, rng);
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
  std::vector<Payload> a(n, kNoPayload);
  a[0] = 3;
  a[77] = 9;
  std::vector<Payload> b = a;
  util::Rng rng_a(12), rng_b(12);
  for (int i = 0; i < 400; ++i) {
    fresh.step(a, rng_a);
    wrapping.step(b, rng_b);
  }
  EXPECT_EQ(a, b);
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
  std::vector<Payload> best(4, kNoPayload);
  util::Rng rng(7);
  EXPECT_THROW(eng.step(best, rng), std::out_of_range);
}

}  // namespace
}  // namespace radiocast::core
