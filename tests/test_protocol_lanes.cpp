// Lane-parallel protocol execution differentials: a protocol written
// against radio::LaneExecutor must produce, lane by lane, byte-identical
// results whether it runs one seed at a time over a scalar Network or N
// seeds at once over a BatchNetwork — success, rounds, informed counts,
// counters, and the whole best[] knowledge planes.
#include "core/compete_batched.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "radio/batch_network.hpp"
#include "radio/network.hpp"
#include "schedule/decay.hpp"
#include "util/rng.hpp"

namespace radiocast {
namespace {

using core::BatchedCompeteParams;
using core::CompeteLaneResult;
using core::CompeteSource;
using graph::Graph;
using graph::NodeId;

std::vector<std::uint64_t> make_seeds(int count, std::uint64_t base) {
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    seeds[static_cast<std::size_t>(i)] =
        util::mix_seed(base, static_cast<std::uint64_t>(i));
  }
  return seeds;
}

/// The scalar reference: one independent Network-backed run per seed, all
/// through the very same lane-generic protocol code (lanes() == 1).
std::vector<CompeteLaneResult> scalar_reference(
    const Graph& g, const std::vector<CompeteSource>& sources,
    const BatchedCompeteParams& params,
    const std::vector<std::uint64_t>& seeds) {
  std::vector<CompeteLaneResult> out;
  for (const std::uint64_t seed : seeds) {
    radio::Network net(g);  // scalar medium, 1 lane
    const std::uint64_t one[] = {seed};
    out.push_back(core::compete_batched(net, sources, params, one).front());
  }
  return out;
}

void expect_lane_equal(const CompeteLaneResult& got,
                       const CompeteLaneResult& want, int lane) {
  EXPECT_EQ(got.success, want.success) << "lane " << lane;
  EXPECT_EQ(got.rounds, want.rounds) << "lane " << lane;
  EXPECT_EQ(got.informed, want.informed) << "lane " << lane;
  EXPECT_EQ(got.winner, want.winner) << "lane " << lane;
  EXPECT_EQ(got.transmissions, want.transmissions) << "lane " << lane;
  EXPECT_EQ(got.deliveries, want.deliveries) << "lane " << lane;
  EXPECT_EQ(got.best, want.best) << "lane " << lane;
}

/// Self-consistency of one lane, independent of how the core counts:
/// `informed` is the number of nodes whose best is the winner, and a lane
/// succeeds exactly when that is every node.
void expect_lane_consistent(const CompeteLaneResult& r, NodeId n, int lane) {
  const auto knowing = std::count(r.best.begin(), r.best.end(), r.winner);
  EXPECT_EQ(r.informed, static_cast<std::uint32_t>(knowing)) << "lane " << lane;
  EXPECT_EQ(r.success, r.informed == n) << "lane " << lane;
}

void check_compete_differential(const Graph& g,
                                const std::vector<CompeteSource>& sources,
                                const BatchedCompeteParams& params, int lanes,
                                std::uint64_t base_seed) {
  const auto seeds = make_seeds(lanes, base_seed);
  const auto want = scalar_reference(g, sources, params, seeds);
  for (const radio::MediumKind medium :
       {radio::MediumKind::kBitslice, radio::MediumKind::kScalar,
        radio::MediumKind::kSharded}) {
    // The sender-recovery strategy must be invisible in results: every
    // strategy on every backend reproduces the scalar per-seed reference
    // byte for byte (success, rounds, counters, whole best[] planes).
    for (const radio::RecoveryStrategy recovery :
         {radio::RecoveryStrategy::kAuto, radio::RecoveryStrategy::kRowScan}) {
      const auto got =
          core::compete_batched(g, sources, params, seeds, medium, recovery);
      ASSERT_EQ(got.size(), want.size())
          << to_string(medium) << "/" << to_string(recovery);
      for (int l = 0; l < lanes; ++l) {
        expect_lane_equal(got[static_cast<std::size_t>(l)],
                          want[static_cast<std::size_t>(l)], l);
        expect_lane_consistent(got[static_cast<std::size_t>(l)],
                               g.node_count(), l);
      }
    }
  }
}

TEST(ProtocolLanes, BroadcastBatchedMatchesScalarRunsLaneByLane) {
  util::Rng grng(41);
  const Graph g = graph::gnp(160, 0.06, grng);
  BatchedCompeteParams params;
  params.max_rounds = 4000;
  check_compete_differential(g, {{0, 77}}, params, 64, 1001);
  check_compete_differential(g, {{3, 5}}, params, 9, 1002);
}

TEST(ProtocolLanes, CompeteBatchedMultiSourceMatchesScalarRuns) {
  util::Rng grng(42);
  const Graph g = graph::gnp(120, 0.07, grng);
  BatchedCompeteParams params;
  params.max_rounds = 3000;
  const std::vector<CompeteSource> sources{{2, 900}, {40, 901}, {77, 950}};
  check_compete_differential(g, sources, params, 23, 2001);
}

// `rounds` is the round in which a lane finished: rerunning a successful
// lane's seed with exactly that budget reproduces the lane, and one round
// less fails. Both routes, at several lane counts.
TEST(ProtocolLanes, LanesReportTheirExactFinishingRound) {
  util::Rng grng(53);
  const Graph g = graph::gnp(140, 0.06, grng);
  BatchedCompeteParams params;
  params.max_rounds = 4000;
  const std::vector<std::vector<CompeteSource>> cases{
      {{0, 77}}, {{2, 900}, {40, 901}, {77, 950}}};
  for (const auto& sources : cases) {
    for (const int lanes : {1, 9, 64}) {
      SCOPED_TRACE("sources=" + std::to_string(sources.size()) +
                   "/lanes=" + std::to_string(lanes));
      const auto seeds = make_seeds(lanes, 9001);
      const auto runs = core::compete_batched(g, sources, params, seeds);
      for (int l = 0; l < lanes; ++l) {
        const CompeteLaneResult& r = runs[static_cast<std::size_t>(l)];
        ASSERT_TRUE(r.success) << "lane " << l;
        const std::uint64_t one[] = {seeds[static_cast<std::size_t>(l)]};
        BatchedCompeteParams exact = params;
        exact.max_rounds = r.rounds;
        expect_lane_equal(core::compete_batched(g, sources, exact, one)[0], r,
                          l);
        exact.max_rounds = r.rounds - 1;
        EXPECT_FALSE(core::compete_batched(g, sources, exact, one)[0].success)
            << "lane " << l;
      }
    }
  }
}

TEST(ProtocolLanes, TightBudgetLanesAgreeOnFailureToo) {
  // A budget far below completion: lanes must agree on rounds == cap,
  // partial best planes, and success == false, exactly as scalar runs do.
  util::Rng grng(43);
  const Graph g = graph::path_of_cliques(12, 6);
  BatchedCompeteParams params;
  params.max_rounds = 10;
  check_compete_differential(g, {{0, 9}}, params, 17, 3001);
}

// Single-valued sources take compete_batched's masks-only route. A second
// source on the same node with a lower value forces the max-fold route
// without changing the protocol: that node still relays the top value, so
// every informed node relays it in both runs. The routes must agree lane
// by lane on every backend and recovery strategy.
void check_route_differential(const Graph& g,
                              const std::vector<CompeteSource>& sources,
                              const BatchedCompeteParams& params,
                              std::uint64_t base_seed) {
  std::vector<CompeteSource> forced = sources;
  forced.push_back({sources.front().node, sources.front().value - 1});
  for (const int lanes : {1, 9, 64}) {
    const auto seeds = make_seeds(lanes, base_seed);
    for (const radio::MediumKind medium :
         {radio::MediumKind::kBitslice, radio::MediumKind::kScalar,
          radio::MediumKind::kSharded, radio::MediumKind::kFrontier}) {
      for (const radio::RecoveryStrategy recovery :
           {radio::RecoveryStrategy::kAuto,
            radio::RecoveryStrategy::kRowScan}) {
        SCOPED_TRACE(std::string(to_string(medium)) + "/" +
                     std::string(to_string(recovery)) +
                     "/lanes=" + std::to_string(lanes));
        const auto masks =
            core::compete_batched(g, sources, params, seeds, medium, recovery);
        const auto fold =
            core::compete_batched(g, forced, params, seeds, medium, recovery);
        ASSERT_EQ(masks.size(), fold.size());
        for (int l = 0; l < lanes; ++l) {
          expect_lane_equal(masks[static_cast<std::size_t>(l)],
                            fold[static_cast<std::size_t>(l)], l);
          expect_lane_consistent(masks[static_cast<std::size_t>(l)],
                                 g.node_count(), l);
        }
      }
    }
  }
}

TEST(ProtocolLanes, SingleValuedRouteMatchesFoldRoute) {
  util::Rng grng(50);
  const Graph g = graph::gnp(150, 0.06, grng);
  BatchedCompeteParams params;
  params.max_rounds = 4000;
  check_route_differential(g, {{0, 77}}, params, 8001);
  check_route_differential(g, {{11, 300}}, params, 8002);
}

TEST(ProtocolLanes, SingleValuedRouteMatchesFoldRouteOnFailure) {
  const Graph g = graph::path_of_cliques(12, 6);
  BatchedCompeteParams params;
  params.max_rounds = 10;  // far below completion: every lane fails
  check_route_differential(g, {{0, 9}}, params, 8003);
}

TEST(ProtocolLanes, EqualValuedSourcesOnDifferentNodesTakeMasksRoute) {
  util::Rng grng(51);
  const Graph g = graph::gnp(120, 0.07, grng);
  BatchedCompeteParams params;
  params.max_rounds = 3000;
  check_route_differential(g, {{0, 5}, {40, 5}}, params, 8004);

  radio::BatchNetwork bn(g, 16);
  const auto seeds = make_seeds(16, 8005);
  core::compete_batched(bn, {{0, 5}, {40, 5}}, params, seeds);
  const radio::PhaseTimers& t = bn.medium().phase_timers();
  EXPECT_GT(t.rounds, 0u);
  EXPECT_EQ(t.rowscan_rounds + t.idplane_rounds + t.constfold_rounds, 0u);
}

// Cost pin: a single-valued run never identifies a sender on any recovery
// strategy, while a multi-valued run still recovers one per delivery.
TEST(ProtocolLanes, SingleValuedRunsRecoverNoSenders) {
  util::Rng grng(52);
  const Graph g = graph::gnp(200, 0.05, grng);
  BatchedCompeteParams params;
  params.max_rounds = 4000;
  const auto seeds = make_seeds(64, 8006);
  for (const radio::RecoveryStrategy recovery :
       {radio::RecoveryStrategy::kAuto, radio::RecoveryStrategy::kRowScan}) {
    SCOPED_TRACE(std::string(to_string(recovery)));
    radio::BatchNetwork single(g, 64, radio::CollisionModel::kNoDetection,
                               radio::MediumKind::kBitslice, recovery);
    core::compete_batched(single, {{0, 77}}, params, seeds);
    const radio::PhaseTimers& s = single.medium().phase_timers();
    EXPECT_GT(s.rounds, 0u);
    EXPECT_EQ(s.rowscan_rounds, 0u);
    EXPECT_EQ(s.idplane_rounds, 0u);
    EXPECT_EQ(s.constfold_rounds, 0u);
    EXPECT_EQ(s.recover_ns, 0u);

    radio::BatchNetwork multi(g, 64, radio::CollisionModel::kNoDetection,
                              radio::MediumKind::kBitslice, recovery);
    core::compete_batched(multi, {{0, 77}, {0, 76}}, params, seeds);
    const radio::PhaseTimers& m = multi.medium().phase_timers();
    EXPECT_GT(m.rowscan_rounds, 0u);
    EXPECT_EQ(m.idplane_rounds, 0u);
  }
}

TEST(ProtocolLanes, BroadcastBatchedConvenienceBroadcasts) {
  util::Rng grng(44);
  const Graph g = graph::gnp(90, 0.1, grng);
  BatchedCompeteParams params;
  params.max_rounds = 4000;
  const auto seeds = make_seeds(8, 4001);
  const auto lanes = core::broadcast_batched(g, 5, 1234, params, seeds);
  ASSERT_EQ(lanes.size(), 8u);
  for (const auto& lane : lanes) {
    EXPECT_EQ(lane.winner, 1234u);
    if (lane.success) {
      EXPECT_EQ(lane.informed, g.node_count());
      for (const auto b : lane.best) EXPECT_EQ(b, 1234u);
    }
  }
}

TEST(ProtocolLanes, EmptySourcesVacuousSuccess) {
  const Graph g = graph::star(7);
  const auto seeds = make_seeds(4, 5001);
  const auto lanes =
      core::compete_batched(g, {}, BatchedCompeteParams{}, seeds);
  for (const auto& lane : lanes) {
    EXPECT_TRUE(lane.success);
    EXPECT_EQ(lane.rounds, 0u);
    EXPECT_EQ(lane.informed, 0u);
  }
}

// The lane-generic Decay primitive itself: per-lane participation masks,
// per-lane payload planes, per-lane RNG streams — batched over bitslice vs
// one scalar Network run per lane.
TEST(ProtocolLanes, DecayRoundLanesMatchesPerLaneScalarRuns) {
  util::Rng grng(45);
  const Graph g = graph::gnp(140, 0.08, grng);
  const NodeId n = g.node_count();
  const int lanes = 64;
  const auto seeds = make_seeds(lanes, 6001);

  // Random per-lane participation and per-lane payload planes.
  std::vector<std::uint64_t> participates(n, 0);
  std::vector<radio::Payload> payload(static_cast<std::size_t>(lanes) * n);
  util::Rng setup(46);
  for (NodeId v = 0; v < n; ++v) {
    for (int l = 0; l < lanes; ++l) {
      if (setup.bernoulli(0.35)) {
        participates[v] |= std::uint64_t{1} << l;
      }
      payload[static_cast<std::size_t>(l) * n + v] =
          1000 * static_cast<radio::Payload>(l + 1) + v;
    }
  }

  // Batched: all lanes through one BatchNetwork.
  std::vector<radio::Payload> best_batch(static_cast<std::size_t>(lanes) * n,
                                         radio::kNoPayload);
  std::vector<util::Rng> rngs;
  for (const auto s : seeds) rngs.emplace_back(s);
  radio::BatchNetwork bn(g, lanes);
  radio::BatchOutcome out;
  std::uint32_t batch_delivered = 0;
  for (int round = 0; round < 3; ++round) {
    batch_delivered += schedule::decay_round_lanes(
        bn, participates, radio::PayloadPlanes::lane_major(payload, n),
        radio::KnowledgePlanes::lane_major(best_batch, n), rngs, out);
  }

  // Reference: one scalar Network run per lane with the same seed.
  std::uint32_t scalar_delivered = 0;
  for (int l = 0; l < lanes; ++l) {
    std::vector<std::uint64_t> part1(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      part1[v] = participates[v] >> l & 1;
    }
    const auto plane_begin =
        payload.begin() + static_cast<std::ptrdiff_t>(l) * n;
    const std::vector<radio::Payload> plane(plane_begin, plane_begin + n);
    std::vector<radio::Payload> best1(n, radio::kNoPayload);
    util::Rng rng(seeds[static_cast<std::size_t>(l)]);
    radio::Network net(g);
    radio::BatchOutcome out1;
    for (int round = 0; round < 3; ++round) {
      scalar_delivered += schedule::decay_round_lanes(
          net, part1, plane, best1, std::span<util::Rng>(&rng, 1), out1);
    }
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(best_batch[static_cast<std::size_t>(l) * n + v], best1[v])
          << "lane " << l << " node " << v;
    }
  }
  EXPECT_EQ(batch_delivered, scalar_delivered);
}

// The single-lane wrapper must behave exactly like a hand-driven 1-lane
// call (same draws, same best updates).
TEST(ProtocolLanes, ScalarDecayStepMatchesOneLaneCall) {
  util::Rng grng(47);
  const Graph g = graph::gnp(80, 0.1, grng);
  const NodeId n = g.node_count();
  std::vector<std::uint8_t> part(n, 0);
  std::vector<radio::Payload> pay(n, radio::kNoPayload);
  util::Rng setup(48);
  for (NodeId v = 0; v < n; ++v) {
    part[v] = setup.bernoulli(0.5);
    pay[v] = 100 + v;
  }

  radio::Network net_a(g);
  std::vector<radio::Payload> best_a(n, radio::kNoPayload);
  util::Rng rng_a(99);
  std::uint32_t del_a = 0;
  for (std::uint32_t s = 1; s <= 3; ++s) {
    del_a += schedule::decay_step(net_a, part, pay, s, best_a, rng_a);
  }

  radio::Network net_b(g);
  std::vector<std::uint64_t> mask(n, 0);
  for (NodeId v = 0; v < n; ++v) mask[v] = part[v] ? 1 : 0;
  std::vector<radio::Payload> best_b(n, radio::kNoPayload);
  util::Rng rng_b(99);
  radio::BatchOutcome out;
  std::uint32_t del_b = 0;
  for (std::uint32_t s = 1; s <= 3; ++s) {
    del_b += schedule::decay_step_lanes(net_b, mask, pay, s, best_b,
                                        std::span<util::Rng>(&rng_b, 1), out);
  }
  EXPECT_EQ(del_a, del_b);
  EXPECT_EQ(best_a, best_b);
}

// Sender-materializing Decay (with_senders=true) through BatchNetwork
// under both pinned recovery strategies and both collision models: the
// out.deliveries detail driving best[] must agree lane by lane with a
// per-seed scalar run, for 1, 7, and 64 lanes.
TEST(ProtocolLanes, DecayWithSendersAgreesAcrossRecoveryStrategies) {
  util::Rng grng(49);
  const Graph g = graph::gnp(130, 0.09, grng);
  const NodeId n = g.node_count();
  for (const radio::CollisionModel model :
       {radio::CollisionModel::kNoDetection,
        radio::CollisionModel::kDetection}) {
    for (const int lanes : {1, 7, 64}) {
      const auto seeds = make_seeds(lanes, 7001);
      std::vector<std::uint64_t> participates(n, radio::lane_mask(lanes));
      std::vector<radio::Payload> payload(
          static_cast<std::size_t>(lanes) * n);
      for (NodeId v = 0; v < n; ++v) {
        for (int l = 0; l < lanes; ++l) {
          payload[static_cast<std::size_t>(l) * n + v] =
              500 * static_cast<radio::Payload>(l + 1) + v;
        }
      }
      std::vector<std::vector<radio::Payload>> bests;
      std::vector<std::uint32_t> delivered;
      for (const radio::RecoveryStrategy recovery :
           {radio::RecoveryStrategy::kAuto,
            radio::RecoveryStrategy::kRowScan}) {
        radio::BatchNetwork bn(g, lanes, model, radio::MediumKind::kBitslice,
                               recovery);
        std::vector<radio::Payload> best(
            static_cast<std::size_t>(lanes) * n, radio::kNoPayload);
        std::vector<util::Rng> rngs;
        for (const auto s : seeds) rngs.emplace_back(s);
        radio::BatchOutcome out;
        std::uint32_t total = 0;
        for (std::uint32_t s = 1; s <= 4; ++s) {
          total += schedule::decay_step_lanes(
              bn, participates, radio::PayloadPlanes::lane_major(payload, n),
              s, radio::KnowledgePlanes::lane_major(best, n), rngs, out,
              /*with_senders=*/true);
        }
        bests.push_back(std::move(best));
        delivered.push_back(total);
      }
      EXPECT_EQ(bests[0], bests[1])
          << "lanes=" << lanes << " model=" << static_cast<int>(model);
      EXPECT_EQ(delivered[0], delivered[1]);
    }
  }
}

TEST(ProtocolLanes, RejectsLaneOverflowAndBadPlanes) {
  const Graph g = graph::star(5);
  radio::Network net(g);
  const auto seeds = make_seeds(2, 1);
  EXPECT_THROW(
      core::compete_batched(net, {{0, 1}}, BatchedCompeteParams{}, seeds),
      std::invalid_argument);  // 2 seeds into a 1-lane executor
  EXPECT_THROW(core::compete_batched(g, {{0, 1}}, BatchedCompeteParams{},
                                     std::span<const std::uint64_t>{}),
               std::invalid_argument);  // no seeds at all

  radio::BatchNetwork bn(g, 8);
  std::vector<std::uint64_t> participates(g.node_count(), 0xFF);
  std::vector<radio::Payload> small_planes(g.node_count() * 4, 0);  // 4 lanes
  std::vector<radio::Payload> best(g.node_count() * 8, radio::kNoPayload);
  std::vector<util::Rng> rngs(8, util::Rng(1));
  radio::BatchOutcome out;
  EXPECT_THROW(
      schedule::decay_step_lanes(
          bn, participates,
          radio::PayloadPlanes::lane_major(small_planes, g.node_count()), 1,
          radio::KnowledgePlanes::lane_major(best, g.node_count()), rngs, out),
      std::invalid_argument);  // payload planes cover fewer lanes than rngs
}

}  // namespace
}  // namespace radiocast
