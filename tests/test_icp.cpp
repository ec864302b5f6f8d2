// Standalone Intra-Cluster Propagation windows (Algorithm 3 + 4), run on
// PropagationEngine.
#include "core/propagation.hpp"

#include <gtest/gtest.h>

#include "cluster/partition_stats.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace radiocast::schedule {
namespace {

using cluster::Partition;
using cluster::partition;
using core::IcpParams;
using core::run_icp_window;
using radio::kNoPayload;
using radio::Payload;

/// One big cluster covering a path: centre = node 0.
Partition whole_path_cluster(graph::NodeId n) {
  Partition p;
  p.beta = 0.1;
  p.center.assign(n, 0);
  p.dist_to_center.resize(n);
  p.parent.resize(n);
  p.delta.assign(n, 0.0);
  for (graph::NodeId v = 0; v < n; ++v) {
    p.dist_to_center[v] = v;
    p.parent[v] = v == 0 ? 0 : v - 1;
  }
  return p;
}

TEST(Icp, OutwardWaveInformsWithinHopBudget) {
  const graph::Graph g = graph::path(20);
  const Partition p = whole_path_cluster(20);
  const TreeSchedule sched(g, p, ScheduleMode::kPipelined);
  std::vector<Payload> best(20, kNoPayload);
  best[0] = 77;  // centre knows
  IcpParams params;
  params.pass_hops = 8;
  params.with_background = false;
  util::Rng rng(1);
  run_icp_window(g, sched, best, params, rng);
  for (graph::NodeId v = 0; v <= 8; ++v) EXPECT_EQ(best[v], 77u) << v;
  for (graph::NodeId v = 9; v < 20; ++v) EXPECT_EQ(best[v], kNoPayload) << v;
}

TEST(Icp, InwardWaveLiftsHigherMessageToCenter) {
  const graph::Graph g = graph::path(20);
  const Partition p = whole_path_cluster(20);
  const TreeSchedule sched(g, p, ScheduleMode::kPipelined);
  std::vector<Payload> best(20, kNoPayload);
  best[0] = 10;   // centre's value
  best[6] = 99;   // deeper node knows better
  IcpParams params;
  params.pass_hops = 8;
  params.with_background = false;
  util::Rng rng(2);
  run_icp_window(g, sched, best, params, rng);
  EXPECT_EQ(best[0], 99u);          // centre adopted the max (pass 2)
  for (graph::NodeId v = 0; v <= 8; ++v) {
    EXPECT_EQ(best[v], 99u) << v;   // redistributed outward (pass 3)
  }
}

TEST(Icp, NodeBeyondBudgetDoesNotReachCenter) {
  const graph::Graph g = graph::path(20);
  const Partition p = whole_path_cluster(20);
  const TreeSchedule sched(g, p, ScheduleMode::kPipelined);
  std::vector<Payload> best(20, kNoPayload);
  best[0] = 10;
  best[15] = 99;  // beyond the 8-hop curtail
  IcpParams params;
  params.pass_hops = 8;
  params.with_background = false;
  util::Rng rng(3);
  run_icp_window(g, sched, best, params, rng);
  EXPECT_EQ(best[0], 10u);  // curtail respected
}

TEST(Icp, RoundAccountingPipelined) {
  const graph::Graph g = graph::path(10);
  const Partition p = whole_path_cluster(10);
  const TreeSchedule sched(g, p, ScheduleMode::kPipelined);
  std::vector<Payload> best(10, kNoPayload);
  best[0] = 1;
  IcpParams params;
  params.pass_hops = 5;
  params.with_background = false;
  util::Rng rng(4);
  const auto stats = run_icp_window(g, sched, best, params, rng);
  // 3 passes x 5 hops, no background
  EXPECT_EQ(stats.main_rounds + stats.background_rounds, 15u);
  params.with_background = true;
  std::vector<Payload> best2(10, kNoPayload);
  best2[0] = 1;
  const auto stats2 = run_icp_window(g, sched, best2, params, rng);
  // interleaved 1:1
  EXPECT_EQ(stats2.main_rounds + stats2.background_rounds, 30u);
}

/// Deterministic-collision gadget: path 0-1-2 with clusters A={0,1}
/// (centre 0) and B={2} (centre 2). At wave time 0 both centres transmit;
/// node 1's parent delivery is garbled by the foreign centre 2 every
/// outward pass.
struct RiskyGadget {
  graph::Graph g = graph::path(3);
  Partition p;
  RiskyGadget() {
    p.beta = 0.1;
    p.center = {0, 0, 2};
    p.dist_to_center = {0, 1, 0};
    p.parent = {0, 0, 2};
    p.delta.assign(3, 0.0);
  }
};

TEST(Icp, ForeignClusterBlocksRiskyNodeWithoutBackground) {
  RiskyGadget gadget;
  const TreeSchedule sched(gadget.g, gadget.p, ScheduleMode::kPipelined);
  std::vector<Payload> best{50, kNoPayload, 60};
  IcpParams params;
  params.pass_hops = 2;
  params.with_background = false;
  util::Rng rng(5);
  const auto stats = run_icp_window(gadget.g, sched, best, params, rng);
  // Both outward passes block node 1 (centre 0 and foreign centre 2
  // transmit in the same wave slot), and nothing can rescue it.
  EXPECT_GE(stats.wave_blocked, 2u);
  EXPECT_EQ(best[1], kNoPayload);
}

TEST(Icp, BackgroundRescuesRiskyNodes) {
  // Same gadget with Algorithm 4 enabled: the per-cluster coordinated
  // coins eventually let cluster A transmit alone, informing node 1.
  RiskyGadget gadget;
  const TreeSchedule sched(gadget.g, gadget.p, ScheduleMode::kPipelined);
  std::vector<Payload> best{50, kNoPayload, 60};
  IcpParams params;
  params.pass_hops = 2;
  params.with_background = true;
  util::Rng rng(6);
  std::uint64_t rescued = 0;
  // Note: node 1 may also hear the *foreign* centre via Decay (best gets
  // set without a rescue); keep iterating until a same-cluster rescue
  // happened so the mechanism itself is exercised.
  for (int w = 0; w < 200 && rescued == 0; ++w) {
    params.window_id = w;
    rescued += run_icp_window(gadget.g, sched, best, params, rng).rescued;
  }
  EXPECT_GT(rescued, 0u);
  EXPECT_NE(best[1], kNoPayload);
}

TEST(Icp, ColoredModeInformsPhysically) {
  util::Rng rng(7);
  const graph::Graph g = graph::grid(10, 10);
  const Partition p = cluster::partition(g, 0.15, rng);
  const TreeSchedule sched(g, p, ScheduleMode::kColored);
  std::vector<Payload> best(g.node_count(), kNoPayload);
  // every centre starts with a value
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    if (p.is_center(v)) best[v] = 100 + v;
  }
  IcpParams params;
  params.pass_hops = sched.max_depth() + 1;
  params.with_background = true;
  const auto stats = run_icp_window(g, sched, best, params, rng);
  EXPECT_GT(stats.wave_deliveries, 0u);
  // Every node heard something (its own cluster's wave at least).
  std::size_t informed = 0;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    informed += best[v] != kNoPayload;
  }
  EXPECT_GT(informed, g.node_count() * 3 / 4);
}

TEST(Icp, EmptyCentersProduceNoTraffic) {
  const graph::Graph g = graph::path(6);
  const Partition p = whole_path_cluster(6);
  const TreeSchedule sched(g, p, ScheduleMode::kPipelined);
  std::vector<Payload> best(6, kNoPayload);  // nobody knows anything
  IcpParams params;
  params.pass_hops = 3;
  params.with_background = true;
  util::Rng rng(8);
  const auto stats = run_icp_window(g, sched, best, params, rng);
  EXPECT_EQ(stats.wave_deliveries, 0u);
  for (auto b : best) EXPECT_EQ(b, kNoPayload);
}

TEST(Icp, OutOfScopeNodesStayOutsideTheWindow) {
  // Nodes 6..9 are outside the schedule's partition (as after
  // partition_masked): the wave stops at node 5 and, with the background
  // stream on, nothing indexes their missing centre.
  const graph::Graph g = graph::path(10);
  Partition p = whole_path_cluster(10);
  for (graph::NodeId v = 6; v < 10; ++v) {
    p.center[v] = graph::kInvalidNode;
    p.parent[v] = graph::kInvalidNode;
    p.dist_to_center[v] = 0;
  }
  const TreeSchedule sched(g, p, ScheduleMode::kPipelined);
  for (bool background : {false, true}) {
    std::vector<Payload> best(10, kNoPayload);
    best[0] = 77;
    IcpParams params;
    params.pass_hops = 8;
    params.with_background = background;
    util::Rng rng(9);
    run_icp_window(g, sched, best, params, rng);
    for (graph::NodeId v = 0; v <= 5; ++v) EXPECT_EQ(best[v], 77u) << v;
    if (!background) {
      for (graph::NodeId v = 6; v < 10; ++v) {
        EXPECT_EQ(best[v], kNoPayload) << v;
      }
    }
  }
}

// Pins whole windows without the background stream (no coin is drawn, so
// the outcome is a pure function of graph, partition and mode) over a grid
// of families, betas, partition seeds and both schedule modes: the hash
// folds `best`, rounds and blocked hops, plus deliveries in colored mode.
TEST(Icp, WindowGoldenWithoutBackground) {
  util::Rng gen(15);
  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::grid(30, 30));
  graphs.push_back(graph::random_geometric(1500, 0.05, gen));
  graphs.push_back(graph::path_of_cliques(40, 8));
  std::uint64_t h = 0;
  for (const graph::Graph& g : graphs) {
    const graph::NodeId n = g.node_count();
    for (double beta : {0.1, 0.2, 0.4}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        util::Rng prng(seed);
        const Partition p = partition(g, beta, prng);
        for (ScheduleMode mode :
             {ScheduleMode::kPipelined, ScheduleMode::kColored}) {
          const TreeSchedule sched(g, p, mode);
          std::vector<Payload> best(n, kNoPayload);
          for (graph::NodeId v = 0; v < n; ++v) {
            if (p.is_center(v)) {
              best[v] = 100 + v;
            } else if (v % 7 == 0) {
              best[v] = 5000 + v;
            }
          }
          IcpParams params;
          params.pass_hops = 1 + static_cast<std::uint32_t>(10 / beta);
          params.with_background = false;
          util::Rng rng(seed);
          const auto stats = run_icp_window(g, sched, best, params, rng);
          for (Payload b : best) h = util::mix_seed(h, b);
          h = util::mix_seed(h,
                             stats.main_rounds + stats.background_rounds);
          h = util::mix_seed(h, stats.wave_blocked);
          if (mode == ScheduleMode::kColored) {
            h = util::mix_seed(h, stats.wave_deliveries);
          }
        }
      }
    }
  }
  EXPECT_EQ(h, 0xf108bf4579d33ab1ull);
}

}  // namespace
}  // namespace radiocast::schedule
