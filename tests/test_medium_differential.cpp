// Randomized differential of the radio media: random graphs (gnp, rgg,
// star, path of cliques) x random transmitter sets x 1/7/64 lanes x both
// collision models x both recovery strategies, every backend and every
// entry point against the ScalarMedium oracle. Sharded runs with 1 and 4
// workers over 1, 7, default and n slices (7 cuts rows into multi-entry
// segments; n gives one listener per slice). Delivery order is normalised
// (it is backend-specific); everything else must match exactly. A failure
// names the trial seed, so it replays by running that one seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "radio/medium.hpp"
#include "radio/medium_sharded.hpp"
#include "util/rng.hpp"

namespace radiocast::radio {
namespace {

using graph::Graph;
using graph::NodeId;

constexpr int kTrials = 48;

struct Backend {
  MediumKind kind;
  int workers = 0;  // sharded only
  int slices = 0;   // sharded only; -1 means one slice per node
  std::string label;
};

std::vector<Backend> backends_under_test() {
  std::vector<Backend> all = {{MediumKind::kBitslice, 0, 0, "bitslice"},
                              {MediumKind::kFrontier, 0, 0, "frontier"}};
  for (const int workers : {1, 4}) {
    for (const int slices : {1, 7, 0, -1}) {
      all.push_back({MediumKind::kSharded, workers, slices,
                     "sharded/w" + std::to_string(workers) + "/s" +
                         (slices == 0    ? std::string("default")
                          : slices == -1 ? std::string("n")
                                         : std::to_string(slices))});
    }
  }
  return all;
}

std::unique_ptr<Medium> make(const Backend& b, const Graph& g,
                             CollisionModel model,
                             RecoveryStrategy recovery) {
  if (b.kind != MediumKind::kSharded) {
    return make_medium(b.kind, g, model, 0, recovery);
  }
  const int slices =
      b.slices == -1 ? static_cast<int>(std::max<NodeId>(1, g.node_count()))
                     : b.slices;
  auto m = std::make_unique<ShardedMedium>(g, model, b.workers, slices);
  m->set_recovery_strategy(recovery);
  return m;
}

Graph random_graph(util::Rng& rng) {
  switch (rng.uniform(4)) {
    case 0: {
      const auto n = static_cast<NodeId>(2 + rng.uniform(220));
      const double deg = rng.uniform_real(0.5, 24.0);
      return graph::gnp(n, std::min(1.0, deg / n), rng);
    }
    case 1: {
      const auto n = static_cast<NodeId>(2 + rng.uniform(220));
      return graph::random_geometric(n, rng.uniform_real(0.05, 0.4), rng);
    }
    case 2:
      return graph::star(static_cast<NodeId>(2 + rng.uniform(120)));
    default:
      return graph::path_of_cliques(static_cast<NodeId>(1 + rng.uniform(8)),
                                    static_cast<NodeId>(1 + rng.uniform(12)));
  }
}

/// Listener-keyed view of a batch outcome: per-delivery detail sorted by
/// (node, lane), delivered and collided lane sets OR-ed per listener.
struct BatchView {
  std::vector<BatchDelivery> deliveries;
  std::vector<std::uint64_t> delivered;
  std::vector<std::uint64_t> collided;
  std::array<std::uint32_t, kMaxLanes> transmitter_count{};
  std::array<std::uint32_t, kMaxLanes> delivered_count{};
  std::array<std::uint32_t, kMaxLanes> collided_count{};
  bool listed_twice = false;

  bool operator==(const BatchView&) const = default;
};

BatchView view(const BatchOutcome& out, NodeId n) {
  BatchView v;
  v.deliveries = out.deliveries;
  std::sort(v.deliveries.begin(), v.deliveries.end(),
            [](const BatchDelivery& a, const BatchDelivery& b) {
              return std::tie(a.node, a.lane) < std::tie(b.node, b.lane);
            });
  v.delivered.assign(n, 0);
  for (const auto& d : out.delivered) {
    if (v.delivered[d.node] != 0 || d.lanes == 0) v.listed_twice = true;
    v.delivered[d.node] |= d.lanes;
  }
  v.collided.assign(n, 0);
  for (const auto& c : out.collisions) v.collided[c.node] |= c.lanes;
  v.transmitter_count = out.transmitter_count;
  v.delivered_count = out.delivered_count;
  v.collided_count = out.collided_count;
  return v;
}

struct SparseView {
  std::vector<SparseDelivery> deliveries;
  std::vector<NodeId> collided;
  std::uint32_t transmitter_count = 0;
  std::uint32_t collided_count = 0;

  bool operator==(const SparseView&) const = default;
};

SparseView view(const SparseOutcome& out) {
  SparseView v;
  v.deliveries = out.deliveries;
  std::sort(v.deliveries.begin(), v.deliveries.end(),
            [](const SparseDelivery& a, const SparseDelivery& b) {
              return a.node < b.node;
            });
  v.collided = out.collided_nodes;
  std::sort(v.collided.begin(), v.collided.end());
  v.transmitter_count = out.transmitter_count;
  v.collided_count = out.collided_count;
  return v;
}

/// One random round: a dense transmit mask, the same transmitters as an
/// ActiveTx list (lane sets split across duplicate entries), node-major
/// per-lane payloads, a shared plane (constant half of the time, so the
/// const-fold shortcut fires), and pre-seeded node-major knowledge planes.
struct Round {
  int lanes = 1;
  std::vector<std::uint64_t> mask;
  std::vector<ActiveTx> active;
  std::vector<Payload> planes;  // node-major, n x lanes
  std::vector<Payload> shared;  // one plane for every lane
  std::vector<Payload> best;    // node-major, n x lanes
  std::vector<NodeId> tx;       // lane-0 transmitters for resolve()
  std::vector<Payload> tx_payload;
};

Round random_round(const Graph& g, int lanes, util::Rng& rng) {
  const NodeId n = g.node_count();
  constexpr double kDensities[] = {0.0, 0.01, 0.05, 0.2, 0.5, 0.95};
  const double density = kDensities[rng.uniform(std::size(kDensities))];
  Round r;
  r.lanes = lanes;
  r.mask.assign(n, 0);
  const auto lane_count = static_cast<std::size_t>(lanes);
  r.planes.resize(lane_count * n);
  r.best.resize(lane_count * n);
  r.shared.resize(n);
  const bool constant = rng.bernoulli(0.5);
  // Small value ranges make equal payloads and max-fold ties common.
  for (NodeId v = 0; v < n; ++v) {
    for (int l = 0; l < lanes; ++l) {
      if (rng.bernoulli(density)) r.mask[v] |= std::uint64_t{1} << l;
      const std::size_t i = static_cast<std::size_t>(v) * lane_count +
                            static_cast<std::size_t>(l);
      r.planes[i] = static_cast<Payload>(rng.uniform(50));
      r.best[i] = rng.bernoulli(0.3) ? kNoPayload
                                     : static_cast<Payload>(rng.uniform(50));
    }
    r.shared[v] = constant ? 17 : static_cast<Payload>(rng.uniform(50));
    if (r.mask[v] == 0) continue;
    // Split the lane set over up to two entries that may overlap.
    const std::uint64_t part = r.mask[v] & rng();
    r.active.push_back({v, r.mask[v] & ~part});
    if (part != 0) r.active.push_back({v, part | (r.mask[v] & rng())});
  }
  std::reverse(r.active.begin(), r.active.end());  // order must not matter
  for (NodeId v = 0; v < n; ++v) {
    if ((r.mask[v] & 1) == 0) continue;
    r.tx.push_back(v);
    r.tx_payload.push_back(r.planes[static_cast<std::size_t>(v) * lane_count]);
    if (rng.bernoulli(0.1)) {  // duplicate entry: first payload wins
      r.tx.push_back(v);
      r.tx_payload.push_back(999);
    }
  }
  return r;
}

/// Entry points observe() drives, in the order it records them.
constexpr const char* kBatchCalls[] = {
    "resolve_batch(node-major, senders)",
    "resolve_batch(shared, senders)",
    "resolve_batch_active(node-major, senders)",
    "resolve_batch(node-major, masks)",
    "resolve_batch(shared, masks)",
    "resolve_batch_active(node-major, masks)",
    "resolve_batch_max(shared)",
    "resolve_batch_max(node-major)",
    "resolve_batch_max_active(shared)",
    "resolve_batch_max_active(node-major)"};
constexpr std::size_t kFoldCalls = 4;  // the trailing kBatchCalls entries

/// Every entry point of one medium on one round, in listener-keyed form.
struct Observed {
  SparseView sparse;
  std::vector<BatchView> batch;             // one per kBatchCalls entry
  std::vector<std::vector<Payload>> best;   // one per fold call
};

Observed observe(Medium& m, const Round& r) {
  const NodeId n = m.topology().node_count();
  const PayloadPlanes planes = PayloadPlanes::node_major(r.planes, n);
  Observed o;
  SparseOutcome sparse;
  m.resolve(r.tx, r.tx_payload, sparse);
  o.sparse = view(sparse);

  BatchOutcome out;
  for (const bool senders : {true, false}) {
    m.resolve_batch(r.mask, planes, r.lanes, out, senders);
    o.batch.push_back(view(out, n));
    m.resolve_batch(r.mask, r.shared, r.lanes, out, senders);
    o.batch.push_back(view(out, n));
    m.resolve_batch_active(r.active, planes, r.lanes, out, senders);
    o.batch.push_back(view(out, n));
  }
  auto fold = [&](auto&& call) {
    std::vector<Payload> best = r.best;
    call(KnowledgePlanes::node_major(best, n));
    EXPECT_TRUE(out.deliveries.empty()) << "a fold built delivery records";
    o.batch.push_back(view(out, n));
    o.best.push_back(std::move(best));
  };
  fold([&](KnowledgePlanes best) {
    m.resolve_batch_max(r.mask, r.shared, r.lanes, best, out);
  });
  fold([&](KnowledgePlanes best) {
    m.resolve_batch_max(r.mask, planes, r.lanes, best, out);
  });
  fold([&](KnowledgePlanes best) {
    m.resolve_batch_max_active(r.active, r.shared, r.lanes, best, out);
  });
  fold([&](KnowledgePlanes best) {
    m.resolve_batch_max_active(r.active, planes, r.lanes, best, out);
  });
  return o;
}

void expect_same(const Observed& got, const Observed& want,
                 const std::string& ctx) {
  EXPECT_TRUE(got.sparse == want.sparse) << ctx << " call=resolve";
  ASSERT_EQ(got.batch.size(), std::size(kBatchCalls)) << ctx;
  for (std::size_t i = 0; i < got.batch.size(); ++i) {
    EXPECT_FALSE(got.batch[i].listed_twice)
        << ctx << " call=" << kBatchCalls[i] << ": listener listed twice";
    EXPECT_TRUE(got.batch[i] == want.batch[i])
        << ctx << " call=" << kBatchCalls[i];
  }
  for (std::size_t i = 0; i < kFoldCalls; ++i) {
    EXPECT_TRUE(got.best[i] == want.best[i])
        << ctx << " call="
        << kBatchCalls[std::size(kBatchCalls) - kFoldCalls + i]
        << ": knowledge planes differ";
  }
}

TEST(MediumDifferential, RandomRoundsMatchScalarOracle) {
  const std::vector<Backend> backends = backends_under_test();
  for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
    util::Rng rng(0x5EED0000 + seed);
    const Graph g = random_graph(rng);
    const CollisionModel model = rng.bernoulli(0.5)
                                     ? CollisionModel::kDetection
                                     : CollisionModel::kNoDetection;
    constexpr int kLanes[] = {1, 7, 64};
    const int lanes = kLanes[rng.uniform(std::size(kLanes))];
    for (const RecoveryStrategy recovery :
         {RecoveryStrategy::kAuto, RecoveryStrategy::kRowScan}) {
      auto oracle = make_medium(MediumKind::kScalar, g, model, 0, recovery);
      std::vector<std::unique_ptr<Medium>> media;
      for (const Backend& b : backends) {
        media.push_back(make(b, g, model, recovery));
      }
      // Several rounds on the same media, so state left over from one
      // round (planes, stamps, scratch) is exercised by the next.
      util::Rng round_rng(rng());
      for (int round = 0; round < 3; ++round) {
        const Round r = random_round(g, lanes, round_rng);
        const Observed want = observe(*oracle, r);
        for (std::size_t i = 0; i < backends.size(); ++i) {
          expect_same(observe(*media[i], r), want,
                      "seed=" + std::to_string(seed) +
                          " backend=" + backends[i].label +
                          " n=" + std::to_string(g.node_count()) +
                          " lanes=" + std::to_string(lanes) +
                          " model=" + std::to_string(static_cast<int>(model)) +
                          " recovery=" + std::string(to_string(recovery)) +
                          " round=" + std::to_string(round));
        }
      }
    }
  }
}

}  // namespace
}  // namespace radiocast::radio
