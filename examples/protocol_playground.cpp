// Scenario: writing your own protocol against radio::Network::resolve, the
// interface every algorithm core in the library drives.
//
// A node may use only what the model gives it: n, D, its own id, its
// random bits, and the messages it receives — never the topology. Here
// each node is a small state record (its random stream and the message
// it knows) and the protocol is a per-node transmit rule; the simulation
// loop collects the round's transmitters, lets the Network resolve
// interference, and hands every delivery back to its listener. The
// protocol is the classic Decay flooding of Bar-Yehuda, Goldreich and
// Itai, written from scratch.
//
//   ./protocol_playground [--n=300] [--seed=9]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/radiocast.hpp"

using namespace radiocast;

namespace {

/// What one node knows: its private random stream and, once informed,
/// the message.
struct Node {
  util::Rng rng;
  radio::Payload message = radio::kNoPayload;
};

/// Decay flooding: an informed node transmits in round r with probability
/// 2^-(1 + r mod ceil(log2 n)); an uninformed node listens. The rule reads
/// only the node's own state, the round number and n.
bool transmits(Node& node, radio::Round r, std::uint32_t lambda) {
  if (node.message == radio::kNoPayload) return false;
  const auto step = static_cast<std::uint32_t>(r % lambda) + 1;
  return node.rng.bernoulli(schedule::decay_probability(step));
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("n", "nodes in the random geometric network (default 300)")
      .describe("seed", "rng seed (default 9)");
  const auto n = static_cast<graph::NodeId>(cli.get_uint("n", 300));
  const std::uint64_t seed = cli.get_uint("seed", 9);

  util::Rng rng(seed);
  const graph::Graph g = graph::random_geometric(n, 0.09, rng);
  const std::uint32_t d = std::max(2u, graph::diameter_double_sweep(g));
  std::printf("network: %s, D>=%u\n", g.summary().c_str(), d);

  // Node v's random bits: an independent stream forked from one seed.
  util::Rng seeds(seed + 1);
  std::vector<Node> nodes;
  nodes.reserve(g.node_count());
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    nodes.push_back({seeds.fork(v)});
  }
  nodes[0].message = 0xA1E27;  // the source
  std::uint32_t informed = 1;

  radio::Network net(g);
  const std::uint32_t lambda = schedule::decay_round_length(g.node_count());
  std::vector<graph::NodeId> tx;
  std::vector<radio::Payload> tx_payload;
  radio::SparseOutcome out;
  radio::Round round = 0;
  std::uint32_t next_report = g.node_count() / 4;
  while (informed < g.node_count() && round < 200000) {
    tx.clear();
    tx_payload.clear();
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      if (transmits(nodes[v], round, lambda)) {
        tx.push_back(v);
        tx_payload.push_back(nodes[v].message);
      }
    }
    net.resolve(tx, tx_payload, out);
    for (const auto& delivery : out.deliveries) {
      Node& listener = nodes[delivery.node];
      if (listener.message == radio::kNoPayload) {
        listener.message = delivery.payload;
        ++informed;
      }
    }
    ++round;
    if (informed >= next_report && informed < g.node_count()) {
      std::printf("  round %6llu: %u/%u informed\n",
                  static_cast<unsigned long long>(round), informed,
                  g.node_count());
      next_report = informed + g.node_count() / 4;
    }
  }
  const bool done = informed == g.node_count();
  std::printf("decay flood: %s after %llu rounds "
              "(%llu transmissions, %llu deliveries, %llu collisions)\n",
              done ? "everyone informed" : "INCOMPLETE",
              static_cast<unsigned long long>(round),
              static_cast<unsigned long long>(net.total_transmissions()),
              static_cast<unsigned long long>(net.total_deliveries()),
              static_cast<unsigned long long>(net.total_collisions()));
  std::printf("(BGI theory: ~(D + log n) log n = %.0f rounds)\n",
              core::theory::bound_bgi(g.node_count(), d));
  return done ? 0 : 1;
}
