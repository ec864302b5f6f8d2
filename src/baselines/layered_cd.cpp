#include "baselines/layered_cd.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "radio/network.hpp"
#include "schedule/decay.hpp"
#include "util/rng.hpp"

namespace radiocast::baselines {

std::vector<std::uint32_t> beep_wave_layers(const graph::Graph& g,
                                            graph::NodeId source,
                                            radio::CollisionModel model,
                                            radio::Round rounds) {
  if (source >= g.node_count()) {
    throw std::out_of_range("beep_wave_layers: source out of range");
  }
  std::vector<std::uint32_t> layer(g.node_count(), kNoLayer);
  layer[source] = 0;
  radio::Network net(g, model);
  // The nodes of layer r: each beeps exactly once, in round r.
  std::vector<graph::NodeId> frontier{source};
  std::vector<graph::NodeId> next;
  std::vector<radio::Payload> beeps;
  radio::SparseOutcome out;
  for (radio::Round r = 0; r < rounds && !frontier.empty(); ++r) {
    beeps.assign(frontier.size(), 1);  // content-free
    net.resolve(frontier, beeps, out);
    next.clear();
    auto heard = [&](graph::NodeId v) {
      if (layer[v] != kNoLayer) return;
      layer[v] = static_cast<std::uint32_t>(r) + 1;
      next.push_back(v);
    };
    for (const auto& d : out.deliveries) heard(d.node);
    for (const graph::NodeId v : out.collided_nodes) heard(v);  // CD only
    frontier.swap(next);
  }
  return layer;
}

LayeredCdResult layered_cd_broadcast(const graph::Graph& g, std::uint32_t d,
                                     graph::NodeId source,
                                     radio::Payload message,
                                     std::uint64_t seed,
                                     std::uint64_t max_rounds) {
  const graph::NodeId n = g.node_count();
  if (source >= n) {
    throw std::out_of_range("layered_cd_broadcast: source out of range");
  }
  LayeredCdResult r;
  r.informed = 1;
  if (n == 1) {
    r.success = true;
    return r;
  }
  const radio::Round wave = static_cast<radio::Round>(d) + 2;
  const auto layer = beep_wave_layers(g, source,
                                      radio::CollisionModel::kDetection, wave);
  r.rounds = std::min<std::uint64_t>(wave, max_rounds);

  // participates[t % 3] is the Decay mask of round t: informed nodes whose
  // layer is t mod 3 (bit 0, the one lane).
  std::array<std::vector<std::uint64_t>, 3> participates;
  for (auto& mask : participates) mask.assign(n, 0);
  std::vector<std::uint8_t> informed(n, 0);
  auto inform = [&](graph::NodeId v) {
    informed[v] = 1;
    if (layer[v] != kNoLayer) participates[layer[v] % 3][v] = 1;
  };
  inform(source);

  radio::Network net(g, radio::CollisionModel::kDetection);
  const std::vector<radio::Payload> relay(n, message);
  std::array<util::Rng, 1> rng{util::Rng(seed)};
  radio::BatchOutcome out;
  const std::uint32_t lambda = schedule::decay_round_length(n);
  for (std::uint64_t t = 0; r.informed < n && r.rounds < max_rounds;
       ++t, ++r.rounds) {
    const auto step = static_cast<std::uint32_t>((t / 3) % lambda) + 1;
    schedule::decay_step_lanes(net, participates[t % 3], relay, step, rng,
                               out);
    for (const auto& dm : out.delivered) {
      if (informed[dm.node]) continue;
      inform(dm.node);
      ++r.informed;
    }
  }
  r.success = r.informed == n;
  return r;
}

}  // namespace radiocast::baselines
