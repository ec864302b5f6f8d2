// The collision-detection contrast of E12 (the model of Ghaffari et al.
// [11], where a listener can tell a collision from silence).
//
//  * Beep wave: the source beeps in round 0; a node that first perceives
//    energy in round r (a message or, under CD, a detected collision)
//    takes layer r + 1 and beeps once, in round r + 1. Under CD every node
//    within `rounds` hops ends with its exact BFS distance. Without CD
//    the wave stalls wherever two frontier nodes share a listener (energy
//    detection IS collision detection), which is what E12's stall column
//    counts.
//
//  * Layered-CD broadcast: D + 2 wave rounds, then informed nodes of layer
//    L run Decay only in rounds t = L (mod 3), so adjacent layers never
//    collide and Decay only has to resolve same-layer contention. Each
//    Decay step therefore costs 3 physical rounds, and E12 measures about
//    twice BGI's rounds, not fewer. What CD buys here is the layering
//    itself (exact BFS layers in D + 1 rounds), not speed; the
//    asymptotically optimal O(D + log^6 n) algorithm of [11] is out of
//    scope.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.hpp"
#include "radio/model.hpp"

namespace radiocast::baselines {

/// Layer of a node the beep wave never reached.
constexpr std::uint32_t kNoLayer = std::numeric_limits<std::uint32_t>::max();

/// Runs the beep wave from `source` for at most `rounds` rounds under
/// `model` and returns each node's layer (kNoLayer where no energy
/// arrived). Deterministic: no randomness is involved.
std::vector<std::uint32_t> beep_wave_layers(const graph::Graph& g,
                                            graph::NodeId source,
                                            radio::CollisionModel model,
                                            radio::Round rounds);

struct LayeredCdResult {
  bool success = false;      // every node received `message`
  std::uint64_t rounds = 0;  // physical rounds, the D + 2 wave rounds included
  std::uint32_t informed = 0;
};

/// Layered-CD broadcast of `message` from `source` under
/// CollisionModel::kDetection: the beep wave with D + 2 = `d` + 2 rounds,
/// then layered Decay (step (t / 3) mod ceil(log2 n) + 1 at Decay round
/// t) until every node is informed or `max_rounds` physical rounds have
/// passed. Completion is checked after every round, so `rounds` is exact.
/// Deterministic in `seed`.
LayeredCdResult layered_cd_broadcast(const graph::Graph& g, std::uint32_t d,
                                     graph::NodeId source,
                                     radio::Payload message,
                                     std::uint64_t seed,
                                     std::uint64_t max_rounds);

}  // namespace radiocast::baselines
