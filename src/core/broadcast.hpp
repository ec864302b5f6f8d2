// Broadcasting via Compete({s}) — Theorem 5.1: O(D log n / log D +
// polylog n) rounds with high probability.
#pragma once

#include <cstdint>

#include "core/compete.hpp"

namespace radiocast::core {

struct BroadcastResult {
  bool success = false;            // every node learnt the source message
  std::uint64_t rounds = 0;        // propagation rounds
  std::uint64_t precompute_rounds_charged = 0;
  std::uint32_t informed = 0;      // nodes informed at termination
  std::uint64_t deliveries = 0;    // wave + Decay, both engines
  radio::Payload message = 0;
};

/// Broadcasts `message` from `source` to every node (Compete with S={s}).
BroadcastResult broadcast(const graph::Graph& g, std::uint32_t diameter,
                          graph::NodeId source, radio::Payload message,
                          const CompeteParams& params, std::uint64_t seed);

/// Convenience: default message (the source's id).
BroadcastResult broadcast(const graph::Graph& g, std::uint32_t diameter,
                          graph::NodeId source, const CompeteParams& params,
                          std::uint64_t seed);

}  // namespace radiocast::core
