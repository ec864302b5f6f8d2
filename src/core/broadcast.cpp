#include "core/broadcast.hpp"

namespace radiocast::core {

BroadcastResult broadcast(const graph::Graph& g, std::uint32_t diameter,
                          graph::NodeId source, radio::Payload message,
                          const CompeteParams& params, std::uint64_t seed) {
  const CompeteResult r =
      compete(g, diameter, {{source, message}}, params, seed);
  BroadcastResult out;
  out.success = r.success;
  out.rounds = r.rounds;
  out.precompute_rounds_charged = r.precompute_rounds_charged;
  out.informed = r.informed;
  out.deliveries = r.main_stats.wave_deliveries +
                   r.main_stats.decay_deliveries +
                   r.background_stats.wave_deliveries +
                   r.background_stats.decay_deliveries;
  out.message = message;
  return out;
}

BroadcastResult broadcast(const graph::Graph& g, std::uint32_t diameter,
                          graph::NodeId source, const CompeteParams& params,
                          std::uint64_t seed) {
  return broadcast(g, diameter, source,
                   static_cast<radio::Payload>(source) + 1, params, seed);
}

}  // namespace radiocast::core
