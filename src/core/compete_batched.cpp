#include "core/compete_batched.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "radio/batch_network.hpp"
#include "schedule/decay.hpp"
#include "util/rng.hpp"

namespace radiocast::core {
namespace {

/// Every kFullCycleEvery-th density cycle (counting from 0, cycle 0
/// excluded) runs at least the full decay_round_length(n) depth: CR's
/// handling of congested spots, a no-op when cycle_depth is already full.
constexpr std::uint32_t kFullCycleEvery = 8;

}  // namespace

BatchedCompeteParams cr_params(std::uint32_t n, std::uint32_t diameter) {
  const double ratio = std::max(
      2.0, static_cast<double>(n) / std::max<std::uint32_t>(1, diameter));
  return {.cycle_depth = std::min(
              static_cast<std::uint32_t>(std::ceil(std::log2(ratio))) + 2,
              schedule::decay_round_length(n))};
}

std::vector<CompeteLaneResult> compete_batched(
    radio::LaneExecutor& net, const std::vector<CompeteSource>& sources,
    const BatchedCompeteParams& params, std::span<const std::uint64_t> seeds) {
  const NodeId n = net.node_count();
  if (n == 0) throw std::invalid_argument("compete_batched: empty graph");
  const int lanes = static_cast<int>(seeds.size());
  if (lanes < 1 || lanes > net.lanes()) {
    throw std::invalid_argument(
        "compete_batched: seeds.size() must be in [1, net.lanes()]");
  }
  const std::uint64_t lane_mask = radio::lane_mask(lanes);

  std::vector<CompeteLaneResult> results(static_cast<std::size_t>(lanes));
  radio::Payload winner = radio::kNoPayload;
  for (const auto& s : sources) {
    if (s.node >= n) {
      throw std::out_of_range("compete_batched: source out of range");
    }
    if (winner == radio::kNoPayload || s.value > winner) winner = s.value;
  }
  auto finish_lane = [&](int l, bool success, std::uint64_t rounds) {
    CompeteLaneResult& r = results[static_cast<std::size_t>(l)];
    r.success = success;
    r.rounds = rounds;
    r.winner = winner;
  };
  if (sources.empty()) {
    // Vacuous: nothing to propagate (mirrors compete()).
    for (int l = 0; l < lanes; ++l) {
      finish_lane(l, true, 0);
      results[static_cast<std::size_t>(l)].best.assign(n, radio::kNoPayload);
      results[static_cast<std::size_t>(l)].informed = 0;
    }
    return results;
  }

  // Single-valued sources (every broadcast): every informed node relays
  // the winner, so a node's knowledge in a lane is one bit — informed[v].
  // The rounds then resolve masks-only: no knowledge planes, no max-fold,
  // no sender recovery. Otherwise each lane keeps node-major knowledge
  // planes (node v owns best[v*lanes, (v+1)*lanes), one contiguous run per
  // listener for the medium's max-fold) and relays what it knows.
  const bool single_valued =
      std::all_of(sources.begin(), sources.end(),
                  [&](const CompeteSource& s) { return s.value == winner; });
  std::vector<radio::Payload> best;
  if (!single_valued) {
    best.assign(static_cast<std::size_t>(lanes) * n, radio::kNoPayload);
  }
  const radio::KnowledgePlanes bestk =
      radio::KnowledgePlanes::node_major(best, n);
  // The single-valued relay transmits the winner everywhere: one shared
  // plane, which the masks-only resolve never even reads on the batch
  // kernels.
  const std::vector<radio::Payload> relay(single_valued ? n : 0, winner);
  const radio::PayloadPlanes planes =
      single_valued ? radio::PayloadPlanes(relay)
                    : radio::PayloadPlanes::node_major(best, n);

  // Bit l of informed[v]: v knows something in lane l (and so relays).
  // Bit l of knows[v]: v knows the winner in lane l — the same words as
  // informed when single-valued. known[l] counts the set bits per lane,
  // so completion is a compare, not an O(n) scan.
  std::vector<std::uint64_t> informed(n, 0);
  std::vector<std::uint64_t> knows_winner(single_valued ? 0 : n, 0);
  std::vector<std::uint64_t>& knows = single_valued ? informed : knows_winner;
  std::uint32_t seeded = 0;
  for (const auto& s : sources) {
    if (s.value == winner && knows[s.node] == 0) {
      knows[s.node] = lane_mask;
      ++seeded;
    }
    informed[s.node] = lane_mask;
    if (!single_valued) {
      for (int l = 0; l < lanes; ++l) {
        radio::Payload& b = bestk.at(l, s.node);
        if (b == radio::kNoPayload || s.value > b) b = s.value;
      }
    }
  }
  std::array<std::uint32_t, radio::kMaxLanes> known{};
  known.fill(seeded);

  std::vector<util::Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(lanes));
  for (const std::uint64_t seed : seeds) rngs.emplace_back(seed);

  const std::uint32_t full_depth = schedule::decay_round_length(n);
  const std::uint32_t depth =
      params.cycle_depth == 0 ? full_depth
                              : std::max<std::uint32_t>(1, params.cycle_depth);
  const std::uint32_t full_cycle_len = std::max(depth, full_depth);

  std::uint64_t active = lane_mask;
  if (seeded == n) {
    for (int l = 0; l < lanes; ++l) finish_lane(l, true, 0);
    active = 0;
  }

  std::vector<std::uint64_t> participates(n, 0);
  radio::BatchOutcome out;
  std::uint64_t round = 0;
  // The density schedule is shared by all lanes: step (1-based) within
  // cycle `cycle`, whose length is full_cycle_len on CR's full cycles.
  std::uint32_t step = 1;
  std::uint32_t cycle = 0;
  std::uint32_t cycle_len = depth;
  while (active != 0 && round < params.max_rounds) {
    // Done lanes stop transmitting: their planes and counters are frozen
    // at the values a standalone run would have terminated with (the coin
    // words their streams keep yielding can no longer influence anything).
    for (NodeId v = 0; v < n; ++v) participates[v] = informed[v] & active;
    if (single_valued) {
      schedule::decay_step_lanes(net, participates, planes, step, rngs, out);
    } else {
      schedule::decay_step_lanes(net, participates, planes, step, bestk, rngs,
                                 out);
    }
    for (const auto& dm : out.delivered) {
      // Delivered lanes are active lanes. A fold may deliver a lower value,
      // so only lanes whose best reached the winner count as knowing it.
      std::uint64_t fresh = dm.lanes & ~knows[dm.node];
      if (!single_valued) {
        for (std::uint64_t scan = fresh; scan != 0; scan &= scan - 1) {
          const int l = std::countr_zero(scan);
          if (bestk.at(l, dm.node) != winner) fresh &= ~(std::uint64_t{1} << l);
        }
      }
      informed[dm.node] |= dm.lanes;
      knows[dm.node] |= fresh;
      for (; fresh != 0; fresh &= fresh - 1) ++known[std::countr_zero(fresh)];
    }
    ++round;
    if (++step > cycle_len) {
      step = 1;
      ++cycle;
      cycle_len = cycle % kFullCycleEvery == 0 ? full_cycle_len : depth;
    }
    for (std::uint64_t scan = active; scan != 0; scan &= scan - 1) {
      const int l = std::countr_zero(scan);
      results[static_cast<std::size_t>(l)].transmissions +=
          out.transmitter_count[l];
      results[static_cast<std::size_t>(l)].deliveries +=
          out.delivered_count[l];
      if (known[l] == n) {
        finish_lane(l, true, round);
        active &= ~(std::uint64_t{1} << l);
      }
    }
  }
  // Lanes still active ran out of budget.
  for (std::uint64_t scan = active; scan != 0; scan &= scan - 1) {
    finish_lane(std::countr_zero(scan), false, round);
  }

  for (int l = 0; l < lanes; ++l) {
    CompeteLaneResult& r = results[static_cast<std::size_t>(l)];
    r.informed = known[l];
    r.best.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      r.best[v] = !single_valued          ? bestk.at(l, v)
                  : (informed[v] >> l & 1) ? winner
                                           : radio::kNoPayload;
    }
  }
  return results;
}

std::vector<CompeteLaneResult> compete_batched(
    const graph::Graph& g, const std::vector<CompeteSource>& sources,
    const BatchedCompeteParams& params, std::span<const std::uint64_t> seeds,
    radio::MediumKind medium, radio::RecoveryStrategy recovery) {
  if (seeds.empty()) {
    throw std::invalid_argument("compete_batched: no seeds");
  }
  std::vector<CompeteLaneResult> results;
  for (std::size_t first = 0; first < seeds.size();) {
    const std::size_t count = std::min<std::size_t>(seeds.size() - first,
                                                    radio::kMaxLanes);
    radio::BatchNetwork net(g, static_cast<int>(count),
                            radio::CollisionModel::kNoDetection, medium,
                            recovery);
    auto batch =
        compete_batched(net, sources, params, seeds.subspan(first, count));
    std::move(batch.begin(), batch.end(), std::back_inserter(results));
    first += count;
  }
  return results;
}

std::vector<CompeteLaneResult> broadcast_batched(
    const graph::Graph& g, graph::NodeId source, radio::Payload message,
    const BatchedCompeteParams& params, std::span<const std::uint64_t> seeds,
    radio::MediumKind medium, radio::RecoveryStrategy recovery) {
  return compete_batched(g, {{source, message}}, params, seeds, medium,
                         recovery);
}

}  // namespace radiocast::core
