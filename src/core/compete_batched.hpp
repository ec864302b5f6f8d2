// Lane-batched Monte-Carlo drivers for the Decay-relay Compete primitive:
// run N independent seeded replications of the full protocol through the
// lanes of one radio::LaneExecutor, so (with a BatchNetwork on the
// bitslice backend) up to 64 seeds share every CSR traversal instead of
// re-walking the adjacency once per seed.
//
// The protocol is the Compete semantics restricted to Decay relaying, the
// classical yardsticks' rule set: every informed node relays the highest
// message it knows via synchronized Decay, densities cycling over 2^-1 ..
// 2^-cycle_depth, with every 8th cycle a full-depth one (2^-1 ..
// 2^-ceil(log2 n)) for congested spots, until every node knows max(S) or
// the round budget runs out. Each lane carries its own RNG stream and its
// own termination clock. The two classical yardsticks are:
//
//  * BGI (Bar-Yehuda-Goldreich-Itai 1992), the default params: every
//    cycle is full depth. O((D + log n) log n) rounds whp.
//  * CR/KP (Czumaj-Rytter 2003 / Kowalski-Pelc 2005 style), cr_params:
//    densities cycle only over 2^-1 .. 2^-(ceil(log2(n/D)) + 2) (capped
//    at the full depth), since the expected per-layer congestion is n/D,
//    plus the periodic full-depth cycle. O(D log(n/D) + log^2 n) rounds
//    whp, the best possible without spontaneous transmissions.
//
// Two routes, picked from the sources alone:
//   * single-valued — every source carries the same value (every
//     broadcast, sweep protocol `decay`). Every informed node relays that
//     value, so a node's knowledge in a lane is one bit: informed. Rounds
//     resolve masks-only (schedule::decay_step_lanes without `best`):
//     no knowledge planes are allocated, nothing is max-folded, and the
//     medium identifies no sender. Per round a node costs one mask word,
//     and `best` is filled once at the end from the informed bits. Since
//     no sender is needed, the RecoveryStrategy knob changes nothing, not
//     even the cost.
//   * multi-valued — each lane keeps a node-major knowledge plane (best);
//     deliveries max-fold into it inside the medium, which recovers each
//     delivery's sender per the RecoveryStrategy. Per-lane payload planes
//     let a node relay different values in different lanes.
// Both routes count, per lane, the nodes that know max(S), updated from
// the delivered masks (the multi-valued route reads best only at delivered
// lanes that have not reached the winner yet). Completion is tested after
// every round by comparing that count with n, so `rounds` is the exact
// round in which a lane finished.
//
// Determinism contract (pinned by tests/test_protocol_lanes.cpp): lane l
// of compete_batched(..., seeds) is byte-identical — success, rounds,
// informed count, transmission/delivery counters, and the whole best[]
// plane — to a 1-lane run over a scalar Network with seeds[l]. The
// paper's clustering-based Compete main process (core/compete.hpp) runs
// one seed at a time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/compete.hpp"
#include "graph/graph.hpp"
#include "radio/lane_executor.hpp"
#include "radio/medium.hpp"

namespace radiocast::core {

struct BatchedCompeteParams {
  /// Decay density cycle depth: probabilities cycle over 2^-1 ..
  /// 2^-cycle_depth. 0 = auto (ceil(log2 n), the BGI rule). Cycles are
  /// counted from 0; cycle k >= 1 with k % 8 == 0 runs at least the full
  /// ceil(log2 n) depth (CR's handling of congested spots).
  std::uint32_t cycle_depth = 0;
  /// Stop a lane after this many rounds even if nodes remain uninformed.
  std::uint64_t max_rounds = 1'000'000;
};

/// The CR/KP preset (see the file comment); BGI is the default params.
BatchedCompeteParams cr_params(std::uint32_t n, std::uint32_t diameter);

/// One lane's (= one seed's) replication result.
struct CompeteLaneResult {
  bool success = false;      // every node knew max(S) at termination
  std::uint64_t rounds = 0;  // physical rounds until completion or budget
  std::uint32_t informed = 0;
  radio::Payload winner = radio::kNoPayload;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  /// Final per-node knowledge (kNoPayload where nothing was learnt).
  std::vector<radio::Payload> best;
};

/// Runs seeds.size() independent replications of Decay-relay Compete(S)
/// through the lanes of `net` (seeds.size() must be in [1, net.lanes()]).
/// Lane l is fully determined by (topology, sources, params, seeds[l]).
std::vector<CompeteLaneResult> compete_batched(
    radio::LaneExecutor& net, const std::vector<CompeteSource>& sources,
    const BatchedCompeteParams& params, std::span<const std::uint64_t> seeds);

/// Convenience: runs the seeds through BatchNetworks over `g` of up to
/// radio::kMaxLanes lanes each on the given backend (bitslice = one
/// traversal per round for a whole batch); a lane depends only on its
/// seed, so any non-zero number of seeds may be passed. `recovery` pins the
/// backend's sender-recovery path (results are identical for every
/// setting — only the cost moves, and only for multi-valued sources).
std::vector<CompeteLaneResult> compete_batched(
    const graph::Graph& g, const std::vector<CompeteSource>& sources,
    const BatchedCompeteParams& params, std::span<const std::uint64_t> seeds,
    radio::MediumKind medium = radio::MediumKind::kBitslice,
    radio::RecoveryStrategy recovery = radio::RecoveryStrategy::kAuto);

/// Broadcast = Compete with S = {source}: N seeded replications of the
/// Decay-relay broadcast of `message` from `source`.
std::vector<CompeteLaneResult> broadcast_batched(
    const graph::Graph& g, graph::NodeId source, radio::Payload message,
    const BatchedCompeteParams& params, std::span<const std::uint64_t> seeds,
    radio::MediumKind medium = radio::MediumKind::kBitslice,
    radio::RecoveryStrategy recovery = radio::RecoveryStrategy::kAuto);

}  // namespace radiocast::core
