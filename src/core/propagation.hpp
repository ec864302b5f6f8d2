// PropagationEngine: the windowed Intra-Cluster Propagation machinery that
// realises BOTH processes of Compete (Section 3).
//
// The observation that lets one engine serve both: Algorithm 2 (the
// background process) is exactly Algorithm 1 (the main process) with a
// trivial coarse clustering (one coarse cluster covering V), a fixed beta
// (D^-0.1) instead of a random one, a round-robin instead of a random
// sequence, and a longer curtail (log n / beta instead of
// log n / (beta log D)). So the engine is parameterised by:
//
//   * a "coarse" region partition (nodes of different regions never share
//     fine clusters; their window clocks are independent),
//   * a grid of fine TreeSchedules (clusterings computed inside regions),
//   * a choice function (coarse centre, sequence position) -> (schedule,
//     hop budget) implementing step 5's shared-randomness sequence or the
//     background's round-robin,
//
// and Compete instantiates it twice, interleaving them 1:1. The same
// engine runs a standalone ICP window (run_icp_window below): one region,
// one schedule, three passes. So the pipelined blocking rule lives only in
// wave_round and the Algorithm 4 stream only in background_round.
//
// The engine's unit is one physical round. Its rounds alternate between
// the scheduled wave (Algorithm 3's current pass, per-region
// desynchronised) and — when enabled — the engine's own Decay background
// stream (Algorithm 4), matching the paper's alternating construction.
//
// A round costs what the paper's processes do, not O(n):
//   * the wave visits this round's transmitting depth layer of each
//     region; only transmitters with a neighbour in another fine cluster
//     scan their neighbourhood for listeners they block;
//   * the Decay stream keeps the reached nodes in per-fine-cluster lists,
//     tosses one coordinated coin per cluster holding reached nodes, and
//     draws node coins only for the members of clusters whose coin passed.
// Pass boundaries reset a region's members, so every wave round also pays
// for the regions whose pass ends in it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/exponential_shifts.hpp"
#include "graph/graph.hpp"
#include "radio/network.hpp"
#include "schedule/bfs_schedule.hpp"
#include "util/rng.hpp"

namespace radiocast::core {

using graph::NodeId;
using radio::Payload;

/// What a region runs in its next window.
struct WindowChoice {
  std::uint32_t sched_index = 0;  // into Config::scheds
  std::uint32_t pass_hops = 1;    // the curtail ell
};

/// What the nodes know, shared by the engines of one run: best[v] is the
/// highest message v holds (radio::kNoPayload: none). learn() is the one
/// write; it counts in `known` the nodes reaching `winner`, the highest
/// message, so once each and in O(1). No winner set: nothing is counted.
struct Knowledge {
  std::vector<Payload> best;
  Payload winner = radio::kNoPayload;
  NodeId known = 0;
  void learn(NodeId v, Payload p) {
    if (best[v] != radio::kNoPayload && p <= best[v]) return;
    best[v] = p;
    if (p == winner) ++known;
  }
};

struct PropagationStats {
  std::uint64_t main_rounds = 0;       // scheduled-wave rounds
  std::uint64_t background_rounds = 0; // Algorithm 4 rounds
  std::uint64_t windows_started = 0;
  std::uint64_t wave_deliveries = 0;   // successful scheduled hops
  std::uint64_t wave_blocked = 0;      // hops lost to foreign transmitters
  std::uint64_t decay_deliveries = 0;
  std::uint64_t rescued = 0;           // risky nodes re-attached by decay
  std::uint64_t bg_coins = 0;          // coordinated cluster coins drawn
  std::uint64_t bg_candidates = 0;     // node coins drawn in passing clusters
  bool operator==(const PropagationStats&) const = default;
};

class PropagationEngine {
 public:
  struct Config {
    const graph::Graph* graph = nullptr;
    /// Region partition ("coarse" clustering). Fine schedules must have
    /// been computed with partition_regions over this partition's centres
    /// (or over the whole graph when this partition is trivial).
    const cluster::Partition* regions = nullptr;
    std::vector<const schedule::TreeSchedule*> scheds;
    std::function<WindowChoice(NodeId region_center, std::uint64_t pos)>
        choose;
    bool icp_background = true;  // Algorithm 4 stream
    std::uint64_t seed = 0;
  };

  explicit PropagationEngine(const Config& cfg);

  /// Runs the engine's next physical round over `know`: a wave round, or
  /// the Decay round (node coins from `rng`) that follows each wave round
  /// when the background stream is on.
  void round(Knowledge& know, util::Rng& rng);

  const PropagationStats& stats() const { return stats_; }

 private:
  // ---- static structure --------------------------------------------------
  const graph::Graph* g_;
  const cluster::Partition* regions_;
  std::vector<const schedule::TreeSchedule*> scheds_;
  std::function<WindowChoice(NodeId, std::uint64_t)> choose_;
  bool icp_background_;
  std::uint64_t seed_;
  radio::Network net_;  // physical medium for the Decay background stream

  std::uint32_t region_count_ = 0;
  std::vector<std::uint32_t> region_of_;     // dense region id per node
  std::vector<NodeId> region_center_;        // per dense id
  std::vector<std::uint32_t> member_off_;    // CSR: region -> member nodes
  std::vector<NodeId> member_;

  /// Per schedule: members of each region sorted by tree depth, with
  /// per-depth offsets, enabling O(#transmitters) wave rounds.
  struct SchedIndex {
    std::vector<NodeId> nodes;                // grouped by region, by depth
    std::vector<std::uint32_t> region_start;  // size region_count+1
    std::vector<std::uint32_t> depth_start;   // per region: start into off_
    std::vector<std::uint32_t> off;           // flattened depth offsets
    /// Bit v: v has a neighbour in another fine cluster (or out of
    /// scope). Only such transmitters can block a foreign listener.
    std::vector<std::uint64_t> boundary;
    std::uint32_t levels(std::uint32_t r) const {
      return depth_start[r + 1] - depth_start[r] - 1;
    }
    bool on_boundary(NodeId v) const {
      return (boundary[v >> 6] >> (v & 63)) & 1;
    }
  };
  std::vector<SchedIndex> index_;

  // ---- per-region window state -------------------------------------------
  enum class Phase : std::uint8_t { kOutA = 0, kInward = 1, kOutC = 2 };
  struct RegionState {
    std::uint64_t seq_pos = 0;
    WindowChoice choice{};
    Phase phase = Phase::kOutA;
    std::uint32_t phase_round = 0;
    std::uint32_t pass_len = 1;  // rounds per pass (hops, or hops*period)
    std::uint32_t span = 1;      // hop budget
  };
  std::vector<RegionState> rstate_;

  // ---- per-node wave state -----------------------------------------------
  std::vector<std::uint8_t> reached_;
  std::vector<Payload> upval_;
  std::vector<Payload> snap_;  // centre snapshot (entry used at centres)
  bool started_ = false;

  // ---- reached nodes by fine cluster (Decay background stream) ------------
  // head_[c] starts an intrusive list (through next_) of the reached nodes
  // whose centre under their region's current schedule is c. seq_[v] is
  // when v became reached: node coins are drawn in that order. Sequence
  // numbers are 32-bit; take_seq renumbers the reached nodes, in order,
  // when they run out.
  std::vector<NodeId> head_;
  std::vector<NodeId> next_;
  std::vector<std::uint32_t> seq_;
  std::uint32_t next_seq_ = 0;
  std::vector<NodeId> active_;  // centres whose list may be non-empty
  std::vector<std::uint8_t> is_active_;
  std::vector<std::uint32_t> wins_;  // ranks of this round's winning coins

  // Round stamp of the pipelined wave: a listener is blocked when a
  // transmitter of another fine cluster is in range. Eight bits; the
  // stamps are cleared each time the round id wraps.
  std::vector<std::uint8_t> blocked_at_;
  std::uint8_t round_id_ = 0;

  std::vector<NodeId> tx_nodes_;
  std::vector<Payload> tx_payload_;
  radio::SparseOutcome sparse_out_;

  // decay background clock
  std::uint64_t bg_clock_ = 0;
  std::uint32_t lambda_;

  PropagationStats stats_;

  // ---- helpers ------------------------------------------------------------
  void build_region_structures();
  void build_sched_index(std::size_t s);
  void start_window(std::uint32_t region, const std::vector<Payload>& best);
  void begin_phase(std::uint32_t region, Phase phase,
                   const std::vector<Payload>& best);
  void finish_inward(std::uint32_t region, Knowledge& know);
  void wave_round(Knowledge& know);
  void background_round(Knowledge& know, util::Rng& rng);
  void mark_reached(NodeId v, NodeId center);
  void reset_reached(NodeId v, bool keep_center);
  void link(NodeId v, NodeId center);
  std::uint32_t take_seq();

  friend struct PropagationEngineProbe;  // tests: sequence-number renumbering
};

/// One standalone Intra-Cluster Propagation window (Algorithm 3, with the
/// Algorithm 4 background stream interleaved 1:1 when enabled).
struct IcpParams {
  /// Hop budget ell of Intra-Cluster Propagation(ell).
  std::uint32_t pass_hops = 1;
  bool with_background = true;
  /// Keys of the background's coordinated cluster coins.
  std::uint64_t window_id = 0;
  std::uint64_t seed = 0;
};

/// Runs one full window over `best` (node -> highest known message,
/// radio::kNoPayload when none): outward wave, inward convergecast, outward
/// wave, each curtailed at min(pass_hops, sched.max_depth()) hops. It is a
/// PropagationEngine over the one-region partition with `sched` as its
/// only schedule, run for exactly one window. Physical rounds are
/// main_rounds + background_rounds.
PropagationStats run_icp_window(const graph::Graph& g,
                                const schedule::TreeSchedule& sched,
                                std::vector<Payload>& best,
                                const IcpParams& params, util::Rng& rng);

}  // namespace radiocast::core
