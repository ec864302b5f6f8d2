// Intra-cluster broadcast schedules (the Lemma 2.3 substrate).
//
// A TreeSchedule materialises, for one Partition, the shifted-BFS tree of
// every cluster (depth, parent, children) plus an optional conflict-free
// transmission colouring. Two execution modes mirror README "Fidelity
// decisions", the Lemma 2.3 schedule abstraction:
//
//  * kPipelined — the schedule's *guarantee* (Lemma 2.3: a message moves to
//    distance ell in O(ell + polylog) rounds): a wave advances one hop per
//    round along the tree. Collisions *between* clusters are still honest:
//    a listener with a foreign-cluster transmitter in range that round is
//    blocked (the paper's risky-node failure mode, Lemma 4.2). The rule is
//    enforced in one place, core::PropagationEngine::wave_round.
//
//  * kColored — a physically collision-free slot assignment inside each
//    cluster, computed by greedy 2-hop conflict colouring: two same-cluster
//    nodes may share a slot only if neither can garble a transmission
//    intended for the other's tree-children. Cross-cluster collisions are
//    naturally honest. A wave advances one hop per `period` rounds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/exponential_shifts.hpp"
#include "graph/graph.hpp"

namespace radiocast::schedule {

using cluster::Partition;
using graph::NodeId;

enum class ScheduleMode : std::uint8_t { kPipelined, kColored };

class TreeSchedule {
 public:
  /// Builds the tree structure; computes colours only when `mode` is
  /// kColored (colouring costs O(sum of 2-hop neighbourhood sizes)).
  TreeSchedule(const graph::Graph& g, const Partition& p, ScheduleMode mode);

  const Partition& partition() const { return *part_; }
  ScheduleMode mode() const { return mode_; }

  std::uint32_t depth(NodeId v) const { return part_->dist_to_center[v]; }
  NodeId parent(NodeId v) const { return part_->parent[v]; }
  NodeId center(NodeId v) const { return part_->center[v]; }
  bool in_scope(NodeId v) const { return part_->in_scope(v); }

  std::span<const NodeId> children(NodeId v) const {
    return {child_.data() + child_off_[v], child_.data() + child_off_[v + 1]};
  }

  /// Colour of v (kColored mode only).
  std::uint32_t color(NodeId v) const { return color_[v]; }
  /// Slot period: 1 in kPipelined mode; max colours in kColored mode.
  std::uint32_t period() const { return period_; }

  /// Max cluster depth over all in-scope nodes.
  std::uint32_t max_depth() const { return max_depth_; }

  /// Rounds needed for a wave to cover distance ell under this schedule.
  std::uint64_t rounds_for_distance(std::uint32_t ell) const {
    return static_cast<std::uint64_t>(period_) * ell;
  }

 private:
  const graph::Graph* graph_;
  const Partition* part_;
  ScheduleMode mode_;
  std::vector<std::uint64_t> child_off_;
  std::vector<NodeId> child_;
  std::vector<std::uint32_t> color_;
  std::uint32_t period_ = 1;
  std::uint32_t max_depth_ = 0;

  void compute_coloring(const graph::Graph& g);
};

}  // namespace radiocast::schedule
