#include "cluster/exponential_shifts.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/math.hpp"

namespace radiocast::cluster {

Partition::DenseIds Partition::dense_ids() const {
  DenseIds d;
  const NodeId n = node_count();
  d.id_of_node.assign(n, graph::kInvalidNode);
  std::vector<NodeId> center_to_dense(n, graph::kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId c = center[v];
    if (c == graph::kInvalidNode) continue;
    if (center_to_dense[c] == graph::kInvalidNode) {
      center_to_dense[c] = static_cast<NodeId>(d.center_of_id.size());
      d.center_of_id.push_back(c);
    }
    d.id_of_node[v] = center_to_dense[c];
  }
  return d;
}

namespace {

struct QueueEntry {
  double key;  // delta_c - dist(c, v) of the candidate assignment
  NodeId node;
  NodeId center;
  NodeId via;  // neighbour we'd adopt as tree parent
  std::uint32_t hops;
  bool operator<(const QueueEntry& o) const {
    if (key != o.key) return key < o.key;
    return center > o.center;  // ties: smaller centre id wins (max-heap)
  }
};

/// The max-Dijkstra behind every Partition form. `in_scope(v)` says whether
/// v takes part; `linked(u, w)` whether edge (u, w) counts, asked only for
/// an in-scope u, so it need only test w (and a region-scoped run does one
/// region compare per edge).
template <typename InScope, typename Linked>
Partition run_partition(const graph::Graph& g, double beta,
                        const InScope& in_scope, const Linked& linked,
                        util::Rng& rng) {
  if (beta <= 0.0) {
    throw std::invalid_argument("partition: beta must be positive");
  }
  const NodeId n = g.node_count();
  Partition p;
  p.beta = beta;
  p.center.assign(n, graph::kInvalidNode);
  p.dist_to_center.assign(n, 0);
  p.parent.assign(n, graph::kInvalidNode);
  p.delta.assign(n, 0.0);

  // Each node starts as a candidate centre for itself with key delta_v.
  // A max-Dijkstra over keys delta_c - dist(c, v) assigns every node the
  // centre maximising the shifted distance (exactly the MPX rule). Shifts
  // are continuous so ties have probability zero; we still break ties
  // deterministically (smaller centre id) for bit-reproducible runs. Tree
  // parents also depend on the heap's order among equal (key, centre)
  // entries, so the heap is std::push_heap/pop_heap over one vector
  // reserved up front: the exact operation sequence of std::priority_queue.
  std::vector<QueueEntry> heap;
  heap.reserve(2 * static_cast<std::size_t>(n));
  std::vector<double> best_key(n, -std::numeric_limits<double>::infinity());
  for (NodeId v = 0; v < n; ++v) {
    if (!in_scope(v)) continue;
    p.delta[v] = rng.exponential(beta);
    best_key[v] = p.delta[v];
    heap.push_back({p.delta[v], v, v, v, 0});
    std::push_heap(heap.begin(), heap.end());
  }
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    const QueueEntry e = heap.back();
    heap.pop_back();
    if (p.center[e.node] != graph::kInvalidNode) continue;  // settled
    if (e.key < best_key[e.node]) continue;                 // stale
    p.center[e.node] = e.center;
    p.dist_to_center[e.node] = e.hops;
    p.parent[e.node] = e.via;
    for (NodeId w : g.neighbors(e.node)) {
      if (!linked(e.node, w)) continue;
      if (p.center[w] != graph::kInvalidNode) continue;
      const double key = e.key - 1.0;
      if (key > best_key[w]) {
        best_key[w] = key;
        heap.push_back({key, w, e.center, e.node, e.hops + 1});
        std::push_heap(heap.begin(), heap.end());
      }
    }
  }
  return p;
}

}  // namespace

Partition partition(const graph::Graph& g, double beta, util::Rng& rng) {
  return run_partition(
      g, beta, [](NodeId) { return true; },
      [](NodeId, NodeId) { return true; }, rng);
}

Partition partition_masked(const graph::Graph& g, double beta,
                           const std::vector<std::uint8_t>& mask,
                           util::Rng& rng) {
  if (mask.size() != g.node_count()) {
    throw std::invalid_argument("partition_masked: mask size mismatch");
  }
  return run_partition(
      g, beta, [&mask](NodeId v) { return mask[v] != 0; },
      [&mask](NodeId, NodeId w) { return mask[w] != 0; }, rng);
}

Partition partition_regions(const graph::Graph& g, double beta,
                            const std::vector<NodeId>& region,
                            util::Rng& rng) {
  if (region.size() != g.node_count()) {
    throw std::invalid_argument("partition_regions: region size mismatch");
  }
  return run_partition(
      g, beta,
      [&region](NodeId v) { return region[v] != graph::kInvalidNode; },
      [&region](NodeId u, NodeId w) { return region[w] == region[u]; }, rng);
}

Partition trivial_partition(const graph::Graph& g) {
  Partition p;
  const NodeId n = g.node_count();
  p.beta = 1.0;
  p.center.assign(n, 0);
  p.dist_to_center.assign(n, 0);
  p.parent.assign(n, 0);
  p.delta.assign(n, 0.0);
  return p;
}

std::uint64_t precompute_rounds(std::uint32_t n, double beta) {
  const double logn = util::safe_log2(static_cast<double>(n));
  return static_cast<std::uint64_t>(std::ceil(logn * logn * logn / beta));
}

}  // namespace radiocast::cluster
