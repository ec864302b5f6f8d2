// Two-level clustering hierarchy of Algorithm 1 (steps 1, 3, 5):
//   * one coarse clustering with beta = D^-0.5 (shared randomness domains),
//   * for each integer j in [0.01 log D, 0.1 log D], `reps` = D^0.2 fine
//     clusterings with beta = 2^-j, computed independently INSIDE each
//     coarse cluster (fine clusters never cross coarse boundaries),
//   * per-coarse-cluster pseudo-random sequences over (j, rep) choices
//     (step 5's D^0.99-length sequence; realised lazily and deterministically
//     from the run seed + coarse centre id + position).
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/exponential_shifts.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace radiocast::cluster {

struct HierarchyParams {
  /// Coarse clustering rate: beta = D^coarse_beta_exponent.
  double coarse_beta_exponent = -0.5;
  /// Fine j range as fractions of log2(D): j in [j_min_frac*log2 D,
  /// j_max_frac*log2 D] (paper: 0.01 and 0.1).
  double j_min_frac = 0.01;
  double j_max_frac = 0.1;
  /// Number of fine clusterings per j: ceil(D^fine_reps_exponent).
  double fine_reps_exponent = 0.2;
  /// Hard cap on total fine clusterings (memory guard for scaled runs).
  std::uint32_t max_total_fine = 256;
};

/// The realised hierarchy.
class Hierarchy {
 public:
  Hierarchy(const graph::Graph& g, std::uint32_t diameter,
            const HierarchyParams& params, util::Rng& rng);

  const Partition& coarse() const { return coarse_; }

  /// Fine j values actually used (ascending; at least one).
  const std::vector<std::uint32_t>& j_values() const { return j_values_; }
  std::uint32_t reps_per_j() const { return reps_; }

  /// Fine partition for (j index, repetition).
  const Partition& fine(std::size_t j_index, std::uint32_t rep) const {
    return fine_[j_index * reps_ + rep];
  }
  std::size_t fine_count() const { return fine_.size(); }

  /// Algorithm 1 step 5: the coarse cluster of `coarse_center` uses, at
  /// sequence position `pos`, the fine clustering returned here. The choice
  /// is uniform over (j, rep) pairs and deterministic in
  /// (seed, coarse_center, pos) — this models the centre drawing the random
  /// sequence once and distributing it within its cluster.
  struct FineChoice {
    std::size_t j_index;
    std::uint32_t rep;
    std::uint32_t j;       // the actual exponent (beta = 2^-j)
    double beta;
  };
  FineChoice sequence_choice(NodeId coarse_center, std::uint64_t pos) const;

  /// Ablation hook: when false, sequence_choice always picks j = j_max,
  /// rep = pos % reps (round-robin) — "fixed beta" mode.
  void set_randomize(bool randomize) { randomize_ = randomize; }

  /// Total rounds the distributed precomputation of the whole hierarchy
  /// would cost (Lemma 2.1 clusterings + Lemma 2.3 schedules + sequence
  /// dissemination; see README "Fidelity decisions", charged precompute).
  std::uint64_t charged_precompute_rounds() const { return charged_rounds_; }

 private:
  Partition coarse_;
  std::vector<std::uint32_t> j_values_;
  std::uint32_t reps_ = 1;
  std::vector<Partition> fine_;
  std::uint64_t seq_seed_ = 0;
  std::uint64_t charged_rounds_ = 0;
  bool randomize_ = true;
};

}  // namespace radiocast::cluster
