// All tunable constants of the Czumaj-Davies algorithm in one place.
//
// The paper fixes exponents (D^-0.5 coarse beta, 2^-j fine beta for j in
// [0.01 log D, 0.1 log D], D^0.2 fine clusterings, D^0.99 sequence length,
// curtail O(log n / (beta log D))) that only separate asymptotically; the
// defaults below keep the paper's values, and every experiment that scales
// them down documents the substitution (README "Fidelity decisions",
// scaled constants).
#pragma once

#include <cstdint>

#include "cluster/hierarchy.hpp"
#include "schedule/bfs_schedule.hpp"

namespace radiocast::core {

struct CompeteParams {
  /// Coarse + fine clustering structure (Algorithm 1 steps 1, 3, 5).
  cluster::HierarchyParams hierarchy{};

  /// Background process (Algorithm 2): beta = D^bg_beta_exponent and
  /// ceil(D^bg_reps_exponent) clusterings used round-robin.
  double bg_beta_exponent = -0.1;
  double bg_reps_exponent = 0.2;
  std::uint32_t max_bg_clusterings = 64;

  /// Main-process curtail constant: Intra-Cluster Propagation passes are
  /// cut after pass_hops = ceil(curtail_constant * log2(n) * 2^j / log2(D))
  /// hops (the paper's O(log n / (beta log D))).
  double curtail_constant = 2.0;

  /// Background-process curtail: pass_hops = ceil(bg_curtail_constant *
  /// log2(n) / beta_bg) (the paper's O(log n / beta)).
  double bg_curtail_constant = 1.0;

  /// Haeupler-Wajc emulation (baseline E9a): multiply the main curtail by
  /// log2(log2 n) — HW's per-clustering progress guarantee is weaker by
  /// exactly that factor (their expected distance to centre bound).
  bool hw_curtail = false;

  /// Ablation switches (E9).
  bool randomize_beta = true;        // false: fixed j = j_max, round-robin
  bool enable_background = true;     // Algorithm 2 stream on/off
  bool enable_icp_background = true; // Algorithm 4 stream on/off

  /// Schedule realisation (README "Fidelity decisions", the Lemma 2.3
  /// schedule abstraction).
  schedule::ScheduleMode mode = schedule::ScheduleMode::kPipelined;

  /// Round budget: stop after round_budget_factor * (theory bound) rounds
  /// even if not everyone is informed (prevents pathological runs from
  /// hanging benches); also an absolute cap. A run that does not complete
  /// stops at exactly min(budget, cap) rounds.
  double round_budget_factor = 60.0;
  std::uint64_t max_rounds_abs = 200'000'000;
};

}  // namespace radiocast::core
