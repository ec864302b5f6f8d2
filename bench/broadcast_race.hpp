// Shared body of E1 (broadcast-vs-d) and E2 (broadcast-vs-n): races the
// paper's broadcast (cd), Haeupler-Wajc (hw) and the two Decay
// yardsticks (bgi, cr) on one path-of-cliques instance with the same
// seeds, and records one long-format row per algorithm with its
// core/theory bound overlay.
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <vector>

#include "baselines/hw_broadcast.hpp"
#include "core/broadcast.hpp"
#include "core/compete_batched.hpp"
#include "core/theory.hpp"
#include "exp/accumulator.hpp"
#include "exp/report.hpp"
#include "radio/medium.hpp"
#include "sim/instances.hpp"
#include "sim/runner.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace radiocast::bench {

/// Appends the cd, hw, bgi and cr rows for `inst` to `t` and `points`.
/// The rows carry param d = `d_target`; the bounds are evaluated at `n`
/// and the instance's diameter. Returns cd's accumulator.
inline exp::Accumulator race_broadcasts(sim::Runner& runner,
                                        const sim::Instance& inst,
                                        graph::NodeId n,
                                        graph::NodeId d_target,
                                        std::span<const std::uint64_t> seeds,
                                        util::Table& t, util::Json& points) {
  const int reps = static_cast<int>(seeds.size());
  const std::array<core::BatchedCompeteParams, 2> presets{
      core::BatchedCompeteParams{},  // BGI
      core::cr_params(inst.g.node_count(), inst.diameter)};
  // One pool map: BGI and CR as one lane-batched relay each over all
  // seeds (first, as the longest tasks), then cd and hw one seed at a
  // time.
  struct Task {
    std::vector<core::CompeteLaneResult> relay;
    std::array<core::BroadcastResult, 2> cd_hw;
  };
  const auto tasks = runner.map(2 + reps, [&](int i) {
    Task task;
    if (i < 2) {
      task.relay = core::broadcast_batched(
          inst.g, 0, 7, presets[static_cast<std::size_t>(i)], seeds);
      return task;
    }
    const std::uint64_t s = seeds[static_cast<std::size_t>(i - 2)];
    task.cd_hw = {
        core::broadcast(inst.g, inst.diameter, 0, 7, core::CompeteParams{},
                        s),
        baselines::hw_broadcast(inst.g, inst.diameter, 0, 7, s)};
    return task;
  });

  constexpr std::array<const char*, 4> kNames{"cd", "hw", "bgi", "cr"};
  const std::array<double, 4> bounds{
      core::theory::bound_cd(n, inst.diameter),
      core::theory::bound_hw(n, inst.diameter),
      core::theory::bound_bgi(n, inst.diameter),
      core::theory::bound_crkp(n, inst.diameter)};
  exp::Accumulator cd;
  for (std::size_t a = 0; a < kNames.size(); ++a) {
    exp::Accumulator acc;
    const bool relay = a >= 2;
    if (relay) {
      for (const auto& r : tasks[a - 2].relay) {
        acc.add(r.success, static_cast<double>(r.rounds),
                static_cast<double>(r.deliveries),
                static_cast<double>(r.transmissions),
                static_cast<double>(r.informed));
      }
    } else {
      for (int rep = 0; rep < reps; ++rep) {
        const core::BroadcastResult& r =
            tasks[static_cast<std::size_t>(2 + rep)].cd_hw[a];
        acc.add(r.success, static_cast<double>(r.rounds),
                static_cast<double>(r.deliveries));
      }
    }
    acc.set_theory_bound(bounds[a]);
    const exp::PointMeta meta{
        .family = "cliquepath",
        .param_name = "d",
        .param = static_cast<double>(d_target),
        .n = inst.g.node_count(),
        .diameter = inst.diameter,
        .protocol = kNames[a],
        .medium = relay ? "bitslice" : "scalar",
        .recovery = relay ? "auto" : "",
        .lanes = relay ? std::min(reps, radio::kMaxLanes) : 1};
    exp::add_long_row(t, meta, acc, /*timing=*/false);
    points.push_back(exp::point_json(meta, acc, /*timing=*/false));
    if (a == 0) cd = acc;
  }
  return cd;
}

}  // namespace radiocast::bench
