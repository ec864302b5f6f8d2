// Lane-parallel protocol execution: real protocol cores (not synthetic
// floods) running their Monte-Carlo replications through BatchNetwork
// lanes vs one scalar Network run per seed.
//
// Part 1 — lane-batched Decay. A 64-seed Monte-Carlo of repeated Decay
// rounds (every node participates, relaying a fixed value) on a Gnp
// instance: the scalar rows drive the lane-generic decay_round_lanes
// through a 1-lane Network per seed (sim::Runner::replicate); the lanes
// rows drive the same code through a 64-lane bitslice BatchNetwork
// (Runner::replicate_batched), so all seeds share each CSR traversal.
// Both sides draw the same per-lane coin streams, so the per-seed results
// are byte-identical (tests/test_protocol_lanes.cpp) and the comparison
// is pure execution cost. Acceptance bar: lanes >= 4x scalar reps/s.
//
// Part 2 — lane-batched broadcast/Compete. The full Decay-relay Compete
// protocol (core::broadcast_batched / compete_batched): per-lane payload
// planes carry each lane's own best[] knowledge, lanes terminate on their
// own clocks, and the batch returns per-seed success/rounds identical to
// per-seed scalar runs.
//
// --recovery=rowscan|auto pins the batch medium's sender-recovery path
// (auto when absent); every JSON record carries the strategy plus the
// medium's per-phase nanosecond breakdown (kernel traversal vs output scan
// vs sender recovery), so the recovery hot spot is measured, not asserted.
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/compete_batched.hpp"
#include "graph/generators.hpp"
#include "radio/batch_network.hpp"
#include "radio/network.hpp"
#include "schedule/decay.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

using namespace radiocast;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr radio::Payload kDecayValue = 7;

/// One replication (= one lane batch) of Part 1's Decay workload: all
/// nodes participate for `cycles` full Decay rounds. Returns one
/// {rounds, deliveries, wall ms} vector per lane; `phases` receives the
/// medium's per-phase breakdown for the whole batch.
std::vector<std::vector<double>> decay_lanes_body(
    const graph::Graph& g, radio::LaneExecutor& net, int cycles,
    const std::vector<std::uint64_t>& seeds, radio::PhaseTimers& phases) {
  const double t0 = now_ms();
  const graph::NodeId n = g.node_count();
  const int lanes = static_cast<int>(seeds.size());
  const std::uint64_t lane_mask = radio::lane_mask(lanes);
  net.medium().reset_phase_timers();
  std::vector<util::Rng> rngs;
  rngs.reserve(seeds.size());
  for (const std::uint64_t s : seeds) rngs.emplace_back(s);
  const std::vector<std::uint64_t> participates(n, lane_mask);
  const std::vector<radio::Payload> payload(n, kDecayValue);
  // Node-major knowledge planes: the layout the batched cores use, so the
  // bench measures the contiguous per-listener fold path.
  std::vector<radio::Payload> best(static_cast<std::size_t>(lanes) * n,
                                   radio::kNoPayload);
  const radio::KnowledgePlanes bestk =
      radio::KnowledgePlanes::node_major(best, n);
  radio::BatchOutcome out;
  std::vector<std::uint64_t> delivered(static_cast<std::size_t>(lanes), 0);
  const std::uint32_t steps = schedule::decay_round_length(n);
  for (int c = 0; c < cycles; ++c) {
    for (std::uint32_t s = 1; s <= steps; ++s) {
      schedule::decay_step_lanes(net, participates, payload, s, bestk, rngs,
                                 out);
      for (int l = 0; l < lanes; ++l) {
        delivered[static_cast<std::size_t>(l)] += out.delivered_count[l];
      }
    }
  }
  phases = net.medium().phase_timers();
  const double rounds = static_cast<double>(cycles) * steps;
  const double wall = now_ms() - t0;
  std::vector<std::vector<double>> result;
  result.reserve(seeds.size());
  for (int l = 0; l < lanes; ++l) {
    result.push_back({rounds,
                      static_cast<double>(delivered[static_cast<std::size_t>(l)]),
                      wall / lanes});
  }
  return result;
}

/// Each replication's JSON record carries its share of the batch's phase
/// breakdown, mirroring how the batch wall time is attributed per lane.
sim::ReplicationRecord make_record(const std::string& label, int rep,
                                   const std::vector<double>& metrics,
                                   const std::string& medium, int lanes,
                                   const std::string& recovery,
                                   const radio::PhaseTimers& phases) {
  sim::ReplicationRecord r;
  r.label = label;
  r.rep = rep;
  r.rounds = metrics[0];
  r.deliveries = metrics[1];
  r.wall_ms = metrics[2];
  r.medium = medium;
  r.lanes = lanes;
  r.recovery = recovery;
  r.phase_traverse_ns = static_cast<double>(phases.traverse_ns) / lanes;
  r.phase_output_ns = static_cast<double>(phases.output_ns) / lanes;
  r.phase_recover_ns = static_cast<double>(phases.recover_ns) / lanes;
  return r;
}

std::string phase_note(const std::string& label,
                       const radio::PhaseTimers& phases) {
  auto ms = [](std::uint64_t ns) {
    return std::to_string(ns / 1000000) + "." +
           std::to_string(ns / 100000 % 10) + " ms";
  };
  return "(" + label + " phase split per batch: traverse " +
         ms(phases.traverse_ns) + ", output " + ms(phases.output_ns) +
         ", recover " + ms(phases.recover_ns) + "; recovery rounds: " +
         std::to_string(phases.rowscan_rounds) + " rowscan / " +
         std::to_string(phases.constfold_rounds) + " constfold)";
}

}  // namespace

RADIOCAST_SCENARIO(protocol_lanes, "protocol-lanes",
                   "real protocol cores through BatchNetwork lanes: "
                   "lane-batched Decay and Decay-relay broadcast/Compete "
                   "vs per-seed scalar execution") {
  const bool quick = ctx.quick();
  const std::uint64_t seed = ctx.seed(17);
  const int reps = ctx.reps(64, 64);
  // The scalar rows are the per-seed reference; --medium selects the
  // backend the lane-batched rows run on (bitslice unless overridden) and
  // --recovery pins its sender-recovery path (auto otherwise).
  const radio::MediumKind lanes_medium =
      ctx.cli.has("medium") ? ctx.medium_kind() : radio::MediumKind::kBitslice;
  const std::string lanes_medium_name{radio::to_string(lanes_medium)};
  const radio::RecoveryStrategy recovery = ctx.recovery_strategy();
  const std::string recovery_name{radio::to_string(recovery)};

  auto add_row = [&](util::Table& t, const std::string& label, int reps_n,
                     const std::vector<util::OnlineStats>& stats, double wall,
                     double base_wall) {
    t.row()
        .add(label)
        .add(static_cast<double>(reps_n), 0)
        .add(stats[0].mean(), 1)
        .add(stats[2].count() > 0 ? stats[2].mean() : 0.0, 3)
        .add(wall, 1)
        .add(wall > 0 ? reps_n * 1e3 / wall : 0.0, 1)
        .add(base_wall > 0 && wall > 0 ? base_wall / wall : 1.0, 2);
  };

  // ---- Part 1: lane-batched Decay ----------------------------------------
  {
    util::Rng grng(seed);
    const graph::NodeId n = quick ? 2000 : 24000;
    const double avg_deg = quick ? 16.0 : 12.0;
    const graph::Graph g = graph::gnp(n, avg_deg / n, grng);
    const int cycles = quick ? 4 : 8;

    util::Table t({"protocol", "reps", "rounds", "wall/rep ms", "wall ms",
                   "reps/s", "speedup"});
    double scalar_wall = 0.0;
    radio::PhaseTimers lanes_phases;
    {
      const double t0 = now_ms();
      const auto stats = ctx.runner.replicate(
          reps, seed, 3, [&](int rep, std::uint64_t rep_seed) {
            radio::Network net(g);
            radio::PhaseTimers phases;
            auto lanes = decay_lanes_body(g, net, cycles, {rep_seed}, phases);
            ctx.record(make_record("decay-scalar", rep, lanes[0], "scalar", 1,
                                   "", phases));
            return lanes[0];
          });
      scalar_wall = now_ms() - t0;
      add_row(t, "decay-scalar", reps, stats, scalar_wall, scalar_wall);
    }
    {
      const double t0 = now_ms();
      const auto stats = ctx.runner.replicate_batched(
          reps, seed, 3, radio::kMaxLanes,
          [&](int first_rep, const std::vector<std::uint64_t>& seeds) {
            radio::BatchNetwork bn(g, static_cast<int>(seeds.size()),
                                   radio::CollisionModel::kNoDetection,
                                   lanes_medium, recovery);
            radio::PhaseTimers phases;
            auto lanes = decay_lanes_body(g, bn, cycles, seeds, phases);
            for (std::size_t l = 0; l < lanes.size(); ++l) {
              ctx.record(make_record(
                  "decay-lanes", first_rep + static_cast<int>(l), lanes[l],
                  lanes_medium_name, static_cast<int>(seeds.size()),
                  recovery_name, phases));
            }
            if (first_rep == 0) lanes_phases = phases;
            return lanes;
          });
      add_row(t, "decay-lanes", reps, stats, now_ms() - t0, scalar_wall);
    }
    ctx.emit(t,
             "lane-batched Decay on gnp(n=" + std::to_string(n) +
                 ", avg_deg~" + std::to_string(static_cast<int>(avg_deg)) +
                 "), " + std::to_string(reps) + " seeds x " +
                 std::to_string(cycles) + " Decay rounds",
             "protocol_lanes_decay");
    ctx.note("(same lane-generic decay_round_lanes both rows; per-seed "
             "results are byte-identical — acceptance bar is >= 4x scalar "
             "reps/s; lanes recovery=" + recovery_name + ")");
    ctx.note(phase_note("decay-lanes", lanes_phases));
  }

  // ---- Part 2: lane-batched Decay-relay broadcast / Compete --------------
  {
    util::Rng grng(util::mix_seed(seed, 1));
    const graph::NodeId n = quick ? 1500 : 4000;
    const graph::Graph g = graph::gnp(n, 12.0 / n, grng);
    core::BatchedCompeteParams params;
    params.max_rounds = quick ? 2000 : 6000;
    const std::vector<core::CompeteSource> sources{
        {0, 1'000'000}, {n / 2, 999'999}};
    const int breps = quick ? 32 : 64;

    util::Table t({"protocol", "reps", "rounds", "wall/rep ms", "wall ms",
                   "reps/s", "speedup"});
    double scalar_wall = 0.0;
    double success_scalar = 0.0, success_lanes = 0.0;
    radio::PhaseTimers broadcast_phases;
    {
      const double t0 = now_ms();
      const auto stats = ctx.runner.replicate(
          breps, seed, 4, [&](int rep, std::uint64_t rep_seed) {
            const double r0 = now_ms();
            radio::Network net(g);
            const std::uint64_t one[] = {rep_seed};
            const auto lane =
                core::compete_batched(net, sources, params, one).front();
            const double wall = now_ms() - r0;
            ctx.record(make_record(
                "broadcast-scalar", rep,
                {static_cast<double>(lane.rounds),
                 static_cast<double>(lane.deliveries), wall},
                "scalar", 1, "", net.medium().phase_timers()));
            return std::vector<double>{static_cast<double>(lane.rounds),
                                       static_cast<double>(lane.deliveries),
                                       wall, lane.success ? 1.0 : 0.0};
          });
      scalar_wall = now_ms() - t0;
      success_scalar = stats[3].mean();
      add_row(t, "broadcast-scalar", breps, stats, scalar_wall, scalar_wall);
    }
    {
      const double t0 = now_ms();
      const auto stats = ctx.runner.replicate_batched(
          breps, seed, 4, radio::kMaxLanes,
          [&](int first_rep, const std::vector<std::uint64_t>& seeds) {
            const double b0 = now_ms();
            radio::BatchNetwork bn(g, static_cast<int>(seeds.size()),
                                   radio::CollisionModel::kNoDetection,
                                   lanes_medium, recovery);
            const auto lanes = core::compete_batched(bn, sources, params,
                                                     seeds);
            const auto phases = bn.medium().phase_timers();
            const double wall = (now_ms() - b0) / lanes.size();
            std::vector<std::vector<double>> metrics;
            metrics.reserve(lanes.size());
            for (std::size_t l = 0; l < lanes.size(); ++l) {
              const auto& lane = lanes[l];
              ctx.record(make_record(
                  "broadcast-lanes", first_rep + static_cast<int>(l),
                  {static_cast<double>(lane.rounds),
                   static_cast<double>(lane.deliveries), wall},
                  lanes_medium_name, static_cast<int>(seeds.size()),
                  recovery_name, phases));
              metrics.push_back({static_cast<double>(lane.rounds),
                                 static_cast<double>(lane.deliveries), wall,
                                 lane.success ? 1.0 : 0.0});
            }
            if (first_rep == 0) broadcast_phases = phases;
            return metrics;
          });
      success_lanes = stats[3].mean();
      add_row(t, "broadcast-lanes", breps, stats, now_ms() - t0, scalar_wall);
    }
    ctx.emit(t,
             "Decay-relay Compete (|S|=2) on gnp(n=" + std::to_string(n) +
                 ", avg_deg~12), " + std::to_string(breps) + " seeds",
             "protocol_lanes_broadcast");
    ctx.note("(success rate scalar=" + std::to_string(success_scalar) +
             " lanes=" + std::to_string(success_lanes) +
             " — identical seeds, identical per-lane results)");
    ctx.note(phase_note("broadcast-lanes", broadcast_phases));
  }
}
