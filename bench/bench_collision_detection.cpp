// E12 — model contrast: what collision detection buys (Section 1.1's
// model discussion and the Ghaffari-Haeupler-Khabbazian reference [11]).
//
// On the same topologies we race (a) BGI Decay without CD
// (core::broadcast_batched, one lane on the scalar medium, completion
// checked every round) and (b) layered-CD broadcast
// (baselines::layered_cd_broadcast: beep-wave layering, then Decay in
// rounds t = layer mod 3), and print the GHK O(D + log^6 n) analytic curve.
// Layering costs 3 physical rounds per Decay step, so (b) takes about
// twice BGI's rounds. Its gain is the beep wave itself — exact BFS
// layering in D + 1 rounds — which is impossible without collision
// detection: the scenario runs the wave under the no-CD medium too and
// reports the share of nodes it never reaches.
#include <cmath>
#include <span>
#include <vector>

#include "baselines/layered_cd.hpp"
#include "core/compete_batched.hpp"
#include "core/theory.hpp"
#include "sim/instances.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "util/math.hpp"

using namespace radiocast;

namespace {

constexpr radio::Payload kMessage = 7;
constexpr std::uint64_t kMaxRounds = 5'000'000;

}  // namespace

RADIOCAST_SCENARIO(collision_detection, "collision-detection",
                   "E12: collision-detection model contrast (GHK)") {
  const bool quick = ctx.quick();
  const std::uint64_t seed = ctx.seed(12);
  const int reps = ctx.reps(1, 3);
  util::Rng rng(seed);

  std::vector<sim::Instance> instances;
  instances.push_back(sim::make_grid_instance(quick ? 15 : 30,
                                              quick ? 30 : 60));
  instances.push_back(
      sim::make_rgg_instance(quick ? 400 : 1200, quick ? 0.08 : 0.045, rng));

  util::Table t({"graph", "BGI (no CD)", "layered CD", "CD/BGI",
                 "GHK bound D+log^6 n", "beep-wave stalls w/o CD"});
  for (std::size_t ii = 0; ii < instances.size(); ++ii) {
    const auto& inst = instances[ii];
    const auto stats = ctx.runner.replicate(
        reps, util::mix_seed(seed, ii), 3, [&](int, std::uint64_t s) {
          std::vector<double> m(3, std::nan(""));
          core::BatchedCompeteParams bgi;
          bgi.max_rounds = kMaxRounds;
          bgi.check_interval = 1;
          const auto rb = core::broadcast_batched(
              inst.g, 0, kMessage, bgi, std::span(&s, 1),
              radio::MediumKind::kScalar)[0];
          if (rb.success) m[0] = static_cast<double>(rb.rounds);
          const auto rc = baselines::layered_cd_broadcast(
              inst.g, inst.diameter, 0, kMessage, s, kMaxRounds);
          if (rc.success) m[1] = static_cast<double>(rc.rounds);
          // Beep wave under the no-CD medium: count nodes that never layer.
          const auto layers = baselines::beep_wave_layers(
              inst.g, 0, radio::CollisionModel::kNoDetection,
              static_cast<radio::Round>(inst.diameter) + 2);
          std::uint32_t stalled = 0;
          for (const std::uint32_t l : layers) {
            stalled += l == baselines::kNoLayer;
          }
          m[2] = static_cast<double>(stalled) / inst.g.node_count();
          return m;
        });
    const double logn = util::safe_log2(inst.g.node_count());
    t.row()
        .add(inst.name)
        .add(stats[0].mean(), 0)
        .add(stats[1].mean(), 0)
        .add(stats[0].mean() > 0 ? stats[1].mean() / stats[0].mean() : 0.0,
             2)
        .add(static_cast<double>(inst.diameter) +
                 logn * logn * logn * logn * logn * logn / 1e4,
             0)
        .add(stats[2].mean(), 3);
  }
  ctx.emit(t, "E12: collision detection model contrast", "e12_cd");
  ctx.note(
      "(GHK's O(D + log^6 n) algorithm [11] is out of scope. Layered CD "
      "pays 3 physical rounds per Decay step, so it is slower than BGI; "
      "what CD buys is exact BFS layering in D+1 rounds, which the stall "
      "column shows is impossible without CD.)");
}
