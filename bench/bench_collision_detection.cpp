// E12 — model contrast: what collision detection buys (Section 1.1's
// model discussion and the Ghaffari-Haeupler-Khabbazian reference [11]).
//
// On the same topologies and seeds we race (a) BGI Decay without CD
// (core::broadcast_batched, all reps' seeds as lanes of one call) and
// (b) layered-CD broadcast (baselines::layered_cd_broadcast: beep-wave
// layering, then Decay in rounds t = layer mod 3), and print the GHK
// O(D + log^6 n) analytic curve. Both report exact finishing rounds.
// Layering costs 3 physical rounds per Decay step, so (b) takes about
// twice BGI's rounds. Its gain is the beep wave itself — exact BFS
// layering in D + 1 rounds — which is impossible without collision
// detection: the scenario runs the wave under the no-CD medium too and
// reports the share of nodes it never reaches.
#include <algorithm>
#include <vector>

#include "baselines/layered_cd.hpp"
#include "core/compete_batched.hpp"
#include "core/theory.hpp"
#include "sim/instances.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace radiocast;

namespace {

constexpr radio::Payload kMessage = 7;
constexpr std::uint64_t kMaxRounds = 5'000'000;

}  // namespace

RADIOCAST_SCENARIO(collision_detection, "collision-detection",
                   "E12: collision-detection model contrast (GHK)") {
  const bool quick = ctx.quick();
  const std::uint64_t seed = ctx.seed(12);
  const int reps = ctx.reps(32, 64);
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
    std::vector<std::uint64_t> seeds(static_cast<std::size_t>(reps));
    for (int rep = 0; rep < reps; ++rep) {
      seeds[static_cast<std::size_t>(rep)] = util::mix_seed(
          util::mix_seed(seed, ii), static_cast<std::uint64_t>(rep));
    }
    core::BatchedCompeteParams bgi;
    bgi.max_rounds = kMaxRounds;
    // One pool map: BGI as one lane-batched relay over all seeds (first,
    // as the longest task), then layered CD one seed at a time.
    const auto rounds = ctx.runner.map(1 + reps, [&](int i) {
      std::vector<double> r;
      if (i == 0) {
        for (const auto& rb :
             core::broadcast_batched(inst.g, 0, kMessage, bgi, seeds)) {
          if (rb.success) r.push_back(static_cast<double>(rb.rounds));
        }
        return r;
      }
      const auto rc = baselines::layered_cd_broadcast(
          inst.g, inst.diameter, 0, kMessage,
          seeds[static_cast<std::size_t>(i - 1)], kMaxRounds);
      if (rc.success) r.push_back(static_cast<double>(rc.rounds));
      return r;
    });
    util::OnlineStats bgi_rounds, cd_rounds;
    for (const double r : rounds[0]) bgi_rounds.add(r);
    for (int i = 1; i <= reps; ++i) {
      for (const double r : rounds[static_cast<std::size_t>(i)]) {
        cd_rounds.add(r);
      }
    }
    // Beep wave under the no-CD medium (deterministic): the share of nodes
    // that never layer.
    const auto layers = baselines::beep_wave_layers(
        inst.g, 0, radio::CollisionModel::kNoDetection,
        static_cast<radio::Round>(inst.diameter) + 2);
    const auto stalled = std::count(layers.begin(), layers.end(),
                                    baselines::kNoLayer);
    const double logn = util::safe_log2(inst.g.node_count());
    t.row()
        .add(inst.name)
        .add(bgi_rounds.mean(), 0)
        .add(cd_rounds.mean(), 0)
        .add(bgi_rounds.mean() > 0 ? cd_rounds.mean() / bgi_rounds.mean()
                                   : 0.0,
             2)
        .add(static_cast<double>(inst.diameter) +
                 logn * logn * logn * logn * logn * logn / 1e4,
             0)
        .add(static_cast<double>(stalled) / inst.g.node_count(), 3);
  }
  ctx.emit(t, "E12: collision detection model contrast", "e12_cd");
  ctx.note(
      "(GHK's O(D + log^6 n) algorithm [11] is out of scope. Layered CD "
      "pays 3 physical rounds per Decay step, so it is slower than BGI; "
      "what CD buys is exact BFS layering in D+1 rounds, which the stall "
      "column shows is impossible without CD.)");
}
