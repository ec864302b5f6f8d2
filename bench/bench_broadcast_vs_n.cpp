// E2 — broadcasting time versus n at (approximately) fixed D.
//
// At fixed D, CD grows like D log n / log D + polylog n (slowly, through
// the log n factor), BGI like (D + log n) log n, CR like D log(n/D): the
// gap between the curves must widen with n.
//
// Results are recorded through exp::Accumulator and rendered in the
// sweep's long format — one row per (n, algorithm) with success counts,
// Wilson intervals, round statistics, and the matching core/theory bound
// overlay — so this scenario's bench_out shapes match `sweep`'s.
#include <vector>

#include "broadcast_race.hpp"
#include "sim/instances.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

using namespace radiocast;

RADIOCAST_SCENARIO(broadcast_vs_n, "broadcast-vs-n",
                   "E2: broadcast rounds vs n at fixed diameter") {
  const bool quick = ctx.quick();
  const std::uint64_t seed = ctx.seed(2);
  const auto d_target =
      static_cast<graph::NodeId>(ctx.cli.get_uint("d", 96));
  const int reps = ctx.reps(1, 3);

  const std::vector<graph::NodeId> ns =
      quick ? std::vector<graph::NodeId>{512, 2048}
            : std::vector<graph::NodeId>{512, 1024, 2048, 4096, 8192};

  util::Table t(exp::long_headers(/*timing=*/false));
  util::Json points = util::Json::array();
  for (const auto n : ns) {
    const sim::Instance inst = sim::make_cliquepath_instance(n, d_target);
    // All four algorithms run on the same instance and seeds.
    std::vector<std::uint64_t> seeds(static_cast<std::size_t>(reps));
    for (int rep = 0; rep < reps; ++rep) {
      seeds[static_cast<std::size_t>(rep)] = util::mix_seed(
          util::mix_seed(seed, n), static_cast<std::uint64_t>(rep));
    }
    bench::race_broadcasts(ctx.runner, inst, n, d_target, seeds, t, points);
  }
  ctx.emit(t, "E2: broadcast rounds vs n (fixed D)", "e2_broadcast_vs_n");
  util::Json payload = util::Json::object();
  payload.set("kind", "points");
  payload.set("points", std::move(points));
  ctx.emit_json("e2_broadcast_vs_n", std::move(payload));
}
