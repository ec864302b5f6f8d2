// E1 — Theorem 5.1 shape: broadcasting time versus diameter D at fixed n.
//
// Paper claim: Czumaj-Davies broadcasts in O(D log n / log D + polylog n),
// i.e. the per-hop rate rounds/D falls like log n / log D as D grows,
// while BGI pays log n per hop and CR/KP pays log(n/D) per hop. We sweep D
// at fixed n on the path-of-cliques family (the D-polynomial-in-n regime)
// and report measured rounds against the analytic curves.
//
// Results are recorded through exp::Accumulator and rendered in the
// sweep's long format — one row per (D, algorithm) with success counts,
// Wilson intervals, round statistics, and the matching core/theory bound
// overlay — so this scenario's bench_out shapes match `sweep`'s.
#include <vector>

#include "broadcast_race.hpp"
#include "sim/instances.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace radiocast;

RADIOCAST_SCENARIO(broadcast_vs_d, "broadcast-vs-d",
                   "E1: broadcast rounds vs diameter at fixed n (Theorem 5.1"
                   " shape)") {
  const bool quick = ctx.quick();
  const std::uint64_t seed = ctx.seed(1);
  const auto n = static_cast<graph::NodeId>(
      ctx.cli.get_uint("n", quick ? 1024 : 4096));
  const int reps = ctx.reps(1, 3);

  const std::vector<graph::NodeId> d_targets =
      quick ? std::vector<graph::NodeId>{24, 96, 384}
            : std::vector<graph::NodeId>{16, 32, 64, 128, 256, 512};

  util::Table t(exp::long_headers(/*timing=*/false));
  util::Json points = util::Json::array();
  std::vector<double> ds, cd_rates;
  for (const auto d_target : d_targets) {
    if (d_target >= n / 2) continue;
    const sim::Instance inst = sim::make_cliquepath_instance(n, d_target);
    std::vector<std::uint64_t> seeds(static_cast<std::size_t>(reps));
    for (int rep = 0; rep < reps; ++rep) {
      seeds[static_cast<std::size_t>(rep)] = util::mix_seed(
          util::mix_seed(seed, d_target), static_cast<std::uint64_t>(rep));
    }
    const exp::Accumulator cd = bench::race_broadcasts(
        ctx.runner, inst, n, d_target, seeds, t, points);
    if (cd.rounds().count() > 0) {
      ds.push_back(static_cast<double>(inst.diameter));
      cd_rates.push_back(cd.rounds().mean() / inst.diameter);
    }
  }
  ctx.emit(t, "E1: broadcast rounds vs D (fixed n) — Theorem 5.1 shape",
           "e1_broadcast_vs_d");
  util::Json payload = util::Json::object();
  payload.set("kind", "points");
  payload.set("points", std::move(points));
  ctx.emit_json("e1_broadcast_vs_d", std::move(payload));

  // Shape check: CD's per-hop rate must FALL as D grows (the log n/log D
  // signature); report the fitted trend.
  if (ds.size() >= 2) {
    const auto fit = util::fit_power(ds, cd_rates);
    ctx.note("CD per-hop rate ~ D^" + util::format_double(fit.exponent, 3) +
             " (negative exponent = paper's log n/log D shape; r2=" +
             util::format_double(fit.r2, 2) + ")");
  }
}
