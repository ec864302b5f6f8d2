// End-to-end sweep benchmark for radiocast.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale full|tiny] [--expect-digest <hex>] [--out <dir>]
//             [--rev <git revision>]
//
// A run is a closed batch: a fixed set of seeded replications, repeated
// until --seconds of measurement have passed, from one process on at most
// nproc threads. Untraced (--trace 0) runs go through the same public
// entry points `radiocast_bench sweep` uses (exp::expand,
// exp::build_instance, exp::Planner::run_durable with its journal on)
// and print the end-to-end metrics. Traced runs (--trace 1) execute the
// same tasks through the benchmark's own task loop, which times every call
// into each layer's public functions, and print the per-layer metrics.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it is a report with the host fingerprint, the outcome
// digest and the checks. See perfbench/README.md for every metric.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hierarchy.hpp"
#include "core/compete.hpp"
#include "core/compete_batched.hpp"
#include "core/leader_election.hpp"
#include "exp/checkpoint.hpp"
#include "exp/planner.hpp"
#include "radio/batch_network.hpp"
#include "radio/network.hpp"
#include "radio/simd.hpp"
#include "schedule/bfs_schedule.hpp"
#include "sim/runner.hpp"
#include "span_log.hpp"
#include "timing_executor.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace rc = radiocast;

namespace perfbench {
namespace {

// ------------------------------------------------------------- options

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string expect_digest;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string rev = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
      if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--scale") {
      if (v != "full" && v != "tiny") {
        throw std::invalid_argument("--scale takes full or tiny");
      }
      a.tiny = v == "tiny";
    } else if (flag == "--expect-digest") {
      a.expect_digest = v;
    } else if (flag == "--out") {
      a.out_dir = v;
    } else if (flag == "--rev") {
      a.rev = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

// ----------------------------------------------------------- workloads

/// One workload: the sweep grid (a single grid point) plus, for
/// paper-cd-rgg, leader-election replications on the same instance.
///
/// The graph instance is part of the workload: it comes from the sweep's
/// default seed, whatever --seed is. --seed draws the replication seeds.
/// (How far the source sits from the far end of a random rgg moves the
/// mean rounds of a workload twofold between instances, which would
/// swamp any change to the code.)
struct Workload {
  std::string name;
  rc::exp::SweepSpec spec;
  std::uint64_t rep_seed = 0;
  int le_reps = 0;
  /// Set-up repetitions per run; setup_s is their median.
  int setups = 7;
};

Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = name;
  w.rep_seed = seed;
  rc::exp::SweepSpec& s = w.spec;
  s.lanes = rc::radio::kMaxLanes;
  s.recoveries = {rc::radio::RecoveryStrategy::kAuto};
  if (name == "decay-gnp-dense") {
    s.families = {"gnp"};
    s.n = {tiny ? 3000u : 100000u};
    s.p = {10.0};
    s.p_is_degree = true;
    s.protocols = {"decay"};
    s.mediums = {rc::radio::MediumKind::kBitslice};
    s.reps = tiny ? 32 : 256;
  } else if (name == "compete-rgg-sparse") {
    s.families = {"rgg"};
    s.n = {tiny ? 1500u : 30000u};
    s.radius = {tiny ? 0.06 : 0.012};
    s.protocols = {"compete"};
    s.sources = 2;
    s.mediums = {rc::radio::MediumKind::kFrontier};
    s.reps = tiny ? 32 : 256;
  } else if (name == "paper-cd-rgg") {
    s.families = {"rgg"};
    s.n = {tiny ? 1500u : 30000u};
    s.radius = {tiny ? 0.06 : 0.012};
    s.protocols = {"cd"};
    s.sources = 1;
    s.reps = tiny ? 4 : 32;
    w.le_reps = s.reps;
  } else {
    throw std::invalid_argument(
        "unknown workload '" + name +
        "' (decay-gnp-dense, compete-rgg-sparse, paper-cd-rgg)");
  }
  if (tiny) {
    s.lanes = 16;
    w.setups = 3;
  }
  return w;
}

/// The workload's jobs: the sweep's expansion, with replication seeds
/// re-drawn from --seed (instance seeds untouched).
std::vector<rc::exp::Job> workload_jobs(const Workload& w) {
  std::vector<rc::exp::Job> jobs = rc::exp::expand(w.spec);
  for (rc::exp::Job& job : jobs) job.seed = rc::util::mix_seed(job.seed, w.rep_seed);
  return jobs;
}

bool batched(const rc::exp::Job& job) { return job.protocol != "cd"; }

/// Seed of leader-election replication r (derived from the grid point).
std::uint64_t le_seed(const rc::exp::Job& job, int r) {
  return rc::util::mix_seed(rc::util::mix_seed(job.seed, 0x1EAD3Au),
                            static_cast<std::uint64_t>(r));
}

// ------------------------------------------------------------ outcomes

/// One replication's outcome, as compared across runs and digested.
/// -1 marks a field the protocol does not report.
struct Rep {
  std::int64_t success = 0;
  std::int64_t rounds = 0;
  std::int64_t informed = -1;
  std::int64_t deliveries = -1;
  bool operator==(const Rep&) const = default;
};

std::int64_t as_int(double v) {
  return std::isnan(v) ? -1 : static_cast<std::int64_t>(std::llround(v));
}

Rep from_lane(const rc::exp::LaneOutcome& l) {
  return {l.success ? 1 : 0, as_int(l.rounds), as_int(l.informed),
          as_int(l.deliveries)};
}

Rep from_election(const rc::core::LeaderElectionResult& r) {
  return {r.success ? 1 : 0, static_cast<std::int64_t>(r.rounds),
          static_cast<std::int64_t>(r.agreeing),
          static_cast<std::int64_t>(r.leader)};
}

/// A replication that threw or was quarantined.
const Rep kFailedRep{0, -2, -2, -2};

std::string digest(const std::vector<Rep>& reps) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64
  auto mix = [&h](std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  };
  for (const Rep& r : reps) {
    mix(r.success);
    mix(r.rounds);
    mix(r.informed);
    mix(r.deliveries);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

struct BatchResult {
  std::vector<Rep> reps;  // sweep tasks in task order, then elections
  double wall_s = 0.0;    // batch wall time, instance generation excluded
  double rounds_mean() const {
    double sum = 0.0;
    for (const Rep& r : reps) sum += static_cast<double>(r.rounds);
    return reps.empty() ? 0.0 : sum / static_cast<double>(reps.size());
  }
  double reps_per_s() const {
    return static_cast<double>(reps.size()) / std::max(wall_s, 1e-9);
  }
};

int failed_count(const std::vector<Rep>& reps) {
  int failed = 0;
  for (const Rep& r : reps) failed += r.success == 1 ? 0 : 1;
  return failed;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// -------------------------------------------------------------- set-up

/// Everything a replication needs before it starts: the expanded grid,
/// the generated instance (pargen plus the diameter BFS) and the medium.
/// Returns the instance so leader election can reuse the last one.
std::shared_ptr<const rc::sim::Instance> setup_once(const Workload& w,
                                                    int threads, double& secs,
                                                    SpanLog* log) {
  const ScopedSpan span(log, "setup", 0, 0);
  const std::uint64_t t0 = now_ns();
  const std::vector<rc::exp::Job> jobs = workload_jobs(w);
  const rc::exp::Job& job = jobs.front();
  std::shared_ptr<const rc::sim::Instance> inst;
  {
    const ScopedSpan gen(log, "graph.gen", span.id(), 0);
    inst = std::make_shared<const rc::sim::Instance>(
        rc::exp::build_instance(job, threads));
  }
  {
    const ScopedSpan medium(log, "radio.medium_build", span.id(), 0);
    if (batched(job)) {
      const rc::radio::BatchNetwork bn(inst->g, job.lane_width,
                                       rc::radio::CollisionModel::kNoDetection,
                                       job.medium, job.recovery);
    } else {
      const rc::radio::Network net(inst->g);
    }
  }
  secs = seconds_since(t0);
  return inst;
}

// ----------------------------------------------------- untraced batches

/// One closed batch through the sweep entry points: Planner::run_durable
/// with its journal on, then (paper-cd-rgg) the leader elections on the
/// same pool. Per-replication outcomes are read back from the journal.
BatchResult run_sweep_batch(const Workload& w, const rc::sim::Instance& inst,
                            rc::sim::Runner& runner, const std::string& dir) {
  const std::vector<rc::exp::Job> jobs = workload_jobs(w);
  const std::vector<rc::exp::TaskRef> tasks = rc::exp::flatten_tasks(jobs);
  rc::exp::Planner::Options options;
  options.gen_threads = runner.threads();
  const rc::exp::Planner planner(options);

  BatchResult out;
  auto journal = rc::exp::Checkpoint::start(dir, w.spec, tasks.size());
  const std::uint64_t t0 = now_ns();
  const rc::exp::RunOutcome run = planner.run_durable(jobs, runner, journal.get());
  std::vector<rc::core::LeaderElectionResult> elections;
  if (w.le_reps > 0) {
    elections = runner.map(w.le_reps, [&](int r) {
      return rc::core::elect_leader(inst.g, inst.diameter, {},
                                    le_seed(jobs.front(), r));
    });
  }
  const double gen_s = static_cast<double>(run.points.front().gen.gen_ns) * 1e-9;
  out.wall_s = seconds_since(t0) - gen_s;
  journal.reset();

  auto replay = rc::exp::Checkpoint::resume(dir, w.spec, tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const rc::exp::TaskOutcome* task = replay->outcome(t);
    if (task == nullptr || task->quarantined) {
      out.reps.insert(out.reps.end(), static_cast<std::size_t>(tasks[t].count),
                      kFailedRep);
      continue;
    }
    for (const rc::exp::LaneOutcome& lane : task->lanes) {
      out.reps.push_back(from_lane(lane));
    }
  }
  replay->remove_journal();
  for (const auto& e : elections) out.reps.push_back(from_election(e));
  return out;
}

// ------------------------------------------------------- traced batches

/// Busy time and counts the traced task loop collects, summed over batches.
struct LayerTotals {
  int batches = 0;
  double wall_s = 0.0;
  std::uint64_t tasks = 0;
  TimingExecutor::Stats steps;
  rc::radio::PhaseTimers phases;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  rc::core::PropagationStats wave;
  std::uint64_t partitions = 0;
  std::uint64_t probe_mismatches = 0;
};

void add_phases(rc::radio::PhaseTimers& into, const rc::radio::PhaseTimers& p) {
  into.traverse_ns += p.traverse_ns;
  into.output_ns += p.output_ns;
  into.recover_ns += p.recover_ns;
  into.enqueue_ns += p.enqueue_ns;
  into.drain_ns += p.drain_ns;
  into.active_listeners += p.active_listeners;
  into.rounds += p.rounds;
  into.rowscan_rounds += p.rowscan_rounds;
  into.idplane_rounds += p.idplane_rounds;
  into.constfold_rounds += p.constfold_rounds;
}

void add_wave(rc::core::PropagationStats& into,
              const rc::core::PropagationStats& s) {
  into.wave_deliveries += s.wave_deliveries;
  into.wave_blocked += s.wave_blocked;
  into.decay_deliveries += s.decay_deliveries;
  into.rescued += s.rescued;
}

/// The sources the sweep gives a batched job (mirrors the Planner).
std::vector<rc::core::CompeteSource> sweep_sources(const rc::exp::Job& job,
                                                   std::uint32_t n) {
  if (job.protocol == "decay") return {{0, 7}};
  std::vector<rc::core::CompeteSource> sources;
  const auto count = static_cast<std::uint32_t>(job.sources);
  for (std::uint32_t i = 0; i < count; ++i) {
    sources.push_back(
        {static_cast<rc::graph::NodeId>((static_cast<std::uint64_t>(i) * n) / count),
         rc::radio::Payload{1'000'000} - i});
  }
  return sources;
}

/// The seed core::elect_leader hands to Compete, found by replaying its
/// candidate draws; `candidates` receives the candidate count.
std::uint64_t election_compete_seed(const rc::graph::Graph& g, std::uint64_t seed,
                                    std::uint32_t& candidates) {
  const rc::core::LeaderElectionParams params{};
  const auto n = g.node_count();
  rc::util::Rng rng(rc::util::mix_seed(seed, 0xE1EC7));
  const double log_n = rc::util::safe_log2(static_cast<double>(n));
  const double p = std::min(
      1.0, params.candidate_c * log_n / static_cast<double>(std::max<rc::graph::NodeId>(1, n)));
  const double bits = std::clamp(params.id_bits_c * log_n, 8.0, 31.0);
  const std::uint64_t id_space = std::uint64_t{1}
                                 << static_cast<std::uint32_t>(std::ceil(bits));
  candidates = 0;
  for (std::uint32_t round = 0; candidates == 0 && round <= 64; ++round) {
    for (rc::graph::NodeId v = 0; v < n; ++v) {
      if (!rng.bernoulli(p)) continue;
      (void)rng.uniform(id_space);
      ++candidates;
    }
  }
  return rng();
}

/// Replays the precomputation core::compete performs for `seed` — the
/// cluster::Hierarchy, the background cluster::partition calls and a
/// schedule::TreeSchedule over each partition — timing every call. Runs
/// after the batch, so its cost never enters the batch wall time.
std::uint64_t probe_precompute(const rc::sim::Instance& inst, std::uint64_t seed,
                               SpanLog& log, std::uint64_t rep) {
  const rc::core::CompeteParams params{};
  const ScopedSpan probe(&log, "probe", 0, rep);
  rc::util::Rng rng(seed);
  std::optional<rc::cluster::Hierarchy> h;
  {
    const ScopedSpan s(&log, "cluster.hierarchy", probe.id(), rep);
    h.emplace(inst.g, inst.diameter, params.hierarchy, rng);
  }
  std::uint64_t partitions = 1 + h->fine_count();
  for (std::size_t ji = 0; ji < h->j_values().size(); ++ji) {
    for (std::uint32_t r = 0; r < h->reps_per_j(); ++r) {
      const ScopedSpan s(&log, "schedule.build", probe.id(), rep);
      const rc::schedule::TreeSchedule sched(inst.g, h->fine(ji, r), params.mode);
    }
  }
  (void)rng();  // the main engine's seed is drawn between the two processes
  if (!params.enable_background) return partitions;
  const double d = static_cast<double>(std::max<std::uint32_t>(2, inst.diameter));
  const double bg_beta = rc::util::fpow(d, params.bg_beta_exponent);
  const std::uint32_t bg_reps = std::min<std::uint32_t>(
      params.max_bg_clusterings,
      static_cast<std::uint32_t>(
          std::max(1.0, std::ceil(rc::util::fpow(d, params.bg_reps_exponent)))));
  for (std::uint32_t r = 0; r < bg_reps; ++r) {
    std::optional<rc::cluster::Partition> part;
    {
      const ScopedSpan s(&log, "cluster.partition", probe.id(), rep);
      part.emplace(rc::cluster::partition(inst.g, bg_beta, rng));
    }
    const ScopedSpan s(&log, "schedule.build", probe.id(), rep);
    const rc::schedule::TreeSchedule sched(inst.g, *part, params.mode);
    ++partitions;
  }
  return partitions;
}

/// What one traced task hands back to the batch.
struct TracedTask {
  std::vector<Rep> reps;
  TimingExecutor::Stats steps;
  rc::radio::PhaseTimers phases;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  rc::core::PropagationStats wave;
  std::uint64_t compete_seed = 0;  // cd / election: for the probe
  std::uint32_t candidates = 0;    // election: candidate count reported
};

/// One closed batch through the benchmark's own task loop: the same tasks
/// run_durable would run (same seeds, same journal), with every call into
/// a layer wrapped in a span.
BatchResult run_traced_batch(const Workload& w, rc::sim::Runner& runner,
                             const std::string& dir, SpanLog& log,
                             LayerTotals& tot) {
  const std::vector<rc::exp::Job> jobs = workload_jobs(w);
  const rc::exp::Job& job = jobs.front();
  const std::vector<rc::exp::TaskRef> tasks = rc::exp::flatten_tasks(jobs);
  const ScopedSpan batch(&log, "batch", 0, 0);
  std::shared_ptr<const rc::sim::Instance> inst;
  {
    const ScopedSpan gen(&log, "graph.gen", batch.id(), 0);
    inst = std::make_shared<const rc::sim::Instance>(
        rc::exp::build_instance(job, runner.threads()));
  }
  auto journal = rc::exp::Checkpoint::start(dir, w.spec, tasks.size());

  const int sweep_tasks = static_cast<int>(tasks.size());
  const std::uint64_t t0 = now_ns();
  std::vector<TracedTask> done =
      runner.map(sweep_tasks + w.le_reps, [&](int i) {
        TracedTask res;
        const bool election = i >= sweep_tasks;
        const rc::exp::TaskRef task =
            election ? rc::exp::TaskRef{0, i - sweep_tasks, 1}
                     : tasks[static_cast<std::size_t>(i)];
        const auto rep = static_cast<std::uint64_t>(task.first_rep);
        const ScopedSpan span(&log, "exp.task", batch.id(), rep);
        if (election) {
          const std::uint64_t seed = le_seed(job, task.first_rep);
          const ScopedSpan s(&log, "core.elect_leader", span.id(), rep);
          const auto r = rc::core::elect_leader(inst->g, inst->diameter, {}, seed);
          res.reps.push_back(from_election(r));
          res.compete_seed = seed;
          res.candidates = r.candidate_count;
          return res;
        }
        const std::uint64_t task_t0 = now_ns();
        rc::exp::TaskOutcome out;
        out.n_actual = inst->g.node_count();
        out.diameter = inst->diameter;
        std::vector<std::uint64_t> seeds;
        for (int l = 0; l < task.count; ++l) {
          seeds.push_back(rc::util::mix_seed(
              job.seed, static_cast<std::uint64_t>(task.first_rep + l)));
        }
        if (!batched(job)) {
          const ScopedSpan s(&log, "core.compete", span.id(), rep);
          const auto r = rc::core::compete(inst->g, inst->diameter, {{0, 7}},
                                           rc::core::CompeteParams{}, seeds[0]);
          rc::exp::LaneOutcome lane;
          lane.success = r.success;
          lane.rounds = static_cast<double>(r.rounds);
          lane.informed = static_cast<double>(r.informed);
          out.lanes.push_back(lane);
          add_wave(res.wave, r.main_stats);
          add_wave(res.wave, r.background_stats);
          res.compete_seed = seeds[0];
        } else {
          std::optional<rc::radio::BatchNetwork> bn;
          {
            const ScopedSpan s(&log, "radio.medium_build", span.id(), rep);
            bn.emplace(inst->g, task.count, rc::radio::CollisionModel::kNoDetection,
                       job.medium, job.recovery);
          }
          rc::core::BatchedCompeteParams params;
          params.max_rounds =
              job.max_rounds != 0
                  ? job.max_rounds
                  : 2000 + static_cast<std::uint64_t>(
                               8.0 * rc::exp::theory_bound(job.protocol, out.n_actual,
                                                           out.diameter, job.sources));
          std::vector<rc::core::CompeteLaneResult> results;
          {
            const ScopedSpan s(&log, "core.compete_batched", span.id(), rep);
            TimingExecutor timed(*bn, &log, s.id(), rep);
            results = rc::core::compete_batched(
                timed, sweep_sources(job, out.n_actual), params, seeds);
            res.steps = timed.stats();
          }
          out.phases = bn->medium().phase_timers();
          res.phases = out.phases;
          for (const auto& r : results) {
            rc::exp::LaneOutcome lane;
            lane.success = r.success;
            lane.rounds = static_cast<double>(r.rounds);
            lane.informed = static_cast<double>(r.informed);
            lane.deliveries = static_cast<double>(r.deliveries);
            lane.transmissions = static_cast<double>(r.transmissions);
            out.lanes.push_back(lane);
            res.transmissions += r.transmissions;
            res.deliveries += r.deliveries;
          }
        }
        out.wall_ms = static_cast<double>(now_ns() - task_t0) * 1e-6;
        for (const auto& lane : out.lanes) res.reps.push_back(from_lane(lane));
        const ScopedSpan s(&log, "exp.journal", span.id(), rep);
        journal->record(static_cast<std::size_t>(i), out);
        return res;
      });
  BatchResult out;
  out.wall_s = seconds_since(t0);
  journal->remove_journal();

  std::vector<std::uint64_t> probe_seeds;
  for (const TracedTask& t : done) {
    out.reps.insert(out.reps.end(), t.reps.begin(), t.reps.end());
    for (int e = 0; e < TimingExecutor::kMaxActive + 1; ++e) {
      tot.steps.calls[e] += t.steps.calls[e];
      tot.steps.ns[e] += t.steps.ns[e];
    }
    tot.steps.computed_bytes += t.steps.computed_bytes;
    add_phases(tot.phases, t.phases);
    add_wave(tot.wave, t.wave);
    tot.transmissions += t.transmissions;
    tot.deliveries += t.deliveries;
    if (!batched(job)) probe_seeds.push_back(t.compete_seed);
  }
  // Probe outside the timed batch: broadcasts use their own seed,
  // elections the seed their Compete call receives.
  for (std::size_t i = 0; i < done.size(); ++i) {
    if (i < static_cast<std::size_t>(sweep_tasks) || batched(job)) continue;
    std::uint32_t candidates = 0;
    probe_seeds[i] = election_compete_seed(inst->g, done[i].compete_seed, candidates);
    if (candidates != done[i].candidates) ++tot.probe_mismatches;
  }
  const auto partitions = runner.map(static_cast<int>(probe_seeds.size()), [&](int i) {
    return probe_precompute(*inst, probe_seeds[static_cast<std::size_t>(i)], log,
                            static_cast<std::uint64_t>(i));
  });
  for (const std::uint64_t p : partitions) tot.partitions += p;

  ++tot.batches;
  tot.wall_s += out.wall_s;
  tot.tasks += done.size();
  return out;
}

// ------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Per-layer metrics of the traced batches; every figure is per batch
/// (totals divided by the number of traced batches) unless a ratio.
std::vector<Metric> layer_metrics(const LayerTotals& t, const SpanLog& log,
                                  const rc::sim::Instance& inst, int threads,
                                  double traced_rps, double untraced_rps,
                                  double gen_ms) {
  const double b = std::max(1, t.batches);
  auto ms = [&](const char* name) {
    return static_cast<double>(log.busy_ns(name)) * 1e-6 / b;
  };
  const double task_ms = ms("exp.task");
  const double journal_ms = ms("exp.journal");
  const double compete_ms = ms("core.compete") + ms("core.elect_leader");
  const double batched_ms = ms("core.compete_batched");
  const double cluster_ms = ms("cluster.hierarchy") + ms("cluster.partition");
  const double schedule_ms = ms("schedule.build");
  const double step_ms = static_cast<double>(t.steps.total_ns()) * 1e-6 / b;
  const rc::radio::PhaseTimers& p = t.phases;
  const double phase_ms = static_cast<double>(p.traverse_ns + p.output_ns + p.recover_ns +
                                              p.enqueue_ns + p.drain_ns) *
                          1e-6 / b;
  const double calls = static_cast<double>(t.steps.total_calls());
  const double blocked = static_cast<double>(t.wave.wave_blocked);
  const double wave = static_cast<double>(t.wave.wave_deliveries);
  auto per = [&](std::uint64_t v) { return static_cast<double>(v) / b; };
  auto pms = [&](std::uint64_t ns) { return static_cast<double>(ns) * 1e-6 / b; };
  return {
      {"graph.gen_ms", gen_ms, "ms"},
      {"graph.edges", static_cast<double>(inst.g.edge_count()), "count"},
      {"cluster.hierarchy_ms", cluster_ms, "ms"},
      {"cluster.partitions", per(t.partitions), "count"},
      {"schedule.build_ms", schedule_ms, "ms"},
      {"core.compete_ms", compete_ms, "ms"},
      {"core.propagation_ms", compete_ms > 0 ? compete_ms - cluster_ms - schedule_ms : 0.0, "ms"},
      {"core.wave_deliveries", per(t.wave.wave_deliveries), "count"},
      {"core.wave_blocked", per(t.wave.wave_blocked), "count"},
      {"core.wave_blocked_ratio", ratio(blocked, wave + blocked), "ratio"},
      {"core.decay_deliveries", per(t.wave.decay_deliveries), "count"},
      {"core.rescued", per(t.wave.rescued), "count"},
      {"core.batched_self_ms", batched_ms > 0 ? batched_ms - step_ms : 0.0, "ms"},
      {"radio.step_ms", step_ms, "ms"},
      {"radio.calls_dense", per(t.steps.calls[TimingExecutor::kDense]), "count"},
      {"radio.calls_max", per(t.steps.calls[TimingExecutor::kMax]), "count"},
      {"radio.calls_active", per(t.steps.calls[TimingExecutor::kActive]), "count"},
      {"radio.calls_max_active", per(t.steps.calls[TimingExecutor::kMaxActive]), "count"},
      {"radio.ns_per_round", ratio(static_cast<double>(t.steps.total_ns()), calls), "ns"},
      {"radio.traverse_ms", pms(p.traverse_ns), "ms"},
      {"radio.output_ms", pms(p.output_ns), "ms"},
      {"radio.recover_ms", pms(p.recover_ns), "ms"},
      {"radio.enqueue_ms", pms(p.enqueue_ns), "ms"},
      {"radio.drain_ms", pms(p.drain_ns), "ms"},
      {"radio.unphased_ms", step_ms - phase_ms, "ms"},
      {"radio.rounds", per(p.rounds), "count"},
      {"radio.rowscan_rounds", per(p.rowscan_rounds), "count"},
      {"radio.idplane_rounds", per(p.idplane_rounds), "count"},
      {"radio.constfold_rounds", per(p.constfold_rounds), "count"},
      {"radio.constfold_ratio",
       ratio(static_cast<double>(p.constfold_rounds), static_cast<double>(p.rounds)), "ratio"},
      {"radio.recover_share", ratio(pms(p.recover_ns), step_ms), "ratio"},
      {"radio.transmissions", per(t.transmissions), "count"},
      {"radio.deliveries", per(t.deliveries), "count"},
      {"radio.deliveries_per_tx",
       ratio(static_cast<double>(t.deliveries), static_cast<double>(t.transmissions)), "ratio"},
      {"radio.active_listeners", per(p.active_listeners), "count"},
      {"radio.computed_bytes_per_round",
       ratio(static_cast<double>(t.steps.computed_bytes), calls), "B"},
      {"exp.tasks", per(t.tasks), "count"},
      {"exp.task_wall_ms", task_ms, "ms"},
      {"exp.journal_ms", journal_ms, "ms"},
      {"exp.unattributed_ms", task_ms - journal_ms - compete_ms - batched_ms, "ms"},
      {"sim.pool_busy_frac", ratio(task_ms, threads * t.wall_s * 1e3 / b), "ratio"},
      {"trace.reps_per_s", traced_rps, "1/s"},
      {"trace.untraced_reps_per_s", untraced_rps, "1/s"},
      {"trace.overhead_frac", ratio(untraced_rps - traced_rps, untraced_rps), "ratio"},
  };
}

/// Layer-sum checks on the traced batches; returns the failures.
std::vector<std::string> check_layer_sums(const LayerTotals& t, const SpanLog& log) {
  std::vector<std::string> bad;
  const double task = static_cast<double>(log.busy_ns("exp.task"));
  const double inside = static_cast<double>(
      log.busy_ns("exp.journal") + log.busy_ns("core.compete") +
      log.busy_ns("core.elect_leader") + log.busy_ns("core.compete_batched"));
  if (inside > task) bad.push_back("layers inside tasks exceed task wall time");
  const double step = static_cast<double>(t.steps.total_ns());
  if (step > static_cast<double>(log.busy_ns("core.compete_batched"))) {
    bad.push_back("radio.step exceeds core.compete_batched");
  }
  const auto& p = t.phases;
  if (static_cast<double>(p.traverse_ns + p.output_ns + p.recover_ns + p.enqueue_ns +
                          p.drain_ns) > step) {
    bad.push_back("medium phases exceed radio.step");
  }
  const double pre = static_cast<double>(log.busy_ns("cluster.hierarchy") +
                                         log.busy_ns("cluster.partition") +
                                         log.busy_ns("schedule.build"));
  if (pre > static_cast<double>(log.busy_ns("core.compete") +
                                log.busy_ns("core.elect_leader"))) {
    bad.push_back("cluster + schedule exceed core.compete");
  }
  return bad;
}

std::string host_json(const Args& a, int threads) {
  std::ostringstream os;
  os << "{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"threads\":" << threads << ",\"simd\":\""
     << (rc::radio::simd::has_avx2() ? "avx2" : "scalar")
     << "\",\"governor\":\"not read (the benchmark reads only its checkout)\""
     << ",\"compiler\":\"" << json_escape(__VERSION__) << "\",\"rev\":\""
     << json_escape(a.rev) << "\"}";
  return os.str();
}

/// Starts another batch while the run would end nearer to `seconds` of
/// measurement with it than without it.
bool another_batch(double elapsed, const BatchResult& last, double seconds) {
  return elapsed + 0.5 * last.wall_s < seconds;
}

int run(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed, a.tiny);
  const int threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::filesystem::create_directories(a.out_dir);
  const std::string tag = w.name + "-seed" + std::to_string(a.seed);
  const std::string journal_dir = a.out_dir + "/" + tag + ".journal";
  SpanLog log;
  SpanLog* trace = a.trace ? &log : nullptr;

  double first_setup_s = 0.0;
  const std::shared_ptr<const rc::sim::Instance> inst =
      setup_once(w, threads, first_setup_s, trace);

  rc::sim::Runner runner(threads);
  std::vector<BatchResult> batches;
  std::vector<std::string> problems;
  LayerTotals totals;
  double untraced_rps = 0.0;
  // Peak RSS through set-up and the first batch: later batches repeat the
  // same work, and only move the figure by how the allocator reuses what
  // the earlier ones freed.
  double first_batch_rss_mb = 0.0;
  const std::uint64_t t0 = now_ns();
  std::vector<double> traced_rps;
  if (a.trace) {
    // Untraced and traced batches alternate: the untraced ones give the
    // outcomes the wrapped run must reproduce, and the tracing overhead.
    std::vector<double> untraced;
    for (;;) {
      batches.push_back(run_sweep_batch(w, *inst, runner, journal_dir));
      untraced.push_back(batches.back().reps_per_s());
      batches.push_back(run_traced_batch(w, runner, journal_dir, log, totals));
      traced_rps.push_back(batches.back().reps_per_s());
      if (batches.back().reps != batches.front().reps) {
        problems.push_back("wrapped and unwrapped per-lane outcomes differ");
      }
      if (!another_batch(seconds_since(t0), batches.back(), a.seconds)) break;
    }
    untraced_rps = median(untraced);
  } else {
    do {
      batches.push_back(run_sweep_batch(w, *inst, runner, journal_dir));
      if (batches.size() == 1) first_batch_rss_mb = peak_rss_mb();
    } while (another_batch(seconds_since(t0), batches.back(), a.seconds));
  }

  // setup_s is the median of several set-ups timed after the batches. In
  // a fresh process the same set-up took 16 to 66 ms from run to run on
  // rgg n = 30000 (page first-touch, idle clocks), while the batches of
  // those runs agreed within 2%.
  std::vector<double> setup_s;
  for (int i = 0; i < w.setups; ++i) {
    double s = 0.0;
    setup_once(w, threads, s, trace);
    setup_s.push_back(s);
  }

  // Output checks: every batch repeats the same seeded replications, so
  // each must reproduce the first batch's outcomes (and the expected
  // digest, when one is given); a batch that does not counts as failed.
  const std::string first_digest = digest(batches.front().reps);
  int attempted = 0;
  int failed = 0;
  for (const BatchResult& b : batches) {
    const int n = static_cast<int>(b.reps.size());
    attempted += n;
    const std::string d = digest(b.reps);
    if (d != first_digest || (!a.expect_digest.empty() && d != a.expect_digest)) {
      failed += n;
      problems.push_back("batch digest " + d + " differs from the expected " +
                         (a.expect_digest.empty() ? first_digest : a.expect_digest));
    } else {
      failed += failed_count(b.reps);
    }
  }
  if (failed > 0) problems.push_back(std::to_string(failed) + " failed replications");

  std::vector<Metric> metrics;
  std::string trace_path;
  if (a.trace) {
    std::vector<double> gen;
    for (const std::uint64_t ns : log.durations("graph.gen")) {
      gen.push_back(static_cast<double>(ns) * 1e-6);
    }
    metrics = layer_metrics(totals, log, *inst, threads, median(traced_rps), untraced_rps,
                            median(gen));
    for (const std::string& p : check_layer_sums(totals, log)) problems.push_back(p);
    if (totals.probe_mismatches > 0) {
      std::cerr << "perfbench: warning: " << totals.probe_mismatches
                << " election probes drew a different candidate set\n";
    }
    trace_path = a.out_dir + "/" + tag + ".trace.json";
    if (!log.write_chrome_json(trace_path)) problems.push_back("cannot write " + trace_path);
  } else {
    std::vector<double> rps;
    for (const BatchResult& b : batches) rps.push_back(b.reps_per_s());
    metrics = {
        {"reps_per_s", median(rps), "1/s"},
        {"setup_s", median(setup_s), "s"},
        {"sim_rounds_mean", batches.front().rounds_mean(), "rounds"},
        {"peak_rss_mb", first_batch_rss_mb, "MB"},
    };
  }
  const bool correct = problems.empty();

  std::ostringstream report;
  report << "{\"report\":{\"workload\":\"" << w.name << "\",\"seed\":" << a.seed
         << ",\"scale\":\"" << (a.tiny ? "tiny" : "full") << "\",\"traced\":" << a.trace
         << ",\"host\":" << host_json(a, threads) << ",\"batches\":" << batches.size()
         << ",\"reps_per_batch\":" << batches.front().reps.size() << ",\"digest\":\""
         << first_digest << "\",\"sim_rounds_mean\":" << num(batches.front().rounds_mean())
         << ",\"error_rate\":" << num(ratio(failed, attempted)) << ",\"n\":"
         << inst->g.node_count() << ",\"diameter\":" << inst->diameter
         << ",\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) report << (i ? "," : "") << num(setup_s[i]);
  report << "],\"first_setup_s\":" << num(first_setup_s) << ",\"end_rss_mb\":" << num(peak_rss_mb()) << ",\"measured_s\":" << num(seconds_since(t0)) << ",\"batch_reps_per_s\":[";
  for (std::size_t i = 0; i < batches.size(); ++i) {
    report << (i ? "," : "") << num(batches[i].reps_per_s());
  }
  report << "],\"trace_file\":\""
         << json_escape(trace_path) << "\",\"problems\":[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    report << (i ? "," : "") << '"' << json_escape(problems[i]) << '"';
  }
  report << "]}}";
  std::cout << report.str() << "\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
              << num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
