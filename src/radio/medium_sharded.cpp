#include "radio/medium_sharded.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parse.hpp"

namespace radiocast::radio {

namespace {

// Worker count when the caller passes threads == 0: the
// RADIOCAST_SHARD_THREADS environment variable when set, else a
// hardware-derived default. The env override matters on hosts where
// hardware_concurrency() lies (containers and CI runners often report 1,
// silently degrading the backend to single-threaded). A set-but-invalid
// value (non-numeric, zero, negative) throws instead of silently falling
// back — a typo'd override must never quietly change the worker count.
int default_threads() {
  if (const char* env = std::getenv("RADIOCAST_SHARD_THREADS")) {
    const int v = util::parse_positive_int(env, "RADIOCAST_SHARD_THREADS");
    return std::min(v, 64);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 8u));
}

// ~16k adjacency entries per slice keeps a slice several L2-resident row
// walks big (steal overhead amortized) while giving every realistic worker
// count plenty of steal granularity.
constexpr std::uint64_t kAdjPerSlice = 16384;
constexpr int kMaxSlices = 4096;

// Slice count when the caller passes slices == 0: the
// RADIOCAST_SHARD_SLICES environment variable when set (same
// throw-on-invalid contract as the thread override), else one slice per
// ~kAdjPerSlice adjacency entries. Deliberately a function of the GRAPH
// only — never of the worker count — so the outcome of a round cannot
// depend on how many workers happen to execute it.
int default_slices(std::uint64_t total_adjacency) {
  if (const char* env = std::getenv("RADIOCAST_SHARD_SLICES")) {
    const int v = util::parse_positive_int(env, "RADIOCAST_SHARD_SLICES");
    return std::min(v, kMaxSlices);
  }
  const std::uint64_t want = total_adjacency / kAdjPerSlice;
  return static_cast<int>(std::clamp<std::uint64_t>(want, 1, 512));
}

// Number of online NUMA nodes, parsed from the kernel's cpu-list syntax
// ("0", "0-1", "0,2-3"). 1 when sysfs is unavailable (non-Linux, sandbox)
// — the steal order then degrades to plain cyclic.
int numa_group_count() {
  std::ifstream f("/sys/devices/system/node/online");
  if (!f) return 1;
  std::string s;
  std::getline(f, s);
  int count = 0;
  std::size_t i = 0;
  while (i < s.size()) {
    char* end = nullptr;
    const long lo = std::strtol(s.c_str() + i, &end, 10);
    if (end == s.c_str() + i) break;
    i = static_cast<std::size_t>(end - s.c_str());
    long hi = lo;
    if (i < s.size() && s[i] == '-') {
      hi = std::strtol(s.c_str() + i + 1, &end, 10);
      i = static_cast<std::size_t>(end - s.c_str());
    }
    if (hi >= lo) count += static_cast<int>(hi - lo + 1);
    if (i < s.size() && s[i] == ',') {
      ++i;
    } else {
      break;
    }
  }
  return std::max(1, count);
}

}  // namespace

ShardedMedium::ShardedMedium(const graph::Graph& g, CollisionModel model,
                             int threads, int slices)
    : BitplaneMedium(g, model, "radio.sharded.round_ns") {
  const graph::NodeId n = g.node_count();

  const auto prefix = g.degree_prefix();
  const std::uint64_t total = n == 0 ? 0 : prefix[n];

  int want_slices = slices == 0 ? default_slices(total) : std::max(1, slices);
  want_slices = std::min<int>(want_slices, kMaxSlices);
  want_slices = std::min<int>(want_slices, std::max<graph::NodeId>(1, n));

  // Cut the listener space so every slice owns ~the same adjacency volume
  // (degree_prefix is the CSR offset array: offsets[v] = sum of degrees of
  // nodes < v). The cuts depend only on the graph and the slice count.
  slices_.resize(static_cast<std::size_t>(want_slices));
  node_slice_.assign(n, 0);
  graph::NodeId cut = 0;
  for (int s = 0; s < want_slices; ++s) {
    slices_[static_cast<std::size_t>(s)].lo = cut;
    if (s + 1 == want_slices) {
      cut = n;
    } else {
      const std::uint64_t target =
          total * static_cast<std::uint64_t>(s + 1) /
          static_cast<std::uint64_t>(want_slices);
      const auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
      cut = std::max(cut, static_cast<graph::NodeId>(
                              std::min<std::ptrdiff_t>(it - prefix.begin(),
                                                       n)));
    }
    slices_[static_cast<std::size_t>(s)].hi = cut;
    for (graph::NodeId v = slices_[static_cast<std::size_t>(s)].lo; v < cut;
         ++v) {
      node_slice_[v] = static_cast<std::uint32_t>(s);
    }
  }

  int want = threads == 0 ? default_threads() : std::max(1, threads);
  want = std::min<int>(want, std::max<graph::NodeId>(1, n));
  worker_count_ = want;

  if (want > 1) {
    const std::size_t w_count = static_cast<std::size_t>(want);
    ranges_ = std::vector<std::atomic<std::uint64_t>>(w_count);
    worker_stats_.assign(w_count, {});
    // Victim order: same NUMA group first (slices assigned to nearby
    // workers share memory locality), then the rest — each tier cyclic
    // from the thief's own index so contention spreads.
    const int groups = numa_group_count();
    const auto group_of = [&](std::size_t w) {
      return w * static_cast<std::size_t>(groups) / w_count;
    };
    steal_order_.assign(w_count, {});
    for (std::size_t w = 0; w < w_count; ++w) {
      auto& order = steal_order_[w];
      for (std::size_t k = 1; k < w_count; ++k) {
        const std::size_t v = (w + k) % w_count;
        if (group_of(v) == group_of(w)) order.push_back(v);
      }
      for (std::size_t k = 1; k < w_count; ++k) {
        const std::size_t v = (w + k) % w_count;
        if (group_of(v) != group_of(w)) order.push_back(v);
      }
    }
    workers_.reserve(w_count);
    for (std::size_t w = 0; w < w_count; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  }
}

ShardedMedium::~ShardedMedium() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
}

bool ShardedMedium::pop_front(std::atomic<std::uint64_t>& range,
                              std::uint32_t& idx) {
  std::uint64_t cur = range.load(std::memory_order_acquire);
  for (;;) {
    const std::uint32_t lo = static_cast<std::uint32_t>(cur >> 32);
    const std::uint32_t hi = static_cast<std::uint32_t>(cur);
    if (lo >= hi) return false;
    const std::uint64_t next =
        (static_cast<std::uint64_t>(lo + 1) << 32) | hi;
    if (range.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      idx = lo;
      return true;
    }
  }
}

bool ShardedMedium::steal_back(std::atomic<std::uint64_t>& range,
                               std::uint32_t& idx) {
  std::uint64_t cur = range.load(std::memory_order_acquire);
  for (;;) {
    const std::uint32_t lo = static_cast<std::uint32_t>(cur >> 32);
    const std::uint32_t hi = static_cast<std::uint32_t>(cur);
    if (lo >= hi) return false;
    const std::uint64_t next =
        (static_cast<std::uint64_t>(lo) << 32) | (hi - 1);
    if (range.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      idx = hi - 1;
      return true;
    }
  }
}

void ShardedMedium::worker_loop(std::size_t w) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_work_.wait(lock, [&] { return stop_ || job_gen_ != seen; });
    if (stop_) return;
    seen = job_gen_;
    lock.unlock();
    if (obs::tracing_enabled()) {
      obs::set_thread_name(
          ("sharded-worker-" + std::to_string(w)).c_str());
    }
    std::uint32_t idx = 0;
    std::uint64_t attempts = 0;
    std::uint64_t steals = 0;
    {
      obs::TraceSpan span("sharded.round", "worker", w, "gen", seen);
      // Drain my own deque from the front, then steal from the back of the
      // other workers' deques. Every slice index is claimed by exactly one
      // CAS, so each slice runs exactly once regardless of interleaving.
      while (pop_front(ranges_[w], idx)) resolve_slice(idx);
      for (const std::size_t victim : steal_order_[w]) {
        for (;;) {
          ++attempts;
          if (!steal_back(ranges_[victim], idx)) break;
          ++steals;
          resolve_slice(idx);
        }
      }
    }
    const std::uint64_t finish = now_ns();
    lock.lock();
    WorkerStats& stats = worker_stats_[w];
    stats.steal_attempts += attempts;
    stats.steals += steals;
    stats.finish_ns = finish;
    if (++done_workers_ == workers_.size()) cv_done_.notify_one();
  }
}

void ShardedMedium::kick_and_wait() {
  const std::size_t slice_total = slices_.size();
  const std::size_t w_count = workers_.size();
  for (std::size_t w = 0; w < w_count; ++w) {
    const std::uint64_t lo = slice_total * w / w_count;
    const std::uint64_t hi = slice_total * (w + 1) / w_count;
    ranges_[w].store(lo << 32 | hi, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_workers_ = 0;
    ++job_gen_;
  }
  cv_work_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return done_workers_ == workers_.size(); });
  // Fold each worker's round accounting into the timers. A worker's idle
  // tail is the gap between its own finish and the round's last finisher —
  // the imbalance stealing could not absorb.
  const std::uint64_t round_end = now_ns();
  std::uint64_t round_steals = 0;
  for (WorkerStats& stats : worker_stats_) {
    timers_.steal_attempts += stats.steal_attempts;
    timers_.steals += stats.steals;
    round_steals += stats.steals;
    if (stats.finish_ns != 0 && round_end > stats.finish_ns) {
      timers_.idle_ns += round_end - stats.finish_ns;
    }
    stats = WorkerStats{};
  }
  static obs::Histogram& steals_hist =
      obs::Metrics::global().histogram("radio.sharded.steals_per_round");
  steals_hist.record(round_steals);
}

void ShardedMedium::build_segments() {
  for (auto& s : slices_) {
    s.segments.clear();
    s.volume = 0;
  }
  // Rows are sorted and slices are contiguous node intervals, so each
  // row decomposes into runs that end at a slice's upper bound — one
  // O(degree) walk per transmitter, one slice lookup per run, and each
  // slice's list arrives in transmitter order (worker-independent by
  // construction).
  for (const Segment& t : txsegs_) {
    const auto row = graph_->neighbors(t.u);
    std::uint32_t start = t.begin;
    while (start < t.end) {
      const std::uint32_t si = node_slice_[row[start]];
      const graph::NodeId hi = slices_[si].hi;
      std::uint32_t end = start + 1;
      while (end < t.end && row[end] < hi) ++end;
      slices_[si].segments.push_back({t.u, start, end});
      slices_[si].volume += end - start;
      start = end;
    }
  }
}

void ShardedMedium::resolve_slice(std::size_t si) {
  Slice& s = slices_[si];
  s.out.clear();
  run_slice(s.lo, s.hi, s.segments, s.volume, s.touched, s.out,
            /*timers=*/nullptr);
}

void ShardedMedium::run_round(BatchOutcome& out) {
  const obs::TraceSpan trace_span("sharded.batch_round", "lanes",
                                  static_cast<std::uint64_t>(lanes_), "work",
                                  work_);
  const std::uint64_t t0 = now_ns();
  if (!gather_) build_segments();
  if (workers_.empty()) {
    // One worker: slices run in order straight into `out` — the merge's
    // order without its copy.
    for (Slice& s : slices_) {
      run_slice(s.lo, s.hi, s.segments, s.volume, s.touched, out,
                /*timers=*/nullptr);
    }
    timers_.traverse_ns += now_ns() - t0;
    return;
  }
  kick_and_wait();
  // Slices fuse accumulation, emission, and recovery, so the parallel
  // section counts as traversal (once, in wall time on this thread, not
  // summed over workers); only the slice-ordered merge below counts as
  // the output phase.
  const std::uint64_t t1 = now_ns();
  timers_.traverse_ns += t1 - t0;

  // Deterministic merge: slice-index order, regardless of which worker ran
  // which slice.
  for (const Slice& s : slices_) {
    out.delivered.insert(out.delivered.end(), s.out.delivered.begin(),
                         s.out.delivered.end());
    out.deliveries.insert(out.deliveries.end(), s.out.deliveries.begin(),
                          s.out.deliveries.end());
    out.collisions.insert(out.collisions.end(), s.out.collisions.begin(),
                          s.out.collisions.end());
    for (int l = 0; l < lanes_; ++l) {
      out.delivered_count[l] += s.out.delivered_count[l];
      out.collided_count[l] += s.out.collided_count[l];
    }
    out.active_listeners += s.out.active_listeners;
  }
  timers_.output_ns += now_ns() - t1;
}

}  // namespace radiocast::radio
