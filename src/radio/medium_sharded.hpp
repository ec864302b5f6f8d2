// Sharded parallel backend: two-level parallelism over the listener space
// — slices across worker threads x up to 64 Monte-Carlo lanes per slice.
//
// The listener space is cut into SLICES (contiguous CSR intervals balanced
// by the degree prefix sum). The slice layout is a pure function of the
// graph (plus the optional RADIOCAST_SHARD_SLICES override) — never of the
// worker count — and per-slice outputs are merged in slice-index order, so
// the outcome is byte-identical for ANY worker count and ANY steal
// interleaving (pinned by tests/test_medium_sharded.cpp).
//
// Workers run a Chase-Lev-style work-stealing scheme over the slice index
// space: each worker owns a deque (a contiguous range of slice indices,
// packed into one atomic word), pops work from its front, and steals from
// the back of other workers' deques once its own is dry — victims ordered
// topology-aware (same NUMA group first, detected from
// /sys/devices/system/node when available, plain cyclic otherwise). Load
// skew from uneven shard density is absorbed by stealing instead of
// stalling the round on the slowest static shard.
//
// Each slice runs the 64-lane bitplane kernel of radio/medium_bitslice.hpp
// (gather rows, saturating scatter + drain, sender recovery at emission),
// so a round is slices-across-workers x lanes-per-slice parallel. All
// this backend adds is the slice layout, the pool, and the slice-ordered
// merge; with one slice it computes exactly what BitsliceMedium does.
// Scalar resolve() runs the same kernel with one lane.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "radio/medium_bitslice.hpp"

namespace radiocast::radio {

class ShardedMedium final : public BitplaneMedium {
 public:
  /// `threads` is the worker count; 0 defers to the
  /// RADIOCAST_SHARD_THREADS environment variable when set (for hosts
  /// where hardware_concurrency() misreports, e.g. CI containers), else a
  /// hardware-derived default. `slices` is the steal-granularity slice
  /// count; 0 defers to RADIOCAST_SHARD_SLICES when set, else an
  /// adjacency-volume-derived default. The slice layout never depends on
  /// the worker count, so results are a pure function of
  /// (graph, model, slices, input) — the worker count only moves cost.
  ShardedMedium(const graph::Graph& g, CollisionModel model, int threads = 0,
                int slices = 0);
  ~ShardedMedium() override;

  std::string_view name() const override { return "sharded"; }
  /// Pool worker count (the threads knob after its defaults apply).
  int worker_count() const { return worker_count_; }
  /// Steal-granularity slice count (worker-count independent).
  int slice_count() const { return static_cast<int>(slices_.size()); }

 private:
  struct Slice {
    graph::NodeId lo = 0;  // listener interval [lo, hi)
    graph::NodeId hi = 0;
    std::vector<Segment> segments;  // this round's transmitters touching me
    std::uint64_t volume = 0;       // total segment length
    std::vector<graph::NodeId> touched;
    BatchOutcome out;
  };

  /// Splits the prologue's whole-row segments at slice boundaries (scatter
  /// rounds), runs the slices on the pool, and merges them in slice order.
  void run_round(BatchOutcome& out) override;
  void resolve_slice(std::size_t si);

  /// Builds each slice's segment list by walking the transmitters' rows
  /// once (node_slice_ gives the slice of a run's first entry; the run
  /// ends at that slice's upper bound along the sorted row).
  void build_segments();

  /// Runs all slices across the pool and waits for completion.
  void kick_and_wait();
  void worker_loop(std::size_t w);
  /// Own-deque pop (front) / steal (back) over the packed {lo,hi} range.
  static bool pop_front(std::atomic<std::uint64_t>& range, std::uint32_t& idx);
  static bool steal_back(std::atomic<std::uint64_t>& range,
                         std::uint32_t& idx);

  std::vector<Slice> slices_;
  std::vector<std::uint32_t> node_slice_;  // node -> slice index
  int worker_count_ = 1;
  // Work-stealing state: per-worker packed {next, end} slice ranges plus
  // the steal order (same topology group first).
  std::vector<std::atomic<std::uint64_t>> ranges_;
  std::vector<std::vector<std::size_t>> steal_order_;

  // Per-worker steal/finish accounting for one round, written under mu_
  // when a worker finishes and folded into timers_ (steal_attempts /
  // steals / idle_ns) by kick_and_wait after the generation completes.
  struct WorkerStats {
    std::uint64_t steal_attempts = 0;
    std::uint64_t steals = 0;
    std::uint64_t finish_ns = 0;
  };
  std::vector<WorkerStats> worker_stats_;

  // Pool synchronisation: kick_and_wait bumps job_gen_ and waits until
  // every worker has drained every deque for that generation.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t job_gen_ = 0;
  std::size_t done_workers_ = 0;
  bool stop_ = false;
};

}  // namespace radiocast::radio
