// A radio::LaneExecutor that forwards every round to another executor
// (a BatchNetwork) and counts and times each call of the four step_lanes*
// entry points. Protocol cores written against LaneExecutor run through
// it unchanged, so the traced run measures the same program; the
// benchmark checks that by comparing per-lane outcomes with the
// unwrapped sweep.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "radio/lane_executor.hpp"
#include "span_log.hpp"

namespace perfbench {

class TimingExecutor : public radiocast::radio::LaneExecutor {
 public:
  enum Entry { kDense = 0, kMax = 1, kActive = 2, kMaxActive = 3 };
  static constexpr std::array<const char*, 4> kSpanNames{
      "radio.step_lanes", "radio.step_lanes_max", "radio.step_lanes_active",
      "radio.step_lanes_max_active"};

  struct Stats {
    std::array<std::uint64_t, 4> calls{};
    std::array<std::uint64_t, 4> ns{};
    /// Bytes of the arrays each call reads or writes in full, summed over
    /// calls: a figure computed from array sizes, not a measurement.
    std::uint64_t computed_bytes = 0;

    std::uint64_t total_calls() const {
      return calls[0] + calls[1] + calls[2] + calls[3];
    }
    std::uint64_t total_ns() const { return ns[0] + ns[1] + ns[2] + ns[3]; }
  };

  /// `log` may be null (count and time only); `parent` is the span id the
  /// per-call spans hang under, `rep` the batch's first replication.
  TimingExecutor(radiocast::radio::LaneExecutor& inner, SpanLog* log,
                 std::uint64_t parent, std::uint64_t rep)
      : inner_(inner), log_(log), parent_(parent), rep_(rep) {}

  const radiocast::graph::Graph& topology() const override {
    return inner_.topology();
  }
  radiocast::radio::CollisionModel collision_model() const override {
    return inner_.collision_model();
  }
  int lanes() const override { return inner_.lanes(); }
  radiocast::radio::Medium& medium() override { return inner_.medium(); }

  void step_lanes(std::span<const std::uint64_t> tx_mask,
                  radiocast::radio::PayloadPlanes payload,
                  radiocast::radio::BatchOutcome& out,
                  bool with_senders = true) override {
    const Timer t(*this, kDense, dense_bytes(false));
    inner_.step_lanes(tx_mask, payload, out, with_senders);
  }

  void step_lanes_max(std::span<const std::uint64_t> tx_mask,
                      radiocast::radio::PayloadPlanes payload,
                      radiocast::radio::KnowledgePlanes best,
                      radiocast::radio::BatchOutcome& out) override {
    const Timer t(*this, kMax, dense_bytes(true));
    inner_.step_lanes_max(tx_mask, payload, best, out);
  }

  void step_lanes_active(std::span<const radiocast::radio::ActiveTx> tx,
                         radiocast::radio::PayloadPlanes payload,
                         radiocast::radio::BatchOutcome& out,
                         bool with_senders = true) override {
    const Timer t(*this, kActive, tx.size_bytes());
    inner_.step_lanes_active(tx, payload, out, with_senders);
  }

  void step_lanes_max_active(std::span<const radiocast::radio::ActiveTx> tx,
                             radiocast::radio::PayloadPlanes payload,
                             radiocast::radio::KnowledgePlanes best,
                             radiocast::radio::BatchOutcome& out) override {
    const Timer t(*this, kMaxActive, tx.size_bytes());
    inner_.step_lanes_max_active(tx, payload, best, out);
  }

  const Stats& stats() const { return stats_; }

 private:
  /// Times one forwarded call: a span when tracing, counters always.
  class Timer {
   public:
    Timer(TimingExecutor& ex, Entry e, std::uint64_t bytes)
        : ex_(ex),
          e_(e),
          span_(ex.log_, kSpanNames[static_cast<std::size_t>(e)], ex.parent_,
                ex.rep_),
          begin_(now_ns()) {
      ex_.stats_.computed_bytes += bytes;
    }
    ~Timer() {
      ex_.stats_.ns[e_] += now_ns() - begin_;
      ++ex_.stats_.calls[e_];
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    TimingExecutor& ex_;
    Entry e_;
    ScopedSpan span_;
    std::uint64_t begin_;
  };

  /// A dense round reads the n-word transmit mask and the whole CSR, and
  /// writes one delivered word per node; the max-fold variants also read
  /// and write the lanes x n knowledge planes.
  std::uint64_t dense_bytes(bool fold) const {
    const auto& g = inner_.topology();
    const std::uint64_t n = g.node_count();
    std::uint64_t bytes = 8 * n + 8 * (n + 1) +
                          4 * static_cast<std::uint64_t>(g.degree_prefix().back()) +
                          8 * n;
    if (fold) bytes += 2 * 8 * n * static_cast<std::uint64_t>(inner_.lanes());
    return bytes;
  }

  radiocast::radio::LaneExecutor& inner_;
  SpanLog* log_;
  std::uint64_t parent_;
  std::uint64_t rep_;
  Stats stats_;
};

}  // namespace perfbench
