// Chrome-trace instrumentation with a ~free disabled path.
//
// obs::TraceSession records scoped spans, instant events, and counter
// samples into per-thread ring buffers and flushes them as Chrome
// trace-event JSON ("X"/"i"/"C" phases plus thread-name metadata), loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. The design contract:
//
//   * One global relaxed-atomic enabled flag gates every record call, so
//     instrumentation compiled into the hot kernels costs a load + branch
//     when no --trace is active (pinned by the overhead bar in
//     tests/test_obs.cpp).
//   * Event names and argument keys are `const char*` STATIC strings —
//     recording never allocates, never formats. Each thread owns a
//     fixed-capacity ring; when it wraps, the oldest events are dropped
//     and counted (dropped()), never blocking the instrumented thread.
//   * Tracing never touches the reports: with --timing=off the CSV/JSON
//     output of a traced run is byte-identical to an untraced one (pinned
//     by test + CI). The trace file is the only side channel.
//
// This layer is about wall-clock attribution across threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace radiocast::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
/// Nanoseconds since the active session started (steady clock).
std::uint64_t session_now_ns();
void emit_complete(const char* name, std::uint64_t begin_ns,
                   const char* arg1, std::uint64_t v1, const char* arg2,
                   std::uint64_t v2);
void emit_event(char phase, const char* name, std::uint64_t value);
}  // namespace detail

/// The single branch every instrumentation site pays when tracing is off.
inline bool tracing_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Names the calling thread's lane in the trace (e.g. "sharded-worker-3").
/// Cheap no-op when tracing is off; safe to call repeatedly (last name
/// wins for the thread's current buffer).
void set_thread_name(const char* name);

/// Point event on the calling thread's timeline (Chrome phase "i").
inline void trace_instant(const char* name) {
  if (tracing_enabled()) detail::emit_event('i', name, 0);
}

/// Counter sample (Chrome phase "C"): a stepped per-name value track.
inline void trace_counter(const char* name, std::uint64_t value) {
  if (tracing_enabled()) detail::emit_event('C', name, value);
}

/// RAII scoped span: records one complete ("X") event covering the scope's
/// lifetime, with up to two integer arguments. Arguments are evaluated by
/// the caller either way — keep them to values already at hand.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* arg1 = nullptr,
                     std::uint64_t v1 = 0, const char* arg2 = nullptr,
                     std::uint64_t v2 = 0)
      : name_(name),
        arg1_(arg1),
        arg2_(arg2),
        v1_(v1),
        v2_(v2),
        begin_ns_(tracing_enabled() ? detail::session_now_ns() : kOff) {}
  ~TraceSpan() {
    if (begin_ns_ != kOff) {
      detail::emit_complete(name_, begin_ns_, arg1_, v1_, arg2_, v2_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  static constexpr std::uint64_t kOff = ~std::uint64_t{0};
  const char* name_;
  const char* arg1_;
  const char* arg2_;
  std::uint64_t v1_;
  std::uint64_t v2_;
  std::uint64_t begin_ns_;
};

/// Process-wide trace recorder. One session may be active at a time;
/// start() arms the global flag, stop_and_flush() disarms it, drains every
/// thread's ring, and writes the Chrome trace JSON file.
class TraceSession {
 public:
  static TraceSession& global();

  /// Arms tracing; events land in per-thread rings until stop_and_flush.
  /// `events_per_thread` overrides the default ring capacity (0 keeps the
  /// default; tests shrink it to exercise the drop path). Throws
  /// std::runtime_error if a session is already active.
  void start(std::string path, std::size_t events_per_thread = 0);

  bool active() const { return tracing_enabled(); }

  /// Disarms tracing, writes the trace file, and releases the buffers.
  /// Returns the path written, or "" when no session was active. Throws
  /// std::runtime_error when the file cannot be written.
  std::string stop_and_flush();

  /// Events lost to ring wrap-around in the session being recorded (or the
  /// last one flushed). Also emitted into the trace as a final
  /// "trace.dropped_events" counter when non-zero.
  std::uint64_t dropped() const;

 private:
  TraceSession() = default;
};

}  // namespace radiocast::obs
