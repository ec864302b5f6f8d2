// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into each library layer: name, start, end, the span that caused it
// (parent id) and the replication it belongs to. They stay in memory and
// are written as one Chrome-trace JSON file when the run ends (open it in
// ui.perfetto.dev). The library's own obs tracing is left off on purpose:
// turning it on would make every medium round emit spans of its own.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";
  int tid = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t rep = 0;     // first replication the span works for
};

class SpanLog {
 public:
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  void add(const Span& s) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }

  /// Summed duration (ns) of every span named `name`.
  std::uint64_t busy_ns(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t total = 0;
    for (const Span& s : spans_) {
      if (name == s.name) total += s.end_ns - s.begin_ns;
    }
    return total;
  }

  /// Durations (ns) of every span named `name`, in recording order.
  std::vector<std::uint64_t> durations(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::uint64_t> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.end_ns - s.begin_ns);
    }
    return out;
  }

  /// Writes the spans as Chrome-trace "X" events (Perfetto-loadable).
  /// Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) return false;
    std::uint64_t origin = ~std::uint64_t{0};
    for (const Span& s : spans_) origin = std::min(origin, s.begin_ns);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    for (const Span& s : spans_) {
      if (!first) out << ",\n";
      first = false;
      out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << s.tid << ",\"ts\":" << (s.begin_ns - origin) / 1000.0
          << ",\"dur\":" << (s.end_ns - s.begin_ns) / 1000.0
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"rep\":" << s.rep << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

  static int thread_index() {
    static std::atomic<int> next{0};
    thread_local const int tid = next.fetch_add(1);
    return tid;
  }

 private:
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t parent,
             std::uint64_t rep)
      : log_(log) {
    if (log_ == nullptr) return;
    span_.name = name;
    span_.tid = SpanLog::thread_index();
    span_.id = log_->next_id();
    span_.parent = parent;
    span_.rep = rep;
    span_.begin_ns = now_ns();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    span_.end_ns = now_ns();
    log_->add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

}  // namespace perfbench
