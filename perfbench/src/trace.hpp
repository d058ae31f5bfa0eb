// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around each call into a
// library layer, and named `<layer>.<call>`. Each carries its parent (the
// span open on the same thread when it started) and work counts as args.
// Nothing is written until the run ends; `write_trace_events` then emits the
// Chrome trace-event format (one "X" event per span), which chrome://tracing
// and Perfetto open offline.
//
// When the recorder is disabled a Span is one branch on a global flag; the
// untraced run uses it that way, so its timings carry no recording cost.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t tid = 0;
  std::vector<std::pair<std::string, double>> args;

  [[nodiscard]] double arg(const std::string& key, double fallback = 0) const {
    for (const auto& [k, v] : args) {
      if (k == key) return v;
    }
    return fallback;
  }
};

class TraceRecorder {
 public:
  static TraceRecorder& instance() {
    static TraceRecorder recorder;
    return recorder;
  }

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::uint64_t next_id() {
    const std::lock_guard lock(mutex_);
    return ++last_id_;
  }

  void add(SpanRecord record) {
    const std::lock_guard lock(mutex_);
    spans_.push_back(std::move(record));
  }

  [[nodiscard]] std::vector<SpanRecord> spans() const {
    const std::lock_guard lock(mutex_);
    return spans_;
  }

  /// Chrome trace-event JSON; timestamps in µs relative to the first span.
  void write_trace_events(std::ostream& out) const;

 private:
  TraceRecorder() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  ///< guarded by mutex_
  std::uint64_t last_id_ = 0;      ///< guarded by mutex_
};

/// RAII span. `arg` attaches a work count; the record is committed at scope
/// exit, with its parent taken from this thread's open-span stack.
class Span {
 public:
  explicit Span(std::string name) {
    if (!TraceRecorder::instance().enabled()) return;
    active_ = true;
    record_.name = std::move(name);
    record_.id = TraceRecorder::instance().next_id();
    record_.parent = open_stack().empty() ? 0 : open_stack().back();
    record_.tid = thread_tag();
    open_stack().push_back(record_.id);
    record_.start_ns = now_ns();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (!active_) return;
    record_.dur_ns = now_ns() - record_.start_ns;
    open_stack().pop_back();
    TraceRecorder::instance().add(std::move(record_));
  }

  void arg(std::string key, double value) {
    if (active_) record_.args.emplace_back(std::move(key), value);
  }

 private:
  static std::vector<std::uint64_t>& open_stack() {
    thread_local std::vector<std::uint64_t> stack;
    return stack;
  }
  static std::uint32_t thread_tag() {
    static std::uint32_t next = 0;
    static std::mutex mutex;
    thread_local std::uint32_t tag = [] {
      const std::lock_guard lock(mutex);
      return ++next;
    }();
    return tag;
  }

  bool active_ = false;
  SpanRecord record_;
};

inline void TraceRecorder::write_trace_events(std::ostream& out) const {
  const std::vector<SpanRecord> all = spans();
  std::int64_t origin = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i == 0 || all[i].start_ns < origin) origin = all[i].start_ns;
  }
  out.precision(15);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    const auto dot = s.name.find('.');
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << s.name.substr(0, dot) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent;
    for (const auto& [k, v] : s.args) out << ",\"" << k << "\":" << v;
    out << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
