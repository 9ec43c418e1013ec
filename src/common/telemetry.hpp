// Campaign observability: monotonic timers, relaxed counters, a thread-safe
// JSONL event sink, and a throttled stderr progress meter.
//
// Every long-running loop in the framework (fault campaigns, beam
// experiments, the Study stages) emits structured events through a Sink so
// that multi-hour runs can be monitored and profiled without touching the
// deterministic simulation path: telemetry reads wall-clock time but never
// feeds anything back into the RNG or scheduling decisions that affect
// results.
//
// Event format: one JSON object per line (JSONL), e.g.
//
//   {"event":"campaign_start","t_ms":0.012,"injector":"NVBitFI",...}
//
// Every event carries `event` (its name) and `t_ms` (milliseconds since the
// sink was opened, monotonic). See docs/ARCHITECTURE.md §8 for the schema
// emitted by each layer.
//
// Sinks are selected per config (`CampaignConfig::telemetry` etc.), with the
// process-wide fallback `GPUREL_TELEMETRY=<path>` (append mode, so a whole
// bench suite can share one file).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>

namespace gpurel::json {
class Value;
}

namespace gpurel::telemetry {

/// Monotonic stopwatch (steady_clock).
class Timer {
 public:
  Timer() : start_(Clock::now()) {}
  void reset() { start_ = Clock::now(); }
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  // Observability-only stopwatch: elapsed_ms() feeds progress meters and the
  // telemetry t_ms field, never results or cache keys.
  // gpurel-lint: allow(wall-clock) timing is observability-only, see above
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Relaxed atomic event counter (safe to bump from campaign workers).
class Counter {
 public:
  void add(std::uint64_t n = 1) { n_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return n_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> n_{0};
};

/// One key/value pair of an event. Implicitly constructible from the scalar
/// types events carry; strings are JSON-escaped at serialization time.
class Field {
 public:
  Field(std::string_view key, std::string_view v)
      : key_(key), kind_(Kind::Str), str_(v) {}
  Field(std::string_view key, const char* v)
      : key_(key), kind_(Kind::Str), str_(v == nullptr ? "" : v) {}
  Field(std::string_view key, const std::string& v)
      : key_(key), kind_(Kind::Str), str_(v) {}
  Field(std::string_view key, bool v) : key_(key), kind_(Kind::Bool), b_(v) {}
  Field(std::string_view key, double v) : key_(key), kind_(Kind::Dbl), d_(v) {}
  Field(std::string_view key, std::uint64_t v)
      : key_(key), kind_(Kind::Uint), u_(v) {}
  Field(std::string_view key, std::int64_t v)
      : key_(key), kind_(Kind::Int), i_(v) {}
  // (std::size_t and std::uint64_t are the same type on this platform's
  // LP64 ABI; smaller integers widen through these two.)
  Field(std::string_view key, unsigned v)
      : Field(key, static_cast<std::uint64_t>(v)) {}
  Field(std::string_view key, int v)
      : Field(key, static_cast<std::int64_t>(v)) {}

  /// Appends `"key":value` (no surrounding separators) to `out`.
  void append_to(std::string& out) const;

 private:
  enum class Kind : std::uint8_t { Str, Int, Uint, Dbl, Bool };

  std::string_view key_;
  Kind kind_;
  std::string str_;
  union {
    std::int64_t i_;
    std::uint64_t u_;
    double d_;
    bool b_;
  };
};

/// Append a JSON string literal (quotes + escapes) to `out`.
void append_json_string(std::string& out, std::string_view s);

/// Thread-safe JSONL event sink over a file. Each emit writes and flushes
/// one complete line, so concurrent writers never interleave and a killed
/// process loses at most nothing.
class Sink {
 public:
  /// Opens `path` for append; throws std::runtime_error on failure.
  explicit Sink(const std::string& path);
  ~Sink();

  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  /// Emit one event line: {"event":name,"t_ms":...,fields...}.
  void emit(std::string_view event, std::initializer_list<Field> fields);
  /// Emit one event line whose fields are the members of a JSON object, in
  /// order and in the canonical json::Value rendering — so a document type
  /// that already owns its serializer is emitted verbatim, not re-listed.
  void emit(std::string_view event, const json::Value& object);

  std::uint64_t events_emitted() const { return emitted_.value(); }

 private:
  void write_line(const std::string& line);

  std::FILE* file_;
  std::mutex mu_;
  Timer since_open_;
  Counter emitted_;
};

/// Process-wide sink configured by GPUREL_TELEMETRY=<path> (nullptr when the
/// variable is unset or empty; opened lazily on first call, append mode).
Sink* env_sink();

/// The sink a component should use: the explicitly configured one when
/// non-null, else the GPUREL_TELEMETRY fallback, else nullptr (disabled).
inline Sink* resolve(Sink* configured) {
  return configured != nullptr ? configured : env_sink();
}

/// Throttled "\r[label] done/total" meter on stderr; prints at most every
/// ~100 ms plus a final newline. All methods are thread-safe; a disabled
/// meter is a no-op.
class Progress {
 public:
  Progress(bool enabled, std::string label, std::uint64_t total);
  ~Progress();

  void tick(std::uint64_t n = 1);
  /// Force the final line out (also done by the destructor).
  void finish();

 private:
  void print_line(std::uint64_t done, bool newline);

  bool enabled_;
  std::string label_;
  std::uint64_t total_;
  Counter done_;
  std::mutex mu_;
  Timer since_print_;
  bool printed_ = false;
  bool finished_ = false;
};

}  // namespace gpurel::telemetry
