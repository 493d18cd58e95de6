// Unified telemetry: a metrics registry, a trace recorder, and the ambient
// bindings that let the engine report without threading sinks through every
// layer's options structs.
//
// Three pieces, all optional and all off by default:
//
//  - MetricsRegistry: named counters / gauges / log2-bucketed histograms.
//    Writers touch per-thread cells (no locks on the write path after the
//    first touch); snapshot() merges the cells with commutative operations
//    (counters and histogram buckets sum, gauges take the max), so the
//    merged snapshot is identical for any thread count on a deterministic
//    workload. A process-wide registry pointer can be installed; when none
//    is installed every reporting site reduces to one null check.
//
//  - TraceRecorder: an append-only list of Chrome trace events ("X"
//    complete spans, "i" instants, "M" metadata) serialized as the
//    trace-event JSON that Perfetto and chrome://tracing load directly.
//    Timestamps come from a pluggable Clock so tests inject a fake one.
//    merge_process() folds a worker process's trace document into this
//    recorder under a fresh pid lane — how the shard supervisor stitches
//    per-shard trace files into one merged trace.
//
//  - TraceBinding: a per-thread ambient {recorder, pid, tid, round cap}
//    installed by whoever owns a recorder (the CLI, run_campaign's worker
//    lambda). The engine reads it once per run; when none is bound the
//    per-round overhead is a single pointer test.
//
// Nothing here ever feeds canonical campaign JSON: telemetry output lives
// in its own files, and the canonical byte-identity oracles run with
// tracing both on and off to prove it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/util/json.h"

namespace unilocal {
namespace telemetry {

// ---------------------------------------------------------------------------
// Clock

/// Microsecond clock behind every trace timestamp. The default is the
/// process steady clock; tests install FakeClock to make span layout a pure
/// function of the workload.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual std::int64_t now_micros() = 0;
};

/// The process-wide monotonic clock (micros since an arbitrary epoch).
Clock& steady_clock();

/// Deterministic clock for tests: starts at 0, moves only when told to.
/// A non-zero auto_advance makes every read tick forward by that many
/// micros *after* returning, so consecutive reads are strictly ordered —
/// enough for span-nesting assertions without any real time.
class FakeClock final : public Clock {
 public:
  explicit FakeClock(std::int64_t auto_advance = 0)
      : auto_advance_(auto_advance) {}
  std::int64_t now_micros() override {
    const std::int64_t now = now_;
    now_ += auto_advance_;
    return now;
  }
  void advance(std::int64_t micros) { now_ += micros; }
  void set(std::int64_t micros) { now_ = micros; }

 private:
  std::int64_t now_ = 0;
  std::int64_t auto_advance_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics registry

enum class MetricKind { kCounter, kGauge, kHistogram };

/// "counter" / "gauge" / "histogram" — the spelling used in JSON output.
const char* metric_kind_name(MetricKind kind);

/// Histograms bucket by log2: bucket 0 holds values <= 0, bucket k holds
/// values in [2^(k-1), 2^k), the last bucket absorbs everything larger.
constexpr int kHistogramBuckets = 48;

/// log2 bucket index for a histogram observation.
int histogram_bucket(std::int64_t value);

/// One merged metric as returned by MetricsRegistry::snapshot().
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /// Counter: total. Gauge: maximum recorded value (0 if never set).
  std::int64_t value = 0;
  /// Histogram only.
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::array<std::int64_t, kHistogramBuckets> buckets{};

  bool operator==(const MetricSnapshot& other) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Interns a metric and returns its id (stable for the registry's
  /// lifetime; the same name always maps to the same id). Registering an
  /// existing name under a different kind throws.
  int counter(const std::string& name);
  int gauge(const std::string& name);
  int histogram(const std::string& name);

  /// Write-path primitives; each touches only the calling thread's cell.
  void add(int id, std::int64_t delta);         // counter +=
  void record_max(int id, std::int64_t value);  // gauge = max(gauge, value)
  void observe(int id, std::int64_t value);     // histogram sample

  /// Name-based conveniences (intern + write). Fine at per-run or
  /// per-cell granularity; hot loops should hold an id instead.
  void add(const std::string& name, std::int64_t delta);
  void record_max(const std::string& name, std::int64_t value);
  void observe(const std::string& name, std::int64_t value);

  /// Merges every thread cell into one snapshot, sorted by name. Not
  /// linearizable against concurrent writers — callers snapshot after the
  /// writing threads have been joined.
  std::vector<MetricSnapshot> snapshot() const;

  /// {"metrics": [{name, kind, ...}, ...]} with names sorted; histograms
  /// carry count/sum/min/max and a sparse {"bucket": count} object.
  json::Value to_json() const;

  /// Engine storage for one thread (opaque; see telemetry.cpp).
  struct Cell;

 private:
  Cell& local_cell();
  int intern(const std::string& name, MetricKind kind);

  struct State;
  std::unique_ptr<State> state_;
};

/// The process-wide registry every reporting site consults: nullptr (the
/// default) makes all reporting a no-op.
MetricsRegistry* metrics() noexcept;
void install_metrics(MetricsRegistry* registry) noexcept;

/// RAII install/restore for the process-wide registry.
class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsRegistry* registry);
  ~ScopedMetrics();
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  MetricsRegistry* previous_;
};

// ---------------------------------------------------------------------------
// Trace recorder

/// One Chrome trace event. Spans are "X" (complete) events with a duration;
/// point-in-time markers are "i" instants; "M" carries metadata such as
/// process names. args is a json object (or null for none).
struct TraceEvent {
  std::string name;
  char phase = 'X';
  std::int64_t ts = 0;   // micros
  std::int64_t dur = 0;  // micros, "X" only
  int pid = 1;
  int tid = 1;
  json::Value args;

  /// Convenience arg appenders (create the args object on first use). The
  /// const char* row keeps a string literal from binding to the bool row.
  void arg(const std::string& key, const std::string& value);
  void arg(const std::string& key, const char* value);
  void arg(const std::string& key, std::int64_t value);
  void arg(const std::string& key, std::uint64_t value);
  void arg(const std::string& key, double value);
  void arg(const std::string& key, bool value);
};

class TraceRecorder {
 public:
  /// nullptr clock = the process steady clock. The clock must outlive the
  /// recorder.
  explicit TraceRecorder(Clock* clock = nullptr);
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Current trace time in micros (one clock read).
  std::int64_t now();

  /// Appends an event (thread-safe).
  void record(TraceEvent event);

  /// Names a pid lane ("M"/"process_name" metadata in the output).
  void set_process_name(int pid, const std::string& name);

  /// A stable 1-based tid lane for the calling thread (allocated on first
  /// use per thread). Thread pools hand out work by job index, not worker
  /// id, so lanes are how concurrent spans avoid colliding on one tid.
  int lane();

  std::size_t size() const;
  std::vector<TraceEvent> events() const;

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} — process-name
  /// metadata first, then events in record order.
  json::Value to_json() const;
  /// to_json().dump() + newline to a file; throws on I/O failure.
  void write_file(const std::string& path) const;

  /// Folds a worker's trace document (as written by write_file) into this
  /// recorder: every event's pid is remapped to `pid`, tids are kept, and
  /// the lane is named `process_name`. Throws on a malformed document.
  void merge_process(const json::Value& document, int pid,
                     const std::string& process_name);

  /// One event from its trace-event JSON form (shared by merge_process and
  /// the telemetry_check tool). Throws on missing/ill-typed fields.
  static TraceEvent parse_event(const json::Value& value);
  /// The JSON form parse_event reads.
  static json::Value event_to_json(const TraceEvent& event);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

// ---------------------------------------------------------------------------
// Ambient engine binding

/// Default head-sampling cap: per-round events are recorded for the first
/// this-many rounds of each engine run, then stop (the run span still
/// covers the whole run).
constexpr std::int64_t kDefaultTraceRounds = 1024;

/// What an engine run needs to know to trace itself: where to record, which
/// pid/tid lane it lives on, and the per-run round cap.
struct TraceBinding {
  TraceRecorder* recorder = nullptr;
  int pid = 1;
  int tid = 1;
  std::int64_t trace_rounds = kDefaultTraceRounds;
};

/// The calling thread's ambient binding, or nullptr when none is installed.
/// The engine reads this once per run.
const TraceBinding* trace_binding() noexcept;

/// Installs a binding for the current thread for the scope's lifetime
/// (restores the previous one on destruction). The owner of the recorder
/// binds around each unit of work — e.g. run_campaign binds around each
/// cell on whichever pool thread runs it.
class ScopedTraceBinding {
 public:
  explicit ScopedTraceBinding(const TraceBinding& binding);
  ~ScopedTraceBinding();
  ScopedTraceBinding(const ScopedTraceBinding&) = delete;
  ScopedTraceBinding& operator=(const ScopedTraceBinding&) = delete;

 private:
  TraceBinding binding_;
  const TraceBinding* previous_;
};

}  // namespace telemetry
}  // namespace unilocal
