// Process-wide metrics registry: monotonic counters, gauges, and
// fixed-bucket histograms.
//
// Each metric owns one registry cell that never moves once registered.
// A counter add is one relaxed atomic fetch_add, a gauge set one relaxed
// store, and an observation locks only its histogram's mutex, so no
// recording call takes the registry lock, from any thread.  Snapshots
// read the cells and report metrics sorted by name, so output is
// deterministic regardless of which thread did what.  Counter values and
// integer histogram bucket counts are sums of integers — associative —
// so they are bit-identical for any RANOMALY_THREADS setting (the
// DESIGN.md determinism contract); gauges (last write wins) and
// *_seconds histograms (wall clock) are metering only and excluded from
// that contract.
//
// This library is standard-library-only (no ranomaly deps): it sits
// below util so even util::ThreadPool can be instrumented.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ranomaly::obs {

// Identifies a registered metric; encodes the kind so the hot path
// never needs a name lookup.  Obtain from Counter()/Gauge()/Histogram()
// and cache (the RANOMALY_METRIC_* macros cache in a function-local
// static).
using MetricId = std::uint32_t;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

// Upper bucket bounds for wall-second histograms: 1us .. ~100s,
// quadrupling.  The implicit final bucket is +Inf.
std::vector<double> TimeBounds();

// `count` bounds starting at `first`, each `factor` times the previous.
std::vector<double> ExponentialBounds(double first, double factor,
                                      std::size_t count);

struct HistogramSnapshot {
  std::vector<double> bounds;           // ascending upper bounds
  std::vector<std::uint64_t> counts;    // bounds.size() + 1; last = +Inf
  std::uint64_t total_count = 0;
  double sum = 0.0;
};

struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;
  double gauge = 0.0;
  HistogramSnapshot histogram;
};

// Aligned "name value" text lines for a snapshot (the `ranomaly
// metrics` default output).  Exposed so callers can filter a snapshot
// before formatting (`stats --analyze`).
std::string FormatSnapshot(const std::vector<MetricSnapshot>& snapshot);

// Full JSON rendering of a snapshot (the `/varz` payload): counters,
// gauges, and histograms with their bucket bounds/counts/sum.  Names
// (which may embed hostile label values) are JSON-escaped; non-finite
// doubles render as `null` (JSON has no Inf/NaN literals).
std::string ToVarzJson(const std::vector<MetricSnapshot>& snapshot);

// Same, plus a "help" object of family -> help text (both escaped);
// pass MetricsRegistry::HelpSnapshot().
std::string ToVarzJson(
    const std::vector<MetricSnapshot>& snapshot,
    const std::vector<std::pair<std::string, std::string>>& help);

// The shortest decimal rendering that parses back to exactly `v` — the
// stable double formatting for JSON payloads (/varz, /api/series), so
// deterministic state renders to deterministic bytes.  Non-finite
// values render as `null`.
std::string JsonDouble(double v);

// JSON string-body escaping: `"`, `\`, newline, carriage return and tab
// get their short escapes, other bytes below 0x20 become \u00XX; every
// other byte (UTF-8 included) passes through.
std::string JsonEscape(std::string_view s);

// Prometheus label-value escaping: backslash, double quote, and newline
// become \\, \", and \n per the exposition format.
std::string PromEscape(std::string_view value);

// Builds a `{key="value",...}` label block with escaped values, for
// embedding labels in a registered metric name:
//   Gauge("health_component_state" + PromLabels({{"component", name}}))
// The part before '{' is the metric *family*; exposition emits # TYPE /
// # HELP once per family.  Families must be kind-consistent.
std::string PromLabels(
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

class MetricsRegistry {
 public:
  // Each kind (counters, gauges, histograms) holds at most this many
  // metrics; registering one more throws std::length_error.
  static constexpr std::uint32_t kMaxMetricsPerKind = 65536;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every RANOMALY_METRIC_* site records into.
  // Never destroyed (leaked on purpose: instrumented code may run during
  // static destruction).
  static MetricsRegistry& Global();

  // Register-or-find by name.  Re-registering an existing name returns
  // the existing id; the kind (and, for histograms, bounds) must match.
  MetricId Counter(std::string_view name);
  MetricId Gauge(std::string_view name);
  MetricId Histogram(std::string_view name, std::vector<double> bounds);

  // Help text for a metric family (the name without any `{...}` label
  // block and without the "ranomaly_" exposition prefix); emitted as a
  // `# HELP` line before the family's `# TYPE`.  Last write wins.
  void SetHelp(std::string_view family, std::string_view help);

  // Hot-path recording; none takes the registry lock.  Set is last
  // write wins.  An id whose slot this registry never registered is
  // ignored.
  void Add(MetricId id, std::uint64_t delta = 1);
  void Set(MetricId id, double value);
  void Observe(MetricId id, double value);

  // Every metric's current value, sorted by name.
  std::vector<MetricSnapshot> Snapshot() const;
  // Every registered help text, sorted by family.
  std::vector<std::pair<std::string, std::string>> HelpSnapshot() const;
  std::string ToText() const;
  // Prometheus exposition text; every name gets the "ranomaly_" prefix.
  std::string ToPrometheus() const;

  // Zeroes every value (registrations survive).  Callers must ensure no
  // concurrent writers: this is for tests and CLI runs, not steady state.
  void Reset();

  // Test convenience: the value of a counter, 0 if unregistered.
  std::uint64_t CounterValue(std::string_view name) const;

 private:
  struct Impl;
  MetricId Register(std::string_view name, MetricKind kind,
                    std::vector<double> bounds);

  std::unique_ptr<Impl> impl_;
};

}  // namespace ranomaly::obs

// Convenience macros: register once per call site (thread-safe
// function-local static), then record.
#define RANOMALY_METRIC_COUNT(name, delta)                                 \
  do {                                                                     \
    static const ::ranomaly::obs::MetricId ranomaly_metric_id_ =           \
        ::ranomaly::obs::MetricsRegistry::Global().Counter(name);          \
    ::ranomaly::obs::MetricsRegistry::Global().Add(ranomaly_metric_id_,    \
                                                   (delta));               \
  } while (0)

#define RANOMALY_METRIC_SET(name, value)                                   \
  do {                                                                     \
    static const ::ranomaly::obs::MetricId ranomaly_metric_id_ =           \
        ::ranomaly::obs::MetricsRegistry::Global().Gauge(name);            \
    ::ranomaly::obs::MetricsRegistry::Global().Set(ranomaly_metric_id_,    \
                                                   (value));               \
  } while (0)

// `bounds` is any std::vector<double> expression, e.g. TimeBounds();
// evaluated once per call site.
#define RANOMALY_METRIC_OBSERVE(name, bounds, value)                       \
  do {                                                                     \
    static const ::ranomaly::obs::MetricId ranomaly_metric_id_ =           \
        ::ranomaly::obs::MetricsRegistry::Global().Histogram(name,         \
                                                             (bounds));    \
    ::ranomaly::obs::MetricsRegistry::Global().Observe(ranomaly_metric_id_,\
                                                       (value));           \
  } while (0)
