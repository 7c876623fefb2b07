// Scoped span tracing with per-thread ring buffers.
//
// A TraceSpan records a Chrome trace_event "B" (begin) at construction
// and an "E" (end) at destruction; nesting follows scope nesting, so
// parent/child structure falls out of B/E pairing.  Annotate() attaches
// key=value arguments to the end event.  Recording is ~one relaxed
// atomic load when the tracer is disabled (the default).
//
// Events land in a fixed-capacity ring per thread (oldest overwritten;
// the drop count is kept so truncation is visible).  Export produces
// Chrome trace_event JSON — load it at https://ui.perfetto.dev or
// chrome://tracing — or a JSONL stream (one event per line) for tests.
// Timestamps are wall-clock nanoseconds from a steady clock: metering
// only, never algorithm input (DESIGN.md determinism rule).
//
// Standard-library-only, like metrics.h: usable from every layer
// including util.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace ranomaly::obs {

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The process-wide tracer every TraceSpan records into.  Leaked, like
  // MetricsRegistry::Global().
  static Tracer& Global();

  void SetEnabled(bool on);
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Drops all buffered events and restarts the timestamp epoch.
  void Reset();

  // Events kept per thread before the ring overwrites the oldest.
  // Applies to buffers created after the call; default 65536.
  void SetThreadCapacity(std::size_t events);

  // Names the calling thread in exported metadata ("pool-worker-3").
  void SetCurrentThreadName(std::string name);

  // Chrome trace_event JSON ({"traceEvents":[...]}).  Buffers are
  // sanitized per thread: an E whose B was overwritten is dropped, and
  // a still-open B gets a synthetic E at the buffer's last timestamp,
  // so exported B/E pairs always balance.
  std::string ExportChromeJson() const;

  // One sanitized event per line: {"name":..,"ph":"B"|"E","tid":N,
  // "ts_us":..,"args":{..}}.
  std::string ExportJsonl() const;

  // Events lost to ring overwrites since the last Reset().
  std::uint64_t DroppedCount() const;

  // Span internals.
  void RecordBegin(const char* name);
  void RecordEnd(const char* name, std::string&& args_json);

 private:
  struct Impl;
  std::atomic<bool> enabled_{false};
  std::unique_ptr<Impl> impl_;
};

// RAII span.  The name must be a string literal (stored by pointer).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    Tracer& tracer = Tracer::Global();
    if (tracer.enabled()) {
      name_ = name;
      tracer.RecordBegin(name);
    }
  }
  ~TraceSpan() { End(); }
  // Ends the span before scope exit (for phases inside one function);
  // the destructor then does nothing.
  void End() {
    if (name_ != nullptr) {
      Tracer::Global().RecordEnd(name_, std::move(args_));
      name_ = nullptr;
    }
  }
  void Annotate(std::string_view key, std::string_view value);
  void Annotate(std::string_view key, std::uint64_t value);
  void Annotate(std::string_view key, double value);

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::string args_;  // accumulated `"key":value` pairs
};

}  // namespace ranomaly::obs
