#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <vector>

#include "obs/metrics.h"

namespace ranomaly::obs {
namespace {

// Events the ring holds, all threads together.
constexpr std::size_t kCapacity = std::size_t{1} << 16;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string FormatMicros(std::uint64_t ts_ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(ts_ns) / 1000.0);
  return buf;
}

// The calling thread's export id, numbered on its first call.
std::uint32_t CurrentThreadId() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

struct TraceEvent {
  const char* name = nullptr;
  char phase = 'B';
  std::uint32_t tid = 0;
  std::uint64_t ts_ns = 0;
  std::string args;  // end events only
};

// One thread's part of an export: its name, if it has one, and its
// events oldest first.
struct ThreadTrace {
  std::string name;
  std::vector<TraceEvent> events;
};

// Sanitizes one thread's events so B/E always balance: ends whose begin
// was overwritten are dropped; begins still open at export time get a
// synthetic end at the thread's last timestamp.
void Balance(std::vector<TraceEvent>& events) {
  if (events.empty()) return;
  const std::uint32_t tid = events.back().tid;
  const std::uint64_t last_ts = events.back().ts_ns;
  std::vector<const char*> open;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase == 'B') {
      open.push_back(events[i].name);
    } else if (open.empty()) {
      continue;  // the end of a span whose begin was overwritten
    } else {
      open.pop_back();
    }
    if (kept != i) events[kept] = std::move(events[i]);
    ++kept;
  }
  events.resize(kept);
  for (; !open.empty(); open.pop_back()) {
    events.push_back(TraceEvent{open.back(), 'E', tid, last_ts, {}});
  }
}

// Appends `"key":` to a span's argument list.
void AppendKey(std::string& args, std::string_view key) {
  if (!args.empty()) args += ',';
  args += '"';
  args += JsonEscape(key);
  args += "\":";
}

}  // namespace

struct Tracer::Impl {
  mutable std::mutex mu;  // guards every member below
  std::vector<TraceEvent> ring;  // grows to kCapacity, then wraps
  std::uint64_t dropped = 0;     // also the overwrite cursor once full
  std::map<std::uint32_t, std::string> names;  // tid -> thread name
  std::int64_t epoch_ns = NowNs();

  void Record(const char* name, char phase, std::string&& args) {
    const std::uint32_t tid = CurrentThreadId();
    std::lock_guard<std::mutex> lock(mu);
    TraceEvent event{name, phase, tid,
                     static_cast<std::uint64_t>(NowNs() - epoch_ns),
                     std::move(args)};
    if (ring.size() < kCapacity) {
      ring.push_back(std::move(event));
    } else {
      ring[dropped++ % kCapacity] = std::move(event);
    }
  }

  // Every named or recording thread in export-id order, each with its
  // events in ring order and balanced.
  std::map<std::uint32_t, ThreadTrace> Threads() const {
    std::map<std::uint32_t, ThreadTrace> threads;
    {
      std::lock_guard<std::mutex> lock(mu);
      for (const auto& [tid, name] : names) threads[tid].name = name;
      for (std::size_t i = 0; i < ring.size(); ++i) {
        const TraceEvent& event = ring[(dropped + i) % ring.size()];
        threads[event.tid].events.push_back(event);
      }
    }
    for (auto& [tid, thread] : threads) Balance(thread.events);
    return threads;
  }
};

Tracer::Tracer() : impl_(std::make_unique<Impl>()) {}

Tracer::~Tracer() = default;

Tracer& Tracer::Global() {
  static Tracer* global = new Tracer;  // leaked on purpose
  return *global;
}

void Tracer::SetEnabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->ring.clear();
  impl_->dropped = 0;
  impl_->names.clear();
  impl_->epoch_ns = NowNs();
}

void Tracer::SetCurrentThreadName(std::string name) {
  if (!enabled()) return;
  const std::uint32_t tid = CurrentThreadId();
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->names[tid] = std::move(name);
}

std::uint64_t Tracer::DroppedCount() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->dropped;
}

void Tracer::RecordBegin(const char* name) {
  impl_->Record(name, 'B', std::string());
}

void Tracer::RecordEnd(const char* name, std::string&& args_json) {
  impl_->Record(name, 'E', std::move(args_json));
}

std::string Tracer::ExportChromeJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto append = [&](const std::string& line) {
    if (!first) out += ',';
    first = false;
    out += "\n";
    out += line;
  };
  for (const auto& [tid, thread] : impl_->Threads()) {
    if (!thread.name.empty()) {
      append("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
             std::to_string(tid) + ",\"args\":{\"name\":\"" +
             JsonEscape(thread.name) + "\"}}");
    }
    for (const TraceEvent& event : thread.events) {
      std::string line = "{\"name\":\"" + JsonEscape(event.name) +
                         "\",\"cat\":\"ranomaly\",\"ph\":\"";
      line += event.phase;
      line += "\",\"pid\":1,\"tid\":" + std::to_string(tid) +
              ",\"ts\":" + FormatMicros(event.ts_ns);
      if (!event.args.empty()) line += ",\"args\":{" + event.args + "}";
      line += "}";
      append(line);
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string Tracer::ExportJsonl() const {
  std::string out;
  for (const auto& [tid, thread] : impl_->Threads()) {
    for (const TraceEvent& event : thread.events) {
      out += "{\"name\":\"" + JsonEscape(event.name) + "\",\"ph\":\"";
      out += event.phase;
      out += "\",\"tid\":" + std::to_string(tid) +
             ",\"ts_us\":" + FormatMicros(event.ts_ns);
      if (!event.args.empty()) out += ",\"args\":{" + event.args + "}";
      out += "}\n";
    }
  }
  return out;
}

void TraceSpan::Annotate(std::string_view key, std::string_view value) {
  if (name_ == nullptr) return;
  AppendKey(args_, key);
  args_ += '"';
  args_ += JsonEscape(value);
  args_ += '"';
}

void TraceSpan::Annotate(std::string_view key, std::uint64_t value) {
  if (name_ == nullptr) return;
  AppendKey(args_, key);
  args_ += std::to_string(value);
}

void TraceSpan::Annotate(std::string_view key, double value) {
  if (name_ == nullptr) return;
  AppendKey(args_, key);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  args_ += buf;
}

}  // namespace ranomaly::obs
