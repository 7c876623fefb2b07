#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

#include "obs/metrics.h"

namespace ranomaly::obs {
namespace {

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

struct TraceEvent {
  const char* name = nullptr;
  char phase = 'B';
  std::uint64_t ts_ns = 0;
  std::string args;  // end events only
};

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::size_t capacity = 0;
  mutable std::mutex mu;
  std::string thread_name;
  std::vector<TraceEvent> ring;  // grows to capacity, then wraps
  std::size_t next = 0;          // overwrite cursor once full
  std::uint64_t dropped = 0;
};

struct TlsTraceEntry {
  std::uint64_t tracer_id;
  ThreadBuffer* buffer;
};

// Buffers are owned by the tracer and never freed before it, so the
// thread-local cache needs no exit hook: ids are never reused, a stale
// entry simply never matches again.
thread_local std::vector<TlsTraceEntry> g_tls_buffers;

std::uint64_t NextTracerId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

struct Tracer::Impl {
  std::uint64_t tracer_id = 0;
  mutable std::mutex mu;  // buffer list, capacity
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::size_t capacity = 1 << 16;
  std::atomic<std::int64_t> epoch_ns{NowNs()};

  ThreadBuffer& LocalBuffer() {
    for (const TlsTraceEntry& e : g_tls_buffers) {
      if (e.tracer_id == tracer_id) return *e.buffer;
    }
    auto buffer = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = buffer.get();
    {
      std::lock_guard<std::mutex> lock(mu);
      raw->tid = static_cast<std::uint32_t>(buffers.size() + 1);
      raw->capacity = capacity;
      buffers.push_back(std::move(buffer));
    }
    g_tls_buffers.push_back(TlsTraceEntry{tracer_id, raw});
    return *raw;
  }

  void Record(const char* name, char phase, std::string&& args) {
    const std::uint64_t ts = static_cast<std::uint64_t>(
        NowNs() - epoch_ns.load(std::memory_order_relaxed));
    ThreadBuffer& buf = LocalBuffer();
    TraceEvent event;
    event.name = name;
    event.phase = phase;
    event.ts_ns = ts;
    event.args = std::move(args);
    std::lock_guard<std::mutex> lock(buf.mu);
    if (buf.ring.size() < buf.capacity) {
      buf.ring.push_back(std::move(event));
    } else {
      buf.ring[buf.next] = std::move(event);
      buf.next = (buf.next + 1) % buf.capacity;
      ++buf.dropped;
    }
  }

  // One thread's events, oldest first, sanitized so B/E always balance:
  // ends whose begin was overwritten are dropped; begins still open at
  // export time get a synthetic end at the last seen timestamp.
  std::vector<TraceEvent> SanitizedEvents(const ThreadBuffer& buf) const {
    std::vector<TraceEvent> ordered;
    {
      std::lock_guard<std::mutex> lock(buf.mu);
      ordered.reserve(buf.ring.size());
      const std::size_t n = buf.ring.size();
      const std::size_t start = n < buf.capacity ? 0 : buf.next;
      for (std::size_t i = 0; i < n; ++i) {
        ordered.push_back(buf.ring[(start + i) % n]);
      }
    }
    std::vector<TraceEvent> out;
    out.reserve(ordered.size());
    std::vector<const char*> open;
    std::uint64_t last_ts = 0;
    for (TraceEvent& event : ordered) {
      last_ts = event.ts_ns;
      if (event.phase == 'B') {
        open.push_back(event.name);
        out.push_back(std::move(event));
      } else if (!open.empty()) {
        open.pop_back();
        out.push_back(std::move(event));
      }
      // else: end of a span whose begin was overwritten — drop it.
    }
    while (!open.empty()) {
      TraceEvent synthetic;
      synthetic.name = open.back();
      synthetic.phase = 'E';
      synthetic.ts_ns = last_ts;
      open.pop_back();
      out.push_back(std::move(synthetic));
    }
    return out;
  }
};

Tracer::Tracer() : impl_(std::make_unique<Impl>()) {
  impl_->tracer_id = NextTracerId();
}

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
  for (const auto& buffer : impl_->buffers) {
    std::lock_guard<std::mutex> buf_lock(buffer->mu);
    buffer->ring.clear();
    buffer->next = 0;
    buffer->dropped = 0;
  }
  impl_->epoch_ns.store(NowNs(), std::memory_order_relaxed);
}

void Tracer::SetThreadCapacity(std::size_t events) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->capacity = events == 0 ? 1 : events;
}

void Tracer::SetCurrentThreadName(std::string name) {
  ThreadBuffer& buf = impl_->LocalBuffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.thread_name = std::move(name);
}

std::uint64_t Tracer::DroppedCount() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::uint64_t dropped = 0;
  for (const auto& buffer : impl_->buffers) {
    std::lock_guard<std::mutex> buf_lock(buffer->mu);
    dropped += buffer->dropped;
  }
  return dropped;
}

void Tracer::RecordBegin(const char* name) {
  impl_->Record(name, 'B', std::string());
}

void Tracer::RecordEnd(const char* name, std::string&& args_json) {
  impl_->Record(name, 'E', std::move(args_json));
}

std::string Tracer::ExportChromeJson() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto append = [&](const std::string& line) {
    if (!first) out += ',';
    first = false;
    out += "\n";
    out += line;
  };
  for (const auto& buffer : impl_->buffers) {
    {
      std::lock_guard<std::mutex> buf_lock(buffer->mu);
      if (!buffer->thread_name.empty()) {
        append("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
               std::to_string(buffer->tid) + ",\"args\":{\"name\":\"" +
               JsonEscape(buffer->thread_name) + "\"}}");
      }
    }
    for (const TraceEvent& event : impl_->SanitizedEvents(*buffer)) {
      std::string line = "{\"name\":\"" + JsonEscape(event.name) +
                         "\",\"cat\":\"ranomaly\",\"ph\":\"";
      line += event.phase;
      line += "\",\"pid\":1,\"tid\":" + std::to_string(buffer->tid) +
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
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::string out;
  for (const auto& buffer : impl_->buffers) {
    for (const TraceEvent& event : impl_->SanitizedEvents(*buffer)) {
      out += "{\"name\":\"" + JsonEscape(event.name) + "\",\"ph\":\"";
      out += event.phase;
      out += "\",\"tid\":" + std::to_string(buffer->tid) +
             ",\"ts_us\":" + FormatMicros(event.ts_ns);
      if (!event.args.empty()) out += ",\"args\":{" + event.args + "}";
      out += "}\n";
    }
  }
  return out;
}

void TraceSpan::Annotate(std::string_view key, std::string_view value) {
  if (name_ == nullptr) return;
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += JsonEscape(key);
  args_ += "\":\"";
  args_ += JsonEscape(value);
  args_ += '"';
}

void TraceSpan::Annotate(std::string_view key, std::uint64_t value) {
  if (name_ == nullptr) return;
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += JsonEscape(key);
  args_ += "\":";
  args_ += std::to_string(value);
}

void TraceSpan::Annotate(std::string_view key, double value) {
  if (name_ == nullptr) return;
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += JsonEscape(key);
  args_ += "\":";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  args_ += buf;
}

}  // namespace ranomaly::obs
