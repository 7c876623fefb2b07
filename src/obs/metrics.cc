#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>

namespace ranomaly::obs {
namespace {

constexpr std::uint32_t kKindShift = 30;
constexpr std::uint32_t kSlotMask = (1u << kKindShift) - 1;

MetricId MakeId(MetricKind kind, std::uint32_t slot) {
  return (static_cast<std::uint32_t>(kind) << kKindShift) | slot;
}

MetricKind KindOf(MetricId id) {
  return static_cast<MetricKind>(id >> kKindShift);
}

std::uint32_t SlotOf(MetricId id) { return id & kSlotMask; }

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Shortest decimal form that parses back to exactly `v` ("0.001",
// "1.048576", "4e-06").  Bare %g truncates to 6 significant digits,
// which is lossy for exponential bucket bounds (1.048576 -> "1.04858"):
// two distinct bounds can then print identically, and a scraper that
// re-parses the `le` label attributes samples to a different bucket
// edge than the one the histogram actually used.
std::string FormatBound(double v) {
  // Shortest %g rendering that parses back to the exact double.  Length
  // is not monotonic in precision (%.1g turns 10 into "1e+01" while
  // %.2g gives "10"), so scan all precisions and keep the shortest.
  char best[64] = "";
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) != v) continue;
    if (best[0] == '\0' || std::strlen(buf) < std::strlen(best)) {
      std::memcpy(best, buf, sizeof(buf));
    }
  }
  return best[0] == '\0' ? buf : best;
}

// Splits a registered name into its family (before any '{') and the raw
// label block including braces ("" if unlabeled).
std::pair<std::string_view, std::string_view> SplitFamily(
    std::string_view name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string_view::npos) return {name, {}};
  return {name.substr(0, brace), name.substr(brace)};
}

}  // namespace

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  return FormatBound(v);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string PromEscape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string PromLabels(
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += PromEscape(value);
    out += '"';
  }
  out += '}';
  return out;
}

std::vector<double> ExponentialBounds(double first, double factor,
                                      std::size_t count) {
  if (first <= 0.0 || factor <= 1.0) {
    throw std::invalid_argument("ExponentialBounds: need first>0, factor>1");
  }
  std::vector<double> bounds;
  bounds.reserve(count);
  double v = first;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(v);
    v *= factor;
  }
  return bounds;
}

std::vector<double> TimeBounds() {
  // 1us quadrupling to ~268s: 14 bounds spanning every stage this code
  // meters, in exactly-representable powers of four.
  return ExponentialBounds(1e-6, 4.0, 14);
}

// ---------------------------------------------------------------------------
// Storage

namespace {

// A shard's counter cells.  Only the owning thread writes; growth
// republishes a bigger array (the superseded one is retired, not freed,
// so a concurrent snapshot can finish its reads).
struct CounterCells {
  explicit CounterCells(std::size_t n)
      : cap(n), v(new std::atomic<std::uint64_t>[n]) {
    for (std::size_t i = 0; i < n; ++i) v[i].store(0, std::memory_order_relaxed);
  }
  std::size_t cap;
  std::unique_ptr<std::atomic<std::uint64_t>[]> v;
};

// Per-shard state of one histogram; guarded by the shard's hist_mu
// (uncontended: the owner records, snapshots read rarely).
struct HistCells {
  const std::vector<double>* bounds = nullptr;  // registry-owned, stable
  std::vector<std::uint64_t> buckets;           // bounds->size() + 1
  std::uint64_t count = 0;
  double sum = 0.0;
};

void RecordHist(HistCells& hc, double value) {
  const std::vector<double>& bounds = *hc.bounds;
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
  ++hc.buckets[idx];
  ++hc.count;
  hc.sum += value;
}

struct RetiredHist {
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;
};

}  // namespace

struct MetricsRegistry::Shard {
  std::atomic<CounterCells*> cells{nullptr};
  // Every counter array this shard ever published, newest last; old
  // generations stay alive so a concurrent snapshot can finish reading.
  std::vector<std::unique_ptr<CounterCells>> superseded;
  std::mutex hist_mu;
  std::vector<HistCells> hists;  // indexed by histogram slot
};

struct MetricsRegistry::Impl {
  std::uint64_t registry_id = 0;
  mutable std::mutex mu;

  std::map<std::string, MetricId, std::less<>> by_name;
  std::map<std::string, std::string, std::less<>> help_by_family;
  std::vector<std::string> counter_names;  // slot -> name
  std::vector<std::string> gauge_names;
  std::deque<std::atomic<double>> gauges;  // deque: stable references
  std::vector<std::string> hist_names;
  struct HistInfo {
    std::vector<double> bounds;
  };
  std::deque<HistInfo> hists;  // deque: bounds addresses stay valid

  std::vector<std::unique_ptr<Shard>> shards;  // live thread shards
  std::vector<std::uint64_t> retired_counters;
  std::vector<RetiredHist> retired_hists;
};

// ---------------------------------------------------------------------------
// Thread-local shard table and registry liveness.
//
// A thread's shards are owned by their registries; the thread-local
// table only caches (registry id -> shard).  Ids are never reused, so a
// stale entry for a destroyed registry can never be matched, and the
// exit hook checks liveness under the global lock before touching the
// owner.  The lock and table leak deliberately: thread_local
// destructors may run after static destruction begins.

namespace {

struct TlsEntry {
  std::uint64_t registry_id;
  MetricsRegistry::Shard* shard;
};

std::mutex& LiveMu() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::unordered_map<std::uint64_t, MetricsRegistry*>& LiveRegistries() {
  static auto* map = new std::unordered_map<std::uint64_t, MetricsRegistry*>;
  return *map;
}

std::uint64_t NextRegistryId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

struct TlsShards {
  std::vector<TlsEntry> entries;
  ~TlsShards() {
    std::lock_guard<std::mutex> lock(LiveMu());
    auto& live = LiveRegistries();
    for (const TlsEntry& e : entries) {
      const auto it = live.find(e.registry_id);
      if (it != live.end()) it->second->RetireThreadShard(e.shard);
    }
  }
};

thread_local TlsShards g_tls_shards;

}  // namespace

// ---------------------------------------------------------------------------
// Registry

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>()) {
  impl_->registry_id = NextRegistryId();
  std::lock_guard<std::mutex> lock(LiveMu());
  LiveRegistries().emplace(impl_->registry_id, this);
}

MetricsRegistry::~MetricsRegistry() {
  {
    std::lock_guard<std::mutex> lock(LiveMu());
    LiveRegistries().erase(impl_->registry_id);
  }
  // Shards (and their cells) die with impl_; other threads' stale tls
  // entries can no longer match this registry's id.
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* global = new MetricsRegistry;  // leaked on purpose
  return *global;
}

MetricId MetricsRegistry::Register(std::string_view name, MetricKind kind,
                                   std::vector<double> bounds) {
  if (name.empty()) throw std::invalid_argument("metric name must not be empty");
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->by_name.find(name);
  if (it != impl_->by_name.end()) {
    if (KindOf(it->second) != kind) {
      throw std::logic_error("metric '" + std::string(name) +
                             "' re-registered with a different kind");
    }
    if (kind == MetricKind::kHistogram &&
        impl_->hists[SlotOf(it->second)].bounds != bounds) {
      throw std::logic_error("histogram '" + std::string(name) +
                             "' re-registered with different bounds");
    }
    return it->second;
  }
  std::uint32_t slot = 0;
  switch (kind) {
    case MetricKind::kCounter:
      slot = static_cast<std::uint32_t>(impl_->counter_names.size());
      impl_->counter_names.emplace_back(name);
      impl_->retired_counters.push_back(0);
      break;
    case MetricKind::kGauge:
      slot = static_cast<std::uint32_t>(impl_->gauge_names.size());
      impl_->gauge_names.emplace_back(name);
      impl_->gauges.emplace_back(0.0);
      break;
    case MetricKind::kHistogram: {
      if (bounds.empty() ||
          !std::is_sorted(bounds.begin(), bounds.end(),
                          std::less_equal<double>())) {
        throw std::invalid_argument(
            "histogram bounds must be non-empty and strictly ascending");
      }
      slot = static_cast<std::uint32_t>(impl_->hist_names.size());
      impl_->hist_names.emplace_back(name);
      RetiredHist retired;
      retired.buckets.assign(bounds.size() + 1, 0);
      impl_->retired_hists.push_back(std::move(retired));
      impl_->hists.push_back(Impl::HistInfo{std::move(bounds)});
      break;
    }
  }
  const MetricId id = MakeId(kind, slot);
  impl_->by_name.emplace(std::string(name), id);
  return id;
}

MetricId MetricsRegistry::Counter(std::string_view name) {
  return Register(name, MetricKind::kCounter, {});
}

MetricId MetricsRegistry::Gauge(std::string_view name) {
  return Register(name, MetricKind::kGauge, {});
}

MetricId MetricsRegistry::Histogram(std::string_view name,
                                    std::vector<double> bounds) {
  return Register(name, MetricKind::kHistogram, std::move(bounds));
}

void MetricsRegistry::SetHelp(std::string_view family, std::string_view help) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->help_by_family[std::string(family)] = std::string(help);
}

MetricsRegistry::Shard& MetricsRegistry::LocalShard() {
  for (const TlsEntry& e : g_tls_shards.entries) {
    if (e.registry_id == impl_->registry_id) return *e.shard;
  }
  auto shard = std::make_unique<Shard>();
  Shard* raw = shard.get();
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shards.push_back(std::move(shard));
  }
  g_tls_shards.entries.push_back(TlsEntry{impl_->registry_id, raw});
  return *raw;
}

void MetricsRegistry::Add(MetricId id, std::uint64_t delta) {
  const std::uint32_t slot = SlotOf(id);
  Shard& s = LocalShard();
  CounterCells* cells = s.cells.load(std::memory_order_relaxed);
  if (cells == nullptr || slot >= cells->cap) {
    // Owner-only growth: copy into a bigger array, retire the old one
    // (a concurrent snapshot may still be reading it), publish.
    std::size_t cap = cells != nullptr ? cells->cap : 64;
    while (cap <= slot) cap *= 2;
    auto grown = std::make_unique<CounterCells>(cap);
    if (cells != nullptr) {
      for (std::size_t i = 0; i < cells->cap; ++i) {
        grown->v[i].store(cells->v[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      }
    }
    CounterCells* raw = grown.get();
    s.superseded.push_back(std::move(grown));  // owns every generation
    s.cells.store(raw, std::memory_order_release);
  }
  cells = s.cells.load(std::memory_order_relaxed);
  cells->v[slot].fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::Set(MetricId id, double value) {
  const std::uint32_t slot = SlotOf(id);
  // Gauges are rare (a handful of Set calls per run): a registry-lock
  // write keeps the deque safe against concurrent registration growth.
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (slot < impl_->gauges.size()) {
    impl_->gauges[slot].store(value, std::memory_order_relaxed);
  }
}

void MetricsRegistry::Observe(MetricId id, double value) {
  const std::uint32_t slot = SlotOf(id);
  Shard& s = LocalShard();
  {
    std::lock_guard<std::mutex> lock(s.hist_mu);
    if (slot < s.hists.size() && s.hists[slot].bounds != nullptr) {
      RecordHist(s.hists[slot], value);
      return;
    }
  }
  // First observation of this histogram on this thread: fetch the
  // registry-owned bounds (stable deque storage) outside hist_mu so the
  // mu -> hist_mu lock order of Snapshot() is never inverted.
  const std::vector<double>* bounds = nullptr;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (slot >= impl_->hists.size()) return;  // unknown id: ignore
    bounds = &impl_->hists[slot].bounds;
  }
  std::lock_guard<std::mutex> lock(s.hist_mu);
  if (slot >= s.hists.size()) s.hists.resize(slot + 1);
  HistCells& hc = s.hists[slot];
  if (hc.bounds == nullptr) {
    hc.bounds = bounds;
    hc.buckets.assign(bounds->size() + 1, 0);
  }
  RecordHist(hc, value);
}

void MetricsRegistry::RetireThreadShard(Shard* shard) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (CounterCells* cells = shard->cells.load(std::memory_order_acquire)) {
    const std::size_t n =
        std::min(cells->cap, impl_->retired_counters.size());
    for (std::size_t i = 0; i < n; ++i) {
      impl_->retired_counters[i] +=
          cells->v[i].load(std::memory_order_relaxed);
    }
  }
  {
    std::lock_guard<std::mutex> hist_lock(shard->hist_mu);
    for (std::size_t h = 0; h < shard->hists.size(); ++h) {
      const HistCells& hc = shard->hists[h];
      if (hc.bounds == nullptr || h >= impl_->retired_hists.size()) continue;
      RetiredHist& r = impl_->retired_hists[h];
      for (std::size_t b = 0; b < hc.buckets.size(); ++b) {
        r.buckets[b] += hc.buckets[b];
      }
      r.count += hc.count;
      r.sum += hc.sum;
    }
  }
  const auto it = std::find_if(
      impl_->shards.begin(), impl_->shards.end(),
      [shard](const std::unique_ptr<Shard>& s) { return s.get() == shard; });
  if (it != impl_->shards.end()) impl_->shards.erase(it);
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<MetricSnapshot> out;
  out.reserve(impl_->by_name.size());
  for (const auto& [name, id] : impl_->by_name) {  // map: sorted by name
    MetricSnapshot m;
    m.name = name;
    m.kind = KindOf(id);
    const std::uint32_t slot = SlotOf(id);
    switch (m.kind) {
      case MetricKind::kCounter: {
        std::uint64_t total = impl_->retired_counters[slot];
        for (const auto& shard : impl_->shards) {
          if (CounterCells* cells =
                  shard->cells.load(std::memory_order_acquire)) {
            if (slot < cells->cap) {
              total += cells->v[slot].load(std::memory_order_relaxed);
            }
          }
        }
        m.counter = total;
        break;
      }
      case MetricKind::kGauge:
        m.gauge = impl_->gauges[slot].load(std::memory_order_relaxed);
        break;
      case MetricKind::kHistogram: {
        const RetiredHist& retired = impl_->retired_hists[slot];
        m.histogram.bounds = impl_->hists[slot].bounds;
        m.histogram.counts = retired.buckets;
        m.histogram.total_count = retired.count;
        m.histogram.sum = retired.sum;
        for (const auto& shard : impl_->shards) {
          std::lock_guard<std::mutex> hist_lock(shard->hist_mu);
          if (slot >= shard->hists.size()) continue;
          const HistCells& hc = shard->hists[slot];
          if (hc.bounds == nullptr) continue;
          for (std::size_t b = 0; b < hc.buckets.size(); ++b) {
            m.histogram.counts[b] += hc.buckets[b];
          }
          m.histogram.total_count += hc.count;
          m.histogram.sum += hc.sum;
        }
        break;
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::fill(impl_->retired_counters.begin(), impl_->retired_counters.end(),
            0);
  for (RetiredHist& r : impl_->retired_hists) {
    std::fill(r.buckets.begin(), r.buckets.end(), 0);
    r.count = 0;
    r.sum = 0.0;
  }
  for (auto& gauge : impl_->gauges) gauge.store(0.0, std::memory_order_relaxed);
  for (const auto& shard : impl_->shards) {
    if (CounterCells* cells = shard->cells.load(std::memory_order_acquire)) {
      for (std::size_t i = 0; i < cells->cap; ++i) {
        cells->v[i].store(0, std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> hist_lock(shard->hist_mu);
    for (HistCells& hc : shard->hists) {
      std::fill(hc.buckets.begin(), hc.buckets.end(), 0);
      hc.count = 0;
      hc.sum = 0.0;
    }
  }
}

std::uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  for (const MetricSnapshot& m : Snapshot()) {
    if (m.name == name && m.kind == MetricKind::kCounter) return m.counter;
  }
  return 0;
}

std::string FormatSnapshot(const std::vector<MetricSnapshot>& snapshot) {
  std::size_t width = 0;
  for (const MetricSnapshot& m : snapshot) {
    width = std::max(width, m.name.size());
  }
  std::string out;
  for (const MetricSnapshot& m : snapshot) {
    out += m.name;
    out.append(width - m.name.size() + 2, ' ');
    switch (m.kind) {
      case MetricKind::kCounter:
        out += std::to_string(m.counter);
        break;
      case MetricKind::kGauge:
        out += FormatDouble(m.gauge);
        break;
      case MetricKind::kHistogram: {
        out += "count=" + std::to_string(m.histogram.total_count);
        out += " sum=" + FormatDouble(m.histogram.sum);
        out += " [";
        for (std::size_t b = 0; b < m.histogram.counts.size(); ++b) {
          if (b > 0) out += ' ';
          out += b < m.histogram.bounds.size()
                     ? "le" + FormatBound(m.histogram.bounds[b])
                     : std::string("inf");
          out += ':';
          out += std::to_string(m.histogram.counts[b]);
        }
        out += "]";
        break;
      }
    }
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::ToText() const { return FormatSnapshot(Snapshot()); }

std::string MetricsRegistry::ToPrometheus() const {
  // Registered names may embed a `{key="value"}` label block (built with
  // PromLabels, so values are already escaped); the part before '{' is
  // the metric family.  # HELP (when registered) and # TYPE are emitted
  // exactly once per family, before its first sample — a set, not an
  // adjacency check, because name sorting interleaves families
  // ("foo_x" sorts between "foo" and "foo{...}").
  std::map<std::string, std::string> help;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    help = {impl_->help_by_family.begin(), impl_->help_by_family.end()};
  }
  std::string out;
  std::set<std::string, std::less<>> emitted_families;
  for (const MetricSnapshot& m : Snapshot()) {
    const auto [family, labels] = SplitFamily(m.name);
    const std::string prom_family = "ranomaly_" + std::string(family);
    if (emitted_families.insert(prom_family).second) {
      const auto it = help.find(std::string(family));
      if (it != help.end() && !it->second.empty()) {
        // # HELP escaping: backslash and newline only (not quotes).
        std::string text;
        for (const char c : it->second) {
          if (c == '\\') text += "\\\\";
          else if (c == '\n') text += "\\n";
          else text += c;
        }
        out += "# HELP " + prom_family + " " + text + "\n";
      }
      const char* type = m.kind == MetricKind::kCounter    ? "counter"
                         : m.kind == MetricKind::kGauge    ? "gauge"
                                                           : "histogram";
      out += "# TYPE " + prom_family + " " + type + "\n";
    }
    switch (m.kind) {
      case MetricKind::kCounter:
        out += prom_family + std::string(labels) + " " +
               std::to_string(m.counter) + "\n";
        break;
      case MetricKind::kGauge:
        out += prom_family + std::string(labels) + " " +
               FormatDouble(m.gauge) + "\n";
        break;
      case MetricKind::kHistogram: {
        // A histogram's own labels merge with the le bucket label.
        const std::string inner =
            labels.empty()
                ? std::string{}
                : std::string(labels.substr(1, labels.size() - 2)) + ",";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < m.histogram.bounds.size(); ++b) {
          cumulative += m.histogram.counts[b];
          out += prom_family + "_bucket{" + inner + "le=\"" +
                 FormatBound(m.histogram.bounds[b]) + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        out += prom_family + "_bucket{" + inner + "le=\"+Inf\"} " +
               std::to_string(m.histogram.total_count) + "\n";
        out += prom_family + "_sum" + std::string(labels) + " " +
               FormatDouble(m.histogram.sum) + "\n";
        out += prom_family + "_count" + std::string(labels) + " " +
               std::to_string(m.histogram.total_count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string ToVarzJson(const std::vector<MetricSnapshot>& snapshot) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const MetricSnapshot& m : snapshot) {
    if (m.kind != MetricKind::kCounter) continue;
    if (!first) out += ',';
    first = false;
    out += "\"" + JsonEscape(m.name) + "\":" + std::to_string(m.counter);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const MetricSnapshot& m : snapshot) {
    if (m.kind != MetricKind::kGauge) continue;
    if (!first) out += ',';
    first = false;
    out += "\"" + JsonEscape(m.name) + "\":" + JsonDouble(m.gauge);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const MetricSnapshot& m : snapshot) {
    if (m.kind != MetricKind::kHistogram) continue;
    if (!first) out += ',';
    first = false;
    out += "\"" + JsonEscape(m.name) + "\":{\"bounds\":[";
    for (std::size_t b = 0; b < m.histogram.bounds.size(); ++b) {
      if (b > 0) out += ',';
      out += FormatBound(m.histogram.bounds[b]);
    }
    out += "],\"counts\":[";
    for (std::size_t b = 0; b < m.histogram.counts.size(); ++b) {
      if (b > 0) out += ',';
      out += std::to_string(m.histogram.counts[b]);
    }
    out += "],\"count\":" + std::to_string(m.histogram.total_count);
    out += ",\"sum\":" + JsonDouble(m.histogram.sum) + "}";
  }
  out += "}}";
  return out;
}

std::string ToVarzJson(
    const std::vector<MetricSnapshot>& snapshot,
    const std::vector<std::pair<std::string, std::string>>& help) {
  std::string out = ToVarzJson(snapshot);
  // Splice the help object in before the closing brace; both family
  // names and help texts are operator-supplied and must be escaped.
  out.pop_back();
  out += ",\"help\":{";
  bool first = true;
  for (const auto& [family, text] : help) {
    if (!first) out += ',';
    first = false;
    out += "\"" + JsonEscape(family) + "\":\"" + JsonEscape(text) + "\"";
  }
  out += "}}";
  return out;
}

std::vector<std::pair<std::string, std::string>>
MetricsRegistry::HelpSnapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return {impl_->help_by_family.begin(), impl_->help_by_family.end()};
}

}  // namespace ranomaly::obs
