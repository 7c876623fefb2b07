#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>

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

// One histogram.  `bounds` is fixed before the cell is published and
// read without a lock; `mu` guards the rest.
struct HistCell {
  std::mutex mu;
  std::vector<double> bounds;          // ascending upper bounds
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1; last = +Inf
  std::uint64_t count = 0;
  double sum = 0.0;
};

// The cells of one metric kind, in fixed-size chunks that never move
// once allocated, so a recorder indexes its cell without a lock while
// registration appends under the registry mutex.  A cell is filled in
// before the size that covers it is released, so a slot below the
// acquired size always names a published cell in a live chunk.
template <typename Cell>
class CellTable {
 public:
  static constexpr std::uint32_t kChunkCells = 256;
  static_assert(MetricsRegistry::kMaxMetricsPerKind % kChunkCells == 0);

  CellTable() = default;
  ~CellTable() {
    for (auto& chunk : chunks_) delete[] chunk.load(std::memory_order_relaxed);
  }
  CellTable(const CellTable&) = delete;
  CellTable& operator=(const CellTable&) = delete;

  // The cell at `slot`, or nullptr for a slot not (yet) registered.
  Cell* Find(std::uint32_t slot) const {
    if (slot >= size_.load(std::memory_order_acquire)) return nullptr;
    return &At(slot);
  }

  // The rest runs under the registry mutex.

  std::uint32_t size() const { return size_.load(std::memory_order_relaxed); }

  Cell& At(std::uint32_t slot) const {
    return chunks_[slot / kChunkCells].load(
        std::memory_order_relaxed)[slot % kChunkCells];
  }

  // Claims the next slot, lets `init` fill in its fresh cell, then
  // publishes it.  Throws once the fixed chunk table is full.
  template <typename Init>
  std::uint32_t Append(Init&& init) {
    const std::uint32_t slot = size();
    if (slot == MetricsRegistry::kMaxMetricsPerKind) {
      throw std::length_error("more than " + std::to_string(slot) +
                              " metrics of one kind registered");
    }
    std::atomic<Cell*>& chunk = chunks_[slot / kChunkCells];
    if (chunk.load(std::memory_order_relaxed) == nullptr) {
      chunk.store(new Cell[kChunkCells](), std::memory_order_relaxed);
    }
    init(At(slot));
    size_.store(slot + 1, std::memory_order_release);
    return slot;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::uint32_t slot = 0; slot < size(); ++slot) fn(At(slot));
  }

 private:
  std::array<std::atomic<Cell*>,
             MetricsRegistry::kMaxMetricsPerKind / kChunkCells>
      chunks_{};
  std::atomic<std::uint32_t> size_{0};
};

}  // namespace

struct MetricsRegistry::Impl {
  // Guards registration, the maps, and Snapshot/Reset; recording never
  // takes it.
  mutable std::mutex mu;
  std::map<std::string, MetricId, std::less<>> by_name;
  std::map<std::string, std::string, std::less<>> help_by_family;
  CellTable<std::atomic<std::uint64_t>> counters;
  CellTable<std::atomic<double>> gauges;
  CellTable<HistCell> hists;
};

// ---------------------------------------------------------------------------
// Registry

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>()) {}

MetricsRegistry::~MetricsRegistry() = default;

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
        impl_->hists.At(SlotOf(it->second)).bounds != bounds) {
      throw std::logic_error("histogram '" + std::string(name) +
                             "' re-registered with different bounds");
    }
    return it->second;
  }
  std::uint32_t slot = 0;
  switch (kind) {
    case MetricKind::kCounter:
      slot = impl_->counters.Append([](auto&) {});
      break;
    case MetricKind::kGauge:
      slot = impl_->gauges.Append([](auto&) {});
      break;
    case MetricKind::kHistogram:
      if (bounds.empty() ||
          !std::is_sorted(bounds.begin(), bounds.end(),
                          std::less_equal<double>())) {
        throw std::invalid_argument(
            "histogram bounds must be non-empty and strictly ascending");
      }
      slot = impl_->hists.Append([&bounds](HistCell& cell) {
        cell.buckets.assign(bounds.size() + 1, 0);
        cell.bounds = std::move(bounds);
      });
      break;
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

void MetricsRegistry::Add(MetricId id, std::uint64_t delta) {
  if (auto* cell = impl_->counters.Find(SlotOf(id))) {
    cell->fetch_add(delta, std::memory_order_relaxed);
  }
}

void MetricsRegistry::Set(MetricId id, double value) {
  if (auto* cell = impl_->gauges.Find(SlotOf(id))) {
    cell->store(value, std::memory_order_relaxed);
  }
}

void MetricsRegistry::Observe(MetricId id, double value) {
  HistCell* cell = impl_->hists.Find(SlotOf(id));
  if (cell == nullptr) return;
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(cell->bounds.begin(), cell->bounds.end(), value) -
      cell->bounds.begin());
  std::lock_guard<std::mutex> lock(cell->mu);
  ++cell->buckets[idx];
  ++cell->count;
  cell->sum += value;
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
      case MetricKind::kCounter:
        m.counter = impl_->counters.At(slot).load(std::memory_order_relaxed);
        break;
      case MetricKind::kGauge:
        m.gauge = impl_->gauges.At(slot).load(std::memory_order_relaxed);
        break;
      case MetricKind::kHistogram: {
        HistCell& cell = impl_->hists.At(slot);
        m.histogram.bounds = cell.bounds;
        std::lock_guard<std::mutex> hist_lock(cell.mu);
        m.histogram.counts = cell.buckets;
        m.histogram.total_count = cell.count;
        m.histogram.sum = cell.sum;
        break;
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->counters.ForEach(
      [](auto& cell) { cell.store(0, std::memory_order_relaxed); });
  impl_->gauges.ForEach(
      [](auto& cell) { cell.store(0.0, std::memory_order_relaxed); });
  impl_->hists.ForEach([](HistCell& cell) {
    std::lock_guard<std::mutex> hist_lock(cell.mu);
    std::fill(cell.buckets.begin(), cell.buckets.end(), 0);
    cell.count = 0;
    cell.sum = 0.0;
  });
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
