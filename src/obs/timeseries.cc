#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace ranomaly::obs {
namespace {

// Floor division for bucket starts; sim times are non-negative in
// practice, but a negative timestamp must still land in the bucket
// containing it, not the one above.
std::int64_t BucketStart(std::int64_t t, std::int64_t resolution) {
  std::int64_t q = t / resolution;
  if (t % resolution != 0 && t < 0) --q;
  return q * resolution;
}

std::string SecondsJson(std::int64_t us) {
  return JsonDouble(static_cast<double>(us) / 1e6);
}

}  // namespace

const char* ToString(SeriesKind kind) {
  return kind == SeriesKind::kCounter ? "counter" : "gauge";
}

double HistogramQuantile(const HistogramSnapshot& histogram, double q) {
  if (histogram.total_count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(histogram.total_count);
  std::uint64_t cumulative = 0;
  double lower = 0.0;
  for (std::size_t b = 0; b < histogram.bounds.size(); ++b) {
    const std::uint64_t in_bucket = histogram.counts[b];
    if (static_cast<double>(cumulative + in_bucket) >= target &&
        in_bucket > 0) {
      const double upper = histogram.bounds[b];
      const double within =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, within));
    }
    cumulative += in_bucket;
    lower = histogram.bounds[b];
  }
  // The rank falls in the +Inf bucket: clamp to the largest finite bound.
  return histogram.bounds.empty() ? 0.0 : histogram.bounds.back();
}

void SeriesRing::Push(const SeriesPoint& p, std::size_t capacity) {
  if (points_.size() < capacity) {
    if (points_.size() == points_.capacity()) {
      // Grow geometrically, but never past the tier's capacity.
      points_.reserve(
          std::min(capacity, std::max<std::size_t>(16, 2 * points_.size())));
    }
    points_.push_back(p);
  } else if (!points_.empty()) {
    points_[head_] = p;
    if (++head_ == points_.size()) head_ = 0;
  }
}

TimeSeriesStore::TimeSeriesStore(TimeSeriesOptions options)
    : options_(std::move(options)) {}

TimeSeriesStore::Series* TimeSeriesStore::FindOrCreateLocked(
    std::string_view name, SeriesKind kind) {
  if (const auto it = index_.find(std::string(name)); it != index_.end()) {
    return &series_[it->second];
  }
  if (series_.size() >= options_.max_series) {
    ++dropped_series_;
    return nullptr;
  }
  Series s;
  s.name = std::string(name);
  s.kind = kind;
  s.tiers.resize(options_.tiers.size());
  index_.emplace(s.name, series_.size());
  series_.push_back(std::move(s));
  return &series_.back();
}

void TimeSeriesStore::RecordLocked(Series& series, std::int64_t t,
                                   double value) {
  for (std::size_t i = 0; i < options_.tiers.size(); ++i) {
    const TierSpec& tier = options_.tiers[i];
    SeriesRing& ring = series.tiers[i];
    const std::int64_t bucket = BucketStart(t, tier.resolution_us);
    if (ring.empty() || bucket > ring.newest().t) {
      ring.Push(SeriesPoint{bucket, value, value, value}, tier.capacity);
    } else {
      // Same bucket (or a late sample): fold into the newest point.
      SeriesPoint& p = ring.newest();
      p.value = value;
      p.min = std::min(p.min, value);
      p.max = std::max(p.max, value);
    }
  }
}

void TimeSeriesStore::Record(std::string_view name, SeriesKind kind,
                             std::int64_t t, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Series* s = FindOrCreateLocked(name, kind)) RecordLocked(*s, t, value);
  last_sample_ = std::max(last_sample_, t);
}

void TimeSeriesStore::Sample(const MetricsRegistry& registry, std::int64_t t) {
  const std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  for (const MetricSnapshot& m : snapshot) {
    switch (m.kind) {
      case MetricKind::kCounter:
        if (Series* s = FindOrCreateLocked(m.name, SeriesKind::kCounter)) {
          RecordLocked(*s, t, static_cast<double>(m.counter));
        }
        break;
      case MetricKind::kGauge:
        if (Series* s = FindOrCreateLocked(m.name, SeriesKind::kGauge)) {
          RecordLocked(*s, t, m.gauge);
        }
        break;
      case MetricKind::kHistogram: {
        const auto derived = [&](const char* suffix, SeriesKind kind,
                                 double value) {
          if (Series* s = FindOrCreateLocked(m.name + suffix, kind)) {
            RecordLocked(*s, t, value);
          }
        };
        derived(":count", SeriesKind::kCounter,
                static_cast<double>(m.histogram.total_count));
        derived(":sum", SeriesKind::kGauge, m.histogram.sum);
        derived(":p50", SeriesKind::kGauge,
                HistogramQuantile(m.histogram, 0.50));
        derived(":p90", SeriesKind::kGauge,
                HistogramQuantile(m.histogram, 0.90));
        derived(":p99", SeriesKind::kGauge,
                HistogramQuantile(m.histogram, 0.99));
        break;
      }
    }
  }
  last_sample_ = std::max(last_sample_, t);
}

std::size_t TimeSeriesStore::series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

std::uint64_t TimeSeriesStore::dropped_series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_series_;
}

std::int64_t TimeSeriesStore::last_sample() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_sample_;
}

bool TimeSeriesStore::HasTier(std::int64_t resolution_us) const {
  for (const TierSpec& tier : options_.tiers) {
    if (tier.resolution_us == resolution_us) return true;
  }
  return false;
}

std::string TimeSeriesStore::ListJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"tiers\":[";
  for (std::size_t i = 0; i < options_.tiers.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"resolution_sec\":" +
           SecondsJson(options_.tiers[i].resolution_us) +
           ",\"capacity\":" + std::to_string(options_.tiers[i].capacity) + "}";
  }
  out += "],\"last_sample_sec\":";
  out += last_sample_ < 0 ? std::string("null") : SecondsJson(last_sample_);
  out += ",\"dropped_series\":" + std::to_string(dropped_series_);
  out += ",\"series\":[";
  std::vector<const Series*> sorted;
  sorted.reserve(series_.size());
  for (const Series& s : series_) sorted.push_back(&s);
  std::sort(sorted.begin(), sorted.end(),
            [](const Series* a, const Series* b) { return a->name < b->name; });
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"name\":\"" + JsonEscape(sorted[i]->name) + "\",\"kind\":\"" +
           ToString(sorted[i]->kind) + "\"}";
  }
  out += "]}";
  return out;
}

std::optional<std::string> TimeSeriesStore::SeriesJson(
    std::string_view name, std::int64_t resolution_us,
    std::int64_t since_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(std::string(name));
  if (it == index_.end()) return std::nullopt;
  std::size_t tier = options_.tiers.size();
  for (std::size_t i = 0; i < options_.tiers.size(); ++i) {
    if (options_.tiers[i].resolution_us == resolution_us) tier = i;
  }
  if (tier == options_.tiers.size()) return std::nullopt;
  const Series& s = series_[it->second];
  const SeriesRing& ring = s.tiers[tier];

  std::string out = "{\"name\":\"" + JsonEscape(s.name) + "\",\"kind\":\"" +
                    ToString(s.kind) + "\",\"resolution_sec\":" +
                    SecondsJson(resolution_us) + ",\"points\":[";
  bool first = true;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const SeriesPoint& p = ring[i];
    if (p.t <= since_us) continue;
    if (!first) out += ',';
    first = false;
    out += "[" + SecondsJson(p.t) + "," + JsonDouble(p.value);
    if (s.kind == SeriesKind::kCounter) {
      // Rate is derived against the previous bucket *in the ring* (not
      // the since-filtered view), so pagination never changes a value.
      if (i == 0) {
        out += ",null";
      } else {
        const SeriesPoint& prev = ring[i - 1];
        const double dt = static_cast<double>(p.t - prev.t) / 1e6;
        // A counter that went backwards was reset; the new cumulative
        // value is the best lower bound on what accrued since.
        const double dv =
            p.value >= prev.value ? p.value - prev.value : p.value;
        out += "," + JsonDouble(dv / dt);
      }
    } else {
      out += "," + JsonDouble(p.min) + "," + JsonDouble(p.max);
    }
    out += "]";
  }
  out += "]}";
  return out;
}

TimeSeriesStore::Persisted TimeSeriesStore::Export() const {
  std::lock_guard<std::mutex> lock(mu_);
  Persisted p;
  p.tiers = options_.tiers;
  p.last_sample = last_sample_;
  p.dropped_series = dropped_series_;
  p.series.reserve(series_.size());
  for (const Series& s : series_) {
    PersistedSeries& ps = p.series.emplace_back();
    ps.name = s.name;
    ps.kind = static_cast<std::uint8_t>(s.kind);
    for (const SeriesRing& ring : s.tiers) {
      std::vector<SeriesPoint>& points = ps.tiers.emplace_back();
      points.reserve(ring.size());
      for (const std::span<const SeriesPoint> run : ring.segments()) {
        points.insert(points.end(), run.begin(), run.end());
      }
    }
  }
  return p;
}

std::string TimeSeriesStore::Validate(const Persisted& p) {
  if (p.tiers.empty()) {
    if (!p.series.empty()) return "series without tiers";
    return "";
  }
  if (p.tiers.size() > 16) return "implausible tier count";
  for (std::size_t i = 0; i < p.tiers.size(); ++i) {
    if (p.tiers[i].resolution_us <= 0) return "non-positive tier resolution";
    if (p.tiers[i].capacity == 0) return "zero tier capacity";
    if (i > 0 && p.tiers[i].resolution_us <= p.tiers[i - 1].resolution_us) {
      return "tier resolutions not ascending";
    }
  }
  std::set<std::string_view> names;
  for (std::size_t si = 0; si < p.series.size(); ++si) {
    const PersistedSeries& s = p.series[si];
    const std::string where = "series " + std::to_string(si);
    if (s.name.empty()) return where + ": empty name";
    if (!names.insert(s.name).second) return where + ": duplicate name";
    if (s.kind > 1) return where + ": bad kind";
    if (s.tiers.size() != p.tiers.size()) return where + ": tier shape";
    for (std::size_t ti = 0; ti < s.tiers.size(); ++ti) {
      const std::vector<SeriesPoint>& ring = s.tiers[ti];
      const std::string tier_where = where + " tier " + std::to_string(ti);
      if (ring.size() > p.tiers[ti].capacity) {
        return tier_where + ": overfull ring";
      }
      for (std::size_t pi = 0; pi < ring.size(); ++pi) {
        const SeriesPoint& pt = ring[pi];
        if (pt.t % p.tiers[ti].resolution_us != 0) {
          return tier_where + ": t not bucket-aligned";
        }
        if (pi > 0 && pt.t <= ring[pi - 1].t) {
          return tier_where + ": t not strictly increasing";
        }
        if (!std::isfinite(pt.value) || !std::isfinite(pt.min) ||
            !std::isfinite(pt.max)) {
          return tier_where + ": non-finite point";
        }
        if (pt.min > pt.value || pt.value > pt.max) {
          return tier_where + ": min/value/max out of order";
        }
      }
    }
  }
  return "";
}

bool TimeSeriesStore::Restore(Persisted p, std::string* error) {
  const auto fail = [error](std::string why) {
    if (error != nullptr) *error = std::move(why);
    return false;
  };
  if (const std::string why = Validate(p); !why.empty()) return fail(why);
  std::lock_guard<std::mutex> lock(mu_);
  if (!p.tiers.empty() && p.tiers != options_.tiers) {
    return fail("tier shape differs from the configured tiers");
  }
  if (p.series.size() > options_.max_series) {
    return fail("more series than the configured cap");
  }
  series_.clear();
  index_.clear();
  for (PersistedSeries& ps : p.series) {
    Series s;
    s.name = std::move(ps.name);
    s.kind = static_cast<SeriesKind>(ps.kind);
    s.tiers.resize(options_.tiers.size());
    for (std::size_t i = 0; i < ps.tiers.size(); ++i) {
      // Decoding grew each ring by doubling; hold it to its capacity.
      std::vector<SeriesPoint>& points = s.tiers[i].points_;
      points = std::move(ps.tiers[i]);
      if (points.capacity() > options_.tiers[i].capacity) {
        points.shrink_to_fit();
      }
    }
    index_.emplace(s.name, series_.size());
    series_.push_back(std::move(s));
  }
  last_sample_ = p.tiers.empty() ? -1 : p.last_sample;
  dropped_series_ = p.tiers.empty() ? 0 : p.dropped_series;
  return true;
}

}  // namespace ranomaly::obs
