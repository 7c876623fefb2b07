// Bounded-memory, multi-resolution time-series store: the history
// behind the `ranomaly serve` dashboard (/api/series, /dashboard).
//
// The store self-samples a MetricsRegistry at tick boundaries on the
// replay thread, so every retained point is stamped with *simulated*
// time and the retained history inherits the registry's determinism
// contract: counter-valued series (and gauges whose inputs are
// simulated time) are bit-identical for any RANOMALY_THREADS setting,
// while wall-clock histograms and pool gauges stay metering-only
// (retained faithfully, excluded from the byte-identity contract —
// docs/OBSERVABILITY.md, Dashboard).
//
// Memory is bounded by construction: a fixed set of downsample tiers
// (default 1s x 600, 10s x 720, 60s x 1440 points), each a fixed-
// capacity ring whose newest bucket overwrites its oldest in place once
// full, and a hard cap on the number of distinct series (further names
// are counted as dropped, never stored).  A sample therefore costs the
// same however much history the store retains.
// Samples land in the bucket containing their timestamp; re-samples
// within a bucket overwrite the last value and widen min/max, so a
// coarse tier is a true downsample of the fine one.
//
// Derivations happen at render time, never at sample time:
//   counters    cumulative value per bucket; per-point rate/s derived
//               from the previous bucket in the tier, with counter
//               resets (value decreased) re-based at zero
//   gauges      last value per bucket plus bucket min/max
//   histograms  expanded at sample time into derived series
//               name:count (counter), name:sum and name:p50/p90/p99
//               (gauges, linear-interpolation quantiles)
//
// The RNC1 SERS section (docs/FORMATS.md) persists the full state, so
// `serve --checkpoint` restarts resume with byte-identical /api/series
// responses: the checkpoint encoder writes it straight from the rings
// through Read, and Restore takes the decoded Persisted form.
//
// Standard-library-only, like metrics.h.  Thread-safe: the replay
// thread samples while the HTTP thread renders.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace ranomaly::obs {

enum class SeriesKind : std::uint8_t { kCounter = 0, kGauge = 1 };

const char* ToString(SeriesKind kind);

// One finalized (or still-filling) downsample bucket.
struct SeriesPoint {
  std::int64_t t = 0;   // bucket start, microseconds of simulated time
  double value = 0.0;   // counter: cumulative at bucket close; gauge: last
  double min = 0.0;     // bucket-wide extrema (== value for counters)
  double max = 0.0;
};

// One tier's retained buckets, oldest first: a ring of at most the
// tier's capacity.  It grows until full, never allocating past that
// capacity; then a sample that opens a new bucket overwrites the oldest
// bucket in place.
class SeriesRing {
 public:
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  // i = 0 is the oldest retained bucket.
  const SeriesPoint& operator[](std::size_t i) const {
    const std::size_t slot = head_ + i;
    return points_[slot < points_.size() ? slot : slot - points_.size()];
  }

  // The buckets oldest -> newest as two contiguous runs (the second
  // empty until the ring wraps).
  std::array<std::span<const SeriesPoint>, 2> segments() const {
    const std::span<const SeriesPoint> all(points_);
    return {all.subspan(head_), all.first(head_)};
  }

 private:
  friend class TimeSeriesStore;

  // Appends `p` as the newest bucket, overwriting the oldest once the
  // ring holds `capacity` buckets.
  void Push(const SeriesPoint& p, std::size_t capacity);
  SeriesPoint& newest() {
    return points_[head_ == 0 ? points_.size() - 1 : head_ - 1];
  }

  std::vector<SeriesPoint> points_;
  std::size_t head_ = 0;  // the oldest bucket's slot; 0 until full
};

struct TierSpec {
  std::int64_t resolution_us = 0;  // bucket width, microseconds
  std::uint32_t capacity = 0;      // ring size in buckets
  bool operator==(const TierSpec&) const = default;
};

struct TimeSeriesOptions {
  // Ascending resolutions; defaults retain 10 min at 1s, 2 h at 10s,
  // and 24 h at 60s — ~66 KiB per series, all tiers included.
  std::vector<TierSpec> tiers = {
      {1'000'000, 600},
      {10'000'000, 720},
      {60'000'000, 1440},
  };
  std::size_t max_series = 1024;
};

// Linear-interpolation quantile over histogram buckets (the
// `histogram_quantile` convention): finds the bucket containing rank
// q * total_count and interpolates within its [previous bound, bound]
// span.  The +Inf bucket clamps to the largest finite bound.  Returns
// 0 for an empty histogram; `q` is clamped to [0, 1].
double HistogramQuantile(const HistogramSnapshot& histogram, double q);

class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(TimeSeriesOptions options = {});

  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  // Folds a full registry snapshot into the tiers at simulated time `t`
  // (microseconds): counters and gauges verbatim, histograms expanded
  // into their :count/:sum/:p50/:p90/:p99 derived series.
  void Sample(const MetricsRegistry& registry, std::int64_t t);

  // Direct ingestion of one observation (tests, non-registry series).
  // Re-registering a name with a different kind keeps the first kind.
  void Record(std::string_view name, SeriesKind kind, std::int64_t t,
              double value);

  std::size_t series_count() const;
  std::uint64_t dropped_series() const;  // names refused at max_series
  std::int64_t last_sample() const;      // -1 before the first sample

  bool HasTier(std::int64_t resolution_us) const;

  // {"tiers":[...],"last_sample_sec":T,"dropped_series":N,
  //  "series":[{"name":...,"kind":...},...]} — names sorted.
  std::string ListJson() const;

  // {"name":...,"kind":...,"resolution_sec":R,"points":[...]} with
  // points strictly after `since_us`.  Counter points are
  // [t_sec,value,rate_per_sec] (rate null for the ring's oldest
  // bucket); gauge points are [t_sec,value,min,max].  nullopt when the
  // name is unknown (callers check HasTier first for a 400-vs-404
  // distinction).  Deterministic bytes for equal state.
  std::optional<std::string> SeriesJson(std::string_view name,
                                        std::int64_t resolution_us,
                                        std::int64_t since_us) const;

  // A retained series as the store holds it: one ring per tier.
  struct Series {
    std::string name;
    SeriesKind kind = SeriesKind::kCounter;
    std::vector<SeriesRing> tiers;
  };

  // The whole store, borrowed: Persisted's fields, with the live rings
  // in place of copies.
  struct View {
    const std::vector<TierSpec>& tiers;
    std::int64_t last_sample;
    std::uint64_t dropped_series;
    const std::vector<Series>& series;  // first-seen order
  };

  // Calls fn(view) under the store's lock.  The checkpoint encoder
  // writes the SERS section this way, without copying a ring.
  template <typename Fn>
  void Read(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    fn(View{options_.tiers, last_sample_, dropped_series_, series_});
  }

  // Checkpoint state (the RNC1 SERS section).  Series ride in
  // first-seen order so restore preserves max_series admission.
  struct PersistedSeries {
    std::string name;
    std::uint8_t kind = 0;
    std::vector<std::vector<SeriesPoint>> tiers;  // oldest -> newest
  };
  struct Persisted {
    std::vector<TierSpec> tiers;
    std::int64_t last_sample = -1;
    std::uint64_t dropped_series = 0;
    std::vector<PersistedSeries> series;
  };
  // A copy of the whole store in Persisted form: the reference the
  // tests hold the in-place SERS encode and the rings against.
  Persisted Export() const;

  // Structural validation shared by Restore and the checkpoint decoder:
  // returns "" or a reason ("series 2 tier 0: t not bucket-aligned").
  static std::string Validate(const Persisted& p);

  // Replaces the whole store.  Fails (store untouched, *error set) if
  // Validate rejects `p` or its tier shape differs from this store's
  // options; an empty `p` (no tiers) just clears the history.
  bool Restore(Persisted p, std::string* error);

  const TimeSeriesOptions& options() const { return options_; }

 private:
  Series* FindOrCreateLocked(std::string_view name, SeriesKind kind);
  void RecordLocked(Series& series, std::int64_t t, double value);

  mutable std::mutex mu_;
  TimeSeriesOptions options_;
  std::vector<Series> series_;  // first-seen order
  std::unordered_map<std::string, std::size_t> index_;
  std::int64_t last_sample_ = -1;
  std::uint64_t dropped_series_ = 0;
};

}  // namespace ranomaly::obs
