// The dashboard time-series store: bucket/tier boundaries, ring
// retention (against an erase-front reference model), counter-reset
// rate derivation, histogram quantiles and expansion, the series cap,
// Export/Restore round-trips, and the determinism contract —
// /api/series bytes identical at any RANOMALY_THREADS setting.
#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/live.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/time.h"
#include "workload/eventgen.h"

namespace ranomaly::obs {
namespace {

using util::kMinute;
using util::kSecond;

TimeSeriesOptions SmallOptions() {
  TimeSeriesOptions options;
  options.tiers = {{kSecond, 4}, {10 * kSecond, 3}};
  options.max_series = 8;
  return options;
}

TEST(TimeSeriesStoreTest, EmptyStore) {
  TimeSeriesStore store;
  EXPECT_EQ(store.series_count(), 0u);
  EXPECT_EQ(store.dropped_series(), 0u);
  EXPECT_EQ(store.last_sample(), -1);
  EXPECT_FALSE(store.SeriesJson("nope", kSecond, -1).has_value());
  const std::string list = store.ListJson();
  EXPECT_NE(list.find("\"series\":[]"), std::string::npos) << list;
  EXPECT_NE(list.find("\"last_sample_sec\":null"), std::string::npos) << list;
}

TEST(TimeSeriesStoreTest, HasTierMatchesConfiguredResolutions) {
  TimeSeriesStore store(SmallOptions());
  EXPECT_TRUE(store.HasTier(kSecond));
  EXPECT_TRUE(store.HasTier(10 * kSecond));
  EXPECT_FALSE(store.HasTier(60 * kSecond));
  EXPECT_FALSE(store.HasTier(0));
}

// Samples landing inside one bucket fold (last value wins, min/max
// widen); the next bucket starts a new point.  The coarse tier buckets
// the same observations at its own resolution.
TEST(TimeSeriesStoreTest, BucketBoundariesFoldAndSplit) {
  TimeSeriesStore store(SmallOptions());
  store.Record("g", SeriesKind::kGauge, 0, 5.0);
  store.Record("g", SeriesKind::kGauge, 999'999, 2.0);   // same 1s bucket
  store.Record("g", SeriesKind::kGauge, 1'000'000, 9.0); // next bucket
  const auto fine = store.SeriesJson("g", kSecond, -1);
  ASSERT_TRUE(fine.has_value());
  // Bucket 0 folded: value 2 (last), min 2, max 5.  Bucket 1 fresh.
  EXPECT_NE(fine->find("\"points\":[[0,2,2,5],[1,9,9,9]]"),
            std::string::npos)
      << *fine;
  const auto coarse = store.SeriesJson("g", 10 * kSecond, -1);
  ASSERT_TRUE(coarse.has_value());
  // One 10s bucket holding all three observations.
  EXPECT_NE(coarse->find("\"points\":[[0,9,2,9]]"), std::string::npos)
      << *coarse;
}

// Rings evict their oldest bucket on overflow; the survivor set is the
// newest `capacity` buckets and the oldest survivor's rate is null
// (its predecessor is gone).
TEST(TimeSeriesStoreTest, RetentionWraparound) {
  TimeSeriesStore store(SmallOptions());
  for (int i = 0; i < 10; ++i) {
    store.Record("c", SeriesKind::kCounter, i * kSecond,
                 static_cast<double>(10 * (i + 1)));
  }
  const auto fine = store.SeriesJson("c", kSecond, -1);
  ASSERT_TRUE(fine.has_value());
  EXPECT_NE(
      fine->find("\"points\":[[6,70,null],[7,80,10],[8,90,10],[9,100,10]]"),
      std::string::npos)
      << *fine;
  // The 10s tier saw every observation in a single bucket.
  const auto coarse = store.SeriesJson("c", 10 * kSecond, -1);
  ASSERT_TRUE(coarse.has_value());
  EXPECT_NE(coarse->find("\"points\":[[0,100,null]]"), std::string::npos)
      << *coarse;
}

// A counter that decreases was reset: the rate re-bases at zero instead
// of going negative.
TEST(TimeSeriesStoreTest, CounterResetRebasesRate) {
  TimeSeriesStore store(SmallOptions());
  store.Record("c", SeriesKind::kCounter, 0, 10.0);
  store.Record("c", SeriesKind::kCounter, kSecond, 14.0);
  store.Record("c", SeriesKind::kCounter, 2 * kSecond, 4.0);  // reset
  const auto json = store.SeriesJson("c", kSecond, -1);
  ASSERT_TRUE(json.has_value());
  EXPECT_NE(json->find("\"points\":[[0,10,null],[1,14,4],[2,4,4]]"),
            std::string::npos)
      << *json;
}

// `since` drops points at or before the cursor without disturbing the
// rate derivation (the rate still uses the full ring, so pagination
// never changes a point's bytes).
TEST(TimeSeriesStoreTest, SinceFilterIsPaginationStable) {
  TimeSeriesStore store(SmallOptions());
  for (int i = 0; i < 4; ++i) {
    store.Record("c", SeriesKind::kCounter, i * kSecond,
                 static_cast<double>(i * 3));
  }
  const auto all = store.SeriesJson("c", kSecond, -1);
  const auto tail = store.SeriesJson("c", kSecond, kSecond);
  ASSERT_TRUE(all.has_value());
  ASSERT_TRUE(tail.has_value());
  EXPECT_NE(all->find("[2,6,3]"), std::string::npos) << *all;
  EXPECT_NE(tail->find("[2,6,3]"), std::string::npos) << *tail;
  EXPECT_EQ(tail->find("[1,3,3]"), std::string::npos) << *tail;
}

TEST(TimeSeriesStoreTest, MaxSeriesCapCountsDrops) {
  TimeSeriesOptions options = SmallOptions();
  options.max_series = 2;
  TimeSeriesStore store(options);
  store.Record("a", SeriesKind::kGauge, 0, 1.0);
  store.Record("b", SeriesKind::kGauge, 0, 1.0);
  store.Record("c", SeriesKind::kGauge, 0, 1.0);  // refused
  store.Record("c", SeriesKind::kGauge, kSecond, 2.0);  // refused again
  store.Record("a", SeriesKind::kGauge, kSecond, 2.0);  // existing: fine
  EXPECT_EQ(store.series_count(), 2u);
  EXPECT_EQ(store.dropped_series(), 2u);
  EXPECT_FALSE(store.SeriesJson("c", kSecond, -1).has_value());
}

TEST(HistogramQuantileTest, InterpolatesWithinTheRankBucket) {
  HistogramSnapshot h;
  h.bounds = {1.0, 2.0, 4.0};
  h.counts = {0, 10, 0, 0};  // all mass in (1, 2]
  h.total_count = 10;
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 1.0), 2.0);
}

TEST(HistogramQuantileTest, InfBucketClampsAndEmptyIsZero) {
  HistogramSnapshot empty;
  empty.bounds = {1.0};
  empty.counts = {0, 0};
  EXPECT_DOUBLE_EQ(HistogramQuantile(empty, 0.5), 0.0);

  HistogramSnapshot inf;
  inf.bounds = {1.0, 2.0};
  inf.counts = {0, 0, 5};  // all mass past the last finite bound
  inf.total_count = 5;
  EXPECT_DOUBLE_EQ(HistogramQuantile(inf, 0.99), 2.0);
  // Out-of-range q clamps instead of reading out of bounds.
  EXPECT_DOUBLE_EQ(HistogramQuantile(inf, 7.0), 2.0);
}

TEST(TimeSeriesStoreTest, SampleExpandsHistogramsIntoDerivedSeries) {
  MetricsRegistry registry;
  const MetricId c = registry.Counter("reqs_total");
  const MetricId h = registry.Histogram("lat_seconds", {1.0, 2.0, 4.0});
  registry.Add(c, 3);
  registry.Observe(h, 1.5);
  registry.Observe(h, 1.5);
  TimeSeriesStore store(SmallOptions());
  store.Sample(registry, 5 * kSecond);
  EXPECT_EQ(store.last_sample(), 5 * kSecond);
  const auto count = store.SeriesJson("lat_seconds:count", kSecond, -1);
  ASSERT_TRUE(count.has_value());
  EXPECT_NE(count->find("\"kind\":\"counter\""), std::string::npos) << *count;
  EXPECT_NE(count->find("[5,2,null]"), std::string::npos) << *count;
  const auto p50 = store.SeriesJson("lat_seconds:p50", kSecond, -1);
  ASSERT_TRUE(p50.has_value());
  EXPECT_NE(p50->find("[5,1.5,1.5,1.5]"), std::string::npos) << *p50;
  const auto sum = store.SeriesJson("lat_seconds:sum", kSecond, -1);
  ASSERT_TRUE(sum.has_value());
  EXPECT_NE(sum->find("[5,3,3,3]"), std::string::npos) << *sum;
  ASSERT_TRUE(store.SeriesJson("reqs_total", kSecond, -1).has_value());
}

TEST(TimeSeriesStoreTest, ExportRestoreRoundTripsBytes) {
  TimeSeriesStore store(SmallOptions());
  for (int i = 0; i < 7; ++i) {
    store.Record("c", SeriesKind::kCounter, i * kSecond,
                 static_cast<double>(i * i));
    store.Record("g", SeriesKind::kGauge, i * kSecond, 10.0 - i);
  }
  TimeSeriesStore copy(SmallOptions());
  std::string error;
  ASSERT_TRUE(copy.Restore(store.Export(), &error)) << error;
  EXPECT_EQ(copy.ListJson(), store.ListJson());
  for (const char* name : {"c", "g"}) {
    for (const std::int64_t res : {kSecond, 10 * kSecond}) {
      EXPECT_EQ(copy.SeriesJson(name, res, -1), store.SeriesJson(name, res, -1))
          << name << " @ " << res;
    }
  }
}

// The retention rule stated the plain way: a vector per tier whose
// overflow erases the front.  The store's rings must be
// indistinguishable from it.
class EraseFrontModel {
 public:
  EraseFrontModel(std::string name, SeriesKind kind,
                  std::vector<TierSpec> tiers)
      : name_(std::move(name)),
        kind_(kind),
        tiers_(std::move(tiers)),
        rings_(tiers_.size()) {}

  void Record(std::int64_t t, double value) {  // t >= 0
    for (std::size_t i = 0; i < tiers_.size(); ++i) {
      std::vector<SeriesPoint>& ring = rings_[i];
      const std::int64_t bucket =
          t / tiers_[i].resolution_us * tiers_[i].resolution_us;
      if (ring.empty() || bucket > ring.back().t) {
        ring.push_back({bucket, value, value, value});
        if (ring.size() > tiers_[i].capacity) ring.erase(ring.begin());
      } else {
        ring.back().value = value;
        ring.back().min = std::min(ring.back().min, value);
        ring.back().max = std::max(ring.back().max, value);
      }
    }
  }

  const std::vector<SeriesPoint>& ring(std::size_t tier) const {
    return rings_[tier];
  }

  // What /api/series must serve for this ring.
  std::string Json(std::size_t tier, std::int64_t since_us) const {
    const auto sec = [](std::int64_t us) {
      return JsonDouble(static_cast<double>(us) / 1e6);
    };
    const std::vector<SeriesPoint>& ring = rings_[tier];
    std::string out = "{\"name\":\"" + name_ + "\",\"kind\":\"" +
                      ToString(kind_) + "\",\"resolution_sec\":" +
                      sec(tiers_[tier].resolution_us) + ",\"points\":[";
    bool first = true;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const SeriesPoint& p = ring[i];
      if (p.t <= since_us) continue;
      out += first ? "[" : ",[";
      first = false;
      out += sec(p.t) + "," + JsonDouble(p.value);
      if (kind_ == SeriesKind::kGauge) {
        out += "," + JsonDouble(p.min) + "," + JsonDouble(p.max) + "]";
      } else if (i == 0) {
        out += ",null]";
      } else {
        const SeriesPoint& prev = ring[i - 1];
        const double dv =
            p.value >= prev.value ? p.value - prev.value : p.value;
        out += "," +
               JsonDouble(dv / (static_cast<double>(p.t - prev.t) / 1e6)) +
               "]";
      }
    }
    return out + "]}";
  }

 private:
  std::string name_;
  SeriesKind kind_;
  std::vector<TierSpec> tiers_;
  std::vector<std::vector<SeriesPoint>> rings_;
};

bool SamePoints(const std::vector<SeriesPoint>& a,
                const std::vector<SeriesPoint>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const SeriesPoint& x, const SeriesPoint& y) {
                      return x.t == y.t && x.value == y.value &&
                             x.min == y.min && x.max == y.max;
                    });
}

// Sampling runs every tier past three times its capacity (some samples
// fold into an open bucket, some skip buckets), and halfway through a
// second store restores the first's full rings and samples on.  After
// every sample both stores' Export and SeriesJson — whole and paged —
// must equal the model's.
TEST(TimeSeriesStoreTest, RingsMatchEraseFrontModel) {
  TimeSeriesOptions options;
  options.tiers = {{kSecond, 4}, {10 * kSecond, 3}, {60 * kSecond, 3}};
  TimeSeriesStore store(options);
  TimeSeriesStore restored(options);
  std::vector<EraseFrontModel> models = {
      {"c", SeriesKind::kCounter, options.tiers},
      {"g", SeriesKind::kGauge, options.tiers}};

  const auto check = [&](const TimeSeriesStore& s, const char* which,
                         std::int64_t now) {
    const TimeSeriesStore::Persisted p = s.Export();
    ASSERT_EQ(p.series.size(), models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
      const char* name = m == 0 ? "c" : "g";
      for (std::size_t tier = 0; tier < options.tiers.size(); ++tier) {
        ASSERT_TRUE(SamePoints(p.series[m].tiers[tier], models[m].ring(tier)))
            << which << " " << name << " tier " << tier << " at " << now;
        const std::int64_t res = options.tiers[tier].resolution_us;
        for (const std::int64_t since : {std::int64_t{-1}, now - 3 * res}) {
          ASSERT_EQ(s.SeriesJson(name, res, since).value_or("(none)"),
                    models[m].Json(tier, since))
              << which << " since " << since << " at " << now;
        }
      }
    }
  };

  util::Rng rng(14);
  // The restore comes after three times the 60s tier's capacity.
  const std::int64_t end = 2 * 3 * 3 * kMinute + kMinute;
  bool restoring = false;
  double counter = 0;
  for (std::int64_t t = 0; t < end;
       t += static_cast<std::int64_t>(rng.NextBelow(2500)) * 1000) {
    counter = rng.NextBelow(50) == 0 ? 1.0 : counter + rng.NextBelow(7);
    const double gauge = static_cast<double>(rng.NextBelow(1000)) - 500;
    for (TimeSeriesStore* s : {&store, &restored}) {
      if (s == &restored && !restoring) continue;
      s->Record("c", SeriesKind::kCounter, t, counter);
      s->Record("g", SeriesKind::kGauge, t, gauge);
    }
    models[0].Record(t, counter);
    models[1].Record(t, gauge);
    check(store, "store", t);
    if (!restoring && t >= end / 2) {
      std::string error;
      ASSERT_TRUE(restored.Restore(store.Export(), &error)) << error;
      restoring = true;
    }
    if (restoring) check(restored, "restored", t);
  }
  // Every tier had wrapped at least three times by the restore.
  for (std::size_t tier = 0; tier < options.tiers.size(); ++tier) {
    EXPECT_GE(end / 2 / options.tiers[tier].resolution_us,
              3 * options.tiers[tier].capacity);
    EXPECT_EQ(models[0].ring(tier).size(), options.tiers[tier].capacity);
  }
}

TEST(TimeSeriesStoreTest, RestoreRejectsBadState) {
  TimeSeriesStore store(SmallOptions());
  store.Record("c", SeriesKind::kCounter, 0, 1.0);
  std::string error;

  // Tier shape differing from the store's configuration.
  TimeSeriesStore other({{{kSecond, 99}}, 8});
  EXPECT_FALSE(other.Restore(store.Export(), &error));
  EXPECT_NE(error.find("tier"), std::string::npos) << error;

  // Structural violations caught by Validate.
  {
    auto p = store.Export();
    p.series[0].tiers[0][0].t = 17;  // not bucket-aligned
    EXPECT_FALSE(TimeSeriesStore::Validate(p).empty());
    EXPECT_FALSE(store.Restore(std::move(p), &error));
  }
  {
    auto p = store.Export();
    p.series[0].tiers[0].resize(5);  // over the tier's capacity of 4
    for (int i = 0; i < 5; ++i) p.series[0].tiers[0][i].t = i * kSecond;
    EXPECT_FALSE(TimeSeriesStore::Validate(p).empty());
  }
  {
    auto p = store.Export();
    p.series[0].kind = 7;  // no such SeriesKind
    EXPECT_FALSE(TimeSeriesStore::Validate(p).empty());
  }
  {
    auto p = store.Export();
    p.series.push_back(p.series[0]);  // duplicate name
    EXPECT_FALSE(TimeSeriesStore::Validate(p).empty());
  }

  // The store is untouched by every failed restore above.
  EXPECT_TRUE(store.SeriesJson("c", kSecond, -1).has_value());

  // An empty persisted state (no tiers) clears the history.
  TimeSeriesStore cleared(SmallOptions());
  cleared.Record("c", SeriesKind::kCounter, 0, 1.0);
  ASSERT_TRUE(cleared.Restore({}, &error)) << error;
  EXPECT_EQ(cleared.series_count(), 0u);
  EXPECT_EQ(cleared.last_sample(), -1);
}

TEST(TimeSeriesStoreTest, ListJsonSortsNamesAndReportsTiers) {
  TimeSeriesStore store(SmallOptions());
  store.Record("zz", SeriesKind::kGauge, 0, 1.0);
  store.Record("aa", SeriesKind::kCounter, 0, 1.0);
  const std::string list = store.ListJson();
  EXPECT_LT(list.find("\"aa\""), list.find("\"zz\"")) << list;
  EXPECT_NE(list.find("{\"resolution_sec\":1,\"capacity\":4}"),
            std::string::npos)
      << list;
}

// The determinism contract surfaced end to end: replaying the same
// stream through LiveRunner with 1, 2, and 4 analysis threads yields
// byte-identical /api/series JSON for every counter-valued series and
// every simulated-time gauge the dashboard reads.
TEST(TimeSeriesDeterminismTest, SeriesBytesIdenticalAcrossThreadCounts) {
  workload::InternetOptions wopts;
  wopts.monitored_peers = 3;
  wopts.prefix_count = 300;
  wopts.origin_as_count = 60;
  wopts.seed = 7;
  const workload::SyntheticInternet internet(wopts);
  workload::EventStreamGenerator gen(internet, 8);
  gen.SessionReset(0, 10 * kMinute, kMinute, 20 * kSecond);
  gen.Churn(0, 30 * kMinute, 400);
  const collector::EventStream stream = gen.Take();

  const std::vector<std::string> contract = {
      "serve_events_ingested_total",
      "serve_ticks_total",
      "serve_incidents_total",
      "serve_queue_depth",
      "serve_shed_level",
      "serve_replay_position_seconds",
      "incident_detection_latency_seconds:count",
      "incident_detection_latency_seconds:p50",
      "incident_detection_latency_seconds:p90",
      "incident_detection_latency_seconds:p99",
  };

  std::vector<std::string> runs;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    // The registry is process-global; each run must start from zero for
    // its sampled values to be comparable.
    MetricsRegistry::Global().Reset();
    core::LiveOptions options;
    options.tick = 10 * kSecond;
    options.window = 5 * kMinute;
    options.pipeline.threads = threads;
    TimeSeriesStore store;
    core::IncidentLog log;
    core::LiveRunner runner(options, nullptr, &log, &store);
    runner.Run(stream);
    // The store inventory is NOT compared: wall-clock pool metrics only
    // exist when a thread pool does, so the series *set* may differ by
    // thread count — the contract covers the deterministic series' bytes.
    std::string dump;
    for (const std::string& name : contract) {
      for (const std::int64_t res : {kSecond, 10 * kSecond, 60 * kSecond}) {
        const auto json = store.SeriesJson(name, res, -1);
        ASSERT_TRUE(json.has_value()) << name;
        dump += '\n' + *json;
      }
    }
    EXPECT_GT(log.size(), 0u);
    runs.push_back(std::move(dump));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

}  // namespace
}  // namespace ranomaly::obs
