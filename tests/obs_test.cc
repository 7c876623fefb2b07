#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace ranomaly::obs {
namespace {

// --- metrics registry --------------------------------------------------------

TEST(MetricsTest, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  const MetricId h = registry.Histogram("h", {1.0, 2.0, 4.0});
  // One value per interesting position: inside a bucket, exactly on a
  // bound (counts in that bound's bucket: le semantics), and past the
  // last bound (+Inf bucket).
  for (const double v : {0.5, 1.0, 1.5, 2.0, 4.0, 5.0}) {
    registry.Observe(h, v);
  }
  const auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  const HistogramSnapshot& hist = snapshot[0].histogram;
  ASSERT_EQ(hist.bounds, (std::vector<double>{1.0, 2.0, 4.0}));
  EXPECT_EQ(hist.counts, (std::vector<std::uint64_t>{2, 2, 1, 1}));
  EXPECT_EQ(hist.total_count, 6u);
  EXPECT_DOUBLE_EQ(hist.sum, 14.0);
}

TEST(MetricsTest, ExponentialBoundsAscend) {
  const auto bounds = ExponentialBounds(1e-6, 4.0, 14);
  ASSERT_EQ(bounds.size(), 14u);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-6);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
    EXPECT_DOUBLE_EQ(bounds[i], bounds[i - 1] * 4.0);
  }
  EXPECT_EQ(TimeBounds(), bounds);
}

TEST(MetricsTest, RegistrationIsIdempotentButKindChecked) {
  MetricsRegistry registry;
  const MetricId c = registry.Counter("x");
  EXPECT_EQ(registry.Counter("x"), c);
  EXPECT_THROW(registry.Gauge("x"), std::logic_error);
  EXPECT_THROW(registry.Histogram("x", {1.0}), std::logic_error);
  const MetricId h = registry.Histogram("y", {1.0, 2.0});
  EXPECT_EQ(registry.Histogram("y", {1.0, 2.0}), h);
  // Same name, different bounds: a bug at the call site.
  EXPECT_THROW(registry.Histogram("y", {1.0, 3.0}), std::logic_error);
  EXPECT_THROW(registry.Counter(""), std::invalid_argument);
  EXPECT_THROW(registry.Histogram("z", {}), std::invalid_argument);
  EXPECT_THROW(registry.Histogram("z", {2.0, 1.0}), std::invalid_argument);
}

TEST(MetricsTest, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry registry;
  const MetricId c = registry.Counter("c");
  registry.Add(c, 5);
  registry.Reset();
  EXPECT_EQ(registry.CounterValue("c"), 0u);
  registry.Add(c, 2);
  EXPECT_EQ(registry.CounterValue("c"), 2u);
}

// The tentpole determinism property at registry level: counters and
// histogram bucket counts merged from thread-local shards are
// bit-identical no matter how many workers did the writing.
TEST(MetricsTest, ShardMergeIsDeterministicAcrossThreadCounts) {
  constexpr std::size_t kItems = 500;
  std::vector<std::vector<MetricSnapshot>> runs;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    auto registry = std::make_unique<MetricsRegistry>();
    const MetricId c = registry->Counter("work_total");
    const MetricId h = registry->Histogram("work_size", {2.0, 8.0, 32.0});
    {
      util::ThreadPool pool(threads);
      pool.ParallelFor(kItems, [&](std::size_t i) {
        registry->Add(c, i);
        registry->Observe(h, static_cast<double>(i % 64));
      });
    }  // pool joins; worker shards retire into the registry
    runs.push_back(registry->Snapshot());
    EXPECT_EQ(registry->CounterValue("work_total"),
              kItems * (kItems - 1) / 2);
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t m = 0; m < runs[0].size(); ++m) {
      EXPECT_EQ(runs[r][m].name, runs[0][m].name);
      EXPECT_EQ(runs[r][m].counter, runs[0][m].counter);
      EXPECT_EQ(runs[r][m].histogram.counts, runs[0][m].histogram.counts);
      EXPECT_EQ(runs[r][m].histogram.total_count,
                runs[0][m].histogram.total_count);
    }
  }
}

// One thread registers fresh counters and histograms, enough to fill
// new chunks of cells, while two threads record into metrics registered
// earlier and a fourth takes snapshots (run under the tsan-obs preset).
// Every total comes out exact.
TEST(MetricsTest, RegistrationConcurrentWithRecordingAndSnapshots) {
  constexpr int kFresh = 600;
  constexpr int kRecords = 20000;  // per recorder; a multiple of 16
  MetricsRegistry registry;
  const MetricId c = registry.Counter("early_total");
  const MetricId g = registry.Gauge("early_gauge");
  const MetricId h = registry.Histogram("early_size", {2.0, 8.0});
  std::atomic<bool> registered{false};
  std::thread registrar([&] {
    for (int i = 0; i < kFresh; ++i) {
      const std::string n = std::to_string(i);
      registry.Add(registry.Counter("fresh_total_" + n), i);
      registry.Observe(registry.Histogram("fresh_seconds_" + n, {1.0}), 0.5);
    }
    registered.store(true);
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < 2; ++t) {
    recorders.emplace_back([&, t] {
      for (int i = 0; i < kRecords; ++i) {
        registry.Add(c, 1);
        registry.Set(g, t);
        registry.Observe(h, static_cast<double>(i % 16));
      }
    });
  }
  std::thread snapshotter([&] {
    do {
      EXPECT_GE(registry.Snapshot().size(), 3u);
    } while (!registered.load());
  });
  registrar.join();
  for (std::thread& r : recorders) r.join();
  snapshotter.join();

  const auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u + 2 * kFresh);
  for (const MetricSnapshot& m : snapshot) {
    if (m.name == "early_total") {
      EXPECT_EQ(m.counter, 2u * kRecords);
    } else if (m.name == "early_gauge") {
      EXPECT_TRUE(m.gauge == 0.0 || m.gauge == 1.0) << m.gauge;
    } else if (m.name == "early_size") {
      // Per 16 values: 0..2 in le2, 3..8 in le8, 9..15 in +Inf.
      const std::uint64_t cycles = 2 * kRecords / 16;
      EXPECT_EQ(m.histogram.counts,
                (std::vector<std::uint64_t>{3 * cycles, 6 * cycles,
                                            7 * cycles}));
      EXPECT_EQ(m.histogram.total_count, 2u * kRecords);
      EXPECT_EQ(m.histogram.sum, 120.0 * static_cast<double>(cycles));
    } else if (m.kind == MetricKind::kCounter) {
      EXPECT_EQ("fresh_total_" + std::to_string(m.counter), m.name);
    } else {
      EXPECT_EQ(m.histogram.counts, (std::vector<std::uint64_t>{1, 0}))
          << m.name;
      EXPECT_EQ(m.histogram.sum, 0.5) << m.name;
    }
  }
}

TEST(MetricsTest, RegisteringPastTheCapThrows) {
  MetricsRegistry registry;
  for (std::uint32_t i = 0; i < MetricsRegistry::kMaxMetricsPerKind; ++i) {
    registry.Gauge("g" + std::to_string(i));
  }
  EXPECT_THROW(registry.Gauge("one_too_many"), std::length_error);
  // Known names still resolve, and the cap is per kind.
  const std::string last =
      "g" + std::to_string(MetricsRegistry::kMaxMetricsPerKind - 1);
  registry.Set(registry.Gauge(last), 2.5);
  const MetricId c = registry.Counter("c");
  registry.Add(c, 3);
  EXPECT_EQ(registry.CounterValue("c"), 3u);
  const auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.size(), MetricsRegistry::kMaxMetricsPerKind + 1u);
  for (const MetricSnapshot& m : snapshot) {
    EXPECT_NE(m.name, "one_too_many");
    if (m.name == last) {
      EXPECT_EQ(m.gauge, 2.5);
    }
  }
}

TEST(MetricsTest, PooledJobRecordsUtilizationAndJobTimes) {
  // A pooled (non-inline) ParallelFor must leave the pool-health
  // instrumentation behind: a pool_utilization gauge in (0, 1] and
  // populated pool_job_seconds / pool_busy_seconds histograms.  All
  // three are wall-derived (gauge + *_seconds), so they are exempt from
  // — and must stay out of — the cross-thread-count determinism set.
  auto& registry = MetricsRegistry::Global();
  registry.Reset();
  {
    util::ThreadPool pool(2);
    std::atomic<std::uint64_t> sink{0};
    pool.ParallelFor(64, [&](std::size_t i) {
      std::uint64_t x = i;
      for (int k = 0; k < 1000; ++k) x = x * 6364136223846793005ULL + 1;
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  const MetricSnapshot* utilization = nullptr;
  const MetricSnapshot* job_seconds = nullptr;
  const MetricSnapshot* busy_seconds = nullptr;
  const auto snapshot = registry.Snapshot();
  for (const MetricSnapshot& m : snapshot) {
    if (m.name == "pool_utilization") utilization = &m;
    if (m.name == "pool_job_seconds") job_seconds = &m;
    if (m.name == "pool_busy_seconds") busy_seconds = &m;
  }
  ASSERT_NE(utilization, nullptr);
  EXPECT_EQ(utilization->kind, MetricKind::kGauge);
  EXPECT_GT(utilization->gauge, 0.0);
  EXPECT_LE(utilization->gauge, 1.0);
  ASSERT_NE(job_seconds, nullptr);
  EXPECT_GE(job_seconds->histogram.total_count, 1u);
  ASSERT_NE(busy_seconds, nullptr);
  EXPECT_GE(busy_seconds->histogram.total_count, 1u);
}

TEST(MetricsTest, PrometheusExpositionShape) {
  MetricsRegistry registry;
  registry.Add(registry.Counter("events_total"), 3);
  registry.Set(registry.Gauge("depth"), 2.5);
  const MetricId h = registry.Histogram("latency", {0.5, 1.0});
  registry.Observe(h, 0.25);
  registry.Observe(h, 2.0);
  const std::string text = registry.ToPrometheus();
  EXPECT_NE(text.find("# TYPE ranomaly_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ranomaly_events_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ranomaly_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ranomaly_latency histogram"),
            std::string::npos);
  EXPECT_NE(text.find("ranomaly_latency_bucket{le=\"0.5\"} 1"),
            std::string::npos);
  // Buckets are cumulative; +Inf equals _count.
  EXPECT_NE(text.find("ranomaly_latency_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("ranomaly_latency_count 2"), std::string::npos);
}

TEST(MetricsTest, PromEscapeHandlesSpecials) {
  EXPECT_EQ(PromEscape("plain"), "plain");
  EXPECT_EQ(PromEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(PromEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(PromEscape("a\nb"), "a\\nb");
  EXPECT_EQ(PromLabels({{"job", "x\"y"}, {"peer", "10.0.0.1"}}),
            "{job=\"x\\\"y\",peer=\"10.0.0.1\"}");
}

// Golden-file check of the whole exposition: escaped label values, # HELP
// and # TYPE exactly once per family (including a family whose plain
// name sorts between another family's labeled series), labeled
// histograms merging with le, and exact value formatting.
TEST(MetricsTest, PrometheusExpositionGolden) {
  MetricsRegistry registry;
  registry.SetHelp("scrapes_total", "Scrapes by\nsource \"path\\dir\".");
  registry.SetHelp("lat", "Latency.");
  registry.Add(
      registry.Counter("scrapes_total" +
                       PromLabels({{"job", "a\\b\"c\nd"}})),
      1);
  registry.Add(
      registry.Counter("scrapes_total" + PromLabels({{"job", "plain"}})), 2);
  registry.Counter("scrapes_total_errors");  // interleaves with the family
  registry.Set(registry.Gauge("depth"), 1.5);
  const MetricId h = registry.Histogram(
      "lat" + PromLabels({{"stage", "s1"}}), {1.0, 2.0});
  registry.Observe(h, 0.5);
  registry.Observe(h, 3.0);

  const std::string expected = R"PROM(# TYPE ranomaly_depth gauge
ranomaly_depth 1.5
# HELP ranomaly_lat Latency.
# TYPE ranomaly_lat histogram
ranomaly_lat_bucket{stage="s1",le="1"} 1
ranomaly_lat_bucket{stage="s1",le="2"} 1
ranomaly_lat_bucket{stage="s1",le="+Inf"} 2
ranomaly_lat_sum{stage="s1"} 3.5
ranomaly_lat_count{stage="s1"} 2
# TYPE ranomaly_scrapes_total_errors counter
ranomaly_scrapes_total_errors 0
# HELP ranomaly_scrapes_total Scrapes by\nsource "path\\dir".
# TYPE ranomaly_scrapes_total counter
ranomaly_scrapes_total{job="a\\b\"c\nd"} 1
ranomaly_scrapes_total{job="plain"} 2
)PROM";
  EXPECT_EQ(registry.ToPrometheus(), expected);
}

// le labels must round-trip exactly: bare %g's 6 significant digits
// collapsed the default detection-latency bounds (1.048576 printed as
// "1.04858"), so a scraper re-parsing the label saw a bucket edge the
// histogram never used.
TEST(MetricsTest, BucketLabelsRoundTripExactly) {
  MetricsRegistry registry;
  const std::vector<double> bounds = ExponentialBounds(1e-6, 4.0, 14);
  const MetricId h = registry.Histogram("detect_lat", bounds);
  registry.Observe(h, 0.5);
  const std::string text = registry.ToPrometheus();

  // Every bound appears as an le label whose text parses back to the
  // exact double, and all labels are distinct.
  std::set<std::string> labels;
  for (const double bound : bounds) {
    const std::size_t start = text.find("le=\"");
    ASSERT_NE(start, std::string::npos);
    bool found = false;
    for (std::size_t pos = start; pos != std::string::npos;
         pos = text.find("le=\"", pos + 4)) {
      const std::size_t end = text.find('"', pos + 4);
      ASSERT_NE(end, std::string::npos);
      const std::string label = text.substr(pos + 4, end - pos - 4);
      if (label == "+Inf") continue;
      if (std::strtod(label.c_str(), nullptr) == bound) {
        labels.insert(label);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "no le label round-trips to bound " << bound;
  }
  EXPECT_EQ(labels.size(), bounds.size());

  // Golden spot-checks: short bounds stay in their shortest form, and
  // the 6-digit-lossy bound now prints all its digits.
  EXPECT_NE(text.find("le=\"1.6e-05\""), std::string::npos);
  EXPECT_NE(text.find("le=\"1.048576\""), std::string::npos);
  EXPECT_NE(text.find("le=\"67.108864\""), std::string::npos);
  EXPECT_EQ(text.find("le=\"1.04858\""), std::string::npos);

  // Round integers keep their plain form: 10 must not become "1e+01"
  // just because precision 1 happens to round-trip first.
  const MetricId plain =
      registry.Histogram("plain_bounds", {1.0, 10.0, 100.0});
  registry.Observe(plain, 3.0);
  const std::string plain_text = registry.ToPrometheus();
  EXPECT_NE(plain_text.find("ranomaly_plain_bounds_bucket{le=\"10\"}"),
            std::string::npos);
  EXPECT_NE(plain_text.find("ranomaly_plain_bounds_bucket{le=\"100\"}"),
            std::string::npos);
  EXPECT_EQ(plain_text.find("le=\"1e+01\""), std::string::npos);
}

// Cumulative bucket counts must be monotonically non-decreasing up to
// +Inf == _count, whatever the observation pattern.
TEST(MetricsTest, PrometheusBucketsAreCumulativeMonotone) {
  MetricsRegistry registry;
  const MetricId h =
      registry.Histogram("mono", ExponentialBounds(0.001, 2.0, 10));
  for (int i = 0; i < 100; ++i) registry.Observe(h, 0.0009 * (i % 7) * (i % 11));
  const std::string text = registry.ToPrometheus();
  std::uint64_t previous = 0;
  std::size_t buckets = 0;
  for (std::size_t pos = text.find("ranomaly_mono_bucket{");
       pos != std::string::npos;
       pos = text.find("ranomaly_mono_bucket{", pos + 1)) {
    const std::size_t space = text.find(' ', pos);
    ASSERT_NE(space, std::string::npos);
    const std::uint64_t count = std::stoull(text.substr(space + 1));
    EXPECT_GE(count, previous);
    previous = count;
    ++buckets;
  }
  EXPECT_EQ(buckets, 11u);  // 10 bounds + +Inf
  EXPECT_EQ(previous, 100u);
}

TEST(MetricsTest, VarzJsonShape) {
  MetricsRegistry registry;
  registry.Add(registry.Counter("events_total"), 7);
  registry.Set(registry.Gauge("depth"), 2.5);
  const MetricId h = registry.Histogram("lat", {1.0});
  registry.Observe(h, 0.5);
  const std::string json = ToVarzJson(registry.Snapshot());
  EXPECT_NE(json.find("\"counters\":{\"events_total\":7"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"depth\":2.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat\":{\"bounds\":[1]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
}

// Byte-exact golden for the full /varz payload over the two historical
// invalid-JSON vectors: metric names embedding Prometheus-escaped label
// values (backslashes and double quotes that must be JSON-escaped
// again) and non-finite gauges (JSON has no Inf/NaN literal — they must
// render as null, not `inf`/`nan` which no parser accepts).
TEST(MetricsTest, VarzJsonGoldenEscapesHostileNamesAndNonFinite) {
  MetricsRegistry registry;
  registry.Add(registry.Counter("events_total"), 7);
  // PromEscape turns the value `up"link\<newline>` into `up\"link\\\n`,
  // so the registered *name* carries backslashes and quotes.
  const std::string hostile =
      "peer_state" + PromLabels({{"peer", "up\"link\\\n"}});
  registry.Set(registry.Gauge(hostile), 1.0);
  registry.Set(registry.Gauge("spike"),
               std::numeric_limits<double>::infinity());
  registry.Set(registry.Gauge("hole"),
               std::numeric_limits<double>::quiet_NaN());
  const MetricId h = registry.Histogram("lat", {0.5, 1.0});
  registry.Observe(h, 0.25);
  registry.SetHelp("events_total", "Events \"ingested\"\nsince start");

  const std::string json =
      ToVarzJson(registry.Snapshot(), registry.HelpSnapshot());
  EXPECT_EQ(
      json,
      R"json({"counters":{"events_total":7},"gauges":{"hole":null,"peer_state{peer=\"up\\\"link\\\\\\n\"}":1,"spike":null},"histograms":{"lat":{"bounds":[0.5,1],"counts":[1,0,0],"count":1,"sum":0.25}},"help":{"events_total":"Events \"ingested\"\nsince start"}})json");
}

TEST(MetricsTest, JsonDoubleShortestRoundTrip) {
  EXPECT_EQ(JsonDouble(0.0), "0");
  EXPECT_EQ(JsonDouble(2.5), "2.5");
  EXPECT_EQ(JsonDouble(0.1), "0.1");
  EXPECT_EQ(JsonDouble(-3.0), "-3");
  EXPECT_EQ(JsonDouble(1e300), "1e+300");
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonDouble(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(MetricsTest, JsonEscapeEveryControlByteQuoteAndBackslash) {
  std::string input;
  std::string expected;
  for (int c = 0; c < 0x20; ++c) {
    input += static_cast<char>(c);
    switch (c) {
      case '\n': expected += "\\n"; break;
      case '\r': expected += "\\r"; break;
      case '\t': expected += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        expected += buf;
      }
    }
  }
  input += "\"\\ \x7f\xc3\xa9";
  expected += "\\\"\\\\ \x7f\xc3\xa9";  // DEL and UTF-8 pass through
  EXPECT_EQ(JsonEscape(input), expected);
  EXPECT_EQ(JsonEscape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
}

// --- tracer ------------------------------------------------------------------

// Pulls `"key":` string/number fields out of one exported JSON line.
std::string JsonField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  std::size_t begin = pos + needle.size();
  std::size_t end;
  if (line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
  } else {
    end = line.find_first_of(",}", begin);
  }
  return line.substr(begin, end - begin);
}

TEST(TraceTest, SpansNestAndBalancePerThread) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  tracer.SetEnabled(true);
  {
    TraceSpan outer("outer");
    outer.Annotate("k", std::uint64_t{7});
    {
      TraceSpan inner("inner");
      inner.Annotate("label", "va\"lue");
    }
    TraceSpan sibling("sibling");
  }
  {
    util::ThreadPool pool(2);
    pool.ParallelFor(8, [](std::size_t) { TraceSpan span("chunk"); });
  }
  tracer.SetEnabled(false);
  const std::string jsonl = tracer.ExportJsonl();

  // Replay the stream: every E must close the innermost open B of the
  // same thread, and every stack must be empty at the end.
  std::map<std::string, std::vector<std::string>> stacks;  // tid -> names
  std::size_t events = 0;
  std::istringstream lines(jsonl);
  for (std::string line; std::getline(lines, line);) {
    ++events;
    ASSERT_EQ(line.front(), '{') << line;
    ASSERT_EQ(line.back(), '}') << line;
    const std::string name = JsonField(line, "name");
    const std::string ph = JsonField(line, "ph");
    const std::string tid = JsonField(line, "tid");
    ASSERT_FALSE(name.empty());
    ASSERT_FALSE(tid.empty());
    auto& stack = stacks[tid];
    if (ph == "B") {
      stack.push_back(name);
    } else {
      ASSERT_EQ(ph, "E") << line;
      ASSERT_FALSE(stack.empty()) << "E without B: " << line;
      EXPECT_EQ(stack.back(), name) << "mis-nested: " << line;
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
  // outer/inner/sibling (3 B + 3 E) plus pool.parallel_for and one
  // chunk span per item.
  EXPECT_GE(events, 2 * (3 + 1 + 8));
  EXPECT_NE(jsonl.find("\"k\":7"), std::string::npos);
  EXPECT_NE(jsonl.find("\"label\":\"va\\\"lue\""), std::string::npos);
  EXPECT_EQ(tracer.DroppedCount(), 0u);
  tracer.Reset();
}

TEST(TraceTest, ChromeJsonIsWellFormedAndNamesThreads) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  tracer.SetEnabled(true);
  tracer.SetCurrentThreadName("main-test");
  { TraceSpan span("solo"); }
  // An unclosed B must get a synthetic E in the export.
  tracer.RecordBegin("open");
  tracer.SetEnabled(false);
  const std::string json = tracer.ExportChromeJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("main-test"), std::string::npos);
  // B and E phases balance even with the dangling span.
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"ph\":\"B\"", pos)) != std::string::npos; ++pos) {
    ++begins;
  }
  for (std::size_t pos = 0;
       (pos = json.find("\"ph\":\"E\"", pos)) != std::string::npos; ++pos) {
    ++ends;
  }
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(begins, ends);
  tracer.Reset();
}

TEST(TraceTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  ASSERT_FALSE(tracer.enabled());
  { TraceSpan span("invisible"); }
  EXPECT_EQ(tracer.ExportJsonl(), "");
}

std::size_t CountLines(const std::string& text) {
  return static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n'));
}

// All threads share one ring of 65,536 events: four threads of 40,000
// events each overwrite the oldest 94,464 between them.
TEST(TraceTest, ThreadsShareOneRing) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  tracer.SetEnabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 20000; ++i) TraceSpan span("spin");
    });
  }
  for (std::thread& thread : threads) thread.join();
  tracer.SetEnabled(false);
  EXPECT_LE(CountLines(tracer.ExportJsonl()), 65536u);
  EXPECT_EQ(tracer.DroppedCount(), 4u * 2 * 20000 - 65536);
  tracer.Reset();
  EXPECT_EQ(tracer.DroppedCount(), 0u);
}

TEST(TraceTest, ResetForgetsThreadNames) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  tracer.SetEnabled(true);
  std::thread([&tracer] { tracer.SetCurrentThreadName("short-lived"); })
      .join();
  tracer.SetEnabled(false);
  EXPECT_NE(tracer.ExportChromeJson().find("short-lived"), std::string::npos);
  tracer.Reset();
  EXPECT_EQ(tracer.ExportChromeJson().find("short-lived"), std::string::npos);
}

TEST(TraceTest, NamingWhileDisabledRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  ASSERT_FALSE(tracer.enabled());
  tracer.SetCurrentThreadName("untraced");
  EXPECT_EQ(tracer.ExportChromeJson().find("thread_name"), std::string::npos);
}

// Recording, exporting and resetting from different threads all go
// through the tracer's one lock (run under RANOMALY_SANITIZE=thread in
// CI); every export balances whatever it catches.
TEST(TraceTest, ExportAndResetWhileThreadsRecord) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  tracer.SetEnabled(true);
  std::atomic<int> running{3};
  std::vector<std::thread> recorders;
  for (int t = 0; t < 3; ++t) {
    recorders.emplace_back([&tracer, &running, t] {
      tracer.SetCurrentThreadName("recorder-" + std::to_string(t));
      for (int i = 0; i < 2000; ++i) {
        TraceSpan outer("outer");
        TraceSpan inner("inner");
        inner.Annotate("t", static_cast<std::uint64_t>(t));
      }
      running.fetch_sub(1);
    });
  }
  for (int round = 0; round == 0 || running.load() > 0; ++round) {
    const std::string jsonl = tracer.ExportJsonl();
    std::map<std::string, int> depth;  // tid -> open spans
    std::istringstream lines(jsonl);
    for (std::string line; std::getline(lines, line);) {
      int& open = depth[JsonField(line, "tid")];
      open += JsonField(line, "ph") == "B" ? 1 : -1;
      ASSERT_GE(open, 0) << line;
    }
    for (const auto& [tid, open] : depth) EXPECT_EQ(open, 0) << tid;
    EXPECT_NE(tracer.ExportChromeJson().find("\"traceEvents\""),
              std::string::npos);
    if (round % 4 == 3) tracer.Reset();
  }
  for (std::thread& thread : recorders) thread.join();
  tracer.SetEnabled(false);
  tracer.Reset();
}

}  // namespace
}  // namespace ranomaly::obs
