#include "core/live.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/health.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "workload/eventgen.h"

namespace ranomaly::core {
namespace {

using util::kMinute;
using util::kSecond;

bgp::Event MakeEvent(util::SimTime time, const char* peer,
                     bgp::EventType type) {
  bgp::Event event;
  event.time = time;
  event.peer = *bgp::Ipv4Addr::Parse(peer);
  event.type = type;
  return event;
}

Incident MakeIncidentFor(std::uint64_t key, const std::string& label) {
  Incident inc;
  inc.stem_key = {key, key + 1};
  inc.stem_label = label;
  inc.summary = label + " summary";
  return inc;
}

// A capture with one session-reset avalanche plus background churn — the
// same workload the CLI tests analyze in batch mode.
collector::EventStream ResetCapture() {
  workload::InternetOptions options;
  options.monitored_peers = 3;
  options.prefix_count = 300;
  options.origin_as_count = 60;
  options.seed = 7;
  const workload::SyntheticInternet internet(options);
  workload::EventStreamGenerator gen(internet, 8);
  gen.SessionReset(0, 10 * kMinute, kMinute, 20 * kSecond);
  gen.Churn(0, 30 * kMinute, 400);
  return gen.Take();
}

// --- IncidentLog -------------------------------------------------------------

TEST(IncidentLogTest, SequenceNumbersAreMonotonicFromOne) {
  IncidentLog log;
  EXPECT_EQ(log.Append(MakeIncidentFor(1, "a")), 1u);
  EXPECT_EQ(log.Append(MakeIncidentFor(2, "b")), 2u);
  EXPECT_EQ(log.Append(MakeIncidentFor(3, "c")), 3u);
  EXPECT_EQ(log.size(), 3u);
}

TEST(IncidentLogTest, SinceReturnsOnlyNewerEntries) {
  IncidentLog log;
  log.Append(MakeIncidentFor(1, "a"));
  log.Append(MakeIncidentFor(2, "b"));
  log.Append(MakeIncidentFor(3, "c"));
  EXPECT_EQ(log.Since(0).size(), 3u);
  const auto tail = log.Since(1);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq, 2u);
  EXPECT_EQ(tail[1].seq, 3u);
  EXPECT_TRUE(log.Since(3).empty());
  EXPECT_TRUE(log.Since(999).empty());
}

TEST(IncidentLogTest, JsonCarriesResumptionCursor) {
  IncidentLog log;
  EXPECT_NE(log.ToJson(0).find("\"next_since\":0"), std::string::npos);
  log.Append(MakeIncidentFor(1, "AS1 - AS2"));
  log.Append(MakeIncidentFor(2, "AS3 - AS4"));
  const std::string all = log.ToJson(0);
  EXPECT_NE(all.find("\"seq\":1"), std::string::npos);
  EXPECT_NE(all.find("\"seq\":2"), std::string::npos);
  EXPECT_NE(all.find("\"next_since\":2"), std::string::npos);
  EXPECT_NE(all.find("AS1 - AS2"), std::string::npos);
  // Resumption: since=1 skips the first entry but keeps the cursor.
  const std::string tail = log.ToJson(1);
  EXPECT_EQ(tail.find("\"seq\":1,"), std::string::npos);
  EXPECT_NE(tail.find("\"seq\":2"), std::string::npos);
  EXPECT_NE(tail.find("\"next_since\":2"), std::string::npos);
}

TEST(IncidentLogTest, JsonEscapesSummaries) {
  IncidentLog log;
  log.Append(MakeIncidentFor(1, "bad\"label\\with\nnewline"));
  const std::string json = log.ToJson(0);
  EXPECT_NE(json.find("bad\\\"label\\\\with\\nnewline"), std::string::npos);
}

// --- PeerBoard ---------------------------------------------------------------

TEST(PeerBoardTest, TracksGapsReconnectsAndUptime) {
  PeerBoard board;
  // Observe reports each peer's first event only: the live runner
  // registers the peer's health component then.
  EXPECT_TRUE(
      board.Observe(MakeEvent(0, "10.0.0.1", bgp::EventType::kAnnounce)));
  EXPECT_TRUE(board.Observe(
      MakeEvent(1 * kSecond, "10.0.0.2", bgp::EventType::kAnnounce)));
  EXPECT_FALSE(board.Observe(
      MakeEvent(60 * kSecond, "10.0.0.1", bgp::EventType::kFeedGap)));
  EXPECT_FALSE(board.Observe(
      MakeEvent(120 * kSecond, "10.0.0.1", bgp::EventType::kResync)));
  EXPECT_FALSE(board.Observe(
      MakeEvent(180 * kSecond, "10.0.0.2", bgp::EventType::kFeedGap)));
  EXPECT_FALSE(board.Observe(
      MakeEvent(200 * kSecond, "10.0.0.1", bgp::EventType::kAnnounce)));
  board.Finish(200 * kSecond);

  const auto rows = board.Rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].peer.ToString(), "10.0.0.1");
  EXPECT_FALSE(rows[0].degraded);
  EXPECT_EQ(rows[0].announces, 2u);
  EXPECT_EQ(rows[0].gaps, 1u);
  EXPECT_EQ(rows[0].reconnects, 1u);
  EXPECT_EQ(rows[0].last_gap, 60 * kSecond);
  // 200s observed minus the 60s gap.
  EXPECT_DOUBLE_EQ(rows[0].uptime_sec, 140.0);

  EXPECT_EQ(rows[1].peer.ToString(), "10.0.0.2");
  EXPECT_TRUE(rows[1].degraded);
  EXPECT_EQ(rows[1].reconnects, 0u);
  // Span 1s..200s minus the open gap 180s..200s.
  EXPECT_DOUBLE_EQ(rows[1].uptime_sec, 179.0);

  const std::string table = FormatPeerTable(rows);
  EXPECT_NE(table.find("10.0.0.1"), std::string::npos);
  EXPECT_NE(table.find("DEGRADED"), std::string::npos);
}

TEST(PeerBoardTest, DoubleGapDoesNotDoubleCount) {
  PeerBoard board;
  board.Observe(MakeEvent(0, "10.0.0.1", bgp::EventType::kFeedGap));
  board.Observe(MakeEvent(1 * kSecond, "10.0.0.1", bgp::EventType::kFeedGap));
  board.Observe(MakeEvent(2 * kSecond, "10.0.0.1", bgp::EventType::kResync));
  board.Observe(MakeEvent(3 * kSecond, "10.0.0.1", bgp::EventType::kResync));
  const auto rows = board.Rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].gaps, 1u);
  EXPECT_EQ(rows[0].reconnects, 1u);
  EXPECT_FALSE(rows[0].degraded);
}

// --- LiveRunner --------------------------------------------------------------

std::vector<std::uint64_t> LatencyBuckets() {
  for (const auto& m : obs::MetricsRegistry::Global().Snapshot()) {
    if (m.name == "incident_detection_latency_seconds") {
      return m.histogram.counts;
    }
  }
  return {};
}

TEST(LiveRunnerTest, DetectsIncidentsWithLatencyStamps) {
  const auto stream = ResetCapture();
  obs::HealthRegistry health;
  IncidentLog log;
  LiveOptions options;
  LiveRunner runner(options, &health, &log);
  const LiveStats stats = runner.Run(stream);

  EXPECT_EQ(stats.events_ingested, stream.size());
  EXPECT_GT(stats.ticks, 0u);
  ASSERT_GT(stats.incidents, 0u);
  EXPECT_EQ(log.size(), stats.incidents);
  for (const auto& entry : log.Since(0)) {
    const Incident& inc = entry.incident;
    EXPECT_GT(inc.detected_at, 0);
    EXPECT_GE(inc.detected_at, inc.begin);
    EXPECT_GE(inc.detection_latency_sec, 0.0);
    EXPECT_GE(inc.ingest_tick, inc.end);  // ingested at or after the events
  }
  // The replay finished: its component reports OK / complete and stall
  // detection is off.
  bool saw_replay = false;
  for (const auto& c : health.Snapshot()) {
    if (c.name == "replay") {
      saw_replay = true;
      EXPECT_EQ(c.state, obs::HealthState::kOk);
      EXPECT_EQ(c.reason, "replay complete");
    }
  }
  EXPECT_TRUE(saw_replay);
}

TEST(LiveRunnerTest, LatencyBucketsAreThreadCountInvariant) {
  const auto stream = ResetCapture();
  struct RunResult {
    std::vector<std::uint64_t> bucket_delta;
    std::vector<std::pair<std::string, double>> incidents;
  };
  std::vector<RunResult> results;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const auto before = LatencyBuckets();
    IncidentLog log;
    LiveOptions options;
    options.pipeline.threads = threads;
    LiveRunner runner(options, nullptr, &log);
    runner.Run(stream);
    auto after = LatencyBuckets();
    RunResult result;
    if (before.empty()) {
      result.bucket_delta = after;
    } else {
      for (std::size_t i = 0; i < after.size(); ++i) {
        after[i] -= before[i];
      }
      result.bucket_delta = after;
    }
    for (const auto& entry : log.Since(0)) {
      result.incidents.emplace_back(entry.incident.stem_label,
                                    entry.incident.detection_latency_sec);
    }
    results.push_back(std::move(result));
  }
  ASSERT_FALSE(results[0].incidents.empty());
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].bucket_delta, results[0].bucket_delta)
        << "thread count changed the latency histogram";
    EXPECT_EQ(results[i].incidents, results[0].incidents)
        << "thread count changed the incident sequence";
  }
}

// The live path stems and classifies on the replay thread at any
// pipeline.threads: a replay runs no pool job, and the series a snapshot
// carries include no pool metric and no parallel-fraction gauge.
TEST(LiveRunnerTest, ReplayRunsNoPoolJob) {
  const auto stream = ResetCapture();
  obs::MetricsRegistry::Global().Reset();
  IncidentLog log;
  obs::TimeSeriesStore store;
  LiveOptions options;
  options.pipeline.threads = 2;
  LiveRunner runner(options, nullptr, &log, &store);
  runner.Run(stream);
  ASSERT_GT(log.size(), 0u);
  EXPECT_EQ(
      obs::MetricsRegistry::Global().CounterValue("pool_jobs_total"), 0u);
  const std::string list = store.ListJson();
  EXPECT_NE(list.find("\"serve_ticks_total\""), std::string::npos) << list;
  EXPECT_EQ(list.find("\"pool_"), std::string::npos) << list;
  EXPECT_EQ(list.find("stemming_extract_parallel_fraction"),
            std::string::npos)
      << list;
}

TEST(LiveRunnerTest, StopsEarlyWhenToldTo) {
  const auto stream = ResetCapture();
  IncidentLog log;
  LiveRunner runner(LiveOptions{}, nullptr, &log);
  std::atomic<bool> keep_going{true};
  const LiveStats stats =
      runner.Run(stream, &keep_going, [&](const LiveStats& s) {
        if (s.ticks >= 3) keep_going.store(false);
      });
  EXPECT_EQ(stats.ticks, 3u);
  EXPECT_LT(stats.events_ingested, stream.size());
}

TEST(LiveRunnerTest, FeedGapMarksPeerDegradedInHealth) {
  collector::EventStream stream;
  stream.Append(MakeEvent(0, "10.0.0.1", bgp::EventType::kAnnounce));
  stream.Append(MakeEvent(5 * kSecond, "10.0.0.2", bgp::EventType::kAnnounce));
  stream.Append(MakeEvent(30 * kSecond, "10.0.0.2", bgp::EventType::kFeedGap));
  stream.Append(MakeEvent(60 * kSecond, "10.0.0.1", bgp::EventType::kAnnounce));

  obs::HealthRegistry health;
  LiveRunner runner(LiveOptions{}, &health, nullptr);
  runner.Run(stream);

  const auto agg = health.Aggregated();
  EXPECT_EQ(agg.state, obs::HealthState::kDegraded);
  EXPECT_NE(agg.reason.find("peer/10.0.0.2"), std::string::npos);
  EXPECT_NE(agg.reason.find("feed gap"), std::string::npos);
  for (const auto& c : health.Snapshot()) {
    if (c.name == "peer/10.0.0.1") {
      EXPECT_EQ(c.state, obs::HealthState::kOk);
    }
  }
}

// A peer's health gauge follows its feed: 0 until the tick that ingests
// its GAP, 1 from that tick's boundary, 0 again from the tick that
// ingests its SYNC.
TEST(LiveRunnerTest, PeerHealthGaugeFollowsGapAndSync) {
  collector::EventStream stream;
  stream.Append(MakeEvent(0, "10.0.9.1", bgp::EventType::kAnnounce));
  stream.Append(MakeEvent(5 * kSecond, "10.0.9.2", bgp::EventType::kAnnounce));
  stream.Append(MakeEvent(32 * kSecond, "10.0.9.2", bgp::EventType::kFeedGap));
  stream.Append(MakeEvent(61 * kSecond, "10.0.9.2", bgp::EventType::kResync));
  stream.Append(MakeEvent(90 * kSecond, "10.0.9.1", bgp::EventType::kAnnounce));

  obs::HealthRegistry health;
  LiveRunner runner(LiveOptions{}, &health, nullptr);
  const std::string gauge =
      "health_component_state{component=\"peer/10.0.9.2\"}";
  std::vector<double> per_tick;
  runner.Run(stream, nullptr, [&](const LiveStats&) {
    double value = -1.0;  // not registered
    for (const auto& m : obs::MetricsRegistry::Global().Snapshot()) {
      if (m.name == gauge) value = m.gauge;
    }
    per_tick.push_back(value);
  });
  // 10 s ticks: tick k ingests [10(k-1), 10k) s, so the GAP lands in
  // tick 4 and the SYNC in tick 7.
  EXPECT_EQ(per_tick,
            (std::vector<double>{0, 0, 0, 1, 1, 1, 0, 0, 0, 0}));
}

// --- ops handler -------------------------------------------------------------

obs::HttpRequest Get(const std::string& path, const std::string& query = "") {
  obs::HttpRequest request;
  request.method = "GET";
  request.path = path;
  request.query = query;
  request.target = query.empty() ? path : path + "?" + query;
  request.version = "HTTP/1.1";
  return request;
}

class OpsHandlerTest : public ::testing::Test {
 protected:
  OpsHandlerTest()
      : handler_(MakeOpsHandler(&obs::MetricsRegistry::Global(), &health_,
                                &log_,
                                OpsInfo{"capture.events", 30.0, 10.0,
                                        300.0})) {}

  obs::HealthRegistry health_;
  IncidentLog log_;
  obs::HttpServer::Handler handler_;
};

TEST_F(OpsHandlerTest, MetricsEndpointSpeaksPrometheus) {
  RANOMALY_METRIC_COUNT("ops_handler_test_counter", 1);
  const auto response = handler_(Get("/metrics"));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(response.body.find("ranomaly_ops_handler_test_counter"),
            std::string::npos);
}

TEST_F(OpsHandlerTest, VarzReportsConfigHealthAndMetrics) {
  health_.Register("replay");
  const auto response = handler_(Get("/varz"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_NE(response.body.find("\"stream\":\"capture.events\""),
            std::string::npos);
  EXPECT_NE(response.body.find("\"slo_target_sec\":30.000"),
            std::string::npos);
  EXPECT_NE(response.body.find("\"name\":\"replay\""), std::string::npos);
  EXPECT_NE(response.body.find("\"counters\""), std::string::npos);
}

TEST_F(OpsHandlerTest, HealthzIsAlwaysOkReadyzAggregates) {
  EXPECT_EQ(handler_(Get("/healthz")).status, 200);
  EXPECT_EQ(handler_(Get("/readyz")).status, 200);
  const auto id = health_.Register("peer/10.0.0.9");
  health_.SetState(id, obs::HealthState::kDegraded, "feed gap open since 42s");
  EXPECT_EQ(handler_(Get("/healthz")).status, 200);  // liveness unaffected
  const auto ready = handler_(Get("/readyz"));
  EXPECT_EQ(ready.status, 503);
  EXPECT_NE(ready.body.find("peer/10.0.0.9"), std::string::npos);
}

TEST_F(OpsHandlerTest, IncidentsEndpointResumes) {
  log_.Append(MakeIncidentFor(1, "a"));
  log_.Append(MakeIncidentFor(2, "b"));
  const auto all = handler_(Get("/incidents"));
  EXPECT_EQ(all.status, 200);
  EXPECT_NE(all.body.find("\"next_since\":2"), std::string::npos);
  const auto tail = handler_(Get("/incidents", "since=1"));
  EXPECT_EQ(tail.body.find("\"seq\":1,"), std::string::npos);
  EXPECT_NE(tail.body.find("\"seq\":2"), std::string::npos);
  EXPECT_EQ(handler_(Get("/incidents", "since=x")).status, 400);
  EXPECT_EQ(handler_(Get("/incidents", "since=")).status, 400);
}

// The cursor is digits-only: signs, whitespace, trailing garbage, and
// overflow are all 400 — strtoull would have coerced "-1" into 2^64-1
// (hiding every incident) and saturated "2^64" to a valid cursor.
TEST_F(OpsHandlerTest, IncidentsSinceIsStrictlyParsed) {
  log_.Append(MakeIncidentFor(1, "a"));
  for (const char* bad : {"since=+1", "since=-1", "since= 1", "since=1 ",
                          "since=1x", "since=0x10", "since=1.0",
                          "since=18446744073709551616"}) {
    EXPECT_EQ(handler_(Get("/incidents", bad)).status, 400) << bad;
  }
  // The full u64 range is a valid cursor.
  const auto max = handler_(Get("/incidents", "since=18446744073709551615"));
  EXPECT_EQ(max.status, 200);
  EXPECT_EQ(max.body.find("\"seq\":1"), std::string::npos);
}

// The dashboard timeline shares the /incidents resumption contract:
// ?since=N pages from the cursor and next_since names the new one.
TEST_F(OpsHandlerTest, TimelineSincePaginates) {
  log_.Append(MakeIncidentFor(1, "a"));
  log_.Append(MakeIncidentFor(2, "b"));
  log_.Append(MakeIncidentFor(3, "c"));
  const auto all = handler_(Get("/api/incidents/timeline"));
  EXPECT_EQ(all.status, 200);
  EXPECT_EQ(all.content_type, "application/json");
  EXPECT_NE(all.body.find("\"seq\":1,"), std::string::npos);
  EXPECT_NE(all.body.find("\"next_since\":3"), std::string::npos);
  const auto tail = handler_(Get("/api/incidents/timeline", "since=2"));
  EXPECT_EQ(tail.status, 200);
  EXPECT_EQ(tail.body.find("\"seq\":1,"), std::string::npos);
  EXPECT_EQ(tail.body.find("\"seq\":2,"), std::string::npos);
  EXPECT_NE(tail.body.find("\"seq\":3,"), std::string::npos);
  EXPECT_NE(tail.body.find("\"next_since\":3"), std::string::npos);
  // A cursor past the end is an empty page, not an error.
  const auto beyond = handler_(Get("/api/incidents/timeline", "since=999"));
  EXPECT_EQ(beyond.status, 200);
  EXPECT_EQ(beyond.body.find("\"seq\":"), std::string::npos);
  EXPECT_NE(beyond.body.find("\"next_since\":3"), std::string::npos);
}

// Digits-only, same as /incidents: signs, whitespace, trailing garbage,
// and overflow are all loud 400s, never a silently empty timeline.
TEST_F(OpsHandlerTest, TimelineSinceIsStrictlyParsed) {
  log_.Append(MakeIncidentFor(1, "a"));
  for (const char* bad : {"since=+1", "since=-1", "since= 1", "since=1 ",
                          "since=1x", "since=0x10", "since=1.0", "since=",
                          "since=18446744073709551616"}) {
    EXPECT_EQ(handler_(Get("/api/incidents/timeline", bad)).status, 400)
        << bad;
  }
  const auto max =
      handler_(Get("/api/incidents/timeline", "since=18446744073709551615"));
  EXPECT_EQ(max.status, 200);
  EXPECT_EQ(max.body.find("\"seq\":1"), std::string::npos);
}

TEST_F(OpsHandlerTest, UnknownPathIs404) {
  EXPECT_EQ(handler_(Get("/")).status, 404);
  EXPECT_EQ(handler_(Get("/metricsx")).status, 404);
}

// The TSan star witness: HTTP scrapes hammer every endpoint while the
// live replay (with its analysis thread pool and the health watchdog)
// runs.  Any unsynchronized access between the serving thread and the
// pipeline shows up here.
TEST(LiveServeTest, ConcurrentScrapesDuringReplay) {
  const auto stream = ResetCapture();
  obs::HealthRegistry health;
  health.StartWatchdog(0.01);
  IncidentLog log;
  obs::HttpServer server(MakeOpsHandler(&obs::MetricsRegistry::Global(),
                                        &health, &log,
                                        OpsInfo{"mem", 30.0, 10.0, 300.0}));
  ASSERT_TRUE(server.Start(0));

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&] {
      const char* paths[] = {"/metrics", "/varz", "/readyz",
                             "/incidents?since=0"};
      int i = 0;
      while (!done.load(std::memory_order_acquire)) {
        if (obs::HttpGet(server.port(), paths[i++ % 4])) ++scrapes;
      }
    });
  }

  LiveOptions options;
  options.pipeline.threads = 2;
  options.heartbeat_deadline_sec = 5.0;
  LiveRunner runner(options, &health, &log);
  const LiveStats stats = runner.Run(stream);
  done.store(true, std::memory_order_release);
  for (auto& s : scrapers) s.join();
  server.Stop();
  health.StopWatchdog();

  EXPECT_GT(stats.incidents, 0u);
  EXPECT_GT(scrapes.load(), 0);
  EXPECT_GT(server.requests_total(), 0u);
}

}  // namespace
}  // namespace ranomaly::core
