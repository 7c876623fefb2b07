// Incident provenance: the bounded ledger's caps/eviction behavior, the
// evidence JSON rendering (byte-golden over the hostile-name corpus the
// /varz golden uses), the thread-count byte-identity contract, and
// evidence survival across kill/restart via the PROV checkpoint section.
#include "obs/provenance.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "collector/event_stream.h"
#include "core/live.h"
#include "obs/health.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "workload/eventgen.h"

namespace ranomaly::obs {
namespace {

using util::kMinute;
using util::kSecond;

IncidentProvenance MakeRecord(std::uint64_t seq) {
  IncidentProvenance prov;
  prov.seq = seq;
  prov.stem_first = 7;
  prov.stem_second = 9;
  prov.stem = "AS1 - AS2";
  prov.kind = "session-reset";
  prov.path = {"live:tick 1", "window:stemming", "component:AS1 - AS2",
               "classify:session-reset"};
  prov.window_events = 4;
  prov.component_events = 2;
  prov.component_weight = 1.5;
  prov.events_total = 2;
  for (std::uint64_t i = 0; i < 2; ++i) {
    ProvenanceEvent pe;
    pe.stream_index = 10 + i;
    pe.time_sec = 1.0 + static_cast<double>(i);
    pe.type = "A";
    pe.peer = "10.0.0.1";
    pe.prefix = "192.0.2.0/24";
    prov.events.push_back(std::move(pe));
  }
  prov.classes_total = 1;
  ProvenanceClass pc;
  pc.weight = 2.0;
  pc.score = 1.0;
  pc.sequence = "peer 10.0.0.1 nexthop 10.1.0.1 AS1 192.0.2.0/24";
  prov.classes.push_back(std::move(pc));
  prov.stages = {{"total", 10.0}};
  prov.trace_tick = 1;
  return prov;
}

// --- ledger bounds -----------------------------------------------------------

TEST(ProvenanceLedgerTest, AttachTruncatesToCapsAndEvictsOldest) {
  ProvenanceLedger ledger(ProvenanceCaps{2, 1, 1});
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    IncidentProvenance prov = MakeRecord(seq);
    ASSERT_EQ(prov.events.size(), 2u);  // above the per-record cap of 1
    ledger.Attach(std::move(prov));
  }
  EXPECT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ledger.evicted(), 1u);
  EXPECT_FALSE(ledger.EvidenceJson(1).has_value());  // evicted
  ASSERT_TRUE(ledger.EvidenceJson(2).has_value());
  ASSERT_TRUE(ledger.EvidenceJson(3).has_value());
  // Truncation kept the first (strided order) event, and the totals
  // still report the pre-truncation counts.
  const std::string body = *ledger.EvidenceJson(3);
  EXPECT_NE(body.find("\"events_total\":2"), std::string::npos) << body;
  EXPECT_NE(body.find("\"id\":10"), std::string::npos) << body;
  EXPECT_EQ(body.find("\"id\":11"), std::string::npos) << body;
  // The exported state still validates after eviction + truncation.
  EXPECT_EQ(ProvenanceLedger::Validate(ledger.Export()), "");
}

TEST(ProvenanceLedgerTest, UnknownSeqIsNotFound) {
  ProvenanceLedger ledger;
  ledger.Attach(MakeRecord(1));
  EXPECT_FALSE(ledger.EvidenceJson(0).has_value());
  EXPECT_FALSE(ledger.EvidenceJson(2).has_value());
  EXPECT_TRUE(ledger.EvidenceJson(1).has_value());
}

// A checkpoint written without a ledger restores into a ledger-attached
// serve at incident N+1: the unexplained prefix counts as evicted so the
// contiguity invariant (and the next checkpoint's PROV section) stays
// valid.
TEST(ProvenanceLedgerTest, FirstAttachAfterBareRestoreBaselinesEviction) {
  ProvenanceLedger ledger;
  ledger.Attach(MakeRecord(5));
  EXPECT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger.evicted(), 4u);
  EXPECT_FALSE(ledger.EvidenceJson(4).has_value());
  EXPECT_TRUE(ledger.EvidenceJson(5).has_value());
  EXPECT_EQ(ProvenanceLedger::Validate(ledger.Export()), "");
}

TEST(ProvenanceLedgerTest, ExportRestoreRoundTripsEvidenceBytes) {
  ProvenanceLedger a;
  a.Attach(MakeRecord(1));
  a.Attach(MakeRecord(2));
  ProvenanceLedger b;
  std::string error;
  ASSERT_TRUE(b.Restore(a.Export(), &error)) << error;
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(*a.EvidenceJson(1), *b.EvidenceJson(1));
  EXPECT_EQ(*a.EvidenceJson(2), *b.EvidenceJson(2));
}

TEST(ProvenanceLedgerTest, RestoreRejectsCapsMismatchAndBadState) {
  ProvenanceLedger source(ProvenanceCaps{8, 4, 2});
  source.Attach(MakeRecord(1));
  std::string error;
  ProvenanceLedger other;  // default caps != {8, 4, 2}
  EXPECT_FALSE(other.Restore(source.Export(), &error));
  EXPECT_NE(error.find("caps"), std::string::npos) << error;
  // The zero-caps sentinel restores anywhere: it just clears.
  ProvenanceLedger cleared(ProvenanceCaps{8, 4, 2});
  cleared.Attach(MakeRecord(1));
  ASSERT_TRUE(cleared.Restore(ProvenanceLedger::Persisted{}, &error)) << error;
  EXPECT_EQ(cleared.size(), 0u);
  EXPECT_EQ(cleared.evicted(), 0u);
}

// Per-field tamper torture on the persisted form: every structural
// invariant break must name a reason, and the untampered state must
// pass (sanity for the harness).
TEST(ProvenanceLedgerTest, ValidateRejectsEveryInvariantBreak) {
  ProvenanceLedger ledger;
  ledger.Attach(MakeRecord(1));
  ledger.Attach(MakeRecord(2));
  const ProvenanceLedger::Persisted good = ledger.Export();
  ASSERT_EQ(ProvenanceLedger::Validate(good), "");

  const auto reject = [&good](const char* what,
                              const std::function<void(
                                  ProvenanceLedger::Persisted&)>& tamper) {
    ProvenanceLedger::Persisted bad = good;
    tamper(bad);
    EXPECT_NE(ProvenanceLedger::Validate(bad), "") << what;
  };
  reject("zero caps with records",
         [](auto& p) { p.caps = {0, 0, 0}; });
  reject("zero caps with evicted count", [](auto& p) {
    p.caps = {0, 0, 0};
    p.records.clear();
    p.evicted = 3;
  });
  reject("max_incidents beyond hard bound",
         [](auto& p) { p.caps.max_incidents = kMaxProvenanceIncidents + 1; });
  reject("max_events beyond hard bound",
         [](auto& p) { p.caps.max_events = kMaxProvenanceEvents + 1; });
  reject("max_classes beyond hard bound",
         [](auto& p) { p.caps.max_classes = kMaxProvenanceClasses + 1; });
  reject("more records than max_incidents", [](auto& p) {
    p.caps.max_incidents = 1;
  });
  reject("seq gap", [](auto& p) { p.records[1].seq = 5; });
  reject("seq not starting at evicted + 1",
         [](auto& p) { p.evicted = 7; });
  reject("events beyond max_events", [](auto& p) {
    p.caps.max_events = 1;
  });
  reject("more sampled events than events_total",
         [](auto& p) { p.records[0].events_total = 1; });
  reject("classes beyond max_classes", [](auto& p) {
    p.caps.max_classes = 1;
    p.records[0].classes.resize(2);
    p.records[0].classes[1].id = 1;
    p.records[0].classes_total = 2;
  });
  reject("more classes than classes_total",
         [](auto& p) { p.records[0].classes_total = 0; });
  reject("component larger than window",
         [](auto& p) { p.records[0].component_events = 99; });
  reject("reserved admission class",
         [](auto& p) { p.records[0].events[0].admission = 2; });
  reject("class id out of first-occurrence order",
         [](auto& p) { p.records[0].classes[0].id = 3; });
}

// --- evidence JSON -----------------------------------------------------------

// Byte-exact golden over the hostile-name corpus the /varz golden uses
// (embedded quotes, backslashes, newlines) plus a tab and a control
// byte: every string field must be JSON-escaped, doubles render via the
// shortest-round-trip formatter, and the field order is fixed.
TEST(ProvenanceLedgerTest, EvidenceJsonGoldenEscapesHostileNames) {
  ProvenanceLedger ledger;
  IncidentProvenance prov;
  prov.seq = 1;
  prov.stem_first = 7;
  prov.stem_second = 9;
  prov.stem = "up\"link\\\n";
  prov.kind = "session\treset";
  prov.path = {"live:tick 1", "component:up\"link\\\n"};
  prov.window_events = 2;
  prov.component_events = 1;
  prov.component_weight = 1.5;
  prov.events_total = 1;
  ProvenanceEvent pe;
  pe.stream_index = 3;
  pe.time_sec = 2.5;
  pe.type = "A";
  pe.peer = "10.0.0.\x01";
  pe.prefix = "192.0.2.0/24\"";
  pe.admission = 1;
  prov.events.push_back(std::move(pe));
  prov.classes_total = 1;
  ProvenanceClass pc;
  pc.weight = 1.0;
  pc.score = 1.0;
  pc.sequence = "peer \"evil\\\" AS1";
  prov.classes.push_back(std::move(pc));
  prov.stages = {{"total\n", 0.5}};
  prov.trace_tick = 1;
  ledger.Attach(std::move(prov));

  const auto body = ledger.EvidenceJson(1);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(
      *body,
      R"json({"seq":1,"kind":"session\treset","stem":"up\"link\\\n","stem_key":[7,9],"path":["live:tick 1","component:up\"link\\\n"],"window_events":2,"component_events":1,"component_weight":1.5,"trace":{"span":"live.tick","tick":1},"stages":[{"stage":"total\n","seconds":0.5}],"events_total":1,"events":[{"id":3,"time_sec":2.5,"type":"A","peer":"10.0.0.\u0001","prefix":"192.0.2.0/24\"","admission":"shed"}],"classes_total":1,"classes":[{"id":0,"weight":1,"score":1,"sequence":"peer \"evil\\\" AS1"}]})json");
}

// The dashboard timeline feeds innerHTML-adjacent code paths in the
// browser; the server side must emit valid JSON for hostile incident
// names so the client-side escaping is the only remaining defense.
TEST(ProvenanceHandlerTest, TimelineGoldenEscapesHostileIncidentNames) {
  obs::HealthRegistry health;
  core::IncidentLog log;
  core::Incident inc;
  inc.stem_key = {7, 9};
  inc.stem_label = "up\"link\\\n";
  inc.top_sequence = "c = 1 2 \"3\"";
  inc.summary = "reset\tstorm";
  log.Append(inc);
  const auto handler = core::MakeOpsHandler(
      &obs::MetricsRegistry::Global(), &health, &log,
      core::OpsInfo{"capture.events", 30.0, 10.0, 300.0});
  obs::HttpRequest request;
  request.method = "GET";
  request.path = "/api/incidents/timeline";
  request.target = request.path;
  request.version = "HTTP/1.1";
  const auto response = handler(request);
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(
      response.body,
      R"json({"t0_sec":0,"tick_sec":0,"incidents":[{"seq":1,"kind":"unknown","begin_sec":0,"end_sec":0,"detected_at_sec":0,"detection_latency_sec":-1,"stem":"up\"link\\\n","top_sequence":"c = 1 2 \"3\"","summary":"reset\tstorm","feed_degraded":false,"load_shed":false,"exemplar":{"span":"live.tick","tick":0}}],"next_since":1})json");
}

// --- live replay determinism -------------------------------------------------

// The same session-reset workload the live/checkpoint tests replay.
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

core::LiveOptions BaseOptions() {
  core::LiveOptions options;
  options.tick = 10 * kSecond;
  options.window = 5 * kMinute;
  options.slo_target_sec = 30.0;
  return options;
}

struct EvidenceRun {
  core::LiveStats stats;
  std::vector<std::string> evidence;  // one body per logged incident
};

EvidenceRun RunWithLedger(const core::LiveOptions& options,
                          const collector::EventStream& stream,
                          std::uint64_t stop_after_ticks = 0) {
  MetricsRegistry::Global().Reset();
  core::IncidentLog log;
  ProvenanceLedger ledger;
  std::atomic<bool> keep_going{true};
  core::LiveRunner runner(options, nullptr, &log, nullptr, &ledger);
  EvidenceRun result;
  result.stats =
      runner.Run(stream, &keep_going, [&](const core::LiveStats& s) {
        if (stop_after_ticks > 0 && s.ticks >= stop_after_ticks) {
          keep_going.store(false);
        }
      });
  for (std::uint64_t seq = 1; seq <= log.size(); ++seq) {
    result.evidence.push_back(ledger.EvidenceJson(seq).value_or(
        "<missing " + std::to_string(seq) + ">"));
  }
  return result;
}

// The acceptance bar: evidence JSON is byte-identical at any
// RANOMALY_THREADS, not merely equivalent.
TEST(ProvenanceDeterminismTest, EvidenceBytesAreThreadCountInvariant) {
  const collector::EventStream stream = ResetCapture();
  std::vector<EvidenceRun> runs;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    core::LiveOptions options = BaseOptions();
    options.pipeline.threads = threads;
    runs.push_back(RunWithLedger(options, stream));
  }
  ASSERT_FALSE(runs[0].evidence.empty()) << "workload produced no incidents";
  for (const std::string& body : runs[0].evidence) {
    EXPECT_EQ(body.find("<missing"), std::string::npos) << body;
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].evidence, runs[0].evidence)
        << "thread count changed the evidence bytes";
  }
}

// Every record the live runner attaches honors the caps and carries the
// cross-stage decomposition plus sampled events with real positions.
TEST(ProvenanceDeterminismTest, LiveRecordsRespectCapsAndCarryStages) {
  const collector::EventStream stream = ResetCapture();
  MetricsRegistry::Global().Reset();
  core::IncidentLog log;
  ProvenanceLedger ledger;
  core::LiveRunner runner(BaseOptions(), nullptr, &log, nullptr, &ledger);
  runner.Run(stream);
  ASSERT_GT(log.size(), 0u);
  EXPECT_EQ(ledger.size() + ledger.evicted(), log.size());
  EXPECT_EQ(ProvenanceLedger::Validate(ledger.Export()), "");
  const ProvenanceLedger::Persisted state = ledger.Export();
  for (const IncidentProvenance& r : state.records) {
    EXPECT_FALSE(r.events.empty()) << "record " << r.seq;
    EXPECT_LE(r.events.size(), ledger.caps().max_events);
    EXPECT_LE(r.classes.size(), ledger.caps().max_classes);
    EXPECT_GE(r.events_total, r.events.size());
    ASSERT_EQ(r.stages.size(), 3u);
    EXPECT_EQ(r.stages[0].stage, "burst-to-ingest");
    EXPECT_EQ(r.stages[1].stage, "ingest-to-detect");
    EXPECT_EQ(r.stages[2].stage, "total");
    ASSERT_FALSE(r.path.empty());
    EXPECT_EQ(r.path[0].rfind("live:tick ", 0), 0u) << r.path[0];
    // Stream indices point into the capture, in strictly increasing
    // order (the strided sample preserves stream order).
    for (std::size_t i = 0; i < r.events.size(); ++i) {
      EXPECT_LT(r.events[i].stream_index, stream.size());
      if (i > 0) {
        EXPECT_GT(r.events[i].stream_index, r.events[i - 1].stream_index);
      }
    }
    // Class ids are dense and in first-occurrence order.
    for (std::size_t i = 0; i < r.classes.size(); ++i) {
      EXPECT_EQ(r.classes[i].id, i);
      EXPECT_FALSE(r.classes[i].sequence.empty());
    }
  }
}

// Kill at a tick boundary, restore from the checkpoint (PROV section
// included), replay to the end: every incident's evidence must be
// byte-identical to an uninterrupted run's.
TEST(ProvenanceDeterminismTest, EvidenceSurvivesKillAndRestartBitIdentically) {
  namespace fs = std::filesystem;
  const collector::EventStream stream = ResetCapture();
  const EvidenceRun want = RunWithLedger(BaseOptions(), stream);
  ASSERT_FALSE(want.evidence.empty());

  const std::string path =
      (fs::temp_directory_path() / "ranomaly_prov_resume").string();
  fs::remove(path);
  core::LiveOptions durable = BaseOptions();
  durable.checkpoint_path = path;
  durable.checkpoint_every_ticks = 4;

  const EvidenceRun partial = RunWithLedger(durable, stream, 6);
  EXPECT_FALSE(partial.stats.restored);
  ASSERT_TRUE(fs::exists(path));

  const EvidenceRun resumed = RunWithLedger(durable, stream);
  EXPECT_TRUE(resumed.stats.restored);
  EXPECT_EQ(resumed.evidence, want.evidence);
  fs::remove(path);
}

// The evidence endpoint end to end at the handler layer: valid id,
// unknown id, malformed id, and a server with no ledger attached.
TEST(ProvenanceHandlerTest, EvidenceEndpointGuards) {
  const collector::EventStream stream = ResetCapture();
  MetricsRegistry::Global().Reset();
  obs::HealthRegistry health;
  core::IncidentLog log;
  ProvenanceLedger ledger;
  core::LiveRunner runner(BaseOptions(), nullptr, &log, nullptr, &ledger);
  runner.Run(stream);
  ASSERT_GT(log.size(), 0u);

  const auto handler = core::MakeOpsHandler(
      &obs::MetricsRegistry::Global(), &health, &log,
      core::OpsInfo{"capture.events", 30.0, 10.0, 300.0}, nullptr, false,
      &ledger);
  const auto get = [&handler](const std::string& path) {
    obs::HttpRequest request;
    request.method = "GET";
    request.path = path;
    request.target = path;
    request.version = "HTTP/1.1";
    return handler(request);
  };

  const auto ok = get("/api/incidents/1/evidence");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.content_type, "application/json");
  EXPECT_EQ(ok.body, *ledger.EvidenceJson(1));
  const auto unknown = get("/api/incidents/999999/evidence");
  EXPECT_EQ(unknown.status, 404);
  EXPECT_NE(unknown.body.find("evicted"), std::string::npos);
  for (const char* bad :
       {"/api/incidents/-1/evidence", "/api/incidents/1x/evidence",
        "/api/incidents/+1/evidence", "/api/incidents/1.0/evidence",
        "/api/incidents/18446744073709551616/evidence"}) {
    EXPECT_EQ(get(bad).status, 400) << bad;
  }
  // No ledger attached: well-formed ids are 404 with a hint, not 500.
  const auto bare = core::MakeOpsHandler(
      &obs::MetricsRegistry::Global(), &health, &log,
      core::OpsInfo{"capture.events", 30.0, 10.0, 300.0});
  obs::HttpRequest request;
  request.method = "GET";
  request.path = "/api/incidents/1/evidence";
  request.target = request.path;
  request.version = "HTTP/1.1";
  const auto none = bare(request);
  EXPECT_EQ(none.status, 404);
  EXPECT_NE(none.body.find("no provenance ledger"), std::string::npos);
}

}  // namespace
}  // namespace ranomaly::obs
