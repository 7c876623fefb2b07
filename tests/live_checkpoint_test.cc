// Analysis-tier checkpoint/restore: encode/decode round-trips, loud
// section-named rejection of corruption, crash/resume determinism (a
// killed-and-restarted replay produces a bit-identical incident stream),
// and the overload degradation ladder.
#include "core/live_checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "collector/binary_io.h"
#include "collector/checkpoint.h"
#include "core/live.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/timeseries.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "workload/eventgen.h"

namespace ranomaly::core {
namespace {

namespace fs = std::filesystem;
using util::kMinute;
using util::kSecond;

// A capture with one session-reset avalanche plus background churn.
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

LiveOptions BaseOptions() {
  LiveOptions options;
  options.tick = 10 * kSecond;
  options.window = 5 * kMinute;
  options.slo_target_sec = 30.0;
  return options;
}

struct RunResult {
  LiveStats stats;
  std::string incidents_json;
};

// Runs the stream through a fresh runner; stop_after_ticks > 0 simulates
// an orderly shutdown at that tick boundary (the SIGTERM drain path).
RunResult RunLive(const LiveOptions& options,
                  const collector::EventStream& stream, IncidentLog* log,
                  std::uint64_t stop_after_ticks = 0,
                  obs::TimeSeriesStore* series = nullptr) {
  // The registry is process-global; series-identity assertions need each
  // run's sampled values to start from zero.
  obs::MetricsRegistry::Global().Reset();
  obs::HealthRegistry health;
  std::atomic<bool> keep_going{true};
  LiveRunner runner(options, &health, log, series);
  RunResult result;
  result.stats = runner.Run(
      stream, &keep_going, [&](const LiveStats& s) {
        if (stop_after_ticks > 0 && s.ticks >= stop_after_ticks) {
          keep_going.store(false);
        }
      });
  result.incidents_json = log == nullptr ? "" : log->ToJson(0);
  return result;
}

// A small but fully-populated state for direct encode/decode tests.
LiveCheckpointState SampleState() {
  LiveCheckpointState st;
  st.t0 = 0;
  st.next_event = 42;
  st.stats.ticks = 7;
  st.stats.events_ingested = 42;
  st.stats.incidents = 1;
  st.stats.incidents_within_slo = 1;
  st.stats.clock = 70 * kSecond;
  st.stats.events_shed = 3;
  st.stats.shed_transitions = 2;
  st.shed_level = 1;
  st.calm_ticks = 1;
  st.arrival_index = 40;
  st.tracer_suspended = true;
  st.tracer_was_enabled = true;
  st.shed_windows.push_back(ShedWindow{20 * kSecond, 50 * kSecond, true});
  const std::uint64_t as_sym = (std::uint64_t{3} << 56) | 64500;  // kAs
  st.seen_stems.push_back({as_sym, as_sym + 1});
  st.gaps.push_back(
      LiveGap{bgp::Ipv4Addr(0x0a000001), 30 * kSecond, 40 * kSecond, true});
  PeerBoard::Persisted peer;
  peer.row.peer = bgp::Ipv4Addr(0x0a000001);
  peer.row.announces = 40;
  peer.row.withdraws = 2;
  peer.row.first_seen = 0;
  peer.row.last_seen = 69 * kSecond;
  peer.row.last_gap = 30 * kSecond;
  peer.gap_sec = 10.0;
  st.peers.push_back(peer);
  // In-flight range [40, 42): stream event 40 in the window, 41 queued.
  st.flow_start = 40;
  st.flow = {1, 2};
  IncidentLog::Entry entry;
  entry.seq = 1;
  entry.incident.kind = IncidentKind::kSessionReset;
  entry.incident.begin = 10 * kSecond;
  entry.incident.end = 15 * kSecond;
  entry.incident.event_count = 12;
  entry.incident.prefix_count = 6;
  entry.incident.stem_key = {as_sym, as_sym + 1};
  entry.incident.stem_label = "AS64500 - AS64501";
  entry.incident.summary = "session reset";
  entry.incident.detected_at = 20 * kSecond;
  entry.incident.detection_latency_sec = 10.0;
  st.incidents.push_back(entry);
  st.latency_counts.assign(DetectionLatencyBounds().size() + 1, 0);
  st.latency_counts[3] = 1;  // 10.0 falls in the <=10 bucket
  st.series_store.tiers = {
      {kSecond, 600}, {10 * kSecond, 720}, {60 * kSecond, 1440}};
  st.series_store.last_sample = 70 * kSecond;
  obs::TimeSeriesStore::PersistedSeries series;
  series.name = "serve_events_ingested_total";
  series.kind = 0;  // counter
  series.tiers.resize(3);
  series.tiers[0] = {{60 * kSecond, 30.0, 30.0, 30.0},
                     {70 * kSecond, 42.0, 42.0, 42.0}};
  series.tiers[1] = {{70 * kSecond, 42.0, 42.0, 42.0}};
  series.tiers[2] = {{60 * kSecond, 42.0, 30.0, 42.0}};
  st.series_store.series.push_back(std::move(series));
  st.provenance.caps = obs::ProvenanceCaps{};  // a ledger was attached
  obs::IncidentProvenance prov;
  prov.seq = 1;
  prov.stem_first = as_sym;
  prov.stem_second = as_sym + 1;
  prov.stem = "AS64500 - AS64501";
  prov.kind = "session-reset";
  prov.path = {"live:tick 2", "window:stemming",
               "component:AS64500 - AS64501", "classify:session-reset"};
  prov.window_events = 40;
  prov.component_events = 12;
  prov.component_weight = 11.5;
  prov.events_total = 12;
  obs::ProvenanceEvent pe;
  pe.stream_index = 17;
  pe.time_sec = 12.5;
  pe.type = "A";
  pe.peer = "10.0.0.1";
  pe.prefix = "192.0.2.0/24";
  pe.admission = 1;
  prov.events.push_back(std::move(pe));
  obs::ProvenanceClass pc;
  pc.id = 0;
  pc.weight = 1.0;
  pc.score = 1.0;
  pc.sequence = "peer 10.0.0.1 nexthop 10.1.0.1 AS64500 192.0.2.0/24";
  prov.classes.push_back(std::move(pc));
  prov.classes_total = 1;
  prov.stages = {{"burst-to-ingest", 5.0},
                 {"ingest-to-detect", 5.0},
                 {"total", 10.0}};
  prov.trace_tick = 2;
  st.provenance.records.push_back(std::move(prov));
  return st;
}

// A checkpoint cut at a quiet tick boundary: zero events in flight (the
// FLOW range butts up against the LIVE cursor with count 0), an empty
// incident log, and an all-zero latency histogram.
LiveCheckpointState BoundaryState() {
  LiveCheckpointState st;
  st.t0 = 0;
  st.next_event = 42;
  st.stats.ticks = 7;
  st.stats.events_ingested = 42;
  st.stats.clock = 70 * kSecond;
  st.arrival_index = 42;
  st.flow_start = 42;  // == next_event: nothing in flight
  st.latency_counts.assign(DetectionLatencyBounds().size() + 1, 0);
  return st;
}

std::string TempPath(const char* name) {
  return (fs::temp_directory_path() /
          (std::string("ranomaly_live_ckpt_") + name))
      .string();
}

TEST(LiveCheckpointTest, EncodeDecodeRoundTripsEverySection) {
  const LiveCheckpointState st = SampleState();
  collector::Checkpoint ck;
  EncodeLiveState(st, ck);
  EXPECT_EQ(ck.time, st.stats.clock);
  EXPECT_EQ(ck.event_offset, st.next_event);
  ASSERT_EQ(ck.sections.size(), 10u);

  // Through the full serialized format too.
  std::stringstream ss;
  ASSERT_TRUE(collector::SaveCheckpoint(ck, ss));
  const auto loaded = collector::LoadCheckpoint(ss);
  ASSERT_TRUE(loaded.has_value());

  LiveCheckpointState out;
  std::string error;
  ASSERT_TRUE(DecodeLiveState(*loaded, &out, &error)) << error;
  EXPECT_EQ(out.t0, st.t0);
  EXPECT_EQ(out.next_event, st.next_event);
  EXPECT_EQ(out.stats.ticks, st.stats.ticks);
  EXPECT_EQ(out.stats.events_ingested, st.stats.events_ingested);
  EXPECT_EQ(out.stats.clock, st.stats.clock);
  EXPECT_EQ(out.stats.events_shed, st.stats.events_shed);
  EXPECT_TRUE(out.stats.restored);
  EXPECT_EQ(out.shed_level, st.shed_level);
  EXPECT_EQ(out.arrival_index, st.arrival_index);
  EXPECT_TRUE(out.tracer_suspended);
  ASSERT_EQ(out.shed_windows.size(), 1u);
  EXPECT_EQ(out.shed_windows[0].begin, st.shed_windows[0].begin);
  EXPECT_EQ(out.seen_stems, st.seen_stems);
  ASSERT_EQ(out.gaps.size(), 1u);
  EXPECT_EQ(out.gaps[0].peer.value(), st.gaps[0].peer.value());
  ASSERT_EQ(out.peers.size(), 1u);
  EXPECT_EQ(out.peers[0].row.announces, 40u);
  EXPECT_DOUBLE_EQ(out.peers[0].gap_sec, 10.0);
  EXPECT_EQ(out.flow_start, st.flow_start);
  EXPECT_EQ(out.flow, st.flow);
  EXPECT_EQ(out.stats.queue_depth, 1u);  // one class-2 entry
  ASSERT_EQ(out.incidents.size(), 1u);
  EXPECT_EQ(out.incidents[0].incident.stem_label, "AS64500 - AS64501");
  EXPECT_DOUBLE_EQ(out.incidents[0].incident.detection_latency_sec, 10.0);
  EXPECT_EQ(out.latency_counts, st.latency_counts);
  ASSERT_EQ(out.series_store.tiers.size(), 3u);
  EXPECT_EQ(out.series_store.last_sample, 70 * kSecond);
  ASSERT_EQ(out.series_store.series.size(), 1u);
  EXPECT_EQ(out.series_store.series[0].name, "serve_events_ingested_total");
  ASSERT_EQ(out.series_store.series[0].tiers[0].size(), 2u);
  EXPECT_EQ(out.series_store.series[0].tiers[0][1].t, 70 * kSecond);
  EXPECT_DOUBLE_EQ(out.series_store.series[0].tiers[0][1].value, 42.0);
  EXPECT_DOUBLE_EQ(out.series_store.series[0].tiers[2][0].min, 30.0);
  EXPECT_EQ(out.provenance.caps, st.provenance.caps);
  EXPECT_EQ(out.provenance.evicted, st.provenance.evicted);
  ASSERT_EQ(out.provenance.records.size(), 1u);
  EXPECT_EQ(out.provenance.records[0], st.provenance.records[0]);
}

TEST(LiveCheckpointTest, DeterministicBytes) {
  const LiveCheckpointState st = SampleState();
  collector::Checkpoint a, b;
  EncodeLiveState(st, a);
  EncodeLiveState(st, b);
  std::stringstream sa, sb;
  ASSERT_TRUE(collector::SaveCheckpoint(a, sa));
  ASSERT_TRUE(collector::SaveCheckpoint(b, sb));
  EXPECT_EQ(sa.str(), sb.str());
}

// DeterministicBytes compares two encodes from one build; these pins hold
// the format across builds.  A layout change must bump the changed
// section's layout version and re-pin.
TEST(LiveCheckpointTest, PinnedBytes) {
  const auto pin = [](const LiveCheckpointState& st) {
    collector::Checkpoint ck;
    EncodeLiveState(st, ck);
    std::stringstream ss;
    EXPECT_TRUE(collector::SaveCheckpoint(ck, ss));
    const std::string bytes = ss.str();
    return std::make_pair(bytes.size(),
                          util::Crc32(bytes.data(), bytes.size()));
  };
  EXPECT_EQ(pin(SampleState()),
            std::make_pair(std::size_t{1360}, std::uint32_t{0x66328104}));
  EXPECT_EQ(pin(BoundaryState()),
            std::make_pair(std::size_t{465}, std::uint32_t{0x77fcf065}));
}

std::string CheckpointBytes(const collector::Checkpoint& ck) {
  std::stringstream ss;
  EXPECT_TRUE(collector::SaveCheckpoint(ck, ss));
  return ss.str();
}

// The runner encodes each snapshot into the buffers of one it wrote
// before.  Whatever that checkpoint held — more sections, larger or
// differently tagged strings, a snapshot whose write failed — the bytes
// must equal an encode into a fresh Checkpoint.
TEST(LiveCheckpointTest, RecycledCheckpointEncodesTheSameBytes) {
  const std::string path = TempPath("recycled");
  const std::vector<
      std::pair<const char*, std::function<void(collector::Checkpoint&)>>>
      recycled = {
          {"more sections",
           [](collector::Checkpoint& ck) {
             EncodeLiveState(SampleState(), ck);
             ck.sections.push_back({"XTRA", std::string(5000, 'x')});
             ck.sections.push_back({"YTRA", "y"});
           }},
          {"larger strings",
           [](collector::Checkpoint& ck) {
             EncodeLiveState(SampleState(), ck);
             for (auto& section : ck.sections) {
               section.bytes.append(70'000, '\xa5');
             }
           }},
          {"other tags, reversed",
           [](collector::Checkpoint& ck) {
             EncodeLiveState(SampleState(), ck);
             std::reverse(ck.sections.begin(), ck.sections.end());
             for (auto& section : ck.sections) section.tag = "OLD!";
           }},
          {"failed write",
           [&path](collector::Checkpoint& ck) {
             EncodeLiveState(SampleState(), ck);
             collector::SetCheckpointWriteFaultHook(
                 [](std::size_t total) -> std::int64_t {
                   return static_cast<std::int64_t>(total / 2);
                 });
             EXPECT_FALSE(collector::WriteCheckpointFile(ck, path));
             collector::SetCheckpointWriteFaultHook(nullptr);
           }},
      };
  for (const LiveCheckpointState& st : {SampleState(), BoundaryState()}) {
    collector::Checkpoint fresh;
    EncodeLiveState(st, fresh);
    const std::string want = CheckpointBytes(fresh);
    for (const auto& [label, prepare] : recycled) {
      collector::Checkpoint ck;
      prepare(ck);
      EncodeLiveState(st, ck);
      EXPECT_EQ(ck.sections.size(), fresh.sections.size()) << label;
      EXPECT_EQ(CheckpointBytes(ck), want) << label;
      // And the recycled snapshot is what lands on disk.
      ASSERT_TRUE(collector::WriteCheckpointFile(ck, path)) << label;
      std::ifstream is(path, std::ios::binary);
      EXPECT_EQ(std::string(std::istreambuf_iterator<char>(is), {}), want)
          << label;
    }
  }
  fs::remove(path);
}

// The runner's snapshot writes SERS from the live rings in place; it must
// be byte-identical to encoding a copy of them, for empty, partly filled,
// exactly full and wrapped rings.
TEST(LiveCheckpointTest, InPlaceSeriesEncodeEqualsEncodingTheExport) {
  obs::TimeSeriesOptions options;
  options.tiers = {{kSecond, 4}, {10 * kSecond, 3}};
  const auto sample = [](obs::TimeSeriesStore& store,
                         const std::vector<std::int64_t>& times) {
    for (const std::int64_t t : times) {
      store.Record("c", obs::SeriesKind::kCounter, t,
                   static_cast<double>(t / 1000));
      store.Record("g", obs::SeriesKind::kGauge, t,
                   static_cast<double>(t % 7'000'000) / 3.0);
    }
  };
  std::vector<std::int64_t> wrapped;  // 66 1s buckets, 7 10s buckets
  for (std::int64_t t = 0; t <= 65 * kSecond; t += kSecond / 2) {
    wrapped.push_back(t);
  }
  const std::vector<std::pair<const char*, std::vector<std::int64_t>>> cases =
      {{"empty", {}},
       {"partial", {0, kSecond / 2, kSecond}},
       {"full", {0, 10 * kSecond, 20 * kSecond, 21 * kSecond}},
       {"wrapped", wrapped}};
  for (const auto& [label, times] : cases) {
    obs::TimeSeriesStore store(options);
    sample(store, times);
    LiveCheckpointState st = BoundaryState();
    collector::Checkpoint in_place;
    EncodeLiveState(st, store, in_place);
    st.series_store = store.Export();
    collector::Checkpoint copied;
    EncodeLiveState(st, copied);
    EXPECT_EQ(CheckpointBytes(in_place), CheckpointBytes(copied)) << label;

    // And it decodes back into the same rings.
    LiveCheckpointState out;
    std::string error;
    ASSERT_TRUE(DecodeLiveState(in_place, &out, &error)) << label << error;
    obs::TimeSeriesStore restored(options);
    ASSERT_TRUE(restored.Restore(std::move(out.series_store), &error))
        << label << error;
    for (const char* name : {"c", "g"}) {
      for (const std::int64_t res : {kSecond, 10 * kSecond}) {
        EXPECT_EQ(restored.SeriesJson(name, res, -1),
                  store.SeriesJson(name, res, -1))
            << label << " " << name << " @ " << res;
      }
    }
  }
}

// Every rejection must name the failing section — no silent partial
// restore, and no guessing which state was bad.
TEST(LiveCheckpointTest, RejectionNamesTheFailingSection) {
  const auto decode_error = [](collector::Checkpoint ck) {
    LiveCheckpointState out;
    std::string error;
    EXPECT_FALSE(DecodeLiveState(ck, &out, &error));
    return error;
  };
  const auto tampered = [](const char* tag,
                           const std::function<void(std::string&)>& fn) {
    collector::Checkpoint ck;
    EncodeLiveState(SampleState(), ck);
    for (auto& s : ck.sections) {
      if (s.tag == tag) fn(s.bytes);
    }
    return ck;
  };

  // Missing section.
  {
    collector::Checkpoint ck;
    EncodeLiveState(SampleState(), ck);
    ck.sections.erase(ck.sections.begin() + 1);  // SHED
    EXPECT_NE(decode_error(std::move(ck)).find("SHED"), std::string::npos);
  }
  // Truncated section.
  EXPECT_NE(decode_error(tampered("PEER", [](std::string& b) {
              b.resize(b.size() / 2);
            })).find("PEER"),
            std::string::npos);
  // Invalid stem symbol (kind byte zeroed-out is not a tagged symbol).
  EXPECT_NE(decode_error(tampered("STEM", [](std::string& b) {
              b[b.size() - 1] = 0x7f;  // high byte of the last raw symbol
            })).find("STEM"),
            std::string::npos);
  // Non-contiguous incident sequence.
  EXPECT_NE(decode_error(tampered("INCD", [](std::string& b) {
              b[9] = 5;  // the u64 seq of entry 0 (after version + count)
            })).find("INCD"),
            std::string::npos);
  // Histogram counts disagreeing with the incident log.
  EXPECT_NE(decode_error(tampered("SLOH", [](std::string& b) {
              b[b.size() - 1] ^= 1;  // bump the overflow bucket
            })).find("SLOH"),
            std::string::npos);
  // Unsupported section layout version.
  EXPECT_NE(decode_error(tampered("GAPS", [](std::string& b) {
              b[0] = 9;
            })).find("GAPS"),
            std::string::npos);
  // Reserved admission class in the FLOW bit-packing.
  EXPECT_NE(decode_error(tampered("FLOW", [](std::string& b) {
              b[b.size() - 1] = 0x03;  // entry 0 -> class 3
            })).find("FLOW"),
            std::string::npos);
  // FLOW range detached from the LIVE cursor.
  EXPECT_NE(decode_error(tampered("FLOW", [](std::string& b) {
              b[1] ^= 1;  // low byte of flow_start
            })).find("FLOW"),
            std::string::npos);
  // Truncated series store.
  EXPECT_NE(decode_error(tampered("SERS", [](std::string& b) {
              b.resize(b.size() / 2);
            })).find("SERS"),
            std::string::npos);
  // Unsupported SERS layout version.
  EXPECT_NE(decode_error(tampered("SERS", [](std::string& b) {
              b[0] = 9;
            })).find("SERS"),
            std::string::npos);
  // Truncated provenance ledger.
  EXPECT_NE(decode_error(tampered("PROV", [](std::string& b) {
              b.resize(b.size() / 2);
            })).find("PROV"),
            std::string::npos);
  // Unsupported PROV layout version.
  EXPECT_NE(decode_error(tampered("PROV", [](std::string& b) {
              b[0] = 9;
            })).find("PROV"),
            std::string::npos);
  // Provenance record seq diverging from the incident log (the u64 seq
  // of record 0 sits after version + caps + evicted + count = 25 bytes).
  EXPECT_NE(decode_error(tampered("PROV", [](std::string& b) {
              b[25] = 5;
            })).find("PROV"),
            std::string::npos);
}

// Two small CRC-clean sections whose counts promise far more than their
// bytes hold: a PROV ledger claiming 2^24 records, and a SERS store with
// one tier of capacity 2^32-1 and a series claiming 2^31-1 points.
std::vector<collector::Checkpoint::Section> CraftedCountSections() {
  std::string prov;
  {
    collector::io::StringSink os(prov);
    collector::io::Put<std::uint8_t>(os, 1);           // layout version
    collector::io::Put<std::uint32_t>(os, 512);        // max_incidents
    collector::io::Put<std::uint32_t>(os, 32);         // max_events
    collector::io::Put<std::uint32_t>(os, 16);         // max_classes
    collector::io::Put<std::uint64_t>(os, 0);          // evicted
    collector::io::Put<std::uint32_t>(os, 1u << 24);   // record count
  }
  std::string sers;
  {
    collector::io::StringSink os(sers);
    collector::io::Put<std::uint8_t>(os, 1);             // layout version
    collector::io::Put<std::uint32_t>(os, 1);            // tier count
    collector::io::Put<std::int64_t>(os, kSecond);       // resolution
    collector::io::Put<std::uint32_t>(os, 0xFFFFFFFFu);  // capacity
    collector::io::Put<std::int64_t>(os, -1);            // last_sample
    collector::io::Put<std::uint64_t>(os, 0);            // dropped_series
    collector::io::Put<std::uint32_t>(os, 1);            // series count
    collector::io::Put<std::uint32_t>(os, 1);            // name length
    sers += 'x';
    collector::io::Put<std::uint8_t>(os, 0);             // kind
    collector::io::Put<std::uint32_t>(os, 0x7FFFFFFFu);  // point count
  }
  return {{"PROV", prov}, {"SERS", sers}};
}

// Counts in a CRC-clean section are still untrusted: decode grows each
// container only as its elements are actually read, so a section that
// claims millions of entries is rejected as truncated instead of
// allocating (or aborting on) what it claims.
TEST(LiveCheckpointTest, CraftedCountsDoNotDriveAllocation) {
  const std::vector<collector::Checkpoint::Section> crafted =
      CraftedCountSections();
  ASSERT_EQ(crafted[0].bytes.size(), 25u);
  ASSERT_EQ(crafted[1].bytes.size(), 47u);
  for (const collector::Checkpoint::Section& bad : crafted) {
    collector::Checkpoint ck;
    EncodeLiveState(SampleState(), ck);
    for (auto& s : ck.sections) {
      if (s.tag == bad.tag) s.bytes = bad.bytes;
    }
    LiveCheckpointState out;
    std::string error;
    EXPECT_FALSE(DecodeLiveState(ck, &out, &error));
    EXPECT_NE(error.find("section " + bad.tag + ": truncated"),
              std::string::npos)
        << error;
    // Points are read one at a time, so the error names the first one
    // whose bytes are missing.
    if (bad.tag == "SERS") {
      EXPECT_EQ(error, "section SERS: truncated at series 0 tier 0 point 0");
    }
  }
}

// The same crafted sections in a checkpoint file on disk: `serve` logs
// the rejection and replays fresh rather than dying at startup.
TEST(LiveCheckpointTest, CraftedCountsFallBackToFreshReplay) {
  const collector::EventStream stream = ResetCapture();
  IncidentLog fresh;
  const RunResult want = RunLive(BaseOptions(), stream, &fresh);
  const std::string path = TempPath("crafted");
  for (const collector::Checkpoint::Section& bad : CraftedCountSections()) {
    // Anchored to this stream, so only the crafted section can make the
    // restore fail.
    LiveCheckpointState st = SampleState();
    st.t0 = stream.events().front().time;
    st.stats.clock += st.t0;
    collector::Checkpoint ck;
    EncodeLiveState(st, ck);
    for (auto& s : ck.sections) {
      if (s.tag == bad.tag) s.bytes = bad.bytes;
    }
    ASSERT_TRUE(collector::WriteCheckpointFile(ck, path));
    LiveOptions durable = BaseOptions();
    durable.checkpoint_path = path;
    IncidentLog log;
    const RunResult got = RunLive(durable, stream, &log);  // resets metrics
    EXPECT_FALSE(got.stats.restored) << bad.tag;
    EXPECT_EQ(got.incidents_json, want.incidents_json) << bad.tag;
    EXPECT_EQ(obs::MetricsRegistry::Global().CounterValue(
                  "serve_restore_failures_total"),
              1u)
        << bad.tag;
  }
  fs::remove(path);
}

// PROV semantic violations that survive byte-level parsing must still
// be loud: evidence claiming a different incident than INCD logged,
// counts disagreeing with the log, caps abuse, and per-record invariant
// breaks.
TEST(LiveCheckpointTest, ProvenanceViolationsAreRejected) {
  const auto decode_error = [](const collector::Checkpoint& ck) {
    LiveCheckpointState out;
    std::string error;
    EXPECT_FALSE(DecodeLiveState(ck, &out, &error));
    return error;
  };
  const auto encoded = [](const LiveCheckpointState& st) {
    collector::Checkpoint ck;
    EncodeLiveState(st, ck);
    return ck;
  };
  {
    // Stem key disagreeing with the INCD entry it claims to explain.
    LiveCheckpointState st = SampleState();
    st.provenance.records[0].stem_first ^= 1;
    const std::string error = decode_error(encoded(st));
    EXPECT_NE(error.find("PROV"), std::string::npos) << error;
    EXPECT_NE(error.find("stem key"), std::string::npos) << error;
  }
  {
    // Record + evicted count disagreeing with the incident log.
    LiveCheckpointState st = SampleState();
    st.provenance.records.clear();
    const std::string error = decode_error(encoded(st));
    EXPECT_NE(error.find("PROV"), std::string::npos) << error;
    EXPECT_NE(error.find("incident log"), std::string::npos) << error;
  }
  {
    // The zero-caps "no ledger" sentinel may not carry records.
    LiveCheckpointState st = SampleState();
    st.provenance.caps = {0, 0, 0};
    const std::string error = decode_error(encoded(st));
    EXPECT_NE(error.find("PROV"), std::string::npos) << error;
  }
  {
    // Caps beyond the hard bounds.
    LiveCheckpointState st = SampleState();
    st.provenance.caps.max_incidents = obs::kMaxProvenanceIncidents + 1;
    const std::string error = decode_error(encoded(st));
    EXPECT_NE(error.find("PROV"), std::string::npos) << error;
  }
  {
    // Reserved admission class on a sampled event.
    LiveCheckpointState st = SampleState();
    st.provenance.records[0].events[0].admission = 2;
    const std::string error = decode_error(encoded(st));
    EXPECT_NE(error.find("PROV"), std::string::npos) << error;
  }
  {
    // Class ids must be in first-occurrence order.
    LiveCheckpointState st = SampleState();
    st.provenance.records[0].classes[0].id = 3;
    const std::string error = decode_error(encoded(st));
    EXPECT_NE(error.find("PROV"), std::string::npos) << error;
  }
  {
    // More sampled events than the record claims contributed.
    LiveCheckpointState st = SampleState();
    st.provenance.records[0].events_total = 0;
    const std::string error = decode_error(encoded(st));
    EXPECT_NE(error.find("PROV"), std::string::npos) << error;
  }
  {
    // A component cannot be larger than the window it came from.
    LiveCheckpointState st = SampleState();
    st.provenance.records[0].component_events =
        st.provenance.records[0].window_events + 1;
    const std::string error = decode_error(encoded(st));
    EXPECT_NE(error.find("PROV"), std::string::npos) << error;
  }
}

// SERS semantic violations that survive byte-level parsing must still be
// loud: a sample stamped after the tick boundary, a point off the bucket
// grid, and an overfull ring.
TEST(LiveCheckpointTest, SeriesStoreViolationsAreRejected) {
  const auto decode_error = [](const collector::Checkpoint& ck) {
    LiveCheckpointState out;
    std::string error;
    EXPECT_FALSE(DecodeLiveState(ck, &out, &error));
    return error;
  };
  const auto encoded = [](const LiveCheckpointState& st) {
    collector::Checkpoint ck;
    EncodeLiveState(st, ck);
    return ck;
  };
  {
    LiveCheckpointState st = SampleState();
    st.series_store.last_sample = st.stats.clock + 1;
    const std::string error = decode_error(encoded(st));
    EXPECT_NE(error.find("SERS"), std::string::npos) << error;
    EXPECT_NE(error.find("after the tick boundary"), std::string::npos)
        << error;
  }
  {
    LiveCheckpointState st = SampleState();
    st.series_store.series[0].tiers[0][0].t = 17;  // off the 1s grid
    const std::string error = decode_error(encoded(st));
    EXPECT_NE(error.find("SERS"), std::string::npos) << error;
  }
  {
    LiveCheckpointState st = SampleState();
    auto& ring = st.series_store.series[0].tiers[1];
    ring.clear();
    for (int i = 0; i < 721; ++i) {  // capacity is 720
      ring.push_back({i * 10 * kSecond, 1.0, 1.0, 1.0});
    }
    const std::string error = decode_error(encoded(st));
    EXPECT_NE(error.find("SERS"), std::string::npos) << error;
  }
  {
    LiveCheckpointState st = SampleState();
    st.series_store.series[0].kind = 7;  // no such SeriesKind
    const std::string error = decode_error(encoded(st));
    EXPECT_NE(error.find("SERS"), std::string::npos) << error;
  }
}

// The quiet-boundary shape (FLOW count 0, empty incident log, all-zero
// SLOH) is what every orderly shutdown writes; it must round-trip
// exactly, not just the fully-populated SampleState.
TEST(LiveCheckpointTest, FlowBoundaryWithNothingInFlightRoundTrips) {
  const LiveCheckpointState st = BoundaryState();
  collector::Checkpoint ck;
  EncodeLiveState(st, ck);
  std::stringstream ss;
  ASSERT_TRUE(collector::SaveCheckpoint(ck, ss));
  const auto loaded = collector::LoadCheckpoint(ss);
  ASSERT_TRUE(loaded.has_value());
  LiveCheckpointState out;
  std::string error;
  ASSERT_TRUE(DecodeLiveState(*loaded, &out, &error)) << error;
  EXPECT_EQ(out.next_event, st.next_event);
  EXPECT_EQ(out.flow_start, out.next_event);
  EXPECT_TRUE(out.flow.empty());
  EXPECT_EQ(out.stats.queue_depth, 0u);
  EXPECT_TRUE(out.incidents.empty());
  EXPECT_EQ(out.latency_counts, st.latency_counts);
}

// Torture cases for the FLOW section edges: a zero-count range detached
// from the LIVE cursor, bytes past a whole number of packed groups, and
// nonzero bits in the final byte's padding must all be loud rejections.
TEST(LiveCheckpointTest, FlowBoundaryViolationsAreRejected) {
  const auto decode_error = [](const collector::Checkpoint& ck) {
    LiveCheckpointState out;
    std::string error;
    EXPECT_FALSE(DecodeLiveState(ck, &out, &error));
    return error;
  };
  const auto tampered_flow = [](const LiveCheckpointState& st,
                                const std::function<void(std::string&)>& fn) {
    collector::Checkpoint ck;
    EncodeLiveState(st, ck);
    for (auto& s : ck.sections) {
      if (s.tag == "FLOW") fn(s.bytes);
    }
    return ck;
  };

  // Empty range that does not butt up against the cursor: with count 0,
  // flow_start must equal next_event exactly.
  {
    const std::string error = decode_error(
        tampered_flow(BoundaryState(), [](std::string& b) { b[1] ^= 1; }));
    EXPECT_NE(error.find("FLOW"), std::string::npos) << error;
    EXPECT_NE(error.find("disagrees with the LIVE cursor"),
              std::string::npos)
        << error;
  }
  // count == 0 means zero packed bytes; a stray trailing byte is not a
  // legitimate partial group.
  {
    const std::string error = decode_error(tampered_flow(
        BoundaryState(), [](std::string& b) { b.push_back('\0'); }));
    EXPECT_NE(error.find("FLOW"), std::string::npos) << error;
    EXPECT_NE(error.find("trailing bytes"), std::string::npos) << error;
  }
  // SampleState carries two in-flight entries, so the final packed byte
  // has six padding bits that must stay zero.
  {
    const std::string error = decode_error(tampered_flow(
        SampleState(),
        [](std::string& b) { b[b.size() - 1] |= 0xF0; }));
    EXPECT_NE(error.find("FLOW"), std::string::npos) << error;
    EXPECT_NE(error.find("nonzero padding"), std::string::npos) << error;
  }
}

// The tentpole guarantee: kill at a tick boundary, restart from the
// checkpoint, and the incident stream is bit-identical to a run that was
// never interrupted — including `/incidents?since=` JSON.
TEST(LiveCheckpointTest, ResumedRunIsBitIdenticalToUninterruptedRun) {
  const collector::EventStream stream = ResetCapture();
  const LiveOptions plain = BaseOptions();

  IncidentLog uninterrupted;
  obs::TimeSeriesStore want_store;
  const RunResult want = RunLive(plain, stream, &uninterrupted, 0, &want_store);
  ASSERT_GT(want.stats.incidents, 0u) << "workload produced no incidents";

  const std::string path = TempPath("resume");
  fs::remove(path);
  LiveOptions durable = plain;
  durable.checkpoint_path = path;
  durable.checkpoint_every_ticks = 4;

  // First life: stopped after 6 ticks; the final checkpoint lands at the
  // boundary the drain finished on.
  IncidentLog first_life;
  obs::TimeSeriesStore first_store;
  const RunResult partial = RunLive(durable, stream, &first_life, 6,
                                    &first_store);
  EXPECT_FALSE(partial.stats.restored);
  EXPECT_LT(partial.stats.events_ingested, want.stats.events_ingested);
  ASSERT_TRUE(fs::exists(path));

  // Second life: restores and replays forward to the same end state.
  IncidentLog second_life;
  obs::TimeSeriesStore second_store;
  const RunResult resumed = RunLive(durable, stream, &second_life, 0,
                                    &second_store);
  EXPECT_TRUE(resumed.stats.restored);
  EXPECT_EQ(resumed.stats.ticks, want.stats.ticks);
  EXPECT_EQ(resumed.stats.events_ingested, want.stats.events_ingested);
  EXPECT_EQ(resumed.stats.incidents, want.stats.incidents);
  EXPECT_EQ(resumed.stats.incidents_within_slo,
            want.stats.incidents_within_slo);
  EXPECT_EQ(resumed.incidents_json, want.incidents_json);
  // The dashboard history crossed the kill: the SERS section seeded the
  // second life's rings, and its post-restore samples continued exactly
  // where an uninterrupted run would have been — byte-identical
  // /api/series JSON for every determinism-contract series.
  EXPECT_GT(second_store.series_count(), 0u);
  for (const char* name :
       {"serve_events_ingested_total", "serve_ticks_total",
        "serve_incidents_total", "serve_replay_position_seconds",
        "incident_detection_latency_seconds:count",
        "incident_detection_latency_seconds:p90"}) {
    for (const std::int64_t res : {kSecond, 10 * kSecond, 60 * kSecond}) {
      const auto got = second_store.SeriesJson(name, res, -1);
      const auto expected = want_store.SeriesJson(name, res, -1);
      ASSERT_TRUE(got.has_value()) << name;
      EXPECT_EQ(*got, *expected) << name << " @ " << res;
    }
  }
  fs::remove(path);
}

// INCD persists neither an incident's component nor its classifier
// evidence, so the runner logs neither: a log that resumed from a
// checkpoint holds the same entries as an uninterrupted one, field by
// field, not just the same /incidents JSON.
TEST(LiveCheckpointTest, ResumedLogEntriesEqualUninterruptedFieldByField) {
  const collector::EventStream stream = ResetCapture();
  IncidentLog uninterrupted;
  RunLive(BaseOptions(), stream, &uninterrupted);

  const std::string path = TempPath("entries");
  fs::remove(path);
  LiveOptions durable = BaseOptions();
  durable.checkpoint_path = path;
  durable.checkpoint_every_ticks = 4;
  IncidentLog first_life;
  RunLive(durable, stream, &first_life, 80);  // past the reset at 10 min
  ASSERT_GT(first_life.size(), 0u) << "the restored part logs no incident";
  IncidentLog resumed;
  ASSERT_TRUE(RunLive(durable, stream, &resumed).stats.restored);
  fs::remove(path);

  const std::vector<IncidentLog::Entry> want = uninterrupted.Since(0);
  const std::vector<IncidentLog::Entry> got = resumed.Since(0);
  ASSERT_GT(want.size(), first_life.size());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    const Incident& a = got[i].incident;
    const Incident& b = want[i].incident;
    EXPECT_EQ(got[i].seq, want[i].seq);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.begin, b.begin);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.event_count, b.event_count);
    EXPECT_EQ(a.event_fraction, b.event_fraction);
    EXPECT_EQ(a.prefix_count, b.prefix_count);
    EXPECT_EQ(a.stem_key, b.stem_key);
    EXPECT_EQ(a.stem_label, b.stem_label);
    EXPECT_EQ(a.top_sequence, b.top_sequence);
    EXPECT_EQ(a.summary, b.summary);
    EXPECT_EQ(a.feed_degraded, b.feed_degraded);
    EXPECT_EQ(a.load_shed, b.load_shed);
    EXPECT_EQ(a.ingest_tick, b.ingest_tick);
    EXPECT_EQ(a.detected_at, b.detected_at);
    EXPECT_EQ(a.detection_latency_sec, b.detection_latency_sec);
    EXPECT_EQ(a.provenance, b.provenance);
    EXPECT_EQ(a.component.top_sequence, b.component.top_sequence);
    EXPECT_EQ(a.component.stem, b.component.stem);
    EXPECT_EQ(a.component.count, b.component.count);
    EXPECT_EQ(a.component.prefixes, b.component.prefixes);
    EXPECT_EQ(a.component.event_indices, b.component.event_indices);
    EXPECT_EQ(a.component.event_weight, b.component.event_weight);
    EXPECT_EQ(a.evidence.withdraw_fraction, b.evidence.withdraw_fraction);
    EXPECT_EQ(a.evidence.single_peer_fraction,
              b.evidence.single_peer_fraction);
    EXPECT_EQ(a.evidence.cycles_per_prefix, b.evidence.cycles_per_prefix);
    EXPECT_EQ(a.evidence.path_growth, b.evidence.path_growth);
    EXPECT_EQ(a.evidence.new_as_count, b.evidence.new_as_count);
    EXPECT_EQ(a.evidence.med_present, b.evidence.med_present);
    EXPECT_EQ(a.evidence.restored_fraction, b.evidence.restored_fraction);
    EXPECT_EQ(a.evidence.final_announce_fraction,
              b.evidence.final_announce_fraction);
    EXPECT_EQ(a.evidence.dominant_prefix_fraction,
              b.evidence.dominant_prefix_fraction);
    EXPECT_EQ(a.evidence.dominant_prefix, b.evidence.dominant_prefix);
  }
}

// As above, with retention tiers so small that every ring has wrapped
// (its oldest bucket is not in slot 0) when the first life's final
// snapshot is cut, and wraps again after the restore.
TEST(LiveCheckpointTest, ResumeAcrossWrappedRingsIsBitIdentical) {
  const collector::EventStream stream = ResetCapture();
  const LiveOptions plain = BaseOptions();
  obs::TimeSeriesOptions tiny;
  tiny.tiers = {{kSecond, 3}, {10 * kSecond, 7}, {60 * kSecond, 3}};

  IncidentLog uninterrupted;
  obs::TimeSeriesStore want_store(tiny);
  const RunResult want = RunLive(plain, stream, &uninterrupted, 0, &want_store);

  const std::string path = TempPath("wrapped");
  fs::remove(path);
  LiveOptions durable = plain;
  durable.checkpoint_path = path;
  durable.checkpoint_every_ticks = 4;
  IncidentLog first_life;
  obs::TimeSeriesStore first_store(tiny);
  const RunResult partial =
      RunLive(durable, stream, &first_life, 23, &first_store);
  ASSERT_TRUE(fs::exists(path));

  // Each tick samples once, at t0 + k * tick: count the buckets every
  // tier had opened by the final snapshot.  More than the capacity, and
  // not a multiple of it, puts the oldest bucket off slot 0.
  const util::SimTime t0 = stream.front().time;
  for (const obs::TierSpec& tier : tiny.tiers) {
    std::set<std::int64_t> buckets;
    for (std::uint64_t k = 1; k <= partial.stats.ticks; ++k) {
      buckets.insert((t0 + static_cast<util::SimTime>(k) * plain.tick) /
                     tier.resolution_us);
    }
    EXPECT_GT(buckets.size(), tier.capacity) << tier.resolution_us;
    EXPECT_NE(buckets.size() % tier.capacity, 0u) << tier.resolution_us;
  }

  IncidentLog second_life;
  obs::TimeSeriesStore second_store(tiny);
  const RunResult resumed =
      RunLive(durable, stream, &second_life, 0, &second_store);
  EXPECT_TRUE(resumed.stats.restored);
  EXPECT_EQ(resumed.incidents_json, want.incidents_json);
  EXPECT_GT(resumed.stats.ticks - partial.stats.ticks,
            std::uint64_t{6 * 3 * 2});  // the 60s ring wraps again
  for (const char* name :
       {"serve_events_ingested_total", "serve_ticks_total",
        "serve_incidents_total", "serve_queue_depth", "serve_shed_level",
        "serve_replay_position_seconds",
        "incident_detection_latency_seconds:count",
        "incident_detection_latency_seconds:p50",
        "incident_detection_latency_seconds:p90",
        "incident_detection_latency_seconds:p99"}) {
    for (const obs::TierSpec& tier : tiny.tiers) {
      const auto got = second_store.SeriesJson(name, tier.resolution_us, -1);
      const auto expected =
          want_store.SeriesJson(name, tier.resolution_us, -1);
      ASSERT_TRUE(got.has_value()) << name;
      ASSERT_TRUE(expected.has_value()) << name;
      EXPECT_EQ(*got, *expected) << name << " @ " << tier.resolution_us;
    }
  }
  fs::remove(path);
}

// The HTTP thread renders while the replay thread samples and cuts
// snapshots: the renders must always see a consistent store (run under
// the tsan-obs preset), and every snapshot must decode.
TEST(LiveCheckpointTest, RenderingConcurrentWithSamplingAndEncoding) {
  obs::TimeSeriesOptions options;
  options.tiers = {{kSecond, 8}, {10 * kSecond, 4}};
  obs::TimeSeriesStore store(options);
  obs::MetricsRegistry registry;
  const obs::MetricId ticks = registry.Counter("ticks_total");
  const obs::MetricId depth = registry.Gauge("depth");
  const obs::MetricId latency = registry.Histogram("latency_seconds", {1, 4});

  std::atomic<bool> done{false};
  std::atomic<std::size_t> renders{0};
  std::thread renderer([&] {
    while (!done.load()) {
      const std::string list = store.ListJson();
      EXPECT_NE(list.find("\"series\":["), std::string::npos);
      for (const char* name : {"ticks_total", "depth", "latency_seconds:p50"}) {
        if (const auto json = store.SeriesJson(name, kSecond, -1)) {
          EXPECT_EQ(json->back(), '}');
        }
      }
      ++renders;
    }
  });
  while (renders.load() == 0) std::this_thread::yield();
  LiveCheckpointState st = BoundaryState();
  for (int tick = 1; tick <= 200; ++tick) {
    registry.Add(ticks, 1);
    registry.Set(depth, tick % 13);
    registry.Observe(latency, 0.5 * (tick % 9));
    st.stats.clock = tick * kSecond;
    store.Sample(registry, st.stats.clock);
    if (tick % 10 == 0) {
      collector::Checkpoint ck;
      EncodeLiveState(st, store, ck);
      LiveCheckpointState out;
      std::string error;
      EXPECT_TRUE(DecodeLiveState(ck, &out, &error)) << error;
    }
  }
  done.store(true);
  renderer.join();
  EXPECT_EQ(store.series_count(), 7u);  // 2 plain + 5 histogram-derived
}

// Restore across several successive kills (each life advances a little)
// still converges to the uninterrupted incident stream.
TEST(LiveCheckpointTest, RepeatedKillsStillConverge) {
  const collector::EventStream stream = ResetCapture();
  IncidentLog uninterrupted;
  const RunResult want = RunLive(BaseOptions(), stream, &uninterrupted);

  const std::string path = TempPath("repeated");
  fs::remove(path);
  LiveOptions durable = BaseOptions();
  durable.checkpoint_path = path;
  durable.checkpoint_every_ticks = 2;

  RunResult last;
  for (int life = 0; life < 6; ++life) {
    IncidentLog log;
    last = RunLive(durable, stream, &log, 17);  // dies young every time
    if (last.stats.ticks >= want.stats.ticks) break;
  }
  IncidentLog log;
  last = RunLive(durable, stream, &log);
  EXPECT_EQ(last.incidents_json, want.incidents_json);
  fs::remove(path);
}

TEST(LiveCheckpointTest, CorruptFileFallsBackToFreshReplayLoudly) {
  const collector::EventStream stream = ResetCapture();
  IncidentLog fresh;
  const RunResult want = RunLive(BaseOptions(), stream, &fresh);

  const std::string path = TempPath("corrupt");
  {
    std::ofstream os(path, std::ios::binary);
    os << "RNC1 but not really: twenty bytes of junk follow ...........";
  }
  LiveOptions durable = BaseOptions();
  durable.checkpoint_path = path;
  const std::uint64_t failures_before =
      obs::MetricsRegistry::Global().CounterValue(
          "serve_restore_failures_total");
  IncidentLog log;
  const RunResult got = RunLive(durable, stream, &log);
  EXPECT_FALSE(got.stats.restored);
  EXPECT_EQ(got.incidents_json, want.incidents_json);
  EXPECT_GT(obs::MetricsRegistry::Global().CounterValue(
                "serve_restore_failures_total"),
            failures_before);
  fs::remove(path);
}

TEST(LiveCheckpointTest, CheckpointFromForeignStreamIsRejected) {
  const collector::EventStream stream = ResetCapture();
  const std::string path = TempPath("foreign");
  fs::remove(path);

  // Cut a checkpoint from a different (shifted) stream.
  workload::InternetOptions options;
  options.seed = 99;
  const workload::SyntheticInternet internet(options);
  workload::EventStreamGenerator gen(internet, 9);
  gen.Churn(5 * kMinute, 20 * kMinute, 200);
  const collector::EventStream foreign = gen.Take();
  LiveOptions durable = BaseOptions();
  durable.checkpoint_path = path;
  durable.checkpoint_every_ticks = 4;
  {
    IncidentLog log;
    RunLive(durable, foreign, &log);
  }
  ASSERT_TRUE(fs::exists(path));

  IncidentLog fresh;
  const RunResult want = RunLive(BaseOptions(), stream, &fresh);
  IncidentLog log;
  const RunResult got = RunLive(durable, stream, &log);
  EXPECT_FALSE(got.stats.restored);  // t0 mismatch -> fresh replay
  EXPECT_EQ(got.incidents_json, want.incidents_json);
  fs::remove(path);
}

// Torture: every single-bit flip and every truncation of a real live
// checkpoint file must be rejected (CRC, framing, or section validation)
// — never a silent partial restore, never a crash.
TEST(LiveCheckpointTest, TortureEveryBitFlipAndTruncationIsRejected) {
  const LiveCheckpointState st = SampleState();
  collector::Checkpoint ck;
  EncodeLiveState(st, ck);
  std::stringstream ss;
  ASSERT_TRUE(collector::SaveCheckpoint(ck, ss));
  const std::string good = ss.str();

  const auto rejects = [](const std::string& bytes) {
    std::stringstream is(bytes);
    const auto loaded = collector::LoadCheckpoint(is);
    if (!loaded.has_value()) return true;  // framing/CRC caught it
    LiveCheckpointState out;
    std::string error;
    const bool ok = DecodeLiveState(*loaded, &out, &error);
    EXPECT_TRUE(ok || !error.empty());  // failures always carry a reason
    return !ok;
  };

  // The unmodified file must load (sanity for the harness itself).
  {
    std::stringstream is(good);
    const auto loaded = collector::LoadCheckpoint(is);
    ASSERT_TRUE(loaded.has_value());
    LiveCheckpointState out;
    std::string error;
    ASSERT_TRUE(DecodeLiveState(*loaded, &out, &error)) << error;
  }

  util::Rng rng(20260807);
  for (int round = 0; round < 400; ++round) {
    std::string bad = good;
    const std::size_t byte = rng.NextBelow(bad.size());
    bad[byte] = static_cast<char>(bad[byte] ^ (1u << rng.NextBelow(8)));
    EXPECT_TRUE(rejects(bad)) << "bit flip in byte " << byte
                              << " was accepted";
  }
  for (int round = 0; round < 200; ++round) {
    std::string bad = good.substr(0, rng.NextBelow(good.size()));
    EXPECT_TRUE(rejects(bad)) << "truncation to " << bad.size()
                              << " bytes was accepted";
  }
}

// ---------------------------------------------------------------------------
// Overload / degradation ladder

TEST(LiveShedTest, BurstDrivesLadderUpAndHysteresisBringsItDown) {
  // Hand-built stream: light background, then a burst that outruns the
  // service rate, then a long calm tail.  Arrival arithmetic is chosen so
  // the fill fraction crosses the L1, L2, and L3 watermarks on distinct
  // ticks (no stage is skipped).
  collector::EventStream stream;
  const auto add = [&stream](util::SimTime t, std::uint32_t salt) {
    bgp::Event e;
    e.time = t;
    e.peer = bgp::Ipv4Addr(0x0a000001);
    e.type = bgp::EventType::kAnnounce;
    e.prefix = bgp::Prefix(bgp::Ipv4Addr(0xc0000000 + (salt << 8)), 24);
    e.attrs.nexthop = bgp::Ipv4Addr(0x0a010001);
    e.attrs.as_path = bgp::AsPath({100, 200 + salt % 7});
    stream.Append(e);
  };
  std::uint32_t salt = 0;
  for (int tick = 0; tick < 60; ++tick) {
    const util::SimTime base = tick * 10 * kSecond;
    const int arrivals = (tick >= 5 && tick < 11) ? 80 : 1;  // the burst
    for (int i = 0; i < arrivals; ++i) {
      add(base + i * (9 * kSecond) / arrivals, salt++);
    }
  }

  LiveOptions options = BaseOptions();
  options.shed.queue_capacity = 300;
  options.shed.service_rate = 20;
  options.shed.recovery_ticks = 2;
  options.shed.sample_stride = 4;

  obs::HealthRegistry health;
  IncidentLog log;
  LiveRunner runner(options, &health, &log);
  std::vector<int> levels;
  std::uint64_t max_depth = 0;
  bool saw_ingest_degraded = false;
  const LiveStats stats =
      runner.Run(stream, nullptr, [&](const LiveStats& s) {
        levels.push_back(s.shed_level);
        max_depth = std::max(max_depth, s.queue_depth);
        if (s.shed_level > 0) {
          for (const auto& c : health.Snapshot()) {
            if (c.name == "ingest" &&
                c.state == obs::HealthState::kDegraded &&
                c.reason.find("load shed") != std::string::npos) {
              saw_ingest_degraded = true;
            }
          }
        }
      });

  // The ladder passed through every stage on the way up...
  for (const int stage : {1, 2, 3}) {
    EXPECT_NE(std::find(levels.begin(), levels.end(), stage), levels.end())
        << "ladder never reached L" << stage;
  }
  // ...never skipped a stage...
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LE(levels[i] - levels[i - 1], 1) << "escalation skipped a stage";
  }
  // ...and recovered fully once the burst drained.
  EXPECT_EQ(levels.back(), 0) << "ladder never recovered";
  EXPECT_EQ(stats.shed_level, 0);
  // Hysteresis: recovery takes at least recovery_ticks per stage.
  const auto first_l3 = std::find(levels.begin(), levels.end(), 3);
  const auto back_to_0 = std::find(first_l3, levels.end(), 0);
  ASSERT_NE(first_l3, levels.end());
  ASSERT_NE(back_to_0, levels.end());
  EXPECT_GE(back_to_0 - first_l3,
            static_cast<std::ptrdiff_t>(3 * options.shed.recovery_ticks));

  EXPECT_LE(max_depth, options.shed.queue_capacity)
      << "the queue bound was exceeded";
  EXPECT_GT(stats.events_shed, 0u) << "L3 never sampled anything out";
  EXPECT_GE(stats.shed_transitions, 6u);  // 3 up + 3 down
  EXPECT_TRUE(saw_ingest_degraded);
  // Every ingested-or-shed arrival is accounted for.
  EXPECT_EQ(stats.events_ingested, stream.size());
}

TEST(LiveShedTest, BackpressureOffIsByteIdenticalToPlainReplay) {
  const collector::EventStream stream = ResetCapture();
  IncidentLog plain, shed_off;
  const RunResult a = RunLive(BaseOptions(), stream, &plain);
  LiveOptions options = BaseOptions();
  options.shed.queue_capacity = 0;  // explicit: disabled
  const RunResult b = RunLive(options, stream, &shed_off);
  EXPECT_EQ(a.incidents_json, b.incidents_json);
  EXPECT_EQ(a.stats.ticks, b.stats.ticks);
  EXPECT_EQ(b.stats.events_shed, 0u);
}

TEST(LiveShedTest, ShedStateSurvivesRestart) {
  // Kill the runner while the ladder is elevated; the restored run must
  // continue from the same ladder state and still converge with the
  // uninterrupted run's incident stream.
  collector::EventStream stream;
  const auto add = [&stream](util::SimTime t, std::uint32_t salt) {
    bgp::Event e;
    e.time = t;
    e.peer = bgp::Ipv4Addr(0x0a000002);
    e.type = bgp::EventType::kAnnounce;
    e.prefix = bgp::Prefix(bgp::Ipv4Addr(0xc6000000 + (salt << 8)), 24);
    e.attrs.nexthop = bgp::Ipv4Addr(0x0a010002);
    e.attrs.as_path = bgp::AsPath({100, 300 + salt % 5});
    stream.Append(e);
  };
  std::uint32_t salt = 0;
  for (int tick = 0; tick < 40; ++tick) {
    const int arrivals = (tick >= 3 && tick < 9) ? 80 : 1;
    for (int i = 0; i < arrivals; ++i) {
      add(tick * 10 * kSecond + i * (9 * kSecond) / arrivals, salt++);
    }
  }
  LiveOptions options = BaseOptions();
  options.shed.queue_capacity = 300;
  options.shed.service_rate = 20;
  options.shed.recovery_ticks = 2;

  IncidentLog uninterrupted;
  const RunResult want = RunLive(options, stream, &uninterrupted);

  const std::string path = TempPath("shed_restart");
  fs::remove(path);
  LiveOptions durable = options;
  durable.checkpoint_path = path;
  durable.checkpoint_every_ticks = 1;
  {
    IncidentLog log;
    const RunResult first = RunLive(durable, stream, &log, 8);
    EXPECT_GT(first.stats.shed_level, 0) << "kill did not land mid-overload";
  }
  IncidentLog log;
  const RunResult resumed = RunLive(durable, stream, &log);
  EXPECT_TRUE(resumed.stats.restored);
  EXPECT_EQ(resumed.incidents_json, want.incidents_json);
  EXPECT_EQ(resumed.stats.events_shed, want.stats.events_shed);
  EXPECT_EQ(resumed.stats.shed_transitions, want.stats.shed_transitions);
  fs::remove(path);
}

}  // namespace
}  // namespace ranomaly::core
