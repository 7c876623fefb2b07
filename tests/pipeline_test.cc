#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/pipeline.h"
#include "obs/metrics.h"
#include "workload/eventgen.h"

namespace ranomaly::core {
namespace {

using util::kMinute;
using util::kSecond;

// The event-derived subset of a metrics snapshot: counters and integer
// histograms.  Gauges (last-write-wins) and *_seconds histograms
// (wall-clock) are metering only and excluded from the determinism
// contract (DESIGN.md).
std::vector<std::tuple<std::string, std::uint64_t, std::vector<std::uint64_t>>>
DeterministicMetrics(const std::vector<obs::MetricSnapshot>& snapshot) {
  std::vector<
      std::tuple<std::string, std::uint64_t, std::vector<std::uint64_t>>>
      out;
  for (const obs::MetricSnapshot& m : snapshot) {
    if (m.kind == obs::MetricKind::kGauge) continue;
    if (m.name.ends_with("_seconds")) continue;
    out.emplace_back(m.name, m.counter, m.histogram.counts);
  }
  return out;
}

workload::SyntheticInternet SmallInternet() {
  workload::InternetOptions options;
  options.monitored_peers = 3;
  options.nexthops_per_peer = 2;
  options.tier1_count = 4;
  options.transit_count = 10;
  options.origin_as_count = 50;
  options.prefix_count = 300;
  options.seed = 23;
  return workload::SyntheticInternet(options);
}

TEST(PipelineTest, DetectsSessionResetSpike) {
  const auto internet = SmallInternet();
  workload::EventStreamGenerator gen(internet, 1);
  // Quiet background plus one reset burst.
  gen.Churn(0, 60 * kMinute, 200);
  gen.SessionReset(0, 30 * kMinute, kMinute, 20 * kSecond);
  const auto stream = gen.Take();

  const Pipeline pipeline;
  const auto incidents = pipeline.Analyze(stream);
  ASSERT_FALSE(incidents.empty());
  // The biggest incident is the reset (split per session by the stem:
  // the peer-nexthop pair is the session location).
  const Incident& top = incidents[0];
  EXPECT_EQ(top.kind, IncidentKind::kSessionReset);
  EXPECT_GT(top.event_count, 250u);
  EXPECT_GE(top.evidence.single_peer_fraction, 0.8);
  EXPECT_GE(top.evidence.final_announce_fraction, 0.9);
  EXPECT_FALSE(top.summary.empty());
}

TEST(PipelineTest, DetectsLowGradeOscillationWithoutSpike) {
  // The Section IV-E/IV-F shape: steady grass + a persistent per-prefix
  // flap that no rate detector would flag, caught by the long window.
  const auto internet = SmallInternet();
  workload::EventStreamGenerator gen(internet, 2);
  gen.Churn(0, 2 * util::kHour, 400);
  gen.PrefixOscillation(11, 0, 2 * util::kHour, 15 * kSecond);
  const auto stream = gen.Take();

  const Pipeline pipeline;
  const auto incidents = pipeline.Analyze(stream);
  ASSERT_FALSE(incidents.empty());
  const Incident& top = incidents[0];
  // Correlation may pull a few bystander prefixes sharing the oscillating
  // route's path into the component; the dominant-prefix evidence still
  // marks it as a single-prefix flap.
  EXPECT_GE(top.evidence.dominant_prefix_fraction, 0.8);
  EXPECT_TRUE(top.kind == IncidentKind::kRouteFlap ||
              top.kind == IncidentKind::kMedOscillation)
      << ToString(top.kind);
  EXPECT_GT(top.evidence.cycles_per_prefix, 4.0);
}

TEST(PipelineTest, DetectsPathChangeAfterTier1Failover) {
  const auto internet = SmallInternet();
  workload::EventStreamGenerator gen(internet, 3);
  gen.Tier1Failover(0, 1, 10 * kMinute, kMinute);
  const auto stream = gen.Take();

  const Pipeline pipeline;
  const auto incidents = pipeline.Analyze(stream);
  ASSERT_FALSE(incidents.empty());
  const Incident& top = incidents[0];
  EXPECT_GE(top.prefix_count, 10u);
  EXPECT_LT(top.evidence.restored_fraction, 0.5);
  EXPECT_TRUE(top.kind == IncidentKind::kPathChange ||
              top.kind == IncidentKind::kRouteLeak)
      << ToString(top.kind);
}

TEST(PipelineTest, EmptyStreamYieldsNothing) {
  const Pipeline pipeline;
  EXPECT_TRUE(pipeline.Analyze(collector::EventStream{}).empty());
}

TEST(PipelineTest, DeduplicatesAcrossPasses) {
  // A spike that both passes see must appear once.
  const auto internet = SmallInternet();
  workload::EventStreamGenerator gen(internet, 4);
  gen.SessionReset(1, 10 * kMinute, kMinute, 20 * kSecond);
  const auto stream = gen.Take();

  const Pipeline pipeline;
  const auto incidents = pipeline.Analyze(stream);
  std::set<std::string> stems;
  for (const auto& inc : incidents) {
    EXPECT_TRUE(stems.insert(inc.stem_label).second)
        << "duplicate stem " << inc.stem_label;
  }
}

// --- classifier unit behaviour ------------------------------------------

TEST(ClassifierTest, MedOscillationNeedsMedAndCycles) {
  IncidentEvidence e;
  e.cycles_per_prefix = 100.0;
  e.med_present = true;
  EXPECT_EQ(Pipeline::Classify(e, 1), IncidentKind::kMedOscillation);
  e.med_present = false;
  EXPECT_EQ(Pipeline::Classify(e, 1), IncidentKind::kRouteFlap);
  e.cycles_per_prefix = 1.0;
  EXPECT_NE(Pipeline::Classify(e, 1), IncidentKind::kRouteFlap);
}

TEST(ClassifierTest, LeakNeedsGrowthAndNewAses) {
  IncidentEvidence e;
  e.path_growth = 3.0;
  e.new_as_count = 4;
  EXPECT_EQ(Pipeline::Classify(e, 50), IncidentKind::kRouteLeak);
  e.new_as_count = 0;
  EXPECT_NE(Pipeline::Classify(e, 50), IncidentKind::kRouteLeak);
  e.new_as_count = 4;
  e.path_growth = 0.0;
  EXPECT_NE(Pipeline::Classify(e, 50), IncidentKind::kRouteLeak);
}

TEST(ClassifierTest, ResetNeedsRestoration) {
  IncidentEvidence e;
  e.withdraw_fraction = 0.5;
  e.restored_fraction = 1.0;
  e.final_announce_fraction = 1.0;
  e.single_peer_fraction = 1.0;
  EXPECT_EQ(Pipeline::Classify(e, 100), IncidentKind::kSessionReset);
  e.restored_fraction = 0.1;
  EXPECT_NE(Pipeline::Classify(e, 100), IncidentKind::kSessionReset);
}

TEST(EvidenceTest, ExtractsWithdrawFractionAndCycles) {
  using bgp::Event;
  using bgp::EventType;
  std::vector<Event> events;
  stemming::Component component;
  for (int i = 0; i < 6; ++i) {
    Event e;
    e.time = i * kSecond;
    e.peer = bgp::Ipv4Addr(1, 0, 0, 1);
    e.type = i % 2 == 0 ? EventType::kWithdraw : EventType::kAnnounce;
    e.prefix = *bgp::Prefix::Parse("4.5.0.0/16");
    e.attrs.as_path = bgp::AsPath{1, 2};
    e.attrs.med = 5;
    events.push_back(e);
    component.event_indices.push_back(i);
  }
  component.prefixes = {*bgp::Prefix::Parse("4.5.0.0/16")};
  const auto evidence = Pipeline::ExtractEvidence(events, component);
  EXPECT_DOUBLE_EQ(evidence.withdraw_fraction, 0.5);
  EXPECT_DOUBLE_EQ(evidence.single_peer_fraction, 1.0);
  EXPECT_TRUE(evidence.med_present);
  EXPECT_NEAR(evidence.cycles_per_prefix, 2.5, 1e-9);  // 5 transitions / 2
  EXPECT_DOUBLE_EQ(evidence.restored_fraction, 1.0);
  EXPECT_DOUBLE_EQ(evidence.final_announce_fraction, 1.0);
  EXPECT_DOUBLE_EQ(evidence.dominant_prefix_fraction, 1.0);
  EXPECT_EQ(evidence.new_as_count, 0u);
}

// The per-prefix track-map implementation ExtractEvidence replaced, kept
// as the reference its single grouped pass must reproduce exactly.
IncidentEvidence ReferenceEvidence(std::span<const bgp::Event> events,
                                   const stemming::Component& component) {
  IncidentEvidence ev;
  if (component.event_indices.empty()) return ev;

  std::size_t withdraws = 0;
  std::unordered_map<std::uint32_t, std::size_t> per_peer;
  bool med = false;
  struct PrefixTrack {
    bool have_first = false;
    bgp::AsPath first_path;
    bgp::AsPath last_path;
    bgp::EventType last_type = bgp::EventType::kAnnounce;
    bgp::Ipv4Addr last_nexthop;
    std::size_t transitions = 0;
    std::size_t events = 0;
  };
  std::map<bgp::Prefix, PrefixTrack> tracks;

  for (const std::size_t idx : component.event_indices) {
    const bgp::Event& e = events[idx];
    if (e.type == bgp::EventType::kWithdraw) ++withdraws;
    ++per_peer[e.peer.value()];
    if (e.attrs.med) med = true;

    PrefixTrack& t = tracks[e.prefix];
    if (!t.have_first) {
      t.have_first = true;
      t.first_path = e.attrs.as_path;
      t.last_type = e.type;
    } else if (e.type != t.last_type ||
               (e.type == bgp::EventType::kAnnounce &&
                e.attrs.nexthop != t.last_nexthop)) {
      ++t.transitions;
      t.last_type = e.type;
    }
    t.last_nexthop = e.attrs.nexthop;
    t.last_path = e.attrs.as_path;
    ++t.events;
  }

  const double n = static_cast<double>(component.event_indices.size());
  ev.withdraw_fraction = static_cast<double>(withdraws) / n;
  std::size_t busiest = 0;
  for (const auto& [peer, count] : per_peer) {
    busiest = std::max(busiest, count);
  }
  ev.single_peer_fraction = static_cast<double>(busiest) / n;
  ev.med_present = med;

  double cycles = 0.0;
  double growth = 0.0;
  std::size_t restored = 0;
  std::size_t final_announce = 0;
  std::size_t busiest_prefix_events = 0;
  std::set<bgp::AsNumber> initial_ases;
  std::set<bgp::AsNumber> final_ases;
  for (const auto& [prefix, t] : tracks) {
    if (t.events > busiest_prefix_events) ev.dominant_prefix = prefix;
    cycles += static_cast<double>(t.transitions) / 2.0;
    growth += static_cast<double>(t.last_path.Length()) -
              static_cast<double>(t.first_path.Length());
    if (t.last_path == t.first_path) ++restored;
    if (t.last_type == bgp::EventType::kAnnounce) ++final_announce;
    busiest_prefix_events = std::max(busiest_prefix_events, t.events);
    for (const bgp::AsNumber a : t.first_path.asns()) initial_ases.insert(a);
    for (const bgp::AsNumber a : t.last_path.asns()) final_ases.insert(a);
  }
  const double p = static_cast<double>(tracks.size());
  ev.cycles_per_prefix = cycles / p;
  ev.path_growth = growth / p;
  ev.restored_fraction = static_cast<double>(restored) / p;
  ev.final_announce_fraction = static_cast<double>(final_announce) / p;
  ev.dominant_prefix_fraction = static_cast<double>(busiest_prefix_events) / n;
  for (const bgp::AsNumber a : final_ases) {
    if (!initial_ases.contains(a)) ++ev.new_as_count;
  }
  return ev;
}

// Random windows over 4 peers, 3 nexthops, `addrs` x 2 prefixes and
// paths of up to 5 ASes (prepends and repeats included) drawn from
// `ases`; from the window's second half on, ASes are drawn `drift`
// higher, so final paths can carry ASes no initial path has.  Every
// evidence value, doubles included, must equal the reference bit for
// bit.
void ExpectGroupedPassMatchesReference(std::mt19937_64& rng, int rounds,
                                       std::size_t min_events,
                                       std::size_t max_events,
                                       std::size_t addrs, std::size_t ases,
                                       bgp::AsNumber drift) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (int round = 0; round < rounds; ++round) {
    std::vector<bgp::Event> events(min_events +
                                   pick(max_events - min_events + 1));
    for (std::size_t i = 0; i < events.size(); ++i) {
      bgp::Event& e = events[i];
      e.time = static_cast<util::SimTime>(i) * kSecond;
      e.peer = bgp::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(1 + pick(4)));
      e.type = pick(3) == 0 ? bgp::EventType::kWithdraw
                            : bgp::EventType::kAnnounce;
      e.prefix = bgp::Prefix(
          bgp::Ipv4Addr(20, static_cast<std::uint8_t>(pick(addrs)), 0, 0),
          static_cast<std::uint8_t>(16 + 8 * pick(2)));
      e.attrs.nexthop =
          bgp::Ipv4Addr(10, 1, 0, static_cast<std::uint8_t>(1 + pick(3)));
      std::vector<bgp::AsNumber> path(pick(6));
      for (bgp::AsNumber& asn : path) {
        asn = static_cast<bgp::AsNumber>(100 + pick(ases)) +
              (2 * i >= events.size() ? drift : 0);
      }
      e.attrs.as_path = bgp::AsPath(std::move(path));
      if (pick(5) == 0) e.attrs.med = static_cast<std::uint32_t>(pick(3));
    }
    stemming::Component component;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (pick(4) != 0) component.event_indices.push_back(i);
    }
    const IncidentEvidence want = ReferenceEvidence(events, component);
    const IncidentEvidence got = Pipeline::ExtractEvidence(events, component);
    SCOPED_TRACE(round);
    EXPECT_EQ(got.withdraw_fraction, want.withdraw_fraction);
    EXPECT_EQ(got.single_peer_fraction, want.single_peer_fraction);
    EXPECT_EQ(got.cycles_per_prefix, want.cycles_per_prefix);
    EXPECT_EQ(got.path_growth, want.path_growth);
    EXPECT_EQ(got.new_as_count, want.new_as_count);
    EXPECT_EQ(got.med_present, want.med_present);
    EXPECT_EQ(got.restored_fraction, want.restored_fraction);
    EXPECT_EQ(got.final_announce_fraction, want.final_announce_fraction);
    EXPECT_EQ(got.dominant_prefix_fraction, want.dominant_prefix_fraction);
    EXPECT_EQ(got.dominant_prefix, want.dominant_prefix);
  }
}

// Two size bands.  Small windows over 12 prefixes make groups, ties for
// the busiest prefix and path changes common; windows of 500-3,000
// events over 300 prefixes and 60 ASes grow the prefix and AS tables
// past their first allocation.
TEST(EvidenceTest, GroupedPassMatchesTrackMapReference) {
  std::mt19937_64 rng(20050628);
  {
    SCOPED_TRACE("up to 80 events, 12 prefixes");
    ExpectGroupedPassMatchesReference(rng, 400, 1, 80, 6, 8, 0);
  }
  {
    SCOPED_TRACE("500-3,000 events, 300 prefixes, 60 ASes");
    ExpectGroupedPassMatchesReference(rng, 50, 500, 3000, 150, 40, 20);
  }
}

// The determinism contract at pipeline level: the threaded analysis
// (parallel spike windows + sharded stemming) must produce the same
// incidents as threads=1, byte for byte, on a stream mixing several
// anomaly kinds.
TEST(PipelineTest, ThreadedAnalysisMatchesSerial) {
  const auto internet = SmallInternet();
  workload::EventStreamGenerator gen(internet, 5);
  gen.Churn(0, 2 * util::kHour, 600);
  gen.SessionReset(0, 20 * kMinute, kMinute, 20 * kSecond);
  gen.SessionReset(2, 70 * kMinute, kMinute, 20 * kSecond);
  gen.Tier1Failover(0, 1, 100 * kMinute, kMinute);
  gen.PrefixOscillation(11, 0, 2 * util::kHour, 20 * kSecond);
  const auto stream = gen.Take();

  auto& registry = obs::MetricsRegistry::Global();
  PipelineOptions serial_options;
  serial_options.threads = 1;
  const Pipeline serial(serial_options);
  registry.Reset();
  const auto expected = serial.Analyze(stream);
  ASSERT_FALSE(expected.empty());
  const auto expected_metrics = DeterministicMetrics(registry.Snapshot());

  for (const std::size_t threads : {2u, 4u, 8u}) {
    PipelineOptions options;
    options.threads = threads;
    const Pipeline pipeline(options);
    registry.Reset();
    const auto actual = pipeline.Analyze(stream);
    ASSERT_EQ(actual.size(), expected.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].kind, expected[i].kind);
      EXPECT_EQ(actual[i].begin, expected[i].begin);
      EXPECT_EQ(actual[i].end, expected[i].end);
      EXPECT_EQ(actual[i].event_count, expected[i].event_count);
      EXPECT_EQ(actual[i].event_fraction, expected[i].event_fraction);
      EXPECT_EQ(actual[i].prefix_count, expected[i].prefix_count);
      EXPECT_EQ(actual[i].stem_key, expected[i].stem_key);
      EXPECT_EQ(actual[i].stem_label, expected[i].stem_label);
      EXPECT_EQ(actual[i].top_sequence, expected[i].top_sequence);
      EXPECT_EQ(actual[i].summary, expected[i].summary);
      EXPECT_EQ(actual[i].component.event_indices,
                expected[i].component.event_indices);
    }
    // The perf metrics flowed through the threaded path, and every
    // event-derived metric (counters and integer histograms; wall-clock
    // excluded) is bit-identical to the serial run.
    EXPECT_GT(registry.CounterValue("stemming_events_encoded_total"), 0u);
    EXPECT_EQ(DeterministicMetrics(registry.Snapshot()), expected_metrics)
        << "threads=" << threads;
  }
}

// Incidents for the same stem found by a spike window and the long
// window dedup on symbol identity, not on the formatted label.
TEST(PipelineTest, DedupKeysOnStemSymbolsAcrossWindows) {
  const auto internet = SmallInternet();
  workload::EventStreamGenerator gen(internet, 6);
  gen.Churn(0, 60 * kMinute, 200);
  gen.SessionReset(0, 30 * kMinute, kMinute, 20 * kSecond);
  const auto stream = gen.Take();

  const Pipeline pipeline;
  const auto incidents = pipeline.Analyze(stream);
  ASSERT_FALSE(incidents.empty());
  std::set<std::pair<std::uint64_t, std::uint64_t>> keys;
  for (const Incident& inc : incidents) {
    EXPECT_NE(inc.stem_key, (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
    EXPECT_TRUE(keys.insert(inc.stem_key).second)
        << "duplicate stem " << inc.stem_label;
  }
}

}  // namespace
}  // namespace ranomaly::core
