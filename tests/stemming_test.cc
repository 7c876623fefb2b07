#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <vector>

#include "bench/pre_arena_stemmer.h"
#include "bench/table1_common.h"
#include "stemming/stemming.h"
#include "util/crc32.h"
#include "util/thread_pool.h"
#include "workload/eventgen.h"

namespace ranomaly::stemming {
namespace {

using bgp::AsPath;
using bgp::Event;
using bgp::EventType;
using bgp::Ipv4Addr;
using bgp::Prefix;

Event MakeEvent(const char* peer, const char* nexthop, AsPath path,
                const char* prefix,
                EventType type = EventType::kWithdraw,
                util::SimTime t = 0) {
  Event e;
  e.time = t;
  e.peer = *Ipv4Addr::Parse(peer);
  e.type = type;
  e.prefix = *Prefix::Parse(prefix);
  e.attrs.nexthop = *Ipv4Addr::Parse(nexthop);
  e.attrs.as_path = std::move(path);
  return e;
}

// The paper's Figure 4: ten route withdrawals during an event spike at
// Berkeley.  Eight of the ten share 11423-209; the stem must be exactly
// that pair.
std::vector<Event> Figure4Events() {
  return {
      MakeEvent("128.32.1.3", "128.32.0.70", {11423, 209, 701, 1299, 5713},
                "192.96.10.0/24"),
      MakeEvent("128.32.1.3", "128.32.0.66", {11423, 11422, 209, 4519},
                "207.191.23.0/24"),
      MakeEvent("128.32.1.200", "128.32.0.90", {11423, 209, 701, 1299, 5713},
                "192.96.10.0/24"),
      MakeEvent("128.32.1.200", "128.32.0.90", {11423, 209, 1239, 3228, 21408},
                "212.22.132.0/23"),
      MakeEvent("128.32.1.3", "128.32.0.66", {11423, 209, 701, 705},
                "203.14.156.0/24"),
      MakeEvent("128.32.1.3", "128.32.0.66", {11423, 11422, 209, 1239, 3602},
                "209.5.188.0/24"),
      MakeEvent("128.32.1.3", "128.32.0.66", {11423, 209, 7018, 13606},
                "12.2.41.0/24"),
      MakeEvent("128.32.1.3", "128.32.0.66", {11423, 209, 7018, 13606},
                "12.96.77.0/24"),
      MakeEvent("128.32.1.3", "128.32.0.66", {11423, 209, 1239, 5400, 15410},
                "62.80.64.0/20"),
      MakeEvent("128.32.1.200", "128.32.0.90", {11423, 209, 1239, 5400, 15410},
                "62.80.64.0/20"),
  };
}

TEST(StemmingTest, Figure4ExampleFindsStem11423_209) {
  const auto events = Figure4Events();
  const StemmingResult result = Stem(events);
  ASSERT_FALSE(result.components.empty());
  const Component& top = result.components[0];

  // The stem is the 11423-209 AS edge, with count 8.
  EXPECT_EQ(result.symbols.KindOf(top.stem.first), SymbolKind::kAs);
  EXPECT_EQ(result.symbols.AsOf(top.stem.first), 11423u);
  EXPECT_EQ(result.symbols.AsOf(top.stem.second), 209u);
  EXPECT_DOUBLE_EQ(top.count, 8.0);
  EXPECT_EQ(result.StemLabel(top), "AS11423 - AS209");

  // P: the prefixes on sequences containing 11423-209 (6 unique: two
  // prefixes appear from two peers).
  EXPECT_EQ(top.prefixes.size(), 6u);
  // E: all events whose prefix is in P — here 8 events.
  EXPECT_EQ(top.event_indices.size(), 8u);
}

TEST(StemmingTest, Figure4SecondComponentIsCalren2) {
  // After removing the 11423-209 component, the two 11423-11422 events
  // remain and form the next component.
  const auto events = Figure4Events();
  const StemmingResult result = Stem(events);
  ASSERT_GE(result.components.size(), 2u);
  const Component& second = result.components[1];
  // The two CalREN-2 events share peer-nexthop-11423-11422-209; the stem
  // is the last adjacent pair, 11422-209.
  EXPECT_EQ(result.symbols.AsOf(second.stem.first), 11422u);
  EXPECT_EQ(result.symbols.AsOf(second.stem.second), 209u);
  EXPECT_EQ(second.event_indices.size(), 2u);
  EXPECT_EQ(result.residual_events, 0u);
}

TEST(StemmingTest, ExtendsToLongestSharedSequence) {
  // All events share the full path 1-2-3: s' should extend through it and
  // the stem is the last adjacent pair before the (distinct) prefixes.
  std::vector<Event> events;
  for (int i = 0; i < 5; ++i) {
    events.push_back(MakeEvent("10.0.0.1", "10.1.0.1", {1, 2, 3},
                               ("10." + std::to_string(i) + ".0.0/16").c_str()));
  }
  const StemmingResult result = Stem(events);
  ASSERT_FALSE(result.components.empty());
  const Component& top = result.components[0];
  // s' = peer nexthop 1 2 3 (count 5 each; prefixes differ so the prefix
  // element cannot extend it).
  ASSERT_EQ(top.top_sequence.size(), 5u);
  EXPECT_EQ(result.symbols.KindOf(top.top_sequence[0]), SymbolKind::kPeer);
  EXPECT_EQ(result.symbols.AsOf(top.stem.first), 2u);
  EXPECT_EQ(result.symbols.AsOf(top.stem.second), 3u);
  EXPECT_DOUBLE_EQ(top.count, 5.0);
}

TEST(StemmingTest, SinglePrefixOscillationDominatesLongWindow) {
  // Section III-B: a persistent single-prefix oscillation overwhelms
  // other correlations over a long window even without a rate spike.
  std::vector<Event> events;
  util::SimTime t = 0;
  // Background: 50 distinct one-off changes.
  for (int i = 0; i < 50; ++i) {
    events.push_back(MakeEvent("10.0.0.1", "10.1.0.1",
                               {static_cast<bgp::AsNumber>(100 + i)},
                               ("20." + std::to_string(i) + ".0.0/16").c_str(),
                               EventType::kAnnounce, t));
    t += util::kMinute;
  }
  // The oscillator: one prefix flapping 200 times.
  for (int i = 0; i < 200; ++i) {
    events.push_back(MakeEvent("10.0.0.2", "10.1.0.2", {7, 8}, "4.5.0.0/16",
                               i % 2 == 0 ? EventType::kWithdraw
                                          : EventType::kAnnounce,
                               t));
    t += util::kSecond;
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.time < b.time; });

  const StemmingResult result = Stem(events);
  ASSERT_FALSE(result.components.empty());
  const Component& top = result.components[0];
  ASSERT_EQ(top.prefixes.size(), 1u);
  EXPECT_EQ(top.prefixes[0], *Prefix::Parse("4.5.0.0/16"));
  EXPECT_EQ(top.event_indices.size(), 200u);
  // The oscillator's events are ~80% of the stream — the "95% of IBGP
  // traffic from one prefix" effect of Section IV-F.
  EXPECT_GT(static_cast<double>(top.event_indices.size()) /
                static_cast<double>(events.size()),
            0.75);
}

TEST(StemmingTest, TemporalIndependenceIgnoresOrder) {
  // Shuffling event order must not change the components (correlation is
  // time-scale free).
  auto events = Figure4Events();
  const StemmingResult before = Stem(events);
  std::rotate(events.begin(), events.begin() + 5, events.end());
  const StemmingResult after = Stem(events);
  ASSERT_EQ(before.components.size(), after.components.size());
  EXPECT_EQ(before.components[0].count, after.components[0].count);
  EXPECT_EQ(before.StemLabel(before.components[0]),
            after.StemLabel(after.components[0]));
}

TEST(StemmingTest, ComponentRemovalIsExhaustive) {
  const auto events = Figure4Events();
  const StemmingResult result = Stem(events);
  std::size_t claimed = result.residual_events;
  std::vector<bool> seen(events.size(), false);
  for (const auto& c : result.components) {
    claimed += c.event_indices.size();
    for (const std::size_t idx : c.event_indices) {
      EXPECT_FALSE(seen[idx]) << "event claimed twice";
      seen[idx] = true;
    }
  }
  EXPECT_EQ(claimed, events.size());
}

TEST(StemmingTest, MaxComponentsRespected) {
  std::vector<Event> events;
  // 10 independent 3-event groups.
  for (int g = 0; g < 10; ++g) {
    const std::string peer = "10.0." + std::to_string(g) + ".1";
    const std::string nexthop = "10.1." + std::to_string(g) + ".1";
    for (int i = 0; i < 3; ++i) {
      events.push_back(MakeEvent(
          peer.c_str(), nexthop.c_str(),
          {static_cast<bgp::AsNumber>(10 + g), static_cast<bgp::AsNumber>(100 + g)},
          ("30." + std::to_string(g) + "." + std::to_string(i) + ".0/24").c_str()));
    }
  }
  StemmingOptions options;
  options.max_components = 3;
  const StemmingResult result = Stem(events, options);
  EXPECT_EQ(result.components.size(), 3u);
  EXPECT_EQ(result.residual_events, 21u);
}

TEST(StemmingTest, MinCountStopsNoise) {
  std::vector<Event> events;
  events.push_back(MakeEvent("10.0.0.1", "10.1.0.1", {1, 2}, "10.0.0.0/16"));
  events.push_back(MakeEvent("10.0.0.1", "10.1.0.1", {3, 4}, "11.0.0.0/16"));
  StemmingOptions options;
  options.min_count = 3.0;  // nothing repeats 3 times
  const StemmingResult result = Stem(events, options);
  EXPECT_TRUE(result.components.empty());
  EXPECT_EQ(result.residual_events, 2u);
}

TEST(StemmingTest, WeightedStemmingPromotesElephants) {
  // Section III-D.2: two groups, the smaller one carrying elephant
  // traffic must win under traffic weighting.
  std::vector<Event> events;
  for (int i = 0; i < 10; ++i) {
    events.push_back(MakeEvent("10.0.0.1", "10.1.0.1", {1, 2},
                               ("40.0." + std::to_string(i) + ".0/24").c_str()));
  }
  for (int i = 0; i < 4; ++i) {
    events.push_back(MakeEvent("10.0.0.2", "10.1.0.2", {3, 4},
                               ("50.0." + std::to_string(i) + ".0/24").c_str()));
  }

  const StemmingResult unweighted = Stem(events);
  ASSERT_FALSE(unweighted.components.empty());
  EXPECT_EQ(unweighted.symbols.AsOf(unweighted.components[0].stem.first), 1u);

  StemmingOptions weighted;
  weighted.weight_fn = [](const Prefix& p) {
    return p.addr().value() >> 24 == 50 ? 100.0 : 1.0;  // 50.x are elephants
  };
  const StemmingResult result = Stem(events, weighted);
  ASSERT_FALSE(result.components.empty());
  EXPECT_EQ(result.symbols.AsOf(result.components[0].stem.first), 3u);
  EXPECT_DOUBLE_EQ(result.components[0].count, 400.0);
}

TEST(StemmingTest, EmptyStream) {
  const StemmingResult result = Stem({});
  EXPECT_TRUE(result.components.empty());
  EXPECT_EQ(result.total_events, 0u);
}

TEST(StemmingTest, PrependsCollapseInSequences) {
  // AS-path prepending must not manufacture a bogus "7-7" stem.
  std::vector<Event> events;
  for (int i = 0; i < 5; ++i) {
    events.push_back(MakeEvent("10.0.0.1", "10.1.0.1", {7, 7, 7, 9},
                               ("60.0." + std::to_string(i) + ".0/24").c_str()));
  }
  const StemmingResult result = Stem(events);
  ASSERT_FALSE(result.components.empty());
  const auto& seq = result.components[0].top_sequence;
  for (std::size_t i = 1; i < seq.size(); ++i) {
    EXPECT_NE(seq[i], seq[i - 1]);
  }
}

TEST(SymbolTableTest, RoundTripsAllKinds) {
  SymbolTable table;
  const auto peer = table.InternPeer(Ipv4Addr(1, 2, 3, 4));
  const auto nh = table.InternNexthop(Ipv4Addr(1, 2, 3, 4));
  const auto as = table.InternAs(11423);
  const auto pfx = table.InternPrefix(*Prefix::Parse("4.5.0.0/16"));
  EXPECT_NE(peer, nh);  // same address, different kinds
  EXPECT_EQ(table.KindOf(peer), SymbolKind::kPeer);
  EXPECT_EQ(table.AddrOf(nh), Ipv4Addr(1, 2, 3, 4));
  EXPECT_EQ(table.AsOf(as), 11423u);
  EXPECT_EQ(table.PrefixOf(pfx), *Prefix::Parse("4.5.0.0/16"));
  EXPECT_EQ(table.Name(peer), "peer 1.2.3.4");
  EXPECT_EQ(table.Name(as), "AS11423");
  EXPECT_EQ(table.Name(pfx), "4.5.0.0/16");
  EXPECT_THROW(table.AsOf(peer), std::logic_error);
  EXPECT_THROW(table.PrefixOf(as), std::logic_error);
}

// ---------------------------------------------------------------------------
// Equivalence suite: the arena-encoded, incrementally-counted, optionally
// pooled Stem must reproduce the original direct implementation exactly.
// pre_arena::Stem (bench/pre_arena_stemmer.h) is a frozen copy of the
// pre-arena Stem (per-event SymbolId vectors, VecHash-keyed maps, full
// recount per iteration) kept as the oracle; any behavioural drift in the
// optimized path fails here.
// ---------------------------------------------------------------------------

// Exact (bit-level) equality of two stemming results.  Counts are sums
// of per-event weights; for the unit-weight workloads below they are
// integers, so exact equality holds across implementations regardless of
// accumulation order, and the optimized path guarantees an accumulation
// order matching its serial self for any thread count.  `a` is a
// StemmingResult or the oracle's pre_arena::StemmingResult.
template <typename Result>
void ExpectIdenticalResults(const Result& a, const StemmingResult& b) {
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.residual_events, b.residual_events);
  // Interning order is part of the contract: components compare by
  // SymbolId below, which only means anything if the ids name the same
  // symbols on both sides.
  ASSERT_EQ(a.symbols.size(), b.symbols.size());
  for (SymbolId id = 0; id < static_cast<SymbolId>(a.symbols.size()); ++id) {
    ASSERT_EQ(a.symbols.Raw(id), b.symbols.Raw(id)) << "symbol " << id;
  }
  ASSERT_EQ(a.components.size(), b.components.size());
  for (std::size_t i = 0; i < a.components.size(); ++i) {
    const Component& ca = a.components[i];
    const Component& cb = b.components[i];
    EXPECT_EQ(ca.top_sequence, cb.top_sequence) << "component " << i;
    EXPECT_EQ(ca.stem, cb.stem) << "component " << i;
    EXPECT_EQ(ca.count, cb.count) << "component " << i;
    EXPECT_EQ(ca.prefixes, cb.prefixes) << "component " << i;
    EXPECT_EQ(ca.event_indices, cb.event_indices) << "component " << i;
    EXPECT_EQ(ca.event_weight, cb.event_weight) << "component " << i;
  }
}

// Seeded anomaly workloads mirroring the paper's case studies.
std::vector<Event> SessionResetWorkload() {
  workload::InternetOptions opt;
  opt.monitored_peers = 4;
  opt.prefix_count = 600;
  opt.origin_as_count = 80;
  opt.seed = 11;
  const workload::SyntheticInternet internet(opt);
  workload::EventStreamGenerator gen(internet, 101);
  gen.SessionReset(1, 10 * util::kMinute, util::kMinute,
                   30 * util::kSecond);
  gen.Churn(0, 30 * util::kMinute, 500);
  return gen.Take().events();
}

std::vector<Event> RouteLeakWorkload() {
  workload::InternetOptions opt;
  opt.monitored_peers = 4;
  opt.prefix_count = 600;
  opt.origin_as_count = 80;
  opt.seed = 13;
  const workload::SyntheticInternet internet(opt);
  workload::EventStreamGenerator gen(internet, 103);
  gen.Tier1Failover(0, 1, 12 * util::kMinute, util::kMinute);
  gen.Churn(0, 30 * util::kMinute, 500);
  return gen.Take().events();
}

std::vector<Event> OscillationWorkload() {
  workload::InternetOptions opt;
  opt.monitored_peers = 4;
  opt.prefix_count = 600;
  opt.origin_as_count = 80;
  opt.seed = 17;
  const workload::SyntheticInternet internet(opt);
  workload::EventStreamGenerator gen(internet, 107);
  gen.PrefixOscillation(42, 0, 2 * util::kHour, 30 * util::kSecond);
  gen.Churn(0, 2 * util::kHour, 400);
  return gen.Take().events();
}

class StemmingEquivalenceTest
    : public ::testing::TestWithParam<std::vector<Event> (*)()> {};

TEST_P(StemmingEquivalenceTest, ArenaMatchesReferenceImplementation) {
  const std::vector<Event> events = GetParam()();
  ASSERT_FALSE(events.empty());
  StemmingOptions options;
  const pre_arena::StemmingResult expected = pre_arena::Stem(events, options);
  const StemmingResult actual = Stem(events, options);
  ExpectIdenticalResults(expected, actual);
  ASSERT_FALSE(actual.components.empty());
}

TEST_P(StemmingEquivalenceTest, ThreadPoolPathMatchesSerial) {
  const std::vector<Event> events = GetParam()();
  StemmingOptions serial;
  const StemmingResult expected = Stem(events, serial);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    StemmingOptions pooled;
    pooled.pool = &pool;
    const StemmingResult actual = Stem(events, pooled);
    ExpectIdenticalResults(expected, actual);
  }
}

// Shrunken grains force every parallel stage (posting/candidate scans,
// re-scoring, subtract-on-removal) through genuinely multi-chunk
// execution on a test-sized window.  Unweighted
// counts are integer sums, so even a different chunking must reproduce
// the default configuration exactly — and the pooled runs must match
// the identically-chunked serial run byte for byte.
StemmingOptions TinyGrainOptions() {
  StemmingOptions options;
  options.scan_grain = 16;
  options.candidate_grain = 8;
  options.removal_grain = 8;
  return options;
}

TEST_P(StemmingEquivalenceTest, MultiChunkGrainsMatchDefaultConfiguration) {
  const std::vector<Event> events = GetParam()();
  const StemmingResult expected = Stem(events, StemmingOptions{});
  StemmingOptions tiny = TinyGrainOptions();
  ExpectIdenticalResults(expected, Stem(events, tiny));
  for (const std::size_t threads : {2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    tiny.pool = &pool;
    const StemmingResult actual = Stem(events, tiny);
    ExpectIdenticalResults(expected, actual);
  }
}

TEST_P(StemmingEquivalenceTest, MultiChunkWeightedIsThreadCountInvariant) {
  // With non-integer weights the chunk split fixes the accumulation
  // order, so a tiny-grain run is its own serial baseline; the pooled
  // runs must still match it to the last bit at every thread count.
  const std::vector<Event> events = GetParam()();
  const auto weight = [](const bgp::Prefix& p) {
    return 1.0 + 0.125 * static_cast<double>(p.addr().value() % 7) + 1e-3;
  };
  StemmingOptions tiny = TinyGrainOptions();
  tiny.weight_fn = weight;
  const StemmingResult expected = Stem(events, tiny);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    StemmingOptions pooled = TinyGrainOptions();
    pooled.weight_fn = weight;
    pooled.pool = &pool;
    const StemmingResult actual = Stem(events, pooled);
    ExpectIdenticalResults(expected, actual);
  }
}

TEST_P(StemmingEquivalenceTest, WeightedCountsAreThreadCountInvariant) {
  // Non-integer weights make accumulation order observable in the last
  // FP bits; the fixed shard split plus shard-order merge must keep the
  // result bit-identical for every thread count.
  const std::vector<Event> events = GetParam()();
  const auto weight = [](const bgp::Prefix& p) {
    return 1.0 + 0.125 * static_cast<double>(p.addr().value() % 7) + 1e-3;
  };
  StemmingOptions serial;
  serial.weight_fn = weight;
  const StemmingResult expected = Stem(events, serial);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    StemmingOptions pooled;
    pooled.weight_fn = weight;
    pooled.pool = &pool;
    const StemmingResult actual = Stem(events, pooled);
    ExpectIdenticalResults(expected, actual);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, StemmingEquivalenceTest,
                         ::testing::Values(&SessionResetWorkload,
                                           &RouteLeakWorkload,
                                           &OscillationWorkload),
                         [](const auto& info) {
                           switch (info.index) {
                             case 0: return "SessionReset";
                             case 1: return "RouteLeak";
                             default: return "Oscillation";
                           }
                         });

TEST(StemmingEquivalenceTest, Figure4MatchesReference) {
  const auto events = Figure4Events();
  ExpectIdenticalResults(pre_arena::Stem(events), Stem(events));
}

// ---------------------------------------------------------------------------
// The top sequence read off the max-count bigram chains (DESIGN.md "Top
// sequence from chains").  The frozen pre-arena stemmer always lengthens,
// so every case compares with it: one-shot, and through a SlidingStemmer
// that slides onto the window from one that also held the leading
// events, so that dead classes and arrival-order symbol ids are in play.
// ---------------------------------------------------------------------------

// Appends a withdrawal from peer 1.0.0.<peer> via nexthop 2.0.0.<nexthop>
// of a prefix no other event has, one second after the previous event.
void AddWithdrawal(std::vector<Event>& events, int peer, int nexthop,
                   AsPath path) {
  const std::size_t i = events.size();
  const std::string p = "1.0.0." + std::to_string(peer);
  const std::string h = "2.0.0." + std::to_string(nexthop);
  const std::string prefix =
      "10." + std::to_string(i / 256) + "." + std::to_string(i % 256) + ".0/24";
  events.push_back(MakeEvent(p.c_str(), h.c_str(), std::move(path),
                             prefix.c_str(), EventType::kWithdraw,
                             static_cast<util::SimTime>(i) * util::kSecond));
}

template <typename Result>
std::vector<std::uint64_t> RawTop(const Result& r, const Component& c) {
  std::vector<std::uint64_t> raw;
  for (const SymbolId s : c.top_sequence) raw.push_back(r.symbols.Raw(s));
  return raw;
}

// Stems the window events[lead, end) one-shot and by sliding from
// events[0, end - 1), checks both against pre_arena::Stem, and returns
// the one-shot result.  The two calls must agree on which picks the
// chains decided.
StemmingResult ExpectChainCaseMatches(const std::vector<Event>& events,
                                      std::size_t lead) {
  const std::span<const Event> all(events);
  const std::span<const Event> window = all.subspan(lead);
  const pre_arena::StemmingResult want = pre_arena::Stem(window);
  const StemmingResult once = Stem(window);
  ExpectIdenticalResults(want, once);

  SlidingStemmer sliding;
  sliding.Stem(all.first(all.size() - 1));
  const StemmingResult slid = sliding.Stem(window);
  // The leading events' classes are still in the state, dead.
  EXPECT_LT(sliding.footprint().live_classes, sliding.footprint().classes);
  EXPECT_EQ(slid.residual_events, want.residual_events);
  EXPECT_EQ(slid.components.size(), want.components.size());
  for (std::size_t i = 0;
       i < std::min(slid.components.size(), want.components.size()); ++i) {
    const Component& got = slid.components[i];
    const Component& expected = want.components[i];
    SCOPED_TRACE(i);
    EXPECT_EQ(RawTop(slid, got), RawTop(want, expected));
    EXPECT_EQ(got.count, expected.count);
    EXPECT_EQ(got.prefixes, expected.prefixes);
    EXPECT_EQ(got.event_indices, expected.event_indices);
    EXPECT_EQ(got.event_weight, expected.event_weight);
  }
  EXPECT_EQ(slid.stats.chain_picks, once.stats.chain_picks);
  EXPECT_EQ(slid.stats.lengthened_picks, once.stats.lengthened_picks);
  return once;
}

std::vector<std::string> TopLabels(const StemmingResult& result) {
  std::vector<std::string> labels;
  for (const Component& c : result.components) {
    labels.push_back(result.SequenceLabel(c));
  }
  return labels;
}

TEST(ChainPickTest, FiveSymbolChainHoldingTheMaximumIsTheTop) {
  std::vector<Event> events;
  AddWithdrawal(events, 2, 2, {500, 600, 999});  // leading
  for (bgp::AsNumber i = 0; i < 6; ++i) {
    AddWithdrawal(events, 1, 1, {100, 200, 300, 400 + i});
  }
  for (bgp::AsNumber i = 0; i < 3; ++i) {
    AddWithdrawal(events, 2, 2, {500, 600, 700 + i});
  }
  const StemmingResult result = ExpectChainCaseMatches(events, 1);
  EXPECT_EQ(TopLabels(result),
            (std::vector<std::string>{
                "peer 1.0.0.1 nexthop 2.0.0.1 AS100 AS200 AS300",
                "peer 1.0.0.2 nexthop 2.0.0.2 AS500 AS600"}));
  EXPECT_EQ(result.components[0].count, 6.0);
  EXPECT_EQ(result.stats.chain_picks, 2u);
  EXPECT_EQ(result.stats.lengthened_picks, 0u);
}

TEST(ChainPickTest, ChainNeverInOneEventFallsBackToLengthening) {
  // (100, 200) and (200, 400) are both at the maximum, but no event holds
  // 100 200 400: the chain fails its count.
  std::vector<Event> events;
  AddWithdrawal(events, 2, 2, {350, 200, 400});  // leading
  for (int i = 0; i < 3; ++i) AddWithdrawal(events, 1, 1, {100, 200});
  for (bgp::AsNumber i = 0; i < 3; ++i) {
    AddWithdrawal(events, 2, 2, {300 + i, 200, 400});
  }
  const StemmingResult result = ExpectChainCaseMatches(events, 1);
  EXPECT_EQ(TopLabels(result),
            (std::vector<std::string>{
                "peer 1.0.0.1 nexthop 2.0.0.1 AS100 AS200", "AS200 AS400"}));
  EXPECT_EQ(result.stats.lengthened_picks, 1u);
  EXPECT_EQ(result.stats.chain_picks, 1u);
}

TEST(ChainPickTest, BranchFallsBackToLengthening) {
  // Peer 1's two nexthops give it two max-count bigrams out.
  std::vector<Event> events;
  AddWithdrawal(events, 1, 2, {300, 400});  // leading
  for (int i = 0; i < 3; ++i) AddWithdrawal(events, 1, 1, {100, 200});
  for (int i = 0; i < 3; ++i) AddWithdrawal(events, 1, 2, {300, 400});
  const StemmingResult result = ExpectChainCaseMatches(events, 1);
  EXPECT_EQ(TopLabels(result),
            (std::vector<std::string>{
                "peer 1.0.0.1 nexthop 2.0.0.1 AS100 AS200",
                "peer 1.0.0.1 nexthop 2.0.0.2 AS300 AS400"}));
  EXPECT_EQ(result.stats.lengthened_picks, 1u);
  EXPECT_EQ(result.stats.chain_picks, 1u);
}

TEST(ChainPickTest, AsPathLoopFallsBackToLengthening) {
  // AS paths 1 2 1 make two max-count bigrams a cycle beside the chain
  // of peer 3; the top sequence, 1 2 1, repeats a symbol, which no chain
  // does.  Later, 3 4 3 behind a shared peer and nexthop enters its cycle
  // through a second edge into AS3.
  std::vector<Event> events;
  AddWithdrawal(events, 2, 2, {3, 4, 3});  // leading
  for (int i = 0; i < 3; ++i) AddWithdrawal(events, 1, 10 + i, {1, 2, 1});
  for (bgp::AsNumber i = 0; i < 3; ++i) {
    AddWithdrawal(events, 3, 3, {50, 5000 + i});
  }
  for (int i = 0; i < 2; ++i) AddWithdrawal(events, 2, 2, {3, 4, 3});
  const StemmingResult result = ExpectChainCaseMatches(events, 1);
  EXPECT_EQ(TopLabels(result),
            (std::vector<std::string>{
                "AS1 AS2 AS1", "peer 1.0.0.3 nexthop 2.0.0.3 AS50",
                "peer 1.0.0.2 nexthop 2.0.0.2 AS3 AS4 AS3"}));
  EXPECT_EQ(result.stats.lengthened_picks, 2u);
  EXPECT_EQ(result.stats.chain_picks, 1u);
}

TEST(ChainPickTest, FiveTiedVantagesPickInOrderOfFirstOccurrence) {
  // A table dump's shape: five vantages, each a disjoint three-symbol
  // chain at the same count.  The leading events name them in reverse.
  const std::array<int, 5> order = {3, 1, 4, 5, 2};
  std::vector<Event> events;
  for (auto v = order.rbegin(); v != order.rend(); ++v) {
    AddWithdrawal(events, *v, *v, {100u * *v, 999});
  }
  for (bgp::AsNumber i = 0; i < 4; ++i) {
    for (const int v : order) {
      AddWithdrawal(events, v, v, {100u * v, 1000u * v + i});
    }
  }
  const StemmingResult result = ExpectChainCaseMatches(events, order.size());
  std::vector<std::string> want;
  for (const int v : order) {
    want.push_back("peer 1.0.0." + std::to_string(v) + " nexthop 2.0.0." +
                   std::to_string(v) + " AS" + std::to_string(100 * v));
  }
  EXPECT_EQ(TopLabels(result), want);
  EXPECT_EQ(result.stats.chain_picks, 5u);
  EXPECT_EQ(result.stats.lengthened_picks, 0u);
}

TEST(ChainPickTest, OnlyTheLongestChainsAreCounted) {
  // Chains of three and five symbols.  Of the two five-symbol ones, the
  // first (peer 2's, ending 20 30 40) is in no single event; the other
  // is the top.  Then the failing one is the only longest chain, and
  // lengthening must run although the three-symbol chain passes its
  // count.
  std::vector<Event> events;
  AddWithdrawal(events, 4, 4, {50, 60, 70});  // leading
  for (bgp::AsNumber i = 0; i < 3; ++i) {
    AddWithdrawal(events, 1, 1, {10, 1000 + i});
  }
  for (bgp::AsNumber i = 0; i < 3; ++i) {
    AddWithdrawal(events, 2, 2, {20, 30, 2000 + i});
  }
  for (bgp::AsNumber i = 0; i < 3; ++i) {
    AddWithdrawal(events, 3, 30 + static_cast<int>(i), {3000 + i, 30, 40});
  }
  for (int i = 0; i < 3; ++i) AddWithdrawal(events, 4, 4, {50, 60, 70});
  const StemmingResult result = ExpectChainCaseMatches(events, 1);
  EXPECT_EQ(TopLabels(result),
            (std::vector<std::string>{
                "peer 1.0.0.4 nexthop 2.0.0.4 AS50 AS60 AS70",
                "peer 1.0.0.2 nexthop 2.0.0.2 AS20 AS30",
                "peer 1.0.0.1 nexthop 2.0.0.1 AS10", "AS30 AS40"}));
  EXPECT_EQ(result.stats.chain_picks, 3u);
  EXPECT_EQ(result.stats.lengthened_picks, 1u);
}

// CRC-32 over every result field Pipeline reads, plus the symbol table
// in id order (first-occurrence interning is part of the contract).
// Lists are length-prefixed; doubles go in by their bits.
std::uint32_t ResultCrc(const StemmingResult& r) {
  util::Crc32Accumulator crc;
  const auto put = [&crc](auto value) { crc.Update(&value, sizeof value); };
  put(static_cast<std::uint64_t>(r.total_events));
  put(r.total_weight);
  put(static_cast<std::uint64_t>(r.residual_events));
  put(static_cast<std::uint64_t>(r.symbols.size()));
  for (SymbolId id = 0; id < static_cast<SymbolId>(r.symbols.size()); ++id) {
    put(r.symbols.Raw(id));
  }
  put(static_cast<std::uint64_t>(r.components.size()));
  for (const Component& c : r.components) {
    put(static_cast<std::uint64_t>(c.top_sequence.size()));
    for (const SymbolId s : c.top_sequence) put(r.symbols.Raw(s));
    put(c.count);
    put(c.event_weight);
    put(static_cast<std::uint64_t>(c.prefixes.size()));
    for (const Prefix& p : c.prefixes) {
      put(p.addr().value());
      put(p.length());
    }
    put(static_cast<std::uint64_t>(c.event_indices.size()));
    for (const std::size_t i : c.event_indices) {
      put(static_cast<std::uint64_t>(i));
    }
  }
  return crc.value();
}

// Pinned bytes of Stem on the Table I 57k spike window (56,999
// events; 32,268 classes, so the initial count sums two 16,384-class
// partials), unit and weighted, with and without a pool.  A change to
// the order classes, symbols or bigram entries are numbered in, or to
// the association of weighted counts, moves these values.
TEST(StemmingPinnedBytesTest, Table1Window57kMatchesPinnedCrc) {
  const collector::EventStream stream =
      bench::SpikeEvents(bench::BerkeleyScale(23'000), 57'000, 9);
  ASSERT_EQ(stream.size(), 56'999u);
  const auto weight = [](const bgp::Prefix& p) {
    return 1.0 + 0.125 * static_cast<double>(p.addr().value() % 7) + 1e-3;
  };
  util::ThreadPool pool(4);
  const std::array<util::ThreadPool*, 2> pools = {nullptr, &pool};
  for (util::ThreadPool* p : pools) {
    SCOPED_TRACE(p == nullptr ? "no pool" : "4-thread pool");
    StemmingOptions unit;
    unit.pool = p;
    const StemmingResult unit_result = Stem(stream.events(), unit);
    EXPECT_EQ(unit_result.stats.distinct_sequences, 32'268u);
    EXPECT_EQ(ResultCrc(unit_result), 0xd6141153u);
    StemmingOptions weighted = unit;
    weighted.weight_fn = weight;
    EXPECT_EQ(ResultCrc(Stem(stream.events(), weighted)), 0xf2fa4c34u);
  }
}

}  // namespace
}  // namespace ranomaly::stemming
