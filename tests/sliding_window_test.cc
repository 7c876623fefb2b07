// Sliding-window stemming against the one-shot and frozen oracles.
// Windows are replayed tick by tick the way `serve` slides them, and every
// result of the sliding path — SlidingStemmer::Stem and
// Pipeline::AnalyzeWindow — must equal one-shot stemming::Stem (plus
// classification) on the same window.  The two share every line of the
// recursion, so the live replays also compare the sliding results with
// pre_arena::Stem (bench/pre_arena_stemmer.h), which shares none.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench/pre_arena_stemmer.h"
#include "core/pipeline.h"
#include "stemming/stemming.h"
#include "workload/eventgen.h"
#include "workload/internet_scale.h"

namespace ranomaly::core {
namespace {

using bgp::Event;
using stemming::StemmingResult;
using util::kMinute;
using util::kSecond;

using Window = std::pair<std::size_t, std::size_t>;  // [first, last)

std::span<const Event> Slice(const std::vector<Event>& events, Window w) {
  return {events.data() + w.first, w.second - w.first};
}

// The live loop's windows: at each tick boundary, the events in
// [tick_end - window, tick_end).
std::vector<Window> LiveWindows(const std::vector<Event>& events,
                                util::SimDuration tick = 10 * kSecond,
                                util::SimDuration window = 5 * kMinute) {
  std::vector<Window> windows;
  if (events.empty()) return windows;
  std::size_t lo = 0;
  std::size_t hi = 0;
  for (util::SimTime tick_end = events.front().time + tick;
       tick_end <= events.back().time + tick; tick_end += tick) {
    while (hi < events.size() && events[hi].time < tick_end) ++hi;
    while (lo < hi && events[lo].time < tick_end - window) ++lo;
    windows.emplace_back(lo, hi);
  }
  return windows;
}

// `Result` is a StemmingResult or the oracle's pre_arena::StemmingResult.
template <typename Result>
std::vector<std::uint64_t> RawSequence(const Result& result,
                                       const stemming::Component& c) {
  std::vector<std::uint64_t> raw;
  for (const stemming::SymbolId s : c.top_sequence) {
    raw.push_back(result.symbols.Raw(s));
  }
  return raw;
}

// `Expected` is a StemmingResult or the oracle's pre_arena::StemmingResult,
// whose symbol table has no names; the raw sequences carry the labels.
template <typename Expected>
void ExpectSameStems(const Expected& batch, const StemmingResult& sliding) {
  EXPECT_EQ(sliding.total_events, batch.total_events);
  EXPECT_EQ(sliding.total_weight, batch.total_weight);
  EXPECT_EQ(sliding.residual_events, batch.residual_events);
  ASSERT_EQ(sliding.components.size(), batch.components.size());
  for (std::size_t i = 0; i < batch.components.size(); ++i) {
    const stemming::Component& want = batch.components[i];
    const stemming::Component& got = sliding.components[i];
    SCOPED_TRACE(i);
    EXPECT_EQ(RawSequence(sliding, got), RawSequence(batch, want));
    if constexpr (std::is_same_v<Expected, StemmingResult>) {
      EXPECT_EQ(sliding.StemLabel(got), batch.StemLabel(want));
    }
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.prefixes, want.prefixes);
    EXPECT_EQ(got.event_indices, want.event_indices);
    EXPECT_EQ(got.event_weight, want.event_weight);
  }
}

// What the comparison reads of an incident.
struct IncidentView {
  std::pair<std::uint64_t, std::uint64_t> stem_key;
  std::string stem_label;
  std::string top_sequence;
  IncidentKind kind = IncidentKind::kUnknown;
  std::vector<bgp::Prefix> prefixes;
  std::vector<std::size_t> event_indices;
  std::size_t event_count = 0;
  double count = 0.0;
  friend bool operator==(const IncidentView&, const IncidentView&) = default;
};

std::vector<IncidentView> Views(const std::vector<Incident>& incidents) {
  std::vector<IncidentView> out;
  for (const Incident& inc : incidents) {
    out.push_back({inc.stem_key, inc.stem_label, inc.top_sequence, inc.kind,
                   inc.component.prefixes, inc.component.event_indices,
                   inc.event_count, inc.component.count});
  }
  return out;
}

// One-shot stemming::Stem plus the pipeline's classification rules.
std::vector<IncidentView> Oracle(std::span<const Event> events,
                                 const PipelineOptions& options) {
  std::vector<IncidentView> out;
  if (events.empty()) return out;
  const StemmingResult result = stemming::Stem(events, options.stemming);
  for (const stemming::Component& c : result.components) {
    if (static_cast<double>(c.event_indices.size()) /
            static_cast<double>(events.size()) <
        options.min_component_fraction) {
      continue;
    }
    const IncidentEvidence evidence = Pipeline::ExtractEvidence(events, c);
    const IncidentKind kind = Pipeline::Classify(evidence, c.prefixes.size());
    if (kind == IncidentKind::kUnknown && !options.include_unknown) continue;
    out.push_back({{result.symbols.Raw(c.stem.first),
                    result.symbols.Raw(c.stem.second)},
                   result.StemLabel(c), result.SequenceLabel(c), kind,
                   c.prefixes, c.event_indices, c.event_indices.size(),
                   c.count});
  }
  return out;
}

// Replays `windows` through one Pipeline per thread count and compares
// every AnalyzeWindow result with the oracle.
void ExpectPipelineMatchesOracle(const std::vector<Event>& events,
                                 const std::vector<Window>& windows,
                                 PipelineOptions options = {}) {
  options.include_unknown = true;  // compare every component
  std::vector<std::vector<IncidentView>> want;
  for (const Window& w : windows) want.push_back(Oracle(Slice(events, w), options));
  std::size_t incidents = 0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    options.threads = threads;
    const Pipeline pipeline(options);
    for (std::size_t k = 0; k < windows.size(); ++k) {
      const auto got = Views(pipeline.AnalyzeWindow(Slice(events, windows[k])));
      ASSERT_EQ(got, want[k]) << "threads " << threads << ", window " << k
                              << " [" << windows[k].first << ", "
                              << windows[k].second << ")";
      incidents += got.size();
    }
  }
  EXPECT_GT(incidents, 0u);
}

// Slides one SlidingStemmer over `windows` and compares every result
// with the frozen pre-arena stemmer.  Returns the picks over all windows
// that the max-count bigram chains decided and that lengthening did.
std::pair<std::size_t, std::size_t> ExpectSlidingMatchesPreArena(
    const std::vector<Event>& events, const std::vector<Window>& windows) {
  stemming::SlidingStemmer sliding;
  std::pair<std::size_t, std::size_t> picks{0, 0};
  for (const Window& w : windows) {
    SCOPED_TRACE(testing::Message() << "[" << w.first << ", " << w.second << ")");
    const StemmingResult got = sliding.Stem(Slice(events, w));
    ExpectSameStems(pre_arena::Stem(Slice(events, w)), got);
    picks.first += got.stats.chain_picks;
    picks.second += got.stats.lengthened_picks;
  }
  return picks;
}

std::vector<Event> InternetScaleEvents() {
  workload::InternetScaleOptions options;
  options.as_count = 400;
  options.tier1_count = 4;
  options.mid_tier_count = 40;
  options.prefix_count = 1200;
  options.monitored_peer_count = 3;
  options.threads = 1;
  std::string error;
  const auto result = workload::BuildInternetScale(options, &error);
  EXPECT_TRUE(result.has_value()) << error;
  return result ? result->stream.events() : std::vector<Event>{};
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

std::vector<Event> ResetAndFailoverEvents() {
  const auto internet = SmallInternet();
  workload::EventStreamGenerator gen(internet, 9);
  gen.Churn(0, 40 * kMinute, 500);
  gen.SessionReset(0, 8 * kMinute, kMinute, 20 * kSecond);
  gen.Tier1Failover(0, 1, 20 * kMinute, 30 * kSecond);
  gen.SessionReset(2, 30 * kMinute, 2 * kMinute, 40 * kSecond);
  gen.PrefixOscillation(7, 0, 40 * kMinute, 30 * kSecond);
  return gen.Take().events();
}

Event MakeEvent(const char* peer, const char* nexthop, bgp::AsPath path,
                const char* prefix, util::SimTime t) {
  Event e;
  e.time = t;
  e.peer = *bgp::Ipv4Addr::Parse(peer);
  e.type = bgp::EventType::kWithdraw;
  e.prefix = *bgp::Prefix::Parse(prefix);
  e.attrs.nexthop = *bgp::Ipv4Addr::Parse(nexthop);
  e.attrs.as_path = std::move(path);
  return e;
}

// Two peers withdraw ten prefixes each through paths of the same shape,
// so their top sequences tie on count and length and the pick falls to
// symbol order — first occurrence in the window.  Peer A leads, then B,
// then A again: sliding past A's first burst puts B first in the window
// although A's symbols entered the persistent state first.  A third
// burst ties two nexthops of one peer, so the sequences first differ
// after the shared peer symbol.
std::vector<Event> TiedPeerEvents() {
  std::vector<Event> events;
  util::SimTime t = 0;
  const auto burst = [&](const char* peer, const char* nexthop,
                         bgp::AsNumber a, bgp::AsNumber b, int base) {
    for (int i = 0; i < 10; ++i) {
      const std::string prefix = "10." + std::to_string(base + i) + ".0.0/16";
      events.push_back(MakeEvent(peer, nexthop, {a, b, 700u + i},
                                 prefix.c_str(), t));
      t += kSecond;
    }
  };
  burst("1.0.0.1", "2.0.0.1", 100, 200, 0);
  burst("1.0.0.2", "2.0.0.2", 300, 400, 0);
  burst("1.0.0.1", "2.0.0.1", 100, 200, 20);
  burst("1.0.0.3", "2.0.0.3", 500, 600, 40);
  burst("1.0.0.3", "2.0.0.4", 500, 600, 60);
  burst("1.0.0.3", "2.0.0.3", 500, 600, 80);
  return events;
}

TEST(SlidingWindowTest, InternetScaleReplayMatchesBatch) {
  const std::vector<Event> events = InternetScaleEvents();
  ASSERT_GT(events.size(), 3000u);
  ExpectPipelineMatchesOracle(events, LiveWindows(events));
  const auto [chain_picks, lengthened_picks] =
      ExpectSlidingMatchesPreArena(events, LiveWindows(events));
  // The chains decide most picks here, as on serve's table-dump ticks.
  EXPECT_GT(chain_picks, lengthened_picks);
}

TEST(SlidingWindowTest, ResetsAndFailoversMatchBatch) {
  const std::vector<Event> events = ResetAndFailoverEvents();
  ExpectPipelineMatchesOracle(events, LiveWindows(events));
  ExpectSlidingMatchesPreArena(events, LiveWindows(events));
}

TEST(SlidingWindowTest, TiedTopSequencesPickBatchSymbolOrder) {
  const std::vector<Event> events = TiedPeerEvents();
  std::vector<Window> windows;
  for (std::size_t lo = 0; lo + 20 <= events.size(); lo += 5) {
    windows.emplace_back(lo, lo + 20);
  }
  stemming::SlidingStemmer sliding;
  std::size_t ties = 0;
  for (const Window& w : windows) {
    const StemmingResult batch = stemming::Stem(Slice(events, w));
    const StemmingResult got = sliding.Stem(Slice(events, w));
    SCOPED_TRACE(w.first);
    ExpectSameStems(batch, got);
    ties += batch.components.size() >= 2 &&
            batch.components[0].count == batch.components[1].count;
  }
  EXPECT_GT(ties, 0u);
  PipelineOptions options;
  options.stemming.min_count = 2.0;
  ExpectPipelineMatchesOracle(events, windows, options);
}

TEST(SlidingWindowTest, SlidesOfEveryShapeMatchBatchAndEncodeOnlyNewEvents) {
  const std::vector<Event> events = ResetAndFailoverEvents();
  ASSERT_GT(events.size(), 1500u);
  // Slides of 0, 1 and many events, a window that only grows, one that
  // only shrinks, and the doubled slide of L2 shedding (every other tick
  // analyzed, so the window moves two ticks at once).
  std::vector<Window> windows = {{0, 600},     {0, 600},     {1, 601},
                                 {1, 602},     {2, 602},     {40, 700},
                                 {40, 900},    {300, 900},   {300, 901}};
  const std::vector<Window> live = LiveWindows(events);
  for (std::size_t k = 0; k < live.size(); k += 2) windows.push_back(live[k]);

  stemming::StemmingOptions options;
  stemming::SlidingStemmer sliding;
  Window previous{0, 0};
  for (const Window& w : windows) {
    const StemmingResult got = sliding.Stem(Slice(events, w), options);
    SCOPED_TRACE(testing::Message() << "[" << w.first << ", " << w.second << ")");
    ExpectSameStems(stemming::Stem(Slice(events, w), options), got);
    const bool shared = w.first < previous.second && previous.first < w.second &&
                        w.first >= previous.first;
    if (shared) {
      // Only the events past the previous window are encoded.
      EXPECT_EQ(got.stats.events_encoded,
                w.second - std::min(w.second, previous.second));
    }
    previous = w;
  }
}

TEST(SlidingWindowTest, JumpWithNoOverlapStartsAfresh) {
  const std::vector<Event> events = ResetAndFailoverEvents();
  stemming::SlidingStemmer sliding;
  for (const Window& w :
       {Window{0, 400}, Window{1000, 1500}, Window{1010, 1600}}) {
    const StemmingResult got = sliding.Stem(Slice(events, w));
    ExpectSameStems(stemming::Stem(Slice(events, w)), got);
  }
  // The jump re-encoded its whole window; the slide after it did not.
  const StemmingResult jump = sliding.Stem(Slice(events, {2000, 2300}));
  EXPECT_EQ(jump.stats.events_encoded, 300u);
  EXPECT_EQ(sliding.footprint().window_events, 300u);
  const StemmingResult slide = sliding.Stem(Slice(events, {2010, 2310}));
  EXPECT_EQ(slide.stats.events_encoded, 10u);
}

TEST(SlidingWindowTest, ChangedPathMidWindowIsNotServedStaleEncoding) {
  const std::vector<Event> events = ResetAndFailoverEvents();
  std::vector<Event> window(events.begin() + 200, events.begin() + 1200);
  stemming::SlidingStemmer sliding;
  ExpectSameStems(stemming::Stem(window), sliding.Stem(window));
  // Same length, same times; one event in the middle now carries a
  // path of the same length through a different origin.
  const std::size_t mid = window.size() / 2;
  std::vector<bgp::AsNumber> path = window[mid].attrs.as_path.asns();
  ASSERT_FALSE(path.empty());
  path.back() = 64512;
  window[mid].attrs.as_path = bgp::AsPath(std::move(path));
  const StemmingResult got = sliding.Stem(window);
  ExpectSameStems(stemming::Stem(window), got);
  EXPECT_EQ(got.stats.events_encoded, window.size() - mid);
}

TEST(SlidingWindowTest, StateTracksTheLiveWindow) {
  const std::vector<Event> events = InternetScaleEvents();
  stemming::SlidingStemmer sliding;
  for (const Window& w : LiveWindows(events)) {
    sliding.Stem(Slice(events, w));
    const auto f = sliding.footprint();
    EXPECT_EQ(f.window_events, w.second - w.first);
    // Dead classes and entries stay fewer than live ones: compaction
    // runs once they are as many.
    const std::size_t dead_classes = f.classes - f.live_classes;
    EXPECT_TRUE(dead_classes == 0 || dead_classes < f.live_classes);
    EXPECT_TRUE(f.dead_entries == 0 ||
                f.dead_entries < f.bigram_entries - f.dead_entries);
  }
  EXPECT_GT(sliding.footprint().compactions, 0u);
}

TEST(SlidingWindowTest, WeightedStemmingFallsBackToBatch) {
  const std::vector<Event> events = ResetAndFailoverEvents();
  stemming::StemmingOptions options;
  options.weight_fn = [](const bgp::Prefix& p) {
    return 1.0 + 0.125 * static_cast<double>(p.addr().value() % 7);
  };
  stemming::SlidingStemmer sliding;
  for (const Window& w : {Window{0, 800}, Window{10, 820}}) {
    const StemmingResult want = stemming::Stem(Slice(events, w), options);
    const StemmingResult got = sliding.Stem(Slice(events, w), options);
    ExpectSameStems(want, got);
    EXPECT_EQ(got.stats.events_encoded, w.second - w.first);
  }
}

// AnalyzeWindow is const and callable from several threads; the reused
// state sits behind a mutex, and every caller still gets the window's
// exact result.
TEST(SlidingWindowTest, ConcurrentCallersGetExactResults) {
  const std::vector<Event> events = ResetAndFailoverEvents();
  const std::vector<Window> windows = LiveWindows(events);
  PipelineOptions options;
  options.include_unknown = true;
  options.threads = 2;
  std::vector<std::vector<IncidentView>> want;
  for (const Window& w : windows) want.push_back(Oracle(Slice(events, w), options));
  const Pipeline pipeline(options);
  std::vector<std::thread> callers;
  std::vector<int> mismatches(3, 0);
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t k = static_cast<std::size_t>(c); k < windows.size();
           k += 2) {
        if (Views(pipeline.AnalyzeWindow(Slice(events, windows[k]))) !=
            want[k]) {
          ++mismatches[c];
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches, std::vector<int>(3, 0));
}

}  // namespace
}  // namespace ranomaly::core
