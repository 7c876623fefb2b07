#include "core/pipeline.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/intern.h"
#include "util/stats.h"
#include "util/strings.h"

namespace ranomaly::core {

const char* ToString(IncidentKind kind) {
  switch (kind) {
    case IncidentKind::kSessionReset: return "session-reset";
    case IncidentKind::kRouteLeak: return "route-leak";
    case IncidentKind::kPathChange: return "path-change";
    case IncidentKind::kRouteFlap: return "route-flap";
    case IncidentKind::kMedOscillation: return "med-oscillation";
    case IncidentKind::kUnknown: return "unknown";
  }
  return "?";
}

namespace {

// Each spike window is padded by this margin on both sides.
constexpr util::SimDuration kSpikeMargin = 30 * util::kSecond;

}  // namespace

struct Pipeline::Sliding {
  std::mutex mu;
  stemming::SlidingStemmer stemmer;  // guarded by mu
};

Pipeline::Pipeline(PipelineOptions options)
    : options_(std::move(options)), sliding_(std::make_unique<Sliding>()) {
  const std::size_t threads = options_.threads != 0
                                  ? options_.threads
                                  : util::ThreadPool::DefaultThreadCount();
  pool_ = std::make_unique<util::ThreadPool>(threads);
  // Stemming shares the pipeline's pool for the recursion's chunked scans.
  options_.stemming.pool = pool_.get();
}

Pipeline::~Pipeline() = default;

IncidentEvidence Pipeline::ExtractEvidence(
    std::span<const bgp::Event> events,
    const stemming::Component& component) {
  IncidentEvidence ev;
  const std::vector<std::size_t>& indices = component.event_indices;
  if (indices.empty()) return ev;

  // One pass in window order (the stemmer lists a component's events
  // ascending).  Each event folds into its prefix's group, numbered in
  // order of first sight; a group's last event is the previous one its
  // next transition test reads.  A "transition" is an announce<->withdraw
  // flip OR an announcement whose nexthop differs from the previous one:
  // at a route reflector with full visibility an oscillation shows up as
  // implicit replacements between alternatives, with few explicit
  // withdrawals.
  struct Group {
    const bgp::Event* first;
    const bgp::Event* last;
    std::size_t events;
    std::size_t transitions;
  };
  util::InternPool<bgp::Prefix, bgp::PrefixHash> prefixes;
  std::vector<Group> groups;
  util::InternPool<std::uint32_t> peers;
  std::vector<std::size_t> peer_events;
  std::size_t withdraws = 0;
  bool med = false;
  for (const std::size_t idx : indices) {
    const bgp::Event& e = events[idx];
    const std::uint32_t peer = peers.Intern(e.peer.value());
    if (peer == peer_events.size()) peer_events.push_back(0);
    ++peer_events[peer];
    if (e.type == bgp::EventType::kWithdraw) ++withdraws;
    if (e.attrs.med) med = true;
    const std::uint32_t g = prefixes.Intern(e.prefix);
    if (g == groups.size()) {
      groups.push_back({&e, &e, 1, 0});
      continue;
    }
    Group& group = groups[g];
    const bgp::Event& previous = *group.last;
    if (e.type != previous.type ||
        (e.type == bgp::EventType::kAnnounce &&
         e.attrs.nexthop != previous.attrs.nexthop)) {
      ++group.transitions;
    }
    group.last = &e;
    ++group.events;
  }

  const double n = static_cast<double>(indices.size());
  ev.withdraw_fraction = static_cast<double>(withdraws) / n;
  const std::size_t busiest =
      *std::max_element(peer_events.begin(), peer_events.end());
  ev.single_peer_fraction = static_cast<double>(busiest) / n;
  ev.med_present = med;

  // The sums add halves and integer length differences, which doubles
  // hold exactly, so first-seen group order gives the same bits as any
  // other.  A restored group's final ASes are its initial ones, so only
  // groups whose path changed can contribute a new AS.
  double cycles = 0.0;
  double growth = 0.0;
  std::size_t restored = 0;
  std::size_t final_announce = 0;
  std::size_t busiest_prefix_events = 0;
  util::InternPool<bgp::AsNumber> final_ases;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const Group& group = groups[g];
    const bgp::Prefix& prefix = prefixes.Lookup(static_cast<std::uint32_t>(g));
    // Ties for the busiest group go to the smallest prefix.
    if (group.events > busiest_prefix_events ||
        (group.events == busiest_prefix_events &&
         prefix < ev.dominant_prefix)) {
      busiest_prefix_events = group.events;
      ev.dominant_prefix = prefix;
    }
    const bgp::AsPath& first_path = group.first->attrs.as_path;
    const bgp::AsPath& last_path = group.last->attrs.as_path;
    cycles += static_cast<double>(group.transitions) / 2.0;
    growth += static_cast<double>(last_path.Length()) -
              static_cast<double>(first_path.Length());
    if (last_path == first_path) {
      ++restored;
    } else {
      for (const bgp::AsNumber a : last_path.asns()) final_ases.Intern(a);
    }
    if (group.last->type == bgp::EventType::kAnnounce) ++final_announce;
  }
  const double p = static_cast<double>(groups.size());
  ev.cycles_per_prefix = cycles / p;
  ev.path_growth = growth / p;
  ev.restored_fraction = static_cast<double>(restored) / p;
  ev.final_announce_fraction = static_cast<double>(final_announce) / p;
  ev.dominant_prefix_fraction = static_cast<double>(busiest_prefix_events) / n;
  // ASes on some final path but on no initial path: the distinct final
  // ASes less those an initial path marks.
  std::vector<char> on_initial(final_ases.size(), 0);
  std::size_t marked = 0;
  if (!final_ases.empty()) {
    for (const Group& group : groups) {
      for (const bgp::AsNumber a : group.first->attrs.as_path.asns()) {
        const std::uint32_t id = final_ases.Find(a);
        if (id != util::InternPool<bgp::AsNumber>::kNotFound &&
            !on_initial[id]) {
          on_initial[id] = 1;
          ++marked;
        }
      }
    }
  }
  ev.new_as_count = final_ases.size() - marked;
  return ev;
}

IncidentKind Pipeline::Classify(const IncidentEvidence& evidence,
                                std::size_t prefix_count) {
  // A single prefix (or one dominating the component) cycling many times:
  // a persistent flap; MED involvement marks the RFC 3345 pattern.
  const bool flap_shaped =
      (prefix_count <= 5 || evidence.dominant_prefix_fraction >= 0.8) &&
      evidence.cycles_per_prefix >= 4.0;
  if (flap_shaped) {
    return evidence.med_present ? IncidentKind::kMedOscillation
                                : IncidentKind::kRouteFlap;
  }
  // Many prefixes ending on much longer paths through previously unseen
  // ASes: a leak swallowed the routes.
  if (prefix_count >= 10 && evidence.path_growth >= 2.0 &&
      evidence.new_as_count >= 2) {
    return IncidentKind::kRouteLeak;
  }
  // Mass withdrawal from (mostly) one peer, then the routes come back:
  // a session reset seen from inside.
  if (evidence.withdraw_fraction >= 0.3 &&
      evidence.single_peer_fraction >= 0.5 &&
      evidence.final_announce_fraction >= 0.9 &&
      evidence.restored_fraction >= 0.5) {
    return IncidentKind::kSessionReset;
  }
  // Prefixes moved somewhere else and stayed there.
  if (prefix_count >= 10 && evidence.restored_fraction < 0.5 &&
      evidence.final_announce_fraction >= 0.9 &&
      (std::abs(evidence.path_growth) >= 0.5 || evidence.new_as_count >= 1)) {
    return IncidentKind::kPathChange;
  }
  return IncidentKind::kUnknown;
}

// Builds the incident's provenance record (obs/provenance.h): a
// deterministic strided sample of the contributing events plus the
// distinct (peer, nexthop, as-path, prefix) sequence classes among the
// sample.  Window-relative: sampled event ids index the analyzed
// window; the live runner rewrites them to stream indices before
// attaching the record to the ledger.
void Pipeline::PopulateProvenance(std::span<const bgp::Event> events,
                                  const obs::ProvenanceCaps& caps,
                                  Incident& inc) {
  obs::IncidentProvenance& prov = inc.provenance;
  const stemming::Component& component = inc.component;
  prov.stem_first = inc.stem_key.first;
  prov.stem_second = inc.stem_key.second;
  prov.stem = inc.stem_label;
  prov.kind = ToString(inc.kind);
  prov.path = {"window:stemming", "component:" + inc.stem_label,
               std::string("classify:") + ToString(inc.kind)};
  prov.window_events = events.size();
  prov.component_events = component.event_indices.size();
  prov.component_weight = component.event_weight;
  prov.events_total = component.event_indices.size();

  const std::size_t total = component.event_indices.size();
  const std::size_t take = std::min<std::size_t>(caps.max_events, total);
  prov.events.reserve(take);
  // Distinct sequence classes among the sample, keyed on the stemmer's
  // own encoding of each event.
  std::vector<std::vector<std::uint64_t>> keys;
  std::vector<std::uint64_t> key;
  for (std::size_t k = 0; k < take; ++k) {
    // k * total / take is strictly increasing while take <= total, so
    // the sample is evenly strided over the whole component, never just
    // its head.
    const std::size_t idx = component.event_indices[k * total / take];
    const bgp::Event& e = events[idx];
    obs::ProvenanceEvent pe;
    pe.stream_index = idx;
    pe.time_sec =
        static_cast<double>(e.time) / static_cast<double>(util::kSecond);
    pe.type = bgp::ToString(e.type);
    pe.peer = e.peer.ToString();
    pe.prefix = e.prefix.ToString();
    prov.events.push_back(std::move(pe));

    stemming::EncodeSequence(e, key);
    std::size_t cls = keys.size();
    for (std::size_t j = 0; j < keys.size(); ++j) {
      if (keys[j] == key) {
        cls = j;
        break;
      }
    }
    if (cls == keys.size()) {
      keys.push_back(key);
      ++prov.classes_total;
      if (prov.classes.size() < caps.max_classes) {
        obs::ProvenanceClass pc;
        pc.id = static_cast<std::uint32_t>(prov.classes.size());
        std::string seq = "peer " + e.peer.ToString() + " nexthop " +
                          e.attrs.nexthop.ToString();
        // The AS symbols sit between the nexthop and the prefix, tagged
        // above their 32-bit payload.
        for (std::size_t j = 2; j + 1 < key.size(); ++j) {
          seq += " AS" + std::to_string(key[j] & 0xffffffffu);
        }
        seq += " " + e.prefix.ToString();
        pc.sequence = std::move(seq);
        prov.classes.push_back(std::move(pc));
      }
    }
    if (cls < prov.classes.size()) prov.classes[cls].weight += 1.0;
  }
  for (obs::ProvenanceClass& pc : prov.classes) {
    pc.score = take == 0 ? 0.0 : pc.weight / static_cast<double>(take);
  }
}

Incident Pipeline::MakeIncident(std::span<const bgp::Event> events,
                                const stemming::StemmingResult& result,
                                stemming::Component&& component) const {
  Incident inc;
  inc.stem_key = {result.symbols.Raw(component.stem.first),
                  result.symbols.Raw(component.stem.second)};
  inc.stem_label = result.StemLabel(component);
  inc.top_sequence = result.SequenceLabel(component);
  inc.component = std::move(component);
  const stemming::Component& comp = inc.component;
  inc.event_count = comp.event_indices.size();
  inc.event_fraction =
      events.empty() ? 0.0
                     : static_cast<double>(inc.event_count) /
                           static_cast<double>(events.size());
  inc.prefix_count = comp.prefixes.size();
  util::SimTime begin = 0;
  util::SimTime end = 0;
  util::SimTime ingest = 0;
  bool first = true;
  for (const std::size_t idx : comp.event_indices) {
    const util::SimTime t = events[idx].time;
    if (first) {
      begin = end = t;
      first = false;
    } else {
      begin = std::min(begin, t);
      end = std::max(end, t);
    }
    ingest = std::max(ingest, events[idx].ingest_tick);
  }
  inc.begin = begin;
  inc.end = end;
  inc.ingest_tick = ingest;
  inc.evidence = ExtractEvidence(events, comp);
  inc.kind = Classify(inc.evidence, inc.prefix_count);
  inc.summary = util::StrPrintf(
      "%s at %s: %zu prefixes, %zu events (%.0f%% of window), over %s",
      ToString(inc.kind), inc.stem_label.c_str(), inc.prefix_count,
      inc.event_count, inc.event_fraction * 100.0,
      util::FormatDuration(inc.end - inc.begin).c_str());
  return inc;
}

template <typename StemFn>
std::vector<Incident> Pipeline::StemAndClassify(
    std::span<const bgp::Event> events, const StemFn& stem) const {
  std::vector<Incident> incidents;
  // Collection-layer markers are not routing events; stem over the routing
  // events only.  (Component indices then refer to the filtered window.)
  std::vector<bgp::Event> routing;
  if (std::any_of(events.begin(), events.end(), [](const bgp::Event& e) {
        return bgp::IsMarker(e.type);
      })) {
    routing.reserve(events.size());
    for (const bgp::Event& e : events) {
      if (!bgp::IsMarker(e.type)) routing.push_back(e);
    }
    events = routing;
  }
  if (events.empty()) return incidents;
  obs::TraceSpan span("pipeline.window");
  span.Annotate("events", static_cast<std::uint64_t>(events.size()));
  RANOMALY_METRIC_COUNT("pipeline_windows_total", 1);
  stemming::StemmingResult result = stem(events);
  for (stemming::Component& component : result.components) {
    const double fraction = static_cast<double>(component.event_indices.size()) /
                            static_cast<double>(events.size());
    if (fraction < options_.min_component_fraction) continue;
    Incident incident = MakeIncident(events, result, std::move(component));
    if (incident.kind == IncidentKind::kUnknown && !options_.include_unknown) {
      continue;  // statistically strong but operationally featureless
    }
    incidents.push_back(std::move(incident));
  }
  return incidents;
}

std::vector<Incident> Pipeline::AnalyzeWindow(
    std::span<const bgp::Event> events) const {
  return StemAndClassify(events, [this](std::span<const bgp::Event> window) {
    const std::lock_guard<std::mutex> lock(sliding_->mu);
    return sliding_->stemmer.Stem(window, options_.stemming);
  });
}

std::vector<Incident> Pipeline::Analyze(
    const collector::EventStream& stream) const {
  std::vector<Incident> incidents;
  if (stream.empty()) return incidents;
  obs::TraceSpan analyze_span("pipeline.analyze");
  analyze_span.Annotate("events", static_cast<std::uint64_t>(stream.size()));
  RANOMALY_METRIC_COUNT("pipeline_analyses_total", 1);
  const util::StageTimer total_timer;

  // Spike-scale pass.  Windows are independent, so they fan out across
  // the pool; per-spike results merge in spike order below, which makes
  // the output bit-identical to the serial loop regardless of thread
  // count (the determinism contract, DESIGN.md).
  const util::StageTimer spike_timer;
  obs::TraceSpan spike_span("pipeline.spike_pass");
  const auto spikes = collector::DetectSpikes(stream, options_.spike_bucket,
                                              options_.spike_factor);
  spike_span.Annotate("spikes", static_cast<std::uint64_t>(spikes.size()));
  const auto one_shot = [this](std::span<const bgp::Event> window) {
    return stemming::Stem(window, options_.stemming);
  };
  std::vector<std::vector<Incident>> per_spike(spikes.size());
  const auto analyze_spike = [&](std::size_t i) {
    const auto window =
        stream.Window(spikes[i].begin - kSpikeMargin,
                      spikes[i].end + kSpikeMargin);
    per_spike[i] = StemAndClassify(window, one_shot);
  };
  pool_->ParallelFor(spikes.size(), analyze_spike);
  for (std::vector<Incident>& window_incidents : per_spike) {
    for (Incident& inc : window_incidents) {
      incidents.push_back(std::move(inc));
    }
  }
  RANOMALY_METRIC_COUNT("pipeline_spike_windows_total", spikes.size());
  RANOMALY_METRIC_OBSERVE("pipeline_spike_pass_seconds", obs::TimeBounds(),
                          spike_timer.Seconds());
  spike_span.End();

  // Long-window pass over the grass: everything *outside* the spike
  // windows (spikes were handled at their own timescale above; leaving
  // them in would let their mass drown the low-grade persistent
  // anomalies this pass exists to catch).
  {
    const util::StageTimer grass_timer;
    obs::TraceSpan grass_span("pipeline.grass_pass");
    std::vector<bgp::Event> grass;
    grass.reserve(stream.size());
    // DetectSpikes returns disjoint windows sorted by begin, and events()
    // is time-ordered, so one forward sweep decides membership: advance
    // past every padded window that ends at or before the event, then the
    // event is inside a spike iff it is inside the current one.
    std::size_t next_spike = 0;
    for (const bgp::Event& e : stream.events()) {
      while (next_spike < spikes.size() &&
             e.time >= spikes[next_spike].end + kSpikeMargin) {
        ++next_spike;
      }
      const bool inside_spike =
          next_spike < spikes.size() &&
          e.time >= spikes[next_spike].begin - kSpikeMargin;
      if (!inside_spike) grass.push_back(e);
    }
    grass_span.Annotate("events", static_cast<std::uint64_t>(grass.size()));
    for (Incident& inc : StemAndClassify(grass, one_shot)) {
      incidents.push_back(std::move(inc));
    }
    RANOMALY_METRIC_COUNT("pipeline_grass_events_total", grass.size());
    RANOMALY_METRIC_OBSERVE("pipeline_grass_pass_seconds", obs::TimeBounds(),
                            grass_timer.Seconds());
  }

  // Deduplicate by stem identity (raw tagged symbol pair — stable across
  // the windows' independent SymbolTables), keeping the larger incident.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> by_stem;
  std::vector<Incident> unique;
  for (Incident& inc : incidents) {
    const auto it = by_stem.find(inc.stem_key);
    if (it == by_stem.end()) {
      by_stem[inc.stem_key] = unique.size();
      unique.push_back(std::move(inc));
    } else if (inc.event_count > unique[it->second].event_count) {
      unique[it->second] = std::move(inc);
    }
  }
  // Largest first.
  std::sort(unique.begin(), unique.end(),
            [](const Incident& a, const Incident& b) {
              return a.event_count > b.event_count;
            });

  // Flag incidents overlapping a degraded-feed window: their evidence may
  // reflect the collector's outage (stale-sweep withdrawals, resync
  // re-announcements) rather than the network.
  const auto gaps = collector::FeedGapWindows(stream);
  for (Incident& inc : unique) {
    for (const collector::FeedGapWindow& gap : gaps) {
      if (inc.begin <= gap.end && gap.begin <= inc.end) {
        inc.feed_degraded = true;
        inc.summary += " [feed-degraded]";
        break;
      }
    }
  }
  RANOMALY_METRIC_COUNT("pipeline_incidents_total", unique.size());
  RANOMALY_METRIC_OBSERVE("pipeline_analyze_seconds", obs::TimeBounds(),
                          total_timer.Seconds());
  return unique;
}

}  // namespace ranomaly::core
