// Incident model: a classified, operator-facing description of one
// correlated component found in the event stream.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bgp/prefix.h"
#include "obs/provenance.h"
#include "stemming/stemming.h"
#include "util/time.h"

namespace ranomaly::core {

enum class IncidentKind : std::uint8_t {
  kSessionReset,    // mass withdrawal + re-announcement from one peer
  kRouteLeak,       // prefixes moved to a longer path through new ASes
  kPathChange,      // prefixes moved to a comparable alternate path
  kRouteFlap,       // few prefixes cycling announce/withdraw repeatedly
  kMedOscillation,  // route flap whose alternatives differ in MED
  kUnknown,
};

const char* ToString(IncidentKind kind);

// Per-component evidence the classifier extracts from the events.
struct IncidentEvidence {
  double withdraw_fraction = 0.0;   // withdrawals / events
  double single_peer_fraction = 0.0;  // share of events from the busiest peer
  double cycles_per_prefix = 0.0;   // mean announce/withdraw cycles
  double path_growth = 0.0;         // mean AS-path length change (end - start)
  std::size_t new_as_count = 0;     // ASes seen in final paths, not initial
  bool med_present = false;         // any event carried a MED
  // Fraction of prefixes whose last path equals their first (came back).
  double restored_fraction = 0.0;
  // Fraction of prefixes whose final event is an announcement.
  double final_announce_fraction = 0.0;
  // Share of the component's events belonging to its busiest prefix; ~1
  // marks a single-prefix oscillation even when correlation pulled in a
  // few bystander prefixes.
  double dominant_prefix_fraction = 0.0;
  bgp::Prefix dominant_prefix;  // the busiest prefix itself
};

struct Incident {
  IncidentKind kind = IncidentKind::kUnknown;
  util::SimTime begin = 0;
  util::SimTime end = 0;
  std::size_t event_count = 0;
  double event_fraction = 0.0;  // of the analyzed window
  std::size_t prefix_count = 0;
  // Stem identity as raw tagged symbol values (SymbolTable::Raw), stable
  // across windows with independent SymbolTables; dedup keys on this, not
  // on the formatted label.
  std::pair<std::uint64_t, std::uint64_t> stem_key{0, 0};
  std::string stem_label;       // "AS11423 - AS209"
  std::string top_sequence;     // full s' rendering
  // The classifier's inputs and the raw component (indices into the
  // analyzed window); both empty in the live runner's incident log.
  IncidentEvidence evidence;
  stemming::Component component;
  std::string summary;          // one-line operator text
  // True if the incident's time span overlaps a FeedGap window: the feed
  // itself was degraded there, so the incident may describe the
  // collector's outage rather than the network (see
  // collector::FeedGapWindows).
  bool feed_degraded = false;
  // True if the incident's time span overlaps a window where the live
  // degradation ladder was sampling events (core/live.h): counts and
  // fractions are computed from a deterministic subset of the feed, so
  // magnitudes are lower bounds there.
  bool load_shed = false;
  // Detection-latency SLO fields (live mode, core/live.h).  `ingest_tick`
  // is the latest ingest stamp among the contributing events — the
  // earliest moment the pipeline could have seen the whole component.
  // The live runner sets `detected_at` to the analysis tick that first
  // surfaced the incident and derives `detection_latency_sec` as
  // detected_at - begin (simulated seconds from the triggering burst to
  // the operator surface).  All zero / -1 in batch analysis.
  util::SimTime ingest_tick = 0;
  util::SimTime detected_at = 0;
  double detection_latency_sec = -1.0;
  // Evidence record for the provenance ledger (obs/provenance.h):
  // sampled contributing events, stem classes, and the correlation path.
  // Populated only by Pipeline::PopulateProvenance, which the live
  // runner calls for new incidents when a ledger is attached; the runner
  // moves it into the ledger at append time, so logged incidents carry
  // an empty record.
  obs::IncidentProvenance provenance;
};

}  // namespace ranomaly::core
