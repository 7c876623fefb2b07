// Analysis-tier checkpoint state: the typed contents of the RNC1 v2
// named sections (collector/checkpoint.h) that make `ranomaly serve`
// crash-safe.  core::LiveRunner works on a LiveCheckpointState in place
// and encodes it at a tick boundary; a restarted runner decodes,
// validates, and resumes — replaying forward to a bit-identical incident
// stream.
//
// Each section's byte layout is written once, in live_checkpoint.cc, as
// a function template that an encoder and a decoder both run: the field
// order cannot differ between the two directions, and the decode-only
// validation sits next to the field it checks.
//
// Sections (each starts with a u8 layout version, currently 1):
//   LIVE  replay cursor: stream identity (t0), events consumed, and the
//         running LiveStats as of the tick boundary
//   SHED  degradation-ladder state: level, hysteresis counter, sampling
//         phase, tracer suspension, and the marked shed windows
//   STEM  incident dedup set — sorted raw tagged symbol pairs
//         (stemming::SymbolTable::Raw values; the cross-window stem
//         identity)
//   GAPS  live feed-gap windows (incident feed_degraded marking)
//   PEER  per-peer scoreboard rows plus open-gap bookkeeping
//   FLOW  admission outcomes for the in-flight stream range — which
//         consumed events sit in the analysis window vs. the
//         backpressure queue (2 bits each).  The event bytes are NOT
//         persisted: the stream file is the source of truth and the
//         restored runner re-reads them, so the checkpoint stays small
//         no matter how dense the feed is
//   INCD  the incident log (seq 1..N with every operator-facing field)
//   SLOH  detection-latency histogram bucket counts — redundant with
//         INCD and cross-checked against it on decode
//   SERS  the dashboard time-series store (obs/timeseries.h): tier
//         shape, then every retained ring bucket per series, so a
//         restarted `serve` answers /api/series byte-identically
//   PROV  the incident provenance ledger (obs/provenance.h): caps,
//         eviction count, then one evidence record per retained
//         incident, so a restarted `serve` answers
//         /api/incidents/<id>/evidence byte-identically.  Decode
//         re-validates the caps and cross-checks every record's seq and
//         stem key against INCD
//
// Decode is all-or-nothing: any malformed field, out-of-range value,
// missing section, or INCD/SLOH mismatch fails the whole restore with
// an error naming the offending section.  There is never a silent
// partial restore — the caller logs the error and starts fresh (the
// stream file remains the source of truth, so a cold replay converges
// to the same incident log).  Counts are untrusted even under a valid
// CRC: each is bounded, and containers grow only as their elements'
// bytes are read, so a crafted count fails as truncated rather than
// allocating what it claims.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "collector/checkpoint.h"
#include "core/live.h"
#include "obs/timeseries.h"

namespace ranomaly::core {

struct LiveCheckpointState {
  // LIVE
  util::SimTime t0 = 0;          // first stream event time (identity check)
  std::uint64_t next_event = 0;  // events consumed from the stream
  LiveStats stats;               // as of the tick boundary (clock = boundary)
  // SHED
  int shed_level = 0;
  std::uint64_t calm_ticks = 0;       // consecutive below-watermark ticks
  std::uint64_t arrival_index = 0;    // deterministic sampling phase
  bool tracer_suspended = false;      // L1 suspension active at snapshot
  bool tracer_was_enabled = false;    // what to restore on recovery
  std::vector<ShedWindow> shed_windows;
  // STEM
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen_stems;
  // GAPS
  std::vector<LiveGap> gaps;
  // PEER
  std::vector<PeerBoard::Persisted> peers;
  // FLOW: one class per stream event in [flow_start, next_event) —
  // 0 = no longer in flight (marker, shed, or expired from the window),
  // 1 = in the analysis window, 2 = in the backpressure queue.  Window
  // entries always precede queue entries (FIFO admission).  The restored
  // runner rebuilds both containers by re-reading the stream; each
  // event's ingest stamp is the first tick boundary after its time, so
  // stamps are derivable and not persisted either.
  std::uint64_t flow_start = 0;
  std::vector<std::uint8_t> flow;
  // INCD
  std::vector<IncidentLog::Entry> incidents;
  // SLOH: one count per DetectionLatencyBounds() bucket plus overflow.
  std::vector<std::uint64_t> latency_counts;
  // SERS: the dashboard history as decoded, for TimeSeriesStore::Restore
  // (empty tiers encode as a zero-tier section).  The runner leaves it
  // empty: its snapshots encode SERS straight from the live store's
  // rings (the EncodeLiveState overload taking the store).
  obs::TimeSeriesStore::Persisted series_store;
  // PROV: the provenance ledger (zeroed caps and no records when the
  // runner has no ledger attached — encoded as a section either way).
  // The runner exports it for each snapshot only and keeps it empty
  // between.
  obs::ProvenanceLedger::Persisted provenance;
};

// Renders `state` into `checkpoint`: sets time (the tick boundary) and
// event_offset (the stream cursor) and replaces the section table,
// encoding each section into the string already at its position, so a
// checkpoint recycled from an earlier snapshot lends its buffers.
// Deterministic: the same state always yields the same bytes, whatever
// `checkpoint` held before.
void EncodeLiveState(const LiveCheckpointState& state,
                     collector::Checkpoint& checkpoint);

// Borrowing overload: the incident log (the one unbounded-growth
// vector, three strings per entry) is encoded from `incidents` instead
// of `state.incidents`, which is ignored — so a caller holding the log
// elsewhere need not copy it into a LiveCheckpointState first.
// Byte-identical to the other overload given equal contents.
void EncodeLiveState(const LiveCheckpointState& state,
                     const std::vector<IncidentLog::Entry>& incidents,
                     collector::Checkpoint& checkpoint);

// The runner's snapshot: SERS is written from `series`' rings in place,
// under the store's lock, and `state.series_store` is ignored.
// Byte-identical to the first overload with series_store set to
// series.Export().
void EncodeLiveState(const LiveCheckpointState& state,
                     const obs::TimeSeriesStore& series,
                     collector::Checkpoint& checkpoint);

// Inverse of EncodeLiveState with full validation.  Returns false and
// sets *error ("section INCD: non-contiguous seq at entry 3") without
// touching *state's validity guarantees on any failure.
bool DecodeLiveState(const collector::Checkpoint& checkpoint,
                     LiveCheckpointState* state, std::string* error);

}  // namespace ranomaly::core
