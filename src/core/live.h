// The live operations layer behind `ranomaly serve` and `ranomaly
// peers`: tick-based replay of an event stream through the analysis
// pipeline, an append-only incident log with monotonic sequence numbers
// (the `/incidents?since=` resumption contract), a per-peer health
// scoreboard, and the HTTP handler that routes the operations endpoints
// (/metrics, /varz, /healthz, /readyz, /incidents).
//
// Determinism: every detection-latency input is *simulated* time — the
// ingest tick is the (deterministic) batch boundary an event entered the
// pipeline at, AnalyzeWindow is bit-identical for any thread count, and
// incidents dedup on their stem key — so the
// incident_detection_latency_seconds buckets are bit-identical across
// RANOMALY_THREADS settings.  Wall time appears only in pacing
// (--pace-ms) and heartbeat metering, never in what gets detected or
// when (DESIGN.md determinism rule).
//
// Durability: with LiveOptions::checkpoint_path set, the runner
// restores its full pipeline state (stream cursor, analysis window and
// ingest queue, stem dedup set, incident log, feed-gap and shed
// windows, peer scoreboard, SLO histogram) from the last RNC1 v2
// checkpoint at startup and persists it every checkpoint_every_ticks
// ticks at a tick boundary, so a SIGKILLed `serve` resumes and replays
// forward to a bit-identical incident stream — `/incidents?since=N`
// continues seamlessly across the restart (core/live_checkpoint.h).
//
// Overload: with ShedOptions::queue_capacity set, a bounded ingest
// queue sits between the stream and the analysis window, and a
// watermark-driven degradation ladder sheds work as the queue fills —
// L1 suspends tracing, L2 halves the analysis cadence (widening each
// analysis batch), L3 samples arrivals deterministically and marks the
// affected span so incidents detected there carry `load_shed` — with
// hysteresis on the way down.  Every stage is reported through
// obs::HealthRegistry as DEGRADED with a reason and counted in metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "collector/event_stream.h"
#include "core/incident.h"
#include "core/pipeline.h"
#include "obs/health.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/timeseries.h"
#include "util/time.h"

namespace ranomaly::core {

// Append-only incident history with monotonic sequence numbers starting
// at 1.  `Since(n)` returns entries with seq > n, so a client that
// remembers the `next_since` from its last poll resumes without loss or
// duplication.  Mutex-guarded: the replay thread appends while the HTTP
// thread reads.  The live runner logs incidents with an empty
// `component` and `evidence` (the checkpoint's INCD section persists
// neither), so a resumed log equals an uninterrupted one field by field.
class IncidentLog {
 public:
  struct Entry {
    std::uint64_t seq = 0;
    Incident incident;
  };

  // Returns the assigned sequence number.
  std::uint64_t Append(Incident incident);

  // Checkpoint restore: replaces the log with `entries`, whose seqs must
  // be exactly 1..N in order (returns false and leaves the log empty
  // otherwise — a corrupt history must not be resumed).
  bool Restore(std::vector<Entry> entries);

  // Entries with seq > `since` (0 = everything), in sequence order.
  std::vector<Entry> Since(std::uint64_t since) const;

  std::size_t size() const;

  // {"incidents":[...],"next_since":N} for entries with seq > since.
  // next_since is the latest seq overall (so an empty poll still
  // advances the client's cursor correctly: it stays put).
  std::string ToJson(std::uint64_t since) const;

 private:
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

// Per-peer feed scoreboard derived from the event stream's markers —
// the same facts the live health model exposes, computed once and worn
// by two frontends (`ranomaly peers` table, serve health components).
class PeerBoard {
 public:
  struct Row {
    bgp::Ipv4Addr peer;
    bool degraded = false;       // inside an unclosed feed gap
    std::uint64_t announces = 0;
    std::uint64_t withdraws = 0;
    std::uint64_t reconnects = 0;   // closed gaps (kResync markers)
    std::uint64_t gaps = 0;         // kFeedGap markers
    std::uint64_t quarantined = 0;  // corrupt frames (0 for file streams)
    util::SimTime first_seen = 0;
    util::SimTime last_seen = 0;
    util::SimTime last_gap = -1;    // time of the latest kFeedGap, -1 none
    double uptime_sec = 0.0;        // observed span minus in-gap time
  };

  // Returns true when `event` is the first seen from its peer.
  bool Observe(const bgp::Event& event);
  // Closes the books at `end` (open gaps accrue degraded time up to it).
  void Finish(util::SimTime end);

  // Rows sorted by peer address.
  std::vector<Row> Rows() const;

  // One peer's full state: its row plus open-gap bookkeeping.  Export
  // and Restore carry all of them in observation order (the checkpoint's
  // PEER section), so a restored board continues bit-identically.
  struct Persisted {
    Row row;
    util::SimTime gap_open = -1;   // begin of the currently open gap
    double gap_sec = 0.0;          // accumulated in-gap seconds
  };
  const std::vector<Persisted>& Export() const { return peers_; }
  void Restore(std::vector<Persisted> peers) { peers_ = std::move(peers); }

 private:
  std::vector<Persisted> peers_;  // observation order
  Persisted& Of(bgp::Ipv4Addr peer);
};

// Renders the `ranomaly peers` scoreboard table.
std::string FormatPeerTable(const std::vector<PeerBoard::Row>& rows);

// An open or closed degraded-feed span observed during live replay; the
// live equivalent of collector::FeedGapWindows over a full stream.
// Public (and persisted) so incident gap-marking survives a restart.
struct LiveGap {
  bgp::Ipv4Addr peer;
  util::SimTime begin = 0;
  util::SimTime end = 0;
  bool closed = false;
};

// A span where the degradation ladder was shedding events (sampling or
// queue overflow); incidents overlapping one are marked `load_shed`.
struct ShedWindow {
  util::SimTime begin = 0;
  util::SimTime end = 0;
  bool closed = false;
};

// Backpressure between ingest and analysis.  Disabled by default
// (queue_capacity 0): the queue is then an unbounded pass-through and
// replay behaves exactly as before.  The ladder escalates a stage when
// the end-of-ingest queue depth crosses a watermark fraction of
// capacity, and de-escalates one stage after `recovery_ticks`
// consecutive ticks below the stage's watermark (hysteresis):
//   L1 (>= 50 %): suspend span tracing
//   L2 (>= 75 %): halve the analysis cadence (each analysis covers two
//       ingest batches — a widened batch window)
//   L3 (>= 90 %): deterministically sample arrivals, keeping 1 in
//       sample_stride routing events, inside a marked shed window
// Markers (GAP/SYNC) are never shed: feed-health bookkeeping stays
// exact under overload.  The queue never exceeds queue_capacity;
// arrivals beyond it are dropped and counted as shed.
struct ShedOptions {
  std::size_t queue_capacity = 0;  // max queued routing events; 0 = off
  // Max routing events drained from the queue into the analysis window
  // per tick; 0 = unlimited (the queue then never grows).
  std::size_t service_rate = 0;
  std::size_t sample_stride = 4;   // keep 1 in N at L3
  std::uint64_t recovery_ticks = 3;
};

struct LiveOptions {
  PipelineOptions pipeline;
  // Analysis cadence: events are ingested in [tick] batches; each batch
  // end is the ingest tick stamped on its events.
  util::SimDuration tick = 10 * util::kSecond;
  // Sliding analysis window handed to the pipeline each tick.
  util::SimDuration window = 5 * util::kMinute;
  // Detection-latency SLO target (simulated seconds, burst -> surfaced).
  double slo_target_sec = 30.0;
  // Mark the replay heartbeat DEGRADED if a tick stalls past this many
  // wall seconds; 0 disables.
  double heartbeat_deadline_sec = 0.0;
  // Overload shedding (see ShedOptions).
  ShedOptions shed;
  // Analysis-tier durability: when non-empty, restore from this RNC1
  // checkpoint at startup (if present and valid) and persist the live
  // state there every `checkpoint_every_ticks` ticks plus once on exit.
  // A failed write retries with exponential backoff (1, 2, 4, ... ticks,
  // at most 32); the daemon keeps analyzing throughout.
  std::string checkpoint_path;
  std::uint64_t checkpoint_every_ticks = 16;
};

struct LiveStats {
  std::uint64_t ticks = 0;
  std::uint64_t events_ingested = 0;
  std::uint64_t incidents = 0;
  std::uint64_t incidents_within_slo = 0;
  util::SimTime clock = 0;  // replay position (end of last tick)
  // Overload-ladder observability (end-of-tick values).
  int shed_level = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t events_shed = 0;   // sampled out or dropped at capacity
  std::uint64_t shed_transitions = 0;
  // Durability observability.
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t checkpoint_failures = 0;
  bool restored = false;  // this run resumed from a checkpoint
};

// Drives the tick replay.  Health/incident/series/provenance sinks are
// borrowed, not owned; pass nullptr to skip any.  Metrics always record
// to MetricsRegistry::Global().  With a series store attached, the
// runner samples the registry into it at every tick boundary (sim-time
// stamps), restores its history from the checkpoint's SERS section, and
// includes it in every checkpoint it cuts.  With a provenance ledger
// attached, the runner builds an evidence record for each new incident
// (Pipeline::PopulateProvenance, bounded by the ledger's caps) and
// attaches it under the incident's log seq, restoring/persisting the
// ledger through the PROV section the same way.
class LiveRunner {
 public:
  LiveRunner(LiveOptions options, obs::HealthRegistry* health,
             IncidentLog* incidents, obs::TimeSeriesStore* series = nullptr,
             obs::ProvenanceLedger* provenance = nullptr);

  // Replays `stream` tick by tick; checks `keep_going` (when non-null)
  // before each tick and stops early when it reads false.  `on_tick`
  // (when set) runs after each tick with the running stats — the serve
  // CLI paces and prints there.  Returns the final stats.
  LiveStats Run(const collector::EventStream& stream,
                const std::atomic<bool>* keep_going = nullptr,
                const std::function<void(const LiveStats&)>& on_tick = {});

 private:
  LiveOptions options_;
  Pipeline pipeline_;
  obs::HealthRegistry* health_;
  IncidentLog* incidents_;
  obs::TimeSeriesStore* series_;
  obs::ProvenanceLedger* provenance_;
};

// Static facts the /varz payload reports alongside the metric snapshot.
struct OpsInfo {
  std::string stream_path;
  double slo_target_sec = 0.0;
  double tick_sec = 0.0;
  double window_sec = 0.0;
  std::string checkpoint_path;      // empty = checkpointing off
  std::size_t queue_capacity = 0;   // 0 = backpressure off
  // Exact-integer replay geometry (microseconds) for the incident
  // timeline: t0 is the first stream event time, tick the cadence.
  // The /api/incidents/timeline handler derives each incident's
  // trace-exemplar tick index as (detected_at - t0) / tick.
  std::int64_t t0 = 0;
  std::int64_t tick = 0;
};

// Routes the operations endpoints.  All sinks are borrowed and must
// outlive the returned handler:
//   GET /metrics            Prometheus exposition (text/plain; version=0.0.4)
//   GET /varz               full JSON state dump
//   GET /healthz            liveness: 200 while the process can answer
//   GET /readyz             readiness: HealthRegistry worst-of; 503 names
//                           the offending components
//   GET /incidents?since=N  incident log entries with seq > N (400 on a
//                           malformed `since`)
// With a time-series store attached (may be nullptr):
//   GET /api/series                       store inventory + tier list
//   GET /api/series?name=N&res=R&since=S  one series at tier R (seconds,
//                                         default finest), points after S
//   GET /api/incidents/timeline?since=N   incidents with seq > N (default
//                                         0) + replay geometry +
//                                         per-incident trace exemplar
//                                         (400 on a malformed `since`)
// With a provenance ledger attached (may be nullptr):
//   GET /api/incidents/<id>/evidence      the incident's evidence record
//                                         (400 on a malformed id, 404
//                                         when unknown or evicted)
// With `dashboard` set:
//   GET /dashboard          the embedded single-file HTML dashboard
// Anything else is 404.
obs::HttpServer::Handler MakeOpsHandler(
    obs::MetricsRegistry* metrics, obs::HealthRegistry* health,
    IncidentLog* incidents, OpsInfo info,
    obs::TimeSeriesStore* series = nullptr, bool dashboard = false,
    obs::ProvenanceLedger* provenance = nullptr);

// Upper bucket bounds (simulated seconds) for the
// incident_detection_latency_seconds histogram.
std::vector<double> DetectionLatencyBounds();

// The bucket a detection latency falls in: the index of the first bound
// in `bounds` it does not exceed, or bounds.size() (overflow).  The
// runner's SLOH counts and their checkpoint cross-check both use it.
std::size_t DetectionLatencyBucket(const std::vector<double>& bounds,
                                   double latency_sec);

}  // namespace ranomaly::core
