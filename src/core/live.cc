#include "core/live.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "collector/checkpoint.h"
#include "core/live_checkpoint.h"
#include "obs/dashboard.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/strings.h"

namespace ranomaly::core {

namespace {

// Queue fill (fraction of ShedOptions::queue_capacity) at which the
// degradation ladder escalates to each stage.
constexpr double kL1Watermark = 0.50;
constexpr double kL2Watermark = 0.75;
constexpr double kL3Watermark = 0.90;
// Cap of the failed-checkpoint retry backoff.
constexpr std::uint64_t kCheckpointRetryMaxBackoffTicks = 32;

std::string PeerComponentName(bgp::Ipv4Addr peer) {
  return "peer/" + peer.ToString();
}

const char* ShedLevelAction(int level) {
  switch (level) {
    case 1: return "tracing suspended";
    case 2: return "analysis cadence halved";
    case 3: return "sampling arrivals";
  }
  return "nominal";
}

}  // namespace

// ---------------------------------------------------------------------------
// IncidentLog

std::uint64_t IncidentLog::Append(Incident incident) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t seq = entries_.size() + 1;
  entries_.push_back(Entry{seq, std::move(incident)});
  return seq;
}

bool IncidentLog::Restore(std::vector<Entry> entries) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].seq != i + 1) {
      std::lock_guard<std::mutex> lock(mu_);
      entries_.clear();
      return false;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(entries);
  return true;
}

std::vector<IncidentLog::Entry> IncidentLog::Since(std::uint64_t since) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  if (since < entries_.size()) {
    out.assign(entries_.begin() + static_cast<std::ptrdiff_t>(since),
               entries_.end());
  }
  return out;
}

std::size_t IncidentLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string IncidentLog::ToJson(std::uint64_t since) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"incidents\":[";
  bool first = true;
  for (std::size_t i = since; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const Incident& inc = e.incident;
    if (!first) out += ',';
    first = false;
    out += util::StrPrintf(
        "{\"seq\":%llu,\"kind\":\"%s\",\"begin_sec\":%.3f,\"end_sec\":%.3f,"
        "\"event_count\":%zu,\"prefix_count\":%zu,\"stem\":\"%s\","
        "\"summary\":\"%s\",\"detected_at_sec\":%.3f,"
        "\"detection_latency_sec\":%.3f,\"feed_degraded\":%s,"
        "\"load_shed\":%s}",
        static_cast<unsigned long long>(e.seq), ToString(inc.kind),
        util::ToSeconds(inc.begin), util::ToSeconds(inc.end), inc.event_count,
        inc.prefix_count, obs::JsonEscape(inc.stem_label).c_str(),
        obs::JsonEscape(inc.summary).c_str(), util::ToSeconds(inc.detected_at),
        inc.detection_latency_sec, inc.feed_degraded ? "true" : "false",
        inc.load_shed ? "true" : "false");
  }
  out += util::StrPrintf("],\"next_since\":%llu}",
                         static_cast<unsigned long long>(entries_.size()));
  return out;
}

// ---------------------------------------------------------------------------
// PeerBoard

PeerBoard::Persisted& PeerBoard::Of(bgp::Ipv4Addr peer) {
  for (Persisted& state : peers_) {
    if (state.row.peer == peer) return state;
  }
  Persisted& state = peers_.emplace_back();
  state.row.peer = peer;
  state.row.first_seen = -1;
  return state;
}

bool PeerBoard::Observe(const bgp::Event& event) {
  const std::size_t known = peers_.size();
  Persisted& s = Of(event.peer);
  Row& row = s.row;
  if (row.first_seen < 0) row.first_seen = event.time;
  row.last_seen = event.time;
  switch (event.type) {
    case bgp::EventType::kAnnounce:
      ++row.announces;
      break;
    case bgp::EventType::kWithdraw:
      ++row.withdraws;
      break;
    case bgp::EventType::kFeedGap:
      if (!row.degraded) {
        row.degraded = true;
        ++row.gaps;
        row.last_gap = event.time;
        s.gap_open = event.time;
      }
      break;
    case bgp::EventType::kResync:
      if (row.degraded) {
        row.degraded = false;
        ++row.reconnects;
        s.gap_sec += util::ToSeconds(event.time - s.gap_open);
        s.gap_open = -1;
      }
      break;
  }
  return peers_.size() > known;
}

void PeerBoard::Finish(util::SimTime end) {
  for (Persisted& s : peers_) {
    if (s.gap_open >= 0 && end > s.gap_open) {
      // Open gap: accrue degraded time up to the close of books, but keep
      // the gap open (the peer is still degraded).
      s.gap_sec += util::ToSeconds(end - s.gap_open);
      s.gap_open = end;
    }
    if (end > s.row.last_seen) s.row.last_seen = end;
  }
}

std::vector<PeerBoard::Row> PeerBoard::Rows() const {
  std::vector<Row> out;
  out.reserve(peers_.size());
  for (const Persisted& s : peers_) {
    Row row = s.row;
    if (row.first_seen < 0) row.first_seen = 0;
    const double span = util::ToSeconds(row.last_seen - row.first_seen);
    row.uptime_sec = std::max(0.0, span - s.gap_sec);
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
    return a.peer.value() < b.peer.value();
  });
  return out;
}

std::string FormatPeerTable(const std::vector<PeerBoard::Row>& rows) {
  std::string out = util::StrPrintf(
      "%-16s %-9s %12s %10s %10s %6s %6s %11s %10s\n", "PEER", "STATE",
      "UPTIME", "ANNOUNCES", "WITHDRAWS", "GAPS", "RECON", "QUARANTINED",
      "LAST-GAP");
  for (const PeerBoard::Row& row : rows) {
    const std::string uptime =
        util::FormatDuration(util::FromSeconds(row.uptime_sec));
    const std::string last_gap =
        row.last_gap < 0 ? "-" : util::FormatDuration(row.last_gap);
    out += util::StrPrintf(
        "%-16s %-9s %12s %10llu %10llu %6llu %6llu %11llu %10s\n",
        row.peer.ToString().c_str(), row.degraded ? "DEGRADED" : "OK",
        uptime.c_str(), static_cast<unsigned long long>(row.announces),
        static_cast<unsigned long long>(row.withdraws),
        static_cast<unsigned long long>(row.gaps),
        static_cast<unsigned long long>(row.reconnects),
        static_cast<unsigned long long>(row.quarantined), last_gap.c_str());
  }
  return out;
}

// ---------------------------------------------------------------------------
// LiveRunner

std::vector<double> DetectionLatencyBounds() {
  return {1, 2, 5, 10, 15, 30, 60, 120, 300, 900};
}

std::size_t DetectionLatencyBucket(const std::vector<double>& bounds,
                                   double latency_sec) {
  return static_cast<std::size_t>(
      std::find_if(bounds.begin(), bounds.end(),
                   [latency_sec](double b) { return latency_sec <= b; }) -
      bounds.begin());
}

LiveRunner::LiveRunner(LiveOptions options, obs::HealthRegistry* health,
                       IncidentLog* incidents, obs::TimeSeriesStore* series,
                       obs::ProvenanceLedger* provenance)
    : options_(std::move(options)),
      pipeline_(options_.pipeline),
      health_(health),
      incidents_(incidents),
      series_(series),
      provenance_(provenance) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.SetHelp("incident_detection_latency_seconds",
              "Simulated seconds from an incident's triggering burst to the "
              "analysis tick that first surfaced it.");
  reg.SetHelp("incident_detection_slo_ratio",
              "Fraction of detected incidents whose detection latency met "
              "the SLO target.");
  reg.SetHelp("serve_ticks_total", "Live replay analysis ticks executed.");
  reg.SetHelp("serve_events_ingested_total",
              "Events ingested by the live replay.");
  reg.SetHelp("serve_incidents_total",
              "Distinct incidents surfaced by the live replay.");
  reg.SetHelp("serve_replay_position_seconds",
              "Current simulated-time position of the live replay.");
  reg.SetHelp("health_component_state",
              "Health state per component: 0=ok 1=degraded 2=down.");
  reg.SetHelp("serve_queue_depth",
              "Routing events waiting in the bounded ingest queue at the "
              "end of the last tick.");
  reg.SetHelp("serve_shed_level",
              "Current degradation-ladder stage: 0=nominal 1=tracing "
              "suspended 2=cadence halved 3=sampling arrivals.");
  reg.SetHelp("serve_events_shed_total",
              "Routing events dropped by the overload ladder (sampled out "
              "at L3 or rejected at queue capacity).");
  reg.SetHelp("serve_shed_transitions_total",
              "Degradation-ladder stage changes, labeled by the stage "
              "entered.");
  reg.SetHelp("serve_restores_total",
              "Successful live-state restores from an RNC1 checkpoint.");
  reg.SetHelp("serve_restore_failures_total",
              "Checkpoint restores rejected by validation (the replay "
              "started fresh instead).");
  reg.SetHelp("log_lines_suppressed_total",
              "Log lines swallowed by rate limiting across all call sites.");
}

LiveStats LiveRunner::Run(
    const collector::EventStream& stream,
    const std::atomic<bool>* keep_going,
    const std::function<void(const LiveStats&)>& on_tick) {
  // Everything a checkpoint persists, worked on in place: a snapshot
  // encodes this state as it stands and a restore replaces it whole.
  LiveCheckpointState st;
  LiveStats& stats = st.stats;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const std::vector<double> latency_bounds = DetectionLatencyBounds();
  const obs::MetricId latency_id =
      reg.Histogram("incident_detection_latency_seconds", latency_bounds);
  const obs::MetricId slo_id = reg.Gauge("incident_detection_slo_ratio");
  const obs::MetricId ticks_id = reg.Counter("serve_ticks_total");
  const obs::MetricId ingested_id = reg.Counter("serve_events_ingested_total");
  const obs::MetricId incidents_id = reg.Counter("serve_incidents_total");
  const obs::MetricId position_id = reg.Gauge("serve_replay_position_seconds");
  const obs::MetricId depth_id = reg.Gauge("serve_queue_depth");
  const obs::MetricId level_id = reg.Gauge("serve_shed_level");
  const obs::MetricId shed_id = reg.Counter("serve_events_shed_total");
  const obs::MetricId restores_id = reg.Counter("serve_restores_total");
  const obs::MetricId restore_failures_id =
      reg.Counter("serve_restore_failures_total");
  const obs::MetricId suppressed_id = reg.Gauge("log_lines_suppressed_total");

  obs::HealthRegistry::ComponentId replay_id = 0;
  obs::HealthRegistry::ComponentId ingest_id = 0;
  if (health_ != nullptr) {
    replay_id = health_->Register("replay");
    ingest_id = health_->Register("ingest");
    if (options_.heartbeat_deadline_sec > 0) {
      health_->SetHeartbeatDeadline(replay_id, options_.heartbeat_deadline_sec);
    }
  }
  const auto peer_health = [this](bgp::Ipv4Addr peer, obs::HealthState state,
                                  std::string reason) {
    if (health_ == nullptr) return;
    const auto id = health_->Register(PeerComponentName(peer));
    health_->SetState(id, state, std::move(reason));
  };
  // Mirror health states into labeled gauges so they scrape.
  const auto sync_health_gauges = [this, &reg]() {
    if (health_ == nullptr) return;
    for (const auto& c : health_->Snapshot()) {
      const obs::MetricId id = reg.Gauge(
          "health_component_state" +
          obs::PromLabels({{"component", c.name}}));
      reg.Set(id, static_cast<double>(c.state));
    }
  };

  if (stream.empty()) {
    if (health_ != nullptr) {
      health_->SetState(replay_id, obs::HealthState::kOk, "replay complete");
    }
    sync_health_gauges();
    return stats;
  }

  const auto& events = stream.events();
  const util::SimTime t0 = events.front().time;
  const ShedOptions& so = options_.shed;
  const bool backpressure = so.queue_capacity > 0;
  const bool checkpointing = !options_.checkpoint_path.empty() &&
                             options_.checkpoint_every_ticks > 0;

  st.t0 = t0;
  // st.incidents mirrors the incident log and st.latency_counts the
  // histogram, so checkpoints are cut without reaching into the (shared)
  // sinks.
  st.latency_counts.assign(latency_bounds.size() + 1, 0);
  std::uint64_t& next = st.next_event;
  std::vector<bgp::Event> window;
  std::vector<bgp::Event> queue;  // routing events awaiting analysis, FIFO
  // Stream index of each in-flight event, maintained in lockstep with
  // window/queue.  Checkpoints persist these (as the FLOW section's
  // 2-bit admission classes) instead of the event bytes themselves: the
  // stream file is the source of truth, and restore re-reads it.
  std::vector<std::uint64_t> window_idx;
  std::vector<std::uint64_t> queue_idx;
  PeerBoard board;
  bool complete = false;

  const auto peer_health_reason = [](const LiveGap& gap) {
    return util::StrPrintf("feed gap open since %.0fs",
                           util::ToSeconds(gap.begin));
  };

  // ---- Restore.  Any validation failure is loud (the failing section is
  // named) but non-fatal: deterministic replay from the stream converges
  // to the same incident log, so starting fresh self-heals.
  if (!options_.checkpoint_path.empty() &&
      std::filesystem::exists(options_.checkpoint_path)) {
    const auto reject = [&](const std::string& why) {
      RANOMALY_LOG(util::LogLevel::kError,
                   util::StrPrintf("checkpoint restore from %s rejected: %s; "
                                   "starting fresh",
                                   options_.checkpoint_path.c_str(),
                                   why.c_str()));
      reg.Add(restore_failures_id, 1);
    };
    collector::LoadDiagnostics diag;
    LiveCheckpointState restored;
    std::string err;
    const std::optional<collector::Checkpoint> ck =
        collector::ReadCheckpointFile(options_.checkpoint_path, &diag);
    if (!ck.has_value()) {
      reject(diag.ToString());
    } else if (!DecodeLiveState(*ck, &restored, &err)) {
      reject(err);
    } else if (restored.t0 != t0) {
      reject("section LIVE: t0 does not match the stream");
    } else if (restored.next_event > events.size()) {
      reject("section LIVE: cursor beyond the end of the stream");
    } else if (incidents_ != nullptr &&
               !incidents_->Restore(restored.incidents)) {
      reject("section INCD: incident log rejected the entries");
    } else if (series_ != nullptr &&
               !series_->Restore(std::move(restored.series_store), &err)) {
      // Tier shape is configuration: a checkpoint cut under different
      // retention tiers must not seed this store's rings.  The incident
      // log was already replaced above; empty it again so the fresh
      // replay starts from a consistent nothing.
      if (incidents_ != nullptr) incidents_->Restore({});
      reject("section SERS: " + err);
    } else if (provenance_ != nullptr &&
               !provenance_->Restore(std::move(restored.provenance), &err)) {
      // Same unwind discipline as SERS: the incident log and series
      // store were already replaced above; empty them again so the
      // fresh replay starts from a consistent nothing.
      if (incidents_ != nullptr) incidents_->Restore({});
      if (series_ != nullptr) series_->Restore({}, nullptr);
      reject("section PROV: " + err);
    } else {
      st = std::move(restored);
      // The sinks own the SERS/PROV contents now; snapshots read them
      // there.
      st.series_store = {};
      st.provenance = {};
      board.Restore(std::move(st.peers));
      // Rebuild the in-flight containers from the stream: the FLOW
      // section records only each event's admission class.  The ingest
      // stamp is derivable — consumption always happens at the first
      // tick boundary strictly after the event's time, on the fixed
      // grid anchored at t0.
      for (std::size_t k = 0; k < st.flow.size(); ++k) {
        if (st.flow[k] == 0) continue;
        const std::size_t i = static_cast<std::size_t>(st.flow_start) + k;
        bgp::Event event = events[i];
        event.ingest_tick =
            t0 + ((event.time - t0) / options_.tick + 1) * options_.tick;
        if (st.flow[k] == 1) {
          window.push_back(std::move(event));
          window_idx.push_back(st.flow_start + k);
        } else {
          queue.push_back(std::move(event));
          queue_idx.push_back(st.flow_start + k);
        }
      }
      // Rebuild the external surfaces the snapshot implies: metrics
      // counters resume, the latency histogram is re-observed exactly
      // (simulated values), and degraded peers re-report.
      reg.Add(ingested_id, static_cast<double>(stats.events_ingested));
      reg.Add(ticks_id, static_cast<double>(stats.ticks));
      reg.Add(incidents_id, static_cast<double>(stats.incidents));
      reg.Add(shed_id, static_cast<double>(stats.events_shed));
      for (const IncidentLog::Entry& e : st.incidents) {
        reg.Observe(latency_id, e.incident.detection_latency_sec);
      }
      if (stats.incidents > 0) {
        reg.Set(slo_id, static_cast<double>(stats.incidents_within_slo) /
                            static_cast<double>(stats.incidents));
      }
      reg.Set(position_id, util::ToSeconds(stats.clock));
      if (st.tracer_suspended) obs::Tracer::Global().SetEnabled(false);
      if (health_ != nullptr) {
        for (const PeerBoard::Row& row : board.Rows()) {
          health_->Register(PeerComponentName(row.peer));
        }
        for (const LiveGap& gap : st.gaps) {
          if (!gap.closed) {
            peer_health(gap.peer, obs::HealthState::kDegraded,
                        peer_health_reason(gap));
          }
        }
        if (st.shed_level > 0) {
          health_->SetState(
              ingest_id, obs::HealthState::kDegraded,
              util::StrPrintf("load shed L%d: %s", st.shed_level,
                              ShedLevelAction(st.shed_level)));
        }
      }
      reg.Add(restores_id, 1);
      RANOMALY_LOG(util::LogLevel::kInfo,
                   util::StrPrintf(
                       "restored live state from %s: tick %llu, clock %.0fs, "
                       "%llu incidents, %zu queued",
                       options_.checkpoint_path.c_str(),
                       static_cast<unsigned long long>(stats.ticks),
                       util::ToSeconds(stats.clock),
                       static_cast<unsigned long long>(stats.incidents),
                       queue.size()));
    }
  }

  // ---- Checkpoint cutting.  Snapshots are taken only at tick
  // boundaries, so a crash between them re-executes the partial tick
  // identically after restore.
  std::uint64_t next_checkpoint_tick =
      stats.ticks + options_.checkpoint_every_ticks;
  std::uint64_t retry_backoff = 0;
  // The replay thread's snapshot buffer: each cut encodes into it, then
  // swaps it for the one the writer last wrote (enqueue below), so the
  // two alternate and no cut allocates a fresh multi-MB snapshot.
  collector::Checkpoint snapshot;
  const auto cut_checkpoint = [&] {
    // The rest of `st` is already current; fill in what lives elsewhere.
    st.peers = board.Export();
    // In-flight events persist as 2-bit admission classes over the
    // stream range [flow_start, next): window entries always precede
    // queue entries, so the front of window_idx (or queue_idx when the
    // window is empty) is the oldest in-flight stream index.
    st.flow_start = !window_idx.empty()
                        ? window_idx.front()
                        : (!queue_idx.empty() ? queue_idx.front() : next);
    st.flow.assign(next - st.flow_start, 0);
    for (const std::uint64_t i : window_idx) st.flow[i - st.flow_start] = 1;
    for (const std::uint64_t i : queue_idx) st.flow[i - st.flow_start] = 2;
    // The ledger export exists only for this encode; the series rings
    // are encoded in place, without a copy.
    if (provenance_ != nullptr) st.provenance = provenance_->Export();
    if (series_ != nullptr) {
      EncodeLiveState(st, *series_, snapshot);
    } else {
      EncodeLiveState(st, snapshot);
    }
    st.provenance = {};
  };
  const auto write_checkpoint = [&]() -> bool {
    cut_checkpoint();
    const bool ok =
        collector::WriteCheckpointFile(snapshot, options_.checkpoint_path);
    if (ok) {
      ++stats.checkpoint_writes;
    } else {
      ++stats.checkpoint_failures;
    }
    return ok;
  };

  // Periodic snapshots are cut on the replay thread, which alone mutates
  // the state they capture, so a cut is consistent without pausing
  // anything; they are written — framing, CRC, fdatasync, rename,
  // directory fsync — by a single background writer, so disk latency
  // stalls a tick only when the next cut finds the previous write still
  // running.  The result is reaped at the *next* checkpoint boundary,
  // which keeps every stats/backoff mutation tick-deterministic: a
  // resumed run accounts writes on exactly the same ticks as an
  // uninterrupted one.
  std::mutex ck_mu;
  // The writer's snapshot: while ck_busy it is the writer's alone; the
  // next enqueue swaps it back to the replay thread, written or failed,
  // for the cut after.
  collector::Checkpoint ck_slot;
  std::condition_variable ck_cv;
  bool write_pending = false;  // enqueued since the last reap
  std::optional<bool> ck_result;
  bool ck_busy = false;  // ck_slot queued or being written
  bool ck_stop = false;
  std::thread ck_writer;
  if (checkpointing) {
    ck_writer = std::thread([&] {
      std::unique_lock<std::mutex> lock(ck_mu);
      for (;;) {
        ck_cv.wait(lock, [&] { return ck_busy || ck_stop; });
        if (!ck_busy) break;
        lock.unlock();
        const bool ok =
            collector::WriteCheckpointFile(ck_slot, options_.checkpoint_path);
        lock.lock();
        ck_result = ok;
        ck_busy = false;
        ck_cv.notify_all();
      }
    });
  }
  // Called only after a reap, so the writer is idle: hands it `snapshot`
  // and takes back the buffers of the snapshot it wrote last.
  const auto enqueue_checkpoint = [&] {
    std::lock_guard<std::mutex> lock(ck_mu);
    std::swap(ck_slot, snapshot);
    ck_busy = true;
    ck_cv.notify_all();
  };
  // Blocks until the in-flight write (if any) lands; nullopt when no
  // write has been issued since the last reap.
  const auto reap_checkpoint = [&]() -> std::optional<bool> {
    std::unique_lock<std::mutex> lock(ck_mu);
    ck_cv.wait(lock, [&] { return !ck_busy; });
    const std::optional<bool> result = ck_result;
    ck_result.reset();
    return result;
  };

  // Ladder transitions: escalation is immediate, de-escalation steps one
  // stage per recovery window (the caller loop applies the hysteresis).
  const auto set_shed_level = [&](int to, util::SimTime now) {
    const int from = st.shed_level;
    if (to == from) return;
    if (to >= 1 && !st.tracer_suspended) {
      st.tracer_was_enabled = obs::Tracer::Global().enabled();
      obs::Tracer::Global().SetEnabled(false);
      st.tracer_suspended = true;
    }
    if (to == 0 && st.tracer_suspended) {
      obs::Tracer::Global().SetEnabled(st.tracer_was_enabled);
      st.tracer_suspended = false;
    }
    if (to >= 3 && from < 3) {
      st.shed_windows.push_back(ShedWindow{now, now, false});
    } else if (to < 3 && from >= 3) {
      for (auto it = st.shed_windows.rbegin(); it != st.shed_windows.rend();
           ++it) {
        if (!it->closed) {
          it->closed = true;
          it->end = now;
          break;
        }
      }
    }
    st.shed_level = to;
    ++stats.shed_transitions;
    reg.Add(reg.Counter("serve_shed_transitions_total" +
                        obs::PromLabels(
                            {{"to", util::StrPrintf("L%d", to)}})),
            1);
    if (health_ != nullptr) {
      if (to == 0) {
        health_->SetState(ingest_id, obs::HealthState::kOk, "");
      } else {
        health_->SetState(ingest_id, obs::HealthState::kDegraded,
                          util::StrPrintf("load shed L%d: %s", to,
                                          ShedLevelAction(to)));
      }
    }
    RANOMALY_LOG_EVERY_N(
        util::LogLevel::kWarn, 8,
        util::StrPrintf("overload ladder %s L%d -> L%d (%s; queue %zu/%zu)",
                        to > from ? "escalated" : "recovered", from, to,
                        ShedLevelAction(to), queue.size(),
                        so.queue_capacity));
  };

  util::SimTime tick_end =
      stats.restored ? stats.clock + options_.tick : t0 + options_.tick;
  while (true) {
    if (keep_going != nullptr &&
        !keep_going->load(std::memory_order_relaxed)) {
      break;
    }
    // One span per tick, annotated with the tick index: the incident
    // timeline's trace exemplar.  /api/incidents/timeline derives the
    // same index from detected_at, so an operator can jump from an
    // incident straight to the live.tick slice that surfaced it.
    obs::TraceSpan tick_span("live.tick");
    tick_span.Annotate("tick", stats.ticks + 1);
    // Ingest this tick's batch; the batch end is the ingest stamp — the
    // earliest moment the pipeline could have analyzed these events.
    // The level chosen at the *previous* boundary governs L3 sampling,
    // so shedding is a pure function of checkpointed state.
    const int ingest_level = st.shed_level;
    while (next < events.size() && events[next].time < tick_end) {
      bgp::Event event = events[next];
      ++next;
      event.ingest_tick = tick_end;
      if (board.Observe(event) && health_ != nullptr) {
        health_->Register(PeerComponentName(event.peer));
      }
      ++stats.events_ingested;
      reg.Add(ingested_id, 1);
      if (event.type == bgp::EventType::kFeedGap) {
        bool already_open = false;
        for (const LiveGap& g : st.gaps) {
          already_open |= !g.closed && g.peer == event.peer;
        }
        if (!already_open) {
          st.gaps.push_back(
              LiveGap{event.peer, event.time, event.time, false});
        }
        peer_health(event.peer, obs::HealthState::kDegraded,
                    util::StrPrintf("feed gap open since %.0fs",
                                    util::ToSeconds(event.time)));
        continue;  // markers are never queued (or shed): bookkeeping only
      }
      if (event.type == bgp::EventType::kResync) {
        for (auto it = st.gaps.rbegin(); it != st.gaps.rend(); ++it) {
          if (!it->closed && it->peer == event.peer) {
            it->closed = true;
            it->end = event.time;
            break;
          }
        }
        peer_health(event.peer, obs::HealthState::kOk, "");
        continue;
      }
      // Routing event: through the (possibly shedding) bounded queue.
      ++st.arrival_index;
      if (backpressure && ingest_level >= 3 &&
          (st.arrival_index - 1) % so.sample_stride != 0) {
        ++stats.events_shed;  // sampled out deterministically
        reg.Add(shed_id, 1);
        continue;
      }
      if (backpressure && queue.size() >= so.queue_capacity) {
        ++stats.events_shed;  // the bound is hard: drop, never grow
        reg.Add(shed_id, 1);
        continue;
      }
      queue.push_back(std::move(event));
      queue_idx.push_back(next - 1);
    }

    // Degradation ladder: compare end-of-ingest depth to the watermarks.
    if (backpressure) {
      const double fill = static_cast<double>(queue.size()) /
                          static_cast<double>(so.queue_capacity);
      int target = 0;
      if (fill >= kL3Watermark) {
        target = 3;
      } else if (fill >= kL2Watermark) {
        target = 2;
      } else if (fill >= kL1Watermark) {
        target = 1;
      }
      if (target > st.shed_level) {
        set_shed_level(target, tick_end);
        st.calm_ticks = 0;
      } else if (target < st.shed_level) {
        if (++st.calm_ticks >= so.recovery_ticks) {
          set_shed_level(st.shed_level - 1, tick_end);
          st.calm_ticks = 0;
        }
      } else {
        st.calm_ticks = 0;
      }
    }

    // Slide the window, then drain the queue into it — in that order, so
    // a backlogged event older than the window still gets analyzed once.
    const util::SimTime window_begin = tick_end - options_.window;
    const auto keep_from = std::find_if(
        window.begin(), window.end(),
        [window_begin](const bgp::Event& e) { return e.time >= window_begin; });
    const auto evicted = keep_from - window.begin();
    window.erase(window.begin(), keep_from);
    window_idx.erase(window_idx.begin(), window_idx.begin() + evicted);
    std::size_t drain = queue.size();
    if (backpressure && so.service_rate > 0) {
      drain = std::min(drain, so.service_rate);
    }
    window.insert(window.end(),
                  std::make_move_iterator(queue.begin()),
                  std::make_move_iterator(queue.begin() +
                                          static_cast<std::ptrdiff_t>(drain)));
    queue.erase(queue.begin(),
                queue.begin() + static_cast<std::ptrdiff_t>(drain));
    window_idx.insert(window_idx.end(), queue_idx.begin(),
                      queue_idx.begin() + static_cast<std::ptrdiff_t>(drain));
    queue_idx.erase(queue_idx.begin(),
                    queue_idx.begin() + static_cast<std::ptrdiff_t>(drain));

    const bool final_tick = next >= events.size() && queue.empty();
    // L2+: halve the analysis cadence (every other tick covers a doubled
    // batch).  The final tick always analyzes so nothing is left behind.
    const bool analyze_now =
        st.shed_level < 2 || final_tick || stats.ticks % 2 == 0;
    if (analyze_now) {
      for (Incident& inc : pipeline_.AnalyzeWindow(window)) {
        // seen_stems stays sorted: the STEM section's order.
        const auto seen = std::lower_bound(
            st.seen_stems.begin(), st.seen_stems.end(), inc.stem_key);
        if (seen != st.seen_stems.end() && *seen == inc.stem_key) continue;
        st.seen_stems.insert(seen, inc.stem_key);
        inc.detected_at = tick_end;
        inc.detection_latency_sec = util::ToSeconds(tick_end - inc.begin);
        for (const LiveGap& gap : st.gaps) {
          const util::SimTime gap_end = gap.closed ? gap.end : tick_end;
          if (inc.begin <= gap_end && gap.begin <= inc.end) {
            inc.feed_degraded = true;
            inc.summary += " [feed-degraded]";
            break;
          }
        }
        for (const ShedWindow& w : st.shed_windows) {
          const util::SimTime w_end = w.closed ? w.end : tick_end;
          if (inc.begin <= w_end && w.begin <= inc.end) {
            inc.load_shed = true;
            inc.summary += " [load-shed]";
            break;
          }
        }
        reg.Observe(latency_id, inc.detection_latency_sec);
        ++st.latency_counts[DetectionLatencyBucket(
            latency_bounds, inc.detection_latency_sec)];
        reg.Add(incidents_id, 1);
        ++stats.incidents;
        if (inc.detection_latency_sec <= options_.slo_target_sec) {
          ++stats.incidents_within_slo;
        }
        if (provenance_ != nullptr) {
          // Build the evidence record now, after the stem dedup:
          // AnalyzeWindow re-derives every component each tick, so
          // populating inside the pipeline would pay the string-heavy
          // sampling for mostly already-seen incidents.  Then finish
          // the window-relative record: key it to the log seq, rewrite
          // sampled event ids to stream indices (live windows never
          // contain markers, so component indices map 1:1 through
          // window_idx), stamp per-event admission from the shed
          // windows, and add the sim-time latency decomposition plus
          // the live.tick trace-exemplar linkage.  Everything here is
          // a pure function of the replayed stream, so the ledger
          // inherits the thread- and restart-determinism contract.
          Pipeline::PopulateProvenance(window, provenance_->caps(), inc);
          obs::IncidentProvenance prov = std::move(inc.provenance);
          prov.seq = st.incidents.size() + 1;
          prov.trace_tick =
              static_cast<std::uint64_t>((tick_end - t0) / options_.tick);
          prov.path.insert(prov.path.begin(),
                           "live:tick " + std::to_string(prov.trace_tick));
          for (obs::ProvenanceEvent& pe : prov.events) {
            const std::size_t widx = static_cast<std::size_t>(pe.stream_index);
            pe.stream_index = window_idx[widx];
            const util::SimTime t = window[widx].time;
            for (const ShedWindow& w : st.shed_windows) {
              const util::SimTime w_end = w.closed ? w.end : tick_end;
              if (w.begin <= t && t <= w_end) {
                pe.admission = 1;
                break;
              }
            }
          }
          prov.stages = {{"burst-to-ingest",
                          util::ToSeconds(inc.ingest_tick - inc.begin)},
                         {"ingest-to-detect",
                          util::ToSeconds(tick_end - inc.ingest_tick)},
                         {"total", inc.detection_latency_sec}};
          provenance_->Attach(std::move(prov));
        }
        // Log only what INCD persists, so a restored log equals an
        // uninterrupted one; the component indexes a window that slides
        // on by the next tick.
        inc.provenance = {};
        inc.component = {};
        inc.evidence = {};
        st.incidents.push_back(
            IncidentLog::Entry{st.incidents.size() + 1, inc});
        if (incidents_ != nullptr) incidents_->Append(std::move(inc));
      }
      if (stats.incidents > 0) {
        reg.Set(slo_id, static_cast<double>(stats.incidents_within_slo) /
                            static_cast<double>(stats.incidents));
      }
    }

    ++stats.ticks;
    stats.clock = tick_end;
    stats.shed_level = st.shed_level;
    stats.queue_depth = queue.size();
    reg.Add(ticks_id, 1);
    reg.Set(position_id, util::ToSeconds(tick_end));
    reg.Set(depth_id, static_cast<double>(queue.size()));
    reg.Set(level_id, static_cast<double>(st.shed_level));
    reg.Set(suppressed_id, static_cast<double>(util::SuppressedLogLines()));
    if (health_ != nullptr) health_->Heartbeat(replay_id);
    sync_health_gauges();
    // Sample the registry into the dashboard history at the boundary —
    // after every metric for this tick has landed and before any
    // checkpoint is cut, so each snapshot carries its own tick's point.
    if (series_ != nullptr) series_->Sample(reg, tick_end);

    if (checkpointing && stats.ticks >= next_checkpoint_tick) {
      // Cut this tick's snapshot before waiting on the previous write, so
      // the encode overlaps that write's disk time.  The snapshot is
      // enqueued only if the pending write (if any) landed, so it counts
      // that write as landed — the value the reap below then records.
      stats.checkpoint_writes += write_pending ? 1 : 0;
      cut_checkpoint();
      stats.checkpoint_writes -= write_pending ? 1 : 0;
      const std::optional<bool> previous = reap_checkpoint();
      write_pending = false;
      if (previous.has_value()) {
        if (*previous) {
          ++stats.checkpoint_writes;
          retry_backoff = 0;
        } else {
          ++stats.checkpoint_failures;
        }
      }
      if (!previous.has_value() || *previous) {
        enqueue_checkpoint();
        write_pending = true;
        next_checkpoint_tick = stats.ticks + options_.checkpoint_every_ticks;
      } else {
        // Keep analyzing; retry with exponential backoff so a full disk
        // does not turn the daemon into a log firehose.
        retry_backoff =
            retry_backoff == 0
                ? 1
                : std::min(retry_backoff * 2,
                           kCheckpointRetryMaxBackoffTicks);
        next_checkpoint_tick = stats.ticks + retry_backoff;
        RANOMALY_LOG_EVERY_N(
            util::LogLevel::kWarn, 4,
            util::StrPrintf("checkpoint write to %s failed at tick %llu; "
                            "retrying in %llu ticks",
                            options_.checkpoint_path.c_str(),
                            static_cast<unsigned long long>(stats.ticks),
                            static_cast<unsigned long long>(retry_backoff)));
      }
    }

    if (on_tick) on_tick(stats);
    if (final_tick) {
      complete = true;
      break;
    }
    tick_end += options_.tick;
  }

  if (health_ != nullptr && complete) {
    // The replay is done: it no longer makes progress, so stall detection
    // must stop accusing it.
    health_->SetHeartbeatDeadline(replay_id, 0.0);
    health_->SetState(replay_id, obs::HealthState::kOk, "replay complete");
    sync_health_gauges();
  }
  // Final checkpoint: the graceful-drain contract (and completion) leave
  // the last tick boundary durable.  Settle the in-flight background
  // write first, then write synchronously — a handful of attempts rides
  // out a transient fault; past that the stream replay is the fallback.
  if (checkpointing) {
    if (const std::optional<bool> previous = reap_checkpoint();
        previous.has_value()) {
      if (*previous) {
        ++stats.checkpoint_writes;
      } else {
        ++stats.checkpoint_failures;
      }
    }
    if (stats.ticks > 0) {
      bool durable = false;
      for (int attempt = 0; attempt < 3 && !durable; ++attempt) {
        durable = write_checkpoint();
      }
      if (!durable) {
        RANOMALY_LOG(util::LogLevel::kError,
                     util::StrPrintf("final checkpoint write to %s failed; a "
                                     "restart will replay from the last "
                                     "durable snapshot",
                                     options_.checkpoint_path.c_str()));
      }
    }
    {
      std::lock_guard<std::mutex> lock(ck_mu);
      ck_stop = true;
      ck_cv.notify_all();
    }
    ck_writer.join();
  }
  if (st.tracer_suspended) {
    // Leave the tracer as the caller configured it, not as overload left it.
    obs::Tracer::Global().SetEnabled(st.tracer_was_enabled);
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Ops handler

obs::HttpServer::Handler MakeOpsHandler(obs::MetricsRegistry* metrics,
                                        obs::HealthRegistry* health,
                                        IncidentLog* incidents, OpsInfo info,
                                        obs::TimeSeriesStore* series,
                                        bool dashboard,
                                        obs::ProvenanceLedger* provenance) {
  metrics->SetHelp("http_requests_total",
                   "HTTP requests whose handler ran (any status).");
  metrics->SetHelp("http_requests_rejected_total",
                   "HTTP requests rejected at the protocol level.");
  return [metrics, health, incidents, info = std::move(info), series,
          dashboard,
          provenance](const obs::HttpRequest& request) -> obs::HttpResponse {
    obs::HttpResponse response;
    if (request.path == "/metrics") {
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      response.body = metrics->ToPrometheus();
    } else if (request.path == "/varz") {
      std::string body = util::StrPrintf(
          "{\"build\":{\"project\":\"ranomaly\"},"
          "\"config\":{\"stream\":\"%s\","
          "\"tick_sec\":%.3f,\"window_sec\":%.3f,\"slo_target_sec\":%.3f,"
          "\"checkpoint\":\"%s\",\"queue_capacity\":%zu},",
          obs::JsonEscape(info.stream_path).c_str(), info.tick_sec,
          info.window_sec, info.slo_target_sec,
          obs::JsonEscape(info.checkpoint_path).c_str(), info.queue_capacity);
      body += "\"health\":{";
      if (health != nullptr) {
        const obs::HealthRegistry::Aggregate agg = health->Aggregated();
        body += util::StrPrintf("\"state\":\"%s\",\"reason\":\"%s\","
                                "\"components\":[",
                                obs::ToString(agg.state),
                                obs::JsonEscape(agg.reason).c_str());
        bool first = true;
        for (const auto& c : health->Snapshot()) {
          if (!first) body += ',';
          first = false;
          body += util::StrPrintf(
              "{\"name\":\"%s\",\"state\":\"%s\",\"reason\":\"%s\","
              "\"heartbeat_age_sec\":%.3f}",
              obs::JsonEscape(c.name).c_str(), obs::ToString(c.state),
              obs::JsonEscape(c.reason).c_str(), c.heartbeat_age_sec);
        }
        body += ']';
      } else {
        body += "\"state\":\"ok\",\"reason\":\"\",\"components\":[]";
      }
      body += util::StrPrintf(
          "},\"incidents_logged\":%zu,\"metrics\":",
          incidents == nullptr ? std::size_t{0} : incidents->size());
      body += obs::ToVarzJson(metrics->Snapshot(), metrics->HelpSnapshot());
      body += '}';
      response.content_type = "application/json";
      response.body = std::move(body);
    } else if (request.path == "/healthz") {
      // Liveness: a process that can answer this is alive by definition.
      response.body = "ok\n";
    } else if (request.path == "/readyz") {
      obs::HealthRegistry::Aggregate agg;
      if (health != nullptr) agg = health->Aggregated();
      if (agg.state == obs::HealthState::kOk) {
        response.body = "ok\n";
      } else {
        response.status = 503;
        response.body = util::StrPrintf("%s: %s\n", obs::ToString(agg.state),
                                        agg.reason.c_str());
      }
    } else if (request.path == "/incidents") {
      std::uint64_t since = 0;
      if (const auto param = request.QueryParam("since")) {
        // strtoull would silently accept leading whitespace and signs
        // (a negative wraps to a huge cursor that hides every incident)
        // and saturates on overflow; ParseU64 is digits-only and
        // overflow-checked, so every malformed cursor is a loud 400.
        if (!util::ParseU64(*param, since)) {
          response.status = 400;
          response.body = "bad since parameter: want a non-negative integer\n";
          return response;
        }
      }
      response.content_type = "application/json";
      response.body = incidents == nullptr ? "{\"incidents\":[],\"next_since\":0}"
                                           : incidents->ToJson(since);
    } else if (request.path == "/api/series") {
      if (series == nullptr) {
        response.status = 404;
        response.body = "no time-series store attached to this server\n";
        return response;
      }
      // Tier resolutions and `since` cursors travel as whole simulated
      // seconds; every shipped tier is a whole number of them.
      std::int64_t res_us = series->options().tiers.empty()
                                ? util::kSecond
                                : series->options().tiers.front().resolution_us;
      if (const auto res = request.QueryParam("res")) {
        std::uint64_t sec = 0;
        if (!util::ParseU64(*res, sec) || sec == 0 ||
            !series->HasTier(static_cast<std::int64_t>(sec) * util::kSecond)) {
          response.status = 400;
          response.body =
              "bad res parameter: want a tier resolution in seconds (GET "
              "/api/series lists the tiers)\n";
          return response;
        }
        res_us = static_cast<std::int64_t>(sec) * util::kSecond;
      }
      std::int64_t since_us = -1;
      if (const auto since = request.QueryParam("since")) {
        std::uint64_t sec = 0;
        if (!util::ParseU64(*since, sec)) {
          response.status = 400;
          response.body =
              "bad since parameter: want a non-negative integer of seconds\n";
          return response;
        }
        since_us = static_cast<std::int64_t>(sec) * util::kSecond;
      }
      const auto name = request.QueryParam("name");
      if (!name.has_value()) {
        response.content_type = "application/json";
        response.body = series->ListJson();
      } else if (auto body = series->SeriesJson(*name, res_us, since_us)) {
        response.content_type = "application/json";
        response.body = std::move(*body);
      } else {
        response.status = 404;
        response.body = "unknown series; GET /api/series lists the names\n";
      }
    } else if (request.path == "/api/incidents/timeline") {
      std::uint64_t since = 0;
      if (const auto param = request.QueryParam("since")) {
        // Same digits-only contract as /incidents and /api/series: a
        // malformed cursor is a loud 400, never a silently empty page.
        if (!util::ParseU64(*param, since)) {
          response.status = 400;
          response.body = "bad since parameter: want a non-negative integer\n";
          return response;
        }
      }
      std::string body =
          "{\"t0_sec\":" + obs::JsonDouble(util::ToSeconds(info.t0)) +
          ",\"tick_sec\":" + obs::JsonDouble(util::ToSeconds(info.tick)) +
          ",\"incidents\":[";
      bool first = true;
      if (incidents != nullptr) {
        for (const IncidentLog::Entry& e : incidents->Since(since)) {
          const Incident& inc = e.incident;
          if (!first) body += ',';
          first = false;
          // The exemplar points at the replay tick whose boundary
          // surfaced this incident: detected_at always sits on the tick
          // grid, so the index (and the `live.tick` slice carrying it as
          // an annotation) is exact, not a nearest-neighbor guess.
          const std::int64_t tick_index =
              info.tick > 0 ? (inc.detected_at - info.t0) / info.tick : 0;
          body += util::StrPrintf(
              "{\"seq\":%llu,\"kind\":\"%s\",\"begin_sec\":%s,"
              "\"end_sec\":%s,\"detected_at_sec\":%s,"
              "\"detection_latency_sec\":%s,\"stem\":\"%s\","
              "\"top_sequence\":\"%s\",\"summary\":\"%s\","
              "\"feed_degraded\":%s,\"load_shed\":%s,"
              "\"exemplar\":{\"span\":\"live.tick\",\"tick\":%lld}}",
              static_cast<unsigned long long>(e.seq), ToString(inc.kind),
              obs::JsonDouble(util::ToSeconds(inc.begin)).c_str(),
              obs::JsonDouble(util::ToSeconds(inc.end)).c_str(),
              obs::JsonDouble(util::ToSeconds(inc.detected_at)).c_str(),
              obs::JsonDouble(inc.detection_latency_sec).c_str(),
              obs::JsonEscape(inc.stem_label).c_str(),
              obs::JsonEscape(inc.top_sequence).c_str(),
              obs::JsonEscape(inc.summary).c_str(),
              inc.feed_degraded ? "true" : "false",
              inc.load_shed ? "true" : "false",
              static_cast<long long>(tick_index));
        }
      }
      body += "],\"next_since\":" +
              std::to_string(incidents == nullptr ? std::size_t{0}
                                                  : incidents->size()) +
              "}";
      response.content_type = "application/json";
      response.body = std::move(body);
    } else if (request.path.size() > 24 &&
               request.path.starts_with("/api/incidents/") &&
               request.path.ends_with("/evidence")) {
      // /api/incidents/<id>/evidence — the provenance ledger's record.
      const std::string_view id_text =
          std::string_view(request.path).substr(15, request.path.size() - 24);
      std::uint64_t id = 0;
      if (!util::ParseU64(id_text, id)) {
        response.status = 400;
        response.body = "bad incident id: want a non-negative integer\n";
        return response;
      }
      if (provenance == nullptr) {
        response.status = 404;
        response.body = "no provenance ledger attached to this server\n";
        return response;
      }
      if (auto body = provenance->EvidenceJson(id)) {
        response.content_type = "application/json";
        response.body = std::move(*body);
      } else {
        response.status = 404;
        response.body = "unknown incident (or its evidence was evicted); "
                        "GET /api/incidents/timeline lists the log\n";
      }
    } else if (dashboard && request.path == "/dashboard") {
      response.content_type = "text/html; charset=utf-8";
      response.body = obs::DashboardHtml();
    } else {
      response.status = 404;
      response.body = "not found; try /metrics /varz /healthz /readyz "
                      "/incidents?since=N /api/series "
                      "/api/incidents/timeline "
                      "/api/incidents/<id>/evidence\n";
    }
    return response;
  };
}

}  // namespace ranomaly::core
