// The real-time analysis pipeline: event stream -> spike windows ->
// Stemming -> classified incidents.
//
// This is the deployment shape the paper describes (Section III-B and V):
// spikes found by the rate detector are stemmed at spike timescale, and a
// long-window pass catches the low-grade anomalies that never spike —
// the Section IV-E "grass" and the IV-F single-prefix oscillation, which
// dominate correlation over hours even though they are rate-invisible.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "collector/event_stream.h"
#include "core/incident.h"
#include "stemming/stemming.h"
#include "util/thread_pool.h"

namespace ranomaly::core {

struct PipelineOptions {
  // Spike detection (Fig 8 style).
  util::SimDuration spike_bucket = util::kMinute;
  double spike_factor = 5.0;
  stemming::StemmingOptions stemming;
  // Components claiming less than this fraction of a window are noise.
  double min_component_fraction = 0.02;
  // Report components that classify as kUnknown (strong correlation with
  // no anomaly signature — usually shared-path mass, not an incident).
  bool include_unknown = false;
  // Worker threads for the analysis fan-out (spike windows run
  // concurrently; the stemming recursion chunks its scans).  0 means
  // util::ThreadPool::DefaultThreadCount(), i.e. RANOMALY_THREADS or the
  // hardware.  Results are bit-identical for every value.
  std::size_t threads = 0;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options = {});
  ~Pipeline();

  // Full analysis: spike windows first (concurrently when the pipeline
  // has threads; incidents merge in spike order, so results are
  // bit-identical to serial), then the long-window pass over the grass;
  // incidents are deduplicated by stem.  The per-stage perf breakdown
  // (events encoded, symbols interned, bigram table sizes, wall seconds
  // per stage) accumulates on obs::MetricsRegistry::Global() under the
  // pipeline_* and stemming_* names (docs/OBSERVABILITY.md).
  std::vector<Incident> Analyze(const collector::EventStream& stream) const;

  // Stems and classifies one window.  Consecutive calls whose windows
  // overlap (a live loop's sliding window) reuse the previous call's
  // encoding: only events that entered or left the window are encoded
  // (DESIGN.md "Sliding-window stemming").  The result is the same as
  // stemming the whole window.  The reused state sits behind a mutex:
  // concurrent callers take turns.
  std::vector<Incident> AnalyzeWindow(
      std::span<const bgp::Event> events) const;

  // Evidence extraction & classification (exposed for tests/benches).
  // ExtractEvidence reads the component's events in the order of its
  // event_indices, which the stemmer lists ascending (window order).
  static IncidentEvidence ExtractEvidence(
      std::span<const bgp::Event> events,
      const stemming::Component& component);
  static IncidentKind Classify(const IncidentEvidence& evidence,
                               std::size_t prefix_count);

  // Builds Incident::provenance (sampled contributing events, stem
  // classes, correlation path) for the provenance ledger, bounded by
  // `caps`.  Not called during analysis: AnalyzeWindow re-derives every
  // component each tick and the live runner discards already-seen
  // stems, so the (string-heavy) evidence build runs only for the
  // incidents that survive dedup — the caller invokes this after.
  static void PopulateProvenance(std::span<const bgp::Event> events,
                                 const obs::ProvenanceCaps& caps,
                                 Incident& inc);

  const PipelineOptions& options() const { return options_; }

 private:
  struct Sliding;

  // Stems the routing events of one window with `stem` (a callable
  // from the events to a stemming::StemmingResult) and classifies its
  // components.  AnalyzeWindow's `stem` slides; Analyze's spike and
  // grass windows stand alone, so theirs is one-shot stemming::Stem.
  template <typename StemFn>
  std::vector<Incident> StemAndClassify(std::span<const bgp::Event> events,
                                        const StemFn& stem) const;
  Incident MakeIncident(std::span<const bgp::Event> events,
                        const stemming::StemmingResult& result,
                        stemming::Component&& component) const;

  PipelineOptions options_;
  // Shared by the stemming recursion's chunked passes and the
  // spike-window fan-out.  Always created: a one-thread pool spawns no
  // workers and runs inline, so the fan-out takes the same instrumented
  // path at every thread count.
  std::unique_ptr<util::ThreadPool> pool_;
  // AnalyzeWindow's sliding stemmer and the mutex guarding it.
  std::unique_ptr<Sliding> sliding_;
};

}  // namespace ranomaly::core
