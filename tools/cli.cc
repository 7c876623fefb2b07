#include "tools/cli.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "collector/binary_io.h"
#include "collector/event_stream.h"
#include "core/live.h"
#include "core/moas.h"
#include "core/pipeline.h"
#include "obs/health.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "tamp/animation.h"
#include "tamp/layout.h"
#include "tamp/prune.h"
#include "tamp/render.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "workload/internet_scale.h"

namespace ranomaly::tools {
namespace {

constexpr int kOk = 0;
constexpr int kFailure = 1;
constexpr int kUsage = 2;

const char* kUsageText = R"(usage: ranomaly <command> [options]

commands:
  analyze <stream> [--spike-bucket-sec N] [--spike-factor F] [--include-unknown]
  picture <stream> --out FILE.svg [--dot FILE.dot] [--threshold PCT]
                   [--hierarchical] [--title TEXT]
  animate <stream> --out-dir DIR [--every N] [--smil FILE.svg]
  convert <in> <out> --to text|binary
  moas    <stream>
  stats   <stream> [--analyze]
  metrics <stream> [--prom]
  serve   <stream> [--port N] [--tick-sec S] [--window-sec S] [--slo-sec S]
                   [--pace-ms M] [--watchdog-sec S] [--exit-after-replay]
                   [--checkpoint FILE] [--checkpoint-every-ticks N]
                   [--queue-capacity N] [--service-rate N] [--dashboard]
  series  <stream> [--name NAME] [--res SEC] [--since SEC]
                   [--tick-sec S] [--window-sec S] [--slo-sec S]
                   [--queue-capacity N] [--service-rate N]
  explain <stream> --incident N [--tick-sec S] [--window-sec S] [--slo-sec S]
                   [--queue-capacity N] [--service-rate N]
  peers   <stream>
  internet --out FILE [--format text|binary] [--relationships FILE]
           [--save-relationships FILE] [--ases N] [--prefixes N] [--peers N]
           [--seed N] [--flap-fraction F] [--threads N]
  trace   --out FILE.json [--jsonl FILE.jsonl] [--] <command> [options]

stream files use the text (one event per line) or binary (RNE1) format;
the format is detected automatically.  A command refuses any --flag not
listed for it above.

stats --analyze also runs the analysis pipeline and reports where the
time goes (events encoded, symbols interned, bigram table sizes, wall
seconds per stage); thread count follows RANOMALY_THREADS.

metrics runs the full pipeline over the stream and dumps every metric
on the process registry — aligned text by default, Prometheus
exposition format with --prom (docs/OBSERVABILITY.md lists the names).

serve replays the stream through the analysis pipeline in --tick-sec
batches over a sliding --window-sec window and exposes the operations
endpoints on 127.0.0.1 (--port 0 picks an ephemeral port, printed on
startup): /metrics /varz /healthz /readyz /incidents?since=N, plus the
dashboard history endpoints /api/series?name=&res=&since=,
/api/incidents/timeline?since=N, and the per-incident evidence drill-down
/api/incidents/<id>/evidence.  --dashboard additionally serves the embedded
single-file HTML operations dashboard at /dashboard (sparklines,
degradation ladder, SLO percentiles, peer health, incident timeline —
no external resources, docs/OBSERVABILITY.md).  --pace-ms
sleeps that many wall milliseconds per simulated tick; after the replay
the server keeps answering until SIGINT/SIGTERM unless
--exit-after-replay is given (docs/OBSERVABILITY.md, Operations).
--checkpoint FILE makes the daemon crash-safe: it restores the full
analysis state from FILE at startup (if present and valid) and persists
it there every --checkpoint-every-ticks ticks plus once on exit, so a
killed daemon resumes with a bit-identical incident stream.
--queue-capacity N bounds the ingest queue and arms the overload
degradation ladder; --service-rate caps events analyzed per tick.
SIGTERM drains gracefully: /readyz flips false, the in-flight tick
finishes, the final checkpoint is cut, and the process exits 0
(docs/FORMATS.md, docs/OBSERVABILITY.md).

internet builds the internet-scale workload: it loads --relationships
(CAIDA serial-2 "asn1|asn2|rel" text) or synthesizes a topology of
--ases ASes, propagates routes Gao-Rexford-style to --peers monitored
vantages, and writes the resulting table-dump + churn event stream to
--out (binary RNE1 by default).  --save-relationships writes the
(possibly generated) serial-2 edges back out; the stream is
bit-identical at any RANOMALY_THREADS (docs/FORMATS.md, Serial-2).

series replays the stream offline through the same tick replay `serve`
runs and prints the retained dashboard history as JSON — the store
inventory by default, or one series with --name (--res picks a
downsample tier in seconds, --since drops points at or before that
simulated second).  Given the same --tick-sec/--window-sec/--slo-sec/
--queue-capacity/--service-rate, the output is byte-identical to what a
`serve` of the same stream answers on /api/series, at any
RANOMALY_THREADS.

explain replays the stream offline through the same tick replay `serve`
runs and prints the provenance evidence for incident --incident N — the
sampled contributing raw events, the stem classes involved, the
correlation path, and the per-stage detection timings — as JSON.  Pass
the same --tick-sec/--window-sec/--slo-sec/--queue-capacity/
--service-rate a `serve` of the stream used and the output is
byte-identical to that server's /api/incidents/N/evidence, at any
RANOMALY_THREADS (docs/OBSERVABILITY.md, Explaining incidents).

peers prints the per-peer feed scoreboard (state, uptime, reconnects,
gaps) computed from the stream's GAP/SYNC markers — the same health
facts `serve` exposes on /readyz.

trace runs any other command with span tracing enabled and writes
Chrome trace_event JSON (load at https://ui.perfetto.dev) to --out,
plus an optional JSONL stream to --jsonl.  The files are finalized via
atomic rename, and SIGINT/SIGTERM flushes them before exiting, so an
interrupted run still yields a loadable trace.
)";

// Simple flag parser: positionals + --key value + --bool-flag.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  std::vector<std::string> flags;

  bool HasFlag(const std::string& name) const {
    return std::find(flags.begin(), flags.end(), name) != flags.end();
  }
  std::optional<std::string> Option(const std::string& name) const {
    const auto it = options.find(name);
    if (it == options.end()) return std::nullopt;
    return it->second;
  }
};

// A command and what it accepts after its name: `options` take a value,
// `flags` take none.
struct Command {
  std::string_view name;
  int (*run)(const Args&, std::ostream&, std::ostream&);
  std::vector<std::string_view> options;
  std::vector<std::string_view> flags;
};

// Any "--" argument `command` does not accept is refused, so a misspelt
// option is never dropped and a misspelt flag never takes the argument
// after it as its value.
std::optional<Args> ParseArgs(const std::vector<std::string>& argv,
                              const Command& command, std::ostream& err) {
  const auto accepts = [](const std::vector<std::string_view>& names,
                          const std::string& a) {
    return std::find(names.begin(), names.end(), a) != names.end();
  };
  Args args;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a.rfind("--", 0) != 0) {
      args.positional.push_back(a);
    } else if (accepts(command.flags, a)) {
      args.flags.push_back(a);
    } else if (!accepts(command.options, a)) {
      err << command.name << ": unknown flag " << a << "\n";
      return std::nullopt;
    } else if (i + 1 >= argv.size()) {
      err << "missing value for " << a << "\n";
      return std::nullopt;
    } else {
      args.options[a] = argv[++i];
    }
  }
  return args;
}

std::optional<collector::EventStream> LoadStream(const std::string& path,
                                                 std::ostream& err) {
  obs::TraceSpan span("cli.load_stream");
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err << "cannot open " << path << "\n";
    return std::nullopt;
  }
  // Binary streams start with the RNE1 magic; otherwise assume text.
  char magic[4] = {};
  in.read(magic, 4);
  in.clear();
  in.seekg(0);
  std::optional<collector::EventStream> stream;
  if (std::string_view(magic, 4) == "RNE1") {
    collector::LoadDiagnostics diag;
    stream = collector::LoadBinary(in, diag);
    if (!stream) {
      err << "parse error in " << path << ": " << diag.ToString() << "\n";
    }
  } else {
    stream = collector::EventStream::LoadText(in);
    if (!stream) err << "parse error in " << path << "\n";
  }
  return stream;
}

double ParseDouble(const std::string& s, double fallback) {
  try {
    return std::stod(s);
  } catch (...) {
    return fallback;
  }
}

int CmdAnalyze(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "analyze: expected one stream file\n";
    return kUsage;
  }
  const auto stream = LoadStream(args.positional[1], err);
  if (!stream) return kFailure;

  core::PipelineOptions options;
  if (const auto v = args.Option("--spike-bucket-sec")) {
    options.spike_bucket =
        static_cast<util::SimDuration>(ParseDouble(*v, 60.0)) * util::kSecond;
  }
  if (const auto v = args.Option("--spike-factor")) {
    options.spike_factor = ParseDouble(*v, 5.0);
  }
  options.include_unknown = args.HasFlag("--include-unknown");

  out << "stream: " << stream->size() << " events over "
      << util::FormatDuration(stream->TimeRange()) << "\n";
  const auto spikes = collector::DetectSpikes(*stream, options.spike_bucket,
                                              options.spike_factor);
  out << "spikes: " << spikes.size() << "\n";

  const core::Pipeline pipeline(options);
  const auto incidents = pipeline.Analyze(*stream);
  out << "incidents: " << incidents.size() << "\n";
  for (const auto& incident : incidents) {
    out << "  " << incident.summary << "\n";
    out << "    s' = [" << incident.top_sequence << "]\n";
  }
  return kOk;
}

int CmdPicture(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "picture: expected one stream file\n";
    return kUsage;
  }
  const auto svg_path = args.Option("--out");
  if (!svg_path) {
    err << "picture: --out FILE.svg is required\n";
    return kUsage;
  }
  const auto stream = LoadStream(args.positional[1], err);
  if (!stream) return kFailure;

  tamp::Animator animator({}, tamp::AnimationOptions{});
  animator.Play(stream->events());

  tamp::PruneOptions prune;
  prune.threshold = ParseDouble(args.Option("--threshold").value_or("5"), 5.0) /
                    100.0;
  if (args.HasFlag("--hierarchical")) {
    prune.depth_thresholds = {0.0, 0.0, 0.0, 0.0, prune.threshold};
  }
  const auto pruned = tamp::Prune(animator.graph(), prune);
  const auto layout = tamp::ComputeLayout(pruned);
  tamp::RenderOptions render;
  render.title = args.Option("--title").value_or(args.positional[1]);

  std::ofstream svg(*svg_path);
  if (!svg) {
    err << "cannot write " << *svg_path << "\n";
    return kFailure;
  }
  svg << tamp::RenderSvg(pruned, layout, render);
  out << "wrote " << *svg_path << " (" << pruned.nodes.size() << " nodes, "
      << pruned.edges.size() << " edges, " << pruned.total_prefixes
      << " prefixes)\n";

  if (const auto dot_path = args.Option("--dot")) {
    std::ofstream dot(*dot_path);
    if (!dot) {
      err << "cannot write " << *dot_path << "\n";
      return kFailure;
    }
    dot << tamp::RenderDot(pruned, render);
    out << "wrote " << *dot_path << "\n";
  }
  return kOk;
}

int CmdAnimate(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "animate: expected one stream file\n";
    return kUsage;
  }
  const auto dir = args.Option("--out-dir");
  if (!dir) {
    err << "animate: --out-dir DIR is required\n";
    return kUsage;
  }
  const std::size_t every = static_cast<std::size_t>(
      ParseDouble(args.Option("--every").value_or("25"), 25.0));
  if (every == 0) {
    err << "animate: --every must be >= 1\n";
    return kUsage;
  }
  const auto stream = LoadStream(args.positional[1], err);
  if (!stream) return kFailure;

  std::error_code ec;
  std::filesystem::create_directories(*dir, ec);
  if (ec) {
    err << "cannot create " << *dir << ": " << ec.message() << "\n";
    return kFailure;
  }

  // For the SMIL output we need the final structure up front: replay once
  // to learn it, then track those edges in the real pass.
  std::vector<tamp::EdgeKey> smil_edges;
  tamp::PrunedGraph smil_pruned;
  const auto smil_path = args.Option("--smil");
  if (smil_path) {
    tamp::Animator scout({}, tamp::AnimationOptions{});
    scout.Play(stream->events());
    smil_pruned = tamp::Prune(scout.graph(), {.threshold = 0.05});
    for (const auto& e : smil_pruned.edges) {
      smil_edges.push_back(tamp::EdgeKey{smil_pruned.nodes[e.from].id,
                                         smil_pruned.nodes[e.to].id});
    }
  }

  tamp::Animator animator({}, tamp::AnimationOptions{});
  animator.TrackEdges(smil_edges);
  std::size_t written = 0;
  bool write_failed = false;
  animator.Play(stream->events(), [&](std::size_t frame,
                                      const tamp::Animator::FrameStats& stats) {
    if (frame % every != 0) return;
    const auto pruned = tamp::Prune(animator.graph(), {.threshold = 0.05});
    const auto layout = tamp::ComputeLayout(pruned);
    const std::string path =
        *dir + util::StrPrintf("/frame_%04zu.svg", frame);
    std::ofstream file(path);
    if (!file) {
      write_failed = true;
      return;
    }
    file << tamp::RenderAnimationFrameSvg(
        pruned, layout, animator.DecorationsFor(pruned), stats.clock,
        std::nullopt);
    ++written;
  });
  if (write_failed) {
    err << "failed writing frames under " << *dir << "\n";
    return kFailure;
  }
  out << "wrote " << written << " frames to " << *dir << "\n";

  if (smil_path) {
    std::vector<std::vector<std::size_t>> series;
    for (const auto& key : smil_edges) {
      series.push_back(animator.SeriesFor(key));
    }
    const auto layout = tamp::ComputeLayout(smil_pruned);
    std::ofstream file(*smil_path);
    if (!file) {
      err << "cannot write " << *smil_path << "\n";
      return kFailure;
    }
    file << tamp::RenderAnimatedSvg(smil_pruned, layout, series, 30.0,
                                    {.title = args.positional[1]});
    out << "wrote " << *smil_path << " (SMIL loop)\n";
  }
  return kOk;
}

int CmdConvert(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 3) {
    err << "convert: expected input and output files\n";
    return kUsage;
  }
  const auto to = args.Option("--to");
  if (!to || (*to != "text" && *to != "binary")) {
    err << "convert: --to text|binary is required\n";
    return kUsage;
  }
  const auto stream = LoadStream(args.positional[1], err);
  if (!stream) return kFailure;
  std::ofstream file(args.positional[2], std::ios::binary);
  if (!file) {
    err << "cannot write " << args.positional[2] << "\n";
    return kFailure;
  }
  if (*to == "text") {
    stream->SaveText(file);
  } else if (!collector::SaveBinary(*stream, file)) {
    err << "write error on " << args.positional[2] << "\n";
    return kFailure;
  }
  out << "wrote " << stream->size() << " events to " << args.positional[2]
      << " (" << *to << ")\n";
  return kOk;
}

int CmdInternet(const Args& args, std::ostream& out, std::ostream& err) {
  const auto out_path = args.Option("--out");
  if (!out_path) {
    err << "internet: --out FILE is required\n";
    return kUsage;
  }
  const auto format = args.Option("--format").value_or("binary");
  if (format != "text" && format != "binary") {
    err << "internet: --format text|binary\n";
    return kUsage;
  }

  workload::InternetScaleOptions options;
  if (const auto v = args.Option("--relationships")) options.relationships_path = *v;
  const auto size_opt = [&](const char* flag, std::size_t& field) -> bool {
    const auto v = args.Option(flag);
    if (!v) return true;
    std::uint64_t parsed = 0;
    if (!util::ParseU64(*v, parsed)) {
      err << "internet: " << flag << " wants a non-negative integer, got '"
          << *v << "'\n";
      return false;
    }
    field = static_cast<std::size_t>(parsed);
    return true;
  };
  std::size_t seed = options.seed;
  if (!size_opt("--ases", options.as_count) ||
      !size_opt("--prefixes", options.prefix_count) ||
      !size_opt("--peers", options.monitored_peer_count) ||
      !size_opt("--threads", options.threads) || !size_opt("--seed", seed)) {
    return kUsage;
  }
  // Checked before BuildInternetScale spawns a pool of that size.
  if (options.threads > util::ThreadPool::kMaxThreads) {
    err << "internet: --threads is at most " << util::ThreadPool::kMaxThreads
        << ", got " << options.threads << "\n";
    return kUsage;
  }
  options.seed = seed;
  if (const auto v = args.Option("--flap-fraction")) {
    options.flap_fraction = ParseDouble(*v, options.flap_fraction);
  }

  std::string error;
  const auto result = workload::BuildInternetScale(options, &error);
  if (!result) {
    err << "internet: " << error << "\n";
    return kFailure;
  }

  if (const auto rel_out = args.Option("--save-relationships")) {
    if (!options.relationships_path.empty()) {
      err << "internet: --save-relationships only applies to generated "
             "topologies\n";
      return kUsage;
    }
    // Round-trippable: reloading this file with --relationships rebuilds
    // the same graph (the generator is only needed once).
    const auto edges = workload::GenerateTopology(options);
    std::ofstream rel_file(*rel_out);
    if (!rel_file) {
      err << "cannot write " << *rel_out << "\n";
      return kFailure;
    }
    workload::WriteSerial2(rel_file, edges);
  }

  std::ofstream file(*out_path, std::ios::binary);
  if (!file) {
    err << "cannot write " << *out_path << "\n";
    return kFailure;
  }
  if (format == "text") {
    result->stream.SaveText(file);
  } else if (!collector::SaveBinary(result->stream, file)) {
    err << "write error on " << *out_path << "\n";
    return kFailure;
  }
  out << result->Summary() << "\n";
  for (const auto& v : result->vantages) {
    out << "  vantage AS" << v.asn << " via " << v.peer.ToString() << ": "
        << v.routes << " routes, customer cone " << v.customer_cone << "\n";
  }
  out << "wrote " << result->stream.size() << " events to " << *out_path
      << " (" << format << ")\n";
  return kOk;
}

int CmdMoas(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "moas: expected one stream file\n";
    return kUsage;
  }
  const auto stream = LoadStream(args.positional[1], err);
  if (!stream) return kFailure;
  core::MoasDetector detector;
  for (const auto& e : stream->events()) {
    if (e.type == bgp::EventType::kAnnounce) {
      detector.OnAnnounce(e.time, e.prefix, e.attrs);
    }
  }
  out << "tracked prefixes: " << detector.TrackedPrefixes() << "\n";
  out << "origin conflicts: " << detector.conflicts().size() << "\n";
  for (const auto& conflict : detector.conflicts()) {
    out << "  " << util::FormatTime(conflict.time) << " "
        << conflict.ToString() << "\n";
  }
  return kOk;
}

int CmdStats(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "stats: expected one stream file\n";
    return kUsage;
  }
  const auto stream = LoadStream(args.positional[1], err);
  if (!stream) return kFailure;

  struct PeerStats {
    std::size_t announces = 0;
    std::size_t withdraws = 0;
    std::size_t markers = 0;
  };
  std::map<std::uint32_t, PeerStats> per_peer;
  std::size_t announces = 0;
  std::size_t withdraws = 0;
  std::size_t markers = 0;
  for (const auto& e : stream->events()) {
    auto& p = per_peer[e.peer.value()];
    if (e.type == bgp::EventType::kAnnounce) {
      ++p.announces;
      ++announces;
    } else if (e.type == bgp::EventType::kWithdraw) {
      ++p.withdraws;
      ++withdraws;
    } else {
      ++p.markers;
      ++markers;
    }
  }
  out << "events:    " << stream->size() << "\n";
  out << "announces: " << announces << "\n";
  out << "withdraws: " << withdraws << "\n";
  if (markers > 0) out << "markers:   " << markers << "\n";
  out << "timerange: " << util::FormatDuration(stream->TimeRange()) << "\n";
  out << "peers:     " << per_peer.size() << "\n";
  for (const auto& [peer, stats] : per_peer) {
    out << "  " << bgp::Ipv4Addr(peer).ToString() << "  A=" << stats.announces
        << " W=" << stats.withdraws;
    if (stats.markers > 0) out << " M=" << stats.markers;
    out << "\n";
  }
  // Degraded-feed accounting: windows where the collection layer lost or
  // resynchronized a peer's feed (GAP/SYNC markers).
  const auto gaps = collector::FeedGapWindows(*stream);
  if (!gaps.empty()) {
    out << "feed gaps: " << gaps.size() << "\n";
    for (const auto& gap : gaps) {
      out << "  " << bgp::Ipv4Addr(gap.peer).ToString() << "  "
          << util::FormatTime(gap.begin) << " -> "
          << util::FormatTime(gap.end)
          << (gap.closed ? "" : " (never resynced)") << "\n";
    }
  }
  // Analysis-stage perf breakdown: run the pipeline (its stage metrics
  // accumulate on the process registry) and print the pipeline_*,
  // stemming_*, and pool_* slice of the snapshot.  The pool_* metrics
  // come from the spike-window fan-out; pool_utilization well below 1.0
  // means its lanes starved.
  if (args.HasFlag("--analyze")) {
    const core::Pipeline pipeline{core::PipelineOptions{}};
    pipeline.Analyze(*stream);
    out << "analysis stages (threads=" << util::ThreadPool::DefaultThreadCount()
        << "):\n";
    std::vector<obs::MetricSnapshot> stages;
    for (auto& m : obs::MetricsRegistry::Global().Snapshot()) {
      if (m.name.starts_with("pipeline_") || m.name.starts_with("stemming_") ||
          m.name.starts_with("pool_")) {
        stages.push_back(std::move(m));
      }
    }
    std::istringstream lines(obs::FormatSnapshot(stages));
    for (std::string line; std::getline(lines, line);) {
      out << "  " << line << "\n";
    }
  }
  return kOk;
}

int CmdMetrics(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "metrics: expected one stream file\n";
    return kUsage;
  }
  const auto stream = LoadStream(args.positional[1], err);
  if (!stream) return kFailure;
  const core::Pipeline pipeline{core::PipelineOptions{}};
  pipeline.Analyze(*stream);
  auto& registry = obs::MetricsRegistry::Global();
  out << (args.HasFlag("--prom") ? registry.ToPrometheus()
                                 : registry.ToText());
  return kOk;
}

// Async-signal-safe stop flag for the long-running commands (serve, and
// trace's flush-on-interrupt).  The handler only sets an atomic; the
// commands poll it.
std::atomic<bool> g_stop_requested{false};

void HandleStopSignal(int) {
  g_stop_requested.store(true, std::memory_order_relaxed);
}

// Installs SIGINT/SIGTERM handlers that set g_stop_requested; restores
// the previous handlers (and clears the flag) on destruction so tests
// can run commands back to back in one process.
class ScopedSignalTrap {
 public:
  ScopedSignalTrap() {
    g_stop_requested.store(false, std::memory_order_relaxed);
    struct sigaction action = {};
    action.sa_handler = HandleStopSignal;
    sigemptyset(&action.sa_mask);
    sigaction(SIGINT, &action, &old_int_);
    sigaction(SIGTERM, &action, &old_term_);
  }
  ~ScopedSignalTrap() {
    sigaction(SIGINT, &old_int_, nullptr);
    sigaction(SIGTERM, &old_term_, nullptr);
    g_stop_requested.store(false, std::memory_order_relaxed);
  }
  ScopedSignalTrap(const ScopedSignalTrap&) = delete;
  ScopedSignalTrap& operator=(const ScopedSignalTrap&) = delete;

  static bool StopRequested() {
    return g_stop_requested.load(std::memory_order_relaxed);
  }

 private:
  struct sigaction old_int_ = {};
  struct sigaction old_term_ = {};
};

// `options` plus the replay options ParseLiveOptions reads.
std::vector<std::string_view> WithLiveOptions(
    std::vector<std::string_view> options) {
  options.insert(options.end(), {"--tick-sec", "--window-sec", "--slo-sec",
                                 "--queue-capacity", "--service-rate"});
  return options;
}

// The replay settings `serve`, `series` and `explain` share, so the
// same flags give each of them the same replay.  Reports a bad value on
// `err` (prefixed with `command`) and returns nullopt.
std::optional<core::LiveOptions> ParseLiveOptions(const Args& args,
                                                  const char* command,
                                                  std::ostream& err) {
  core::LiveOptions options;
  options.tick = util::FromSeconds(
      ParseDouble(args.Option("--tick-sec").value_or("10"), 10.0));
  options.window = util::FromSeconds(
      ParseDouble(args.Option("--window-sec").value_or("300"), 300.0));
  options.slo_target_sec =
      ParseDouble(args.Option("--slo-sec").value_or("30"), 30.0);
  if (options.tick <= 0 || options.window <= 0) {
    err << command << ": --tick-sec and --window-sec must be positive\n";
    return std::nullopt;
  }
  // Backpressure: --queue-capacity turns on the bounded ingest queue and
  // the degradation ladder; --service-rate caps per-tick analysis intake.
  options.shed.queue_capacity = static_cast<std::size_t>(
      ParseDouble(args.Option("--queue-capacity").value_or("0"), 0.0));
  options.shed.service_rate = static_cast<std::size_t>(
      ParseDouble(args.Option("--service-rate").value_or("0"), 0.0));
  return options;
}

// The replay `serve`, `series` and `explain` run: a health registry
// holding the `serve` component, the incident log, the series store, the
// provenance ledger and the runner that feeds them.  All three build it
// here, so one stream and one set of replay options give each the same
// series and the same evidence.
struct Replay {
  explicit Replay(const core::LiveOptions& options)
      : serve_id(health.Register("serve")),
        runner(options, &health, &incidents, &series, &ledger) {}

  obs::HealthRegistry health;
  const obs::HealthRegistry::ComponentId serve_id;
  core::IncidentLog incidents;
  obs::TimeSeriesStore series;
  obs::ProvenanceLedger ledger;
  core::LiveRunner runner;
};

// serve <stream> — the long-running operations daemon: tick replay of
// the stream through the pipeline plus the HTTP exposition endpoints.
int CmdServe(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "serve: expected one stream file\n";
    return kUsage;
  }
  const auto stream = LoadStream(args.positional[1], err);
  if (!stream) return kFailure;

  auto parsed = ParseLiveOptions(args, "serve", err);
  if (!parsed) return kUsage;
  core::LiveOptions options = std::move(*parsed);
  const double watchdog_sec =
      ParseDouble(args.Option("--watchdog-sec").value_or("5"), 5.0);
  options.heartbeat_deadline_sec = watchdog_sec;
  const int pace_ms = static_cast<int>(
      ParseDouble(args.Option("--pace-ms").value_or("0"), 0.0));
  const int port_arg = static_cast<int>(
      ParseDouble(args.Option("--port").value_or("0"), 0.0));
  if (port_arg < 0 || port_arg > 65535) {
    err << "serve: --port must be in [0, 65535]\n";
    return kUsage;
  }
  // Durability: --checkpoint enables restore-on-start plus periodic and
  // final (graceful-drain) snapshots.
  options.checkpoint_path = args.Option("--checkpoint").value_or("");
  options.checkpoint_every_ticks = static_cast<std::uint64_t>(ParseDouble(
      args.Option("--checkpoint-every-ticks").value_or("16"), 16.0));

  Replay replay(options);
  if (watchdog_sec > 0) replay.health.StartWatchdog(watchdog_sec / 2);

  core::OpsInfo info;
  info.stream_path = args.positional[1];
  info.slo_target_sec = options.slo_target_sec;
  info.tick_sec = util::ToSeconds(options.tick);
  info.window_sec = util::ToSeconds(options.window);
  info.checkpoint_path = options.checkpoint_path;
  info.queue_capacity = options.shed.queue_capacity;
  info.t0 = stream->empty() ? 0 : stream->events().front().time;
  info.tick = options.tick;

  const bool dashboard = args.HasFlag("--dashboard");
  obs::HttpServer server(core::MakeOpsHandler(
      &obs::MetricsRegistry::Global(), &replay.health, &replay.incidents,
      info, &replay.series, dashboard, &replay.ledger));
  std::string error;
  if (!server.Start(static_cast<std::uint16_t>(port_arg), &error)) {
    err << "serve: " << error << "\n";
    return kFailure;
  }
  // Tests and scrapers parse this line for the (possibly ephemeral) port.
  out << "serving on 127.0.0.1:" << server.port() << std::endl;
  if (dashboard) {
    out << "dashboard at http://127.0.0.1:" << server.port() << "/dashboard"
        << std::endl;
  }

  ScopedSignalTrap trap;
  std::atomic<bool> keep_going{true};
  const auto start_drain = [&replay, &keep_going]() {
    // Graceful drain: readiness goes false first, so load balancers stop
    // routing while the in-flight tick finishes and the final checkpoint
    // is cut; liveness (/healthz) stays green throughout.
    keep_going.store(false, std::memory_order_relaxed);
    replay.health.SetState(replay.serve_id, obs::HealthState::kDown,
                           "draining: stop requested");
  };
  const core::LiveStats stats =
      replay.runner.Run(*stream, &keep_going, [&](const core::LiveStats&) {
        if (pace_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(pace_ms));
        }
        if (ScopedSignalTrap::StopRequested() &&
            keep_going.load(std::memory_order_relaxed)) {
          start_drain();
        }
      });
  if (stats.restored) {
    out << "restored from checkpoint: resumed at tick " << stats.ticks
        << std::endl;
  }
  out << "replay done: " << stats.events_ingested << " events, "
      << stats.ticks << " ticks, " << stats.incidents << " incidents ("
      << stats.incidents_within_slo << " within "
      << options.slo_target_sec << "s SLO)" << std::endl;
  if (stats.events_shed > 0 || stats.shed_transitions > 0) {
    out << "overload ladder: " << stats.events_shed << " events shed, "
        << stats.shed_transitions << " transitions, final level L"
        << stats.shed_level << std::endl;
  }

  if (!args.HasFlag("--exit-after-replay")) {
    while (!ScopedSignalTrap::StopRequested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  if (ScopedSignalTrap::StopRequested()) {
    if (keep_going.load(std::memory_order_relaxed)) start_drain();
    out << "drained cleanly"
        << (options.checkpoint_path.empty() ? "" : ": final checkpoint durable")
        << std::endl;
  }
  replay.health.StopWatchdog();
  server.Stop();
  out << "served " << server.requests_total() << " requests ("
      << server.rejected_total() << " rejected)\n";
  return kOk;
}

// series <stream> — offline replay into the dashboard time-series
// store; prints the same JSON `serve` answers on /api/series, so the
// retained history is scriptable without standing up a daemon.
int CmdSeries(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "series: expected one stream file\n";
    return kUsage;
  }
  const auto stream = LoadStream(args.positional[1], err);
  if (!stream) return kFailure;
  const auto options = ParseLiveOptions(args, "series", err);
  if (!options) return kUsage;
  Replay replay(*options);
  replay.runner.Run(*stream);
  const obs::TimeSeriesStore& store = replay.series;
  const auto name = args.Option("--name");
  if (!name.has_value()) {
    out << store.ListJson() << "\n";
    return kOk;
  }
  std::int64_t res_us = store.options().tiers.front().resolution_us;
  if (const auto res = args.Option("--res")) {
    res_us = util::FromSeconds(ParseDouble(*res, 0.0));
    if (!store.HasTier(res_us)) {
      err << "series: no downsample tier at --res " << *res
          << " seconds (run without --name to list the tiers)\n";
      return kUsage;
    }
  }
  std::int64_t since_us = -1;
  if (const auto since = args.Option("--since")) {
    since_us = util::FromSeconds(ParseDouble(*since, 0.0));
  }
  const auto body = store.SeriesJson(*name, res_us, since_us);
  if (!body.has_value()) {
    err << "series: unknown series " << *name
        << " (run without --name to list the names)\n";
    return kFailure;
  }
  out << *body << "\n";
  return kOk;
}

// explain <stream> --incident N — offline replay into a provenance
// ledger; prints the same evidence JSON `serve` answers on
// /api/incidents/N/evidence (byte-identical given the same live
// options, at any RANOMALY_THREADS).
int CmdExplain(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "explain: expected one stream file\n";
    return kUsage;
  }
  const auto incident_text = args.Option("--incident");
  if (!incident_text.has_value()) {
    err << "explain: --incident N is required\n";
    return kUsage;
  }
  std::uint64_t incident_seq = 0;
  if (!util::ParseU64(*incident_text, incident_seq)) {
    err << "explain: bad --incident " << *incident_text
        << ": want a non-negative integer\n";
    return kUsage;
  }
  const auto stream = LoadStream(args.positional[1], err);
  if (!stream) return kFailure;
  const auto options = ParseLiveOptions(args, "explain", err);
  if (!options) return kUsage;

  Replay replay(*options);
  replay.runner.Run(*stream);
  const auto body = replay.ledger.EvidenceJson(incident_seq);
  if (!body.has_value()) {
    err << "explain: unknown incident " << incident_seq
        << " (or its evidence was evicted); the replay logged "
        << replay.incidents.size() << " incidents\n";
    return kFailure;
  }
  out << *body << "\n";
  return kOk;
}

// peers <stream> — per-peer feed health scoreboard.
int CmdPeers(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "peers: expected one stream file\n";
    return kUsage;
  }
  const auto stream = LoadStream(args.positional[1], err);
  if (!stream) return kFailure;
  core::PeerBoard board;
  for (const auto& event : stream->events()) board.Observe(event);
  if (!stream->empty()) board.Finish(stream->back().time);
  const auto rows = board.Rows();
  out << FormatPeerTable(rows);
  std::size_t degraded = 0;
  for (const auto& row : rows) degraded += row.degraded ? 1 : 0;
  out << rows.size() << " peers, " << degraded << " degraded\n";
  return kOk;
}

// trace --out FILE.json [--jsonl FILE.jsonl] [--] <command...> — runs the
// wrapped command with the tracer on and exports the spans.  Parsed by
// hand (before ParseArgs) so the wrapped command's own flags pass
// through untouched.
int CmdTrace(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  std::string json_path;
  std::string jsonl_path;
  std::size_t i = 1;
  for (; i < args.size(); ++i) {
    if (args[i] == "--") {
      ++i;
      break;
    }
    if (args[i].rfind("--", 0) != 0) break;
    if (args[i] != "--out" && args[i] != "--jsonl") {
      err << "trace: unknown flag " << args[i] << "\n";
      return kUsage;
    }
    if (i + 1 >= args.size()) {
      err << "missing value for " << args[i] << "\n";
      return kUsage;
    }
    (args[i] == "--out" ? json_path : jsonl_path) = args[i + 1];
    ++i;
  }
  if (json_path.empty() || i >= args.size()) {
    err << "trace: --out FILE.json and a command to run are required\n";
    return kUsage;
  }
  const std::vector<std::string> wrapped(args.begin() +
                                             static_cast<std::ptrdiff_t>(i),
                                         args.end());
  auto& tracer = obs::Tracer::Global();
  tracer.Reset();
  tracer.SetEnabled(true);

  // Writes the exports to `<path>.tmp` and atomically renames them into
  // place, so a reader (or a signal arriving mid-write) never sees a
  // truncated file.  Export is thread-safe against concurrent recording.
  const auto export_trace = [&](std::ostream* status_out) -> bool {
    const std::string json_tmp = json_path + ".tmp";
    {
      std::ofstream json(json_tmp, std::ios::trunc);
      if (!json) return false;
      json << tracer.ExportChromeJson();
      if (!json.good()) return false;
    }
    std::error_code ec;
    std::filesystem::rename(json_tmp, json_path, ec);
    if (ec) return false;
    if (status_out != nullptr) {
      *status_out << "wrote trace to " << json_path;
      if (tracer.DroppedCount() > 0) {
        *status_out << " (" << tracer.DroppedCount() << " events dropped)";
      }
      *status_out << "\n";
    }
    if (!jsonl_path.empty()) {
      const std::string jsonl_tmp = jsonl_path + ".tmp";
      {
        std::ofstream jsonl(jsonl_tmp, std::ios::trunc);
        if (!jsonl) return false;
        jsonl << tracer.ExportJsonl();
        if (!jsonl.good()) return false;
      }
      std::filesystem::rename(jsonl_tmp, jsonl_path, ec);
      if (ec) return false;
      if (status_out != nullptr) {
        *status_out << "wrote trace events to " << jsonl_path << "\n";
      }
    }
    return true;
  };

  // SIGINT/SIGTERM must still yield a loadable trace: a watcher thread
  // polls the trap and, on a stop request, flushes what the tracer has
  // and exits with the conventional interrupted status.  _Exit skips
  // static destructors — the wrapped command may be mid-flight on other
  // threads, and the files are already renamed into place.
  ScopedSignalTrap trap;
  std::atomic<bool> wrapped_done{false};
  std::thread watcher([&] {
    while (!wrapped_done.load(std::memory_order_acquire)) {
      if (ScopedSignalTrap::StopRequested()) {
        export_trace(nullptr);
        std::_Exit(130);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  const int status = RunCli(wrapped, out, err);
  wrapped_done.store(true, std::memory_order_release);
  watcher.join();
  tracer.SetEnabled(false);

  if (!export_trace(&out)) {
    err << "cannot write " << json_path << "\n";
    return kFailure;
  }
  return status;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.empty()) {
    err << kUsageText;
    return kUsage;
  }
  // trace wraps another command; its arguments must not be re-parsed here.
  if (args[0] == "trace") return CmdTrace(args, out, err);
  static const std::vector<Command> kCommands = {
      {"analyze", CmdAnalyze, {"--spike-bucket-sec", "--spike-factor"},
       {"--include-unknown"}},
      {"picture", CmdPicture, {"--out", "--dot", "--threshold", "--title"},
       {"--hierarchical"}},
      {"animate", CmdAnimate, {"--out-dir", "--every", "--smil"}, {}},
      {"convert", CmdConvert, {"--to"}, {}},
      {"moas", CmdMoas, {}, {}},
      {"stats", CmdStats, {}, {"--analyze"}},
      {"metrics", CmdMetrics, {}, {"--prom"}},
      {"serve", CmdServe,
       WithLiveOptions({"--port", "--pace-ms", "--watchdog-sec",
                        "--checkpoint", "--checkpoint-every-ticks"}),
       {"--exit-after-replay", "--dashboard"}},
      {"series", CmdSeries, WithLiveOptions({"--name", "--res", "--since"}),
       {}},
      {"explain", CmdExplain, WithLiveOptions({"--incident"}), {}},
      {"peers", CmdPeers, {}, {}},
      {"internet", CmdInternet,
       {"--out", "--format", "--relationships", "--save-relationships",
        "--ases", "--prefixes", "--peers", "--seed", "--flap-fraction",
        "--threads"},
       {}},
  };
  for (const Command& command : kCommands) {
    if (args[0] != command.name) continue;
    const auto parsed = ParseArgs(args, command, err);
    if (!parsed) return kUsage;
    return command.run(*parsed, out, err);
  }
  err << "unknown command: " << args[0] << "\n" << kUsageText;
  return kUsage;
}

}  // namespace ranomaly::tools
