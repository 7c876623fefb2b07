// Benchmark harness for ranomaly.  perfbench/run.py drives it; every
// subcommand prints one JSON object on stdout.
//
//   perfbench gen   WORKLOAD SEED CAPTURE
//       Builds the workload's capture from SEED, writes it as RNE1 and
//       describes it (generator parameters, event count, CRC-32, and for
//       serve-quiet the injected anomaly schedule).
//   perfbench run   WORKLOAD CAPTURE THREADS CHECKPOINT
//       One untraced measured run through the public entry points:
//       core::LiveRunner::Run for serve-*, Pipeline::Analyze plus the
//       animate and picture flows for offline-table1.
//   perfbench setup WORKLOAD CAPTURE THREADS
//       Only the set-up of a run (load the capture, construct the runner
//       or pipeline); prints setup_s.
//   perfbench trace WORKLOAD CAPTURE THREADS CHECKPOINT TRACE_JSON
//       The traced run: times each layer's public functions from outside
//       (no span inside src/) and writes the spans as a Chrome trace.
//
// Workload definitions and metric formulas are in perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "collector/binary_io.h"
#include "collector/checkpoint.h"
#include "collector/event_stream.h"
#include "core/live.h"
#include "core/live_checkpoint.h"
#include "core/pipeline.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/timeseries.h"
#include "stemming/stemming.h"
#include "tamp/animation.h"
#include "tamp/layout.h"
#include "tamp/prune.h"
#include "tamp/render.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/time.h"
#include "workload/eventgen.h"
#include "workload/internet.h"
#include "workload/internet_scale.h"

namespace ranomaly::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using util::StrPrintf;

// Set during static initialization, before main: the origin of setup_s.
const Clock::time_point kProcessStart = Clock::now();

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
double SecondsSince(Clock::time_point from) {
  return Seconds(from, Clock::now());
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Workloads.  The sizes keep one measured run to a few seconds (one
// 24 h replay for serve-quiet) so a 30 s measurement holds several;
// README.md records why each workload exists and what it should (and
// should not) move.

enum class Workload { kServeDump, kServeQuiet, kOfflineTable1 };

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "serve-dump") return Workload::kServeDump;
  if (name == "serve-quiet") return Workload::kServeQuiet;
  if (name == "offline-table1") return Workload::kOfflineTable1;
  return std::nullopt;
}

// Each workload's topology is fixed (generator seed below); the run's
// seed drives the events on it, so seeds vary the stream, not the amount
// of routing state the stream exercises.
constexpr std::uint64_t kTopologySeed = 42;

// serve-dump: workload::BuildInternetScale with a long churn tail.
constexpr std::size_t kDumpAsCount = 16'000;
constexpr std::size_t kDumpPrefixes = 20'000;
constexpr std::size_t kDumpVantages = 5;
constexpr util::SimDuration kDumpChurn = 3 * util::kHour;

// serve-quiet: a day of sparse background churn over a small table,
// a recurring anomaly every half hour, one oscillating prefix.
constexpr std::size_t kQuietPrefixes = 500;
constexpr std::size_t kQuietPeers = 5;
constexpr util::SimDuration kQuietSpan = 24 * util::kHour;
constexpr std::size_t kQuietFlapEvents = 30'000;
constexpr util::SimDuration kQuietFirstAnomaly = 20 * util::kMinute;
constexpr util::SimDuration kQuietAnomalyEvery = 30 * util::kMinute;
constexpr util::SimDuration kQuietOscillationPeriod = util::kMinute;

// offline-table1: the ISP-Anon shape of the Table I benches — a full
// table dump of kOfflineRoutes routes, then kOfflineEvents animation
// events (churn plus a session reset every quarter of the range).
constexpr std::size_t kOfflineRoutes = 50'000;
constexpr std::size_t kOfflineEvents = 600'000;
constexpr util::SimDuration kOfflineDumpSpread = util::kMinute;
constexpr std::size_t kOfflineRenderEvery = 25;  // `ranomaly animate --every`
constexpr double kOfflinePruneThreshold = 0.05;

// The `ranomaly serve` configuration every serve workload runs.
constexpr util::SimDuration kTick = 10 * util::kSecond;
constexpr util::SimDuration kWindow = 5 * util::kMinute;
constexpr std::uint64_t kCheckpointEveryTicks = 16;

core::LiveOptions ServeOptions(std::size_t threads,
                               const std::string& checkpoint) {
  core::LiveOptions options;
  options.pipeline.threads = threads;
  options.tick = kTick;
  options.window = kWindow;
  options.slo_target_sec = 30.0;
  options.heartbeat_deadline_sec = 5.0;
  options.checkpoint_path = checkpoint;
  options.checkpoint_every_ticks = kCheckpointEveryTicks;
  return options;
}

struct Anomaly {
  util::SimTime onset = 0;
  std::string kind;
  std::string target;
};

struct Generated {
  collector::EventStream stream;
  std::string params;  // JSON object body
  std::vector<Anomaly> schedule;
};

// The topology goes through a serial-2 file next to the capture (the
// generator's only way to take a topology it did not synthesize itself).
Generated GenerateServeDump(std::uint64_t seed, const std::string& path) {
  workload::InternetScaleOptions options;
  options.as_count = kDumpAsCount;
  options.seed = kTopologySeed;
  options.relationships_path = path + ".as-rel.txt";
  {
    std::ofstream rel(options.relationships_path, std::ios::trunc);
    workload::WriteSerial2(rel, workload::GenerateTopology(options));
  }
  options.prefix_count = kDumpPrefixes;
  options.monitored_peer_count = kDumpVantages;
  options.churn_duration = kDumpChurn;
  options.seed = seed;
  options.threads = 1;
  std::string error;
  std::optional<workload::InternetScaleResult> result =
      workload::BuildInternetScale(options, &error);
  std::filesystem::remove(options.relationships_path);
  if (!result.has_value()) {
    std::fprintf(stderr, "perfbench: BuildInternetScale failed: %s\n",
                 error.c_str());
    std::exit(2);
  }
  Generated out;
  out.params = StrPrintf(
      "\"generator\":\"workload::BuildInternetScale\",\"as_count\":%zu,"
      "\"topology_seed\":%llu,\"prefix_count\":%zu,"
      "\"monitored_peer_count\":%zu,\"churn_duration_s\":%.0f,"
      "\"seed\":%llu,\"other_options\":\"defaults\"",
      kDumpAsCount, static_cast<unsigned long long>(kTopologySeed),
      kDumpPrefixes, kDumpVantages, util::ToSeconds(kDumpChurn),
      static_cast<unsigned long long>(seed));
  out.stream = std::move(result->stream);
  return out;
}

Generated GenerateServeQuiet(std::uint64_t seed) {
  workload::InternetOptions net;
  net.monitored_peers = kQuietPeers;
  net.prefix_count = kQuietPrefixes;
  net.seed = kTopologySeed;
  const workload::SyntheticInternet internet(net);
  workload::EventStreamGenerator gen(internet, seed);
  util::Rng pick(seed ^ 0x9e3779b97f4a7c15ULL);
  Generated out;
  gen.Churn(0, kQuietSpan, kQuietFlapEvents);
  std::size_t k = 0;
  for (util::SimTime at = kQuietFirstAnomaly; at < kQuietSpan;
       at += kQuietAnomalyEvery, ++k) {
    if (k % 2 == 0) {
      const std::size_t peer = pick.NextBelow(internet.peers().size());
      gen.SessionReset(peer, at, util::kMinute, 30 * util::kSecond);
      out.schedule.push_back(
          {at, "session-reset", "peer " + internet.peers()[peer].ToString()});
    } else {
      const std::size_t tier1 = pick.NextBelow(net.tier1_count);
      const std::size_t alternate = (tier1 + 1) % net.tier1_count;
      gen.Tier1Failover(tier1, alternate, at, 30 * util::kSecond);
      out.schedule.push_back(
          {at, "tier1-failover",
           StrPrintf("AS%u", internet.PathVia(tier1, 0, 0).asns().at(1))});
    }
  }
  gen.PrefixOscillation(pick.NextBelow(internet.prefixes().size()), 0,
                        kQuietSpan, kQuietOscillationPeriod);
  out.params = StrPrintf(
      "\"generator\":\"workload::EventStreamGenerator\",\"topology_seed\":%llu,"
      "\"prefix_count\":%zu,\"monitored_peers\":%zu,\"span_s\":%.0f,"
      "\"flap_events\":%zu,"
      "\"first_anomaly_s\":%.0f,\"anomaly_every_s\":%.0f,"
      "\"oscillation_period_s\":%.0f,\"seed\":%llu",
      static_cast<unsigned long long>(kTopologySeed), kQuietPrefixes,
      kQuietPeers, util::ToSeconds(kQuietSpan),
      kQuietFlapEvents, util::ToSeconds(kQuietFirstAnomaly),
      util::ToSeconds(kQuietAnomalyEvery),
      util::ToSeconds(kQuietOscillationPeriod),
      static_cast<unsigned long long>(seed));
  out.stream = gen.Take();
  return out;
}

Generated GenerateOfflineTable1(std::uint64_t seed) {
  workload::InternetOptions net;
  net.monitored_peers = 8;  // scaled-down route-reflector mesh
  net.nexthops_per_peer = 8;
  net.tier1_count = 12;
  net.transit_count = 120;
  net.origin_as_count = 850;
  net.peer_coverage = 0.95;
  net.prefix_count = static_cast<std::size_t>(
      static_cast<double>(kOfflineRoutes) / (8.0 * net.peer_coverage));
  net.local_as = 1000;
  net.seed = kTopologySeed;
  const workload::SyntheticInternet internet(net);

  Generated out;
  const std::vector<collector::RouteEntry>& routes = internet.routes();
  for (std::size_t i = 0; i < routes.size(); ++i) {
    bgp::Event event;
    event.time = static_cast<util::SimTime>(
        i * static_cast<std::size_t>(kOfflineDumpSpread) / routes.size());
    event.peer = routes[i].peer;
    event.type = bgp::EventType::kAnnounce;
    event.prefix = routes[i].prefix;
    event.attrs = routes[i].attrs;
    out.stream.Append(std::move(event));
  }
  // The Table I animation mix: churn, plus a session reset every quarter
  // of the range while the resets leave room for 50k churn events.
  workload::EventStreamGenerator gen(internet, seed);
  const util::SimTime begin = kOfflineDumpSpread;
  const util::SimDuration range =
      static_cast<util::SimDuration>(kOfflineEvents / 8) * util::kSecond;
  std::size_t peer = 0;
  for (util::SimTime at = begin + range / 4;
       gen.PendingEvents() + 50'000 < kOfflineEvents; at += range / 4) {
    gen.SessionReset(peer % internet.peers().size(), at, util::kMinute,
                     30 * util::kSecond);
    ++peer;
  }
  if (kOfflineEvents > gen.PendingEvents()) {
    gen.Churn(begin, begin + range, kOfflineEvents - gen.PendingEvents());
  }
  const collector::EventStream animation = gen.Take();
  for (const bgp::Event& event : animation.events()) {
    out.stream.Append(event);
  }
  out.params = StrPrintf(
      "\"generator\":\"IspAnonScale routes + full-table dump + "
      "AnimationEvents\",\"topology_seed\":%llu,\"routes\":%zu,"
      "\"animation_events\":%zu,\"monitored_peers\":8,\"seed\":%llu",
      static_cast<unsigned long long>(kTopologySeed), routes.size(),
      kOfflineEvents, static_cast<unsigned long long>(seed));
  return out;
}

collector::EventStream LoadCapture(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  collector::LoadDiagnostics diag;
  std::optional<collector::EventStream> stream =
      in ? collector::LoadBinary(in, diag) : std::nullopt;
  if (!stream.has_value()) {
    std::fprintf(stderr, "perfbench: cannot load %s: %s\n", path.c_str(),
                 diag.ToString().c_str());
    std::exit(2);
  }
  return std::move(*stream);
}

std::uint32_t FileCrc(const std::string& path, std::size_t* bytes) {
  std::ifstream in(path, std::ios::binary);
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  *bytes = data.size();
  return util::Crc32(data.data(), data.size());
}

int CmdGen(Workload workload, std::uint64_t seed, const std::string& path) {
  Generated gen;
  switch (workload) {
    case Workload::kServeDump: gen = GenerateServeDump(seed, path); break;
    case Workload::kServeQuiet: gen = GenerateServeQuiet(seed); break;
    case Workload::kOfflineTable1: gen = GenerateOfflineTable1(seed); break;
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out || !collector::SaveBinary(gen.stream, out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 2;
    }
  }
  std::size_t markers = 0;
  for (const bgp::Event& e : gen.stream.events()) {
    markers += bgp::IsMarker(e.type) ? 1 : 0;
  }
  std::size_t bytes = 0;
  const std::uint32_t crc = FileCrc(path, &bytes);
  const util::SimTime t0 = gen.stream.front().time;
  std::string schedule;
  for (const Anomaly& a : gen.schedule) {
    if (!schedule.empty()) schedule += ',';
    schedule += StrPrintf("{\"onset_s\":%.6f,\"kind\":\"%s\",\"target\":\"%s\"}",
                          util::ToSeconds(a.onset), a.kind.c_str(),
                          a.target.c_str());
  }
  std::printf(
      "{\"params\":{%s},\"events\":%zu,\"markers\":%zu,\"bytes\":%zu,"
      "\"crc32\":\"%08x\",\"span_s\":%.6f,\"ticks\":%lld,\"anomalies\":[%s]}\n",
      gen.params.c_str(), gen.stream.size(), markers, bytes, crc,
      util::ToSeconds(gen.stream.TimeRange()),
      static_cast<long long>((gen.stream.back().time - t0) / kTick + 1),
      schedule.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Output digests for the correctness gate.

// Everything the incident stream exposes except provenance (which the
// ledger, not the log, carries).
void DigestIncident(util::Crc32Accumulator& crc, std::uint64_t seq,
                    const core::Incident& inc) {
  const std::string line = StrPrintf(
      "%llu|%s|%lld|%lld|%zu|%zu|%llx:%llx|%lld|%.6f|%d|%s|%s\n",
      static_cast<unsigned long long>(seq), core::ToString(inc.kind),
      static_cast<long long>(inc.begin), static_cast<long long>(inc.end),
      inc.event_count, inc.prefix_count,
      static_cast<unsigned long long>(inc.stem_key.first),
      static_cast<unsigned long long>(inc.stem_key.second),
      static_cast<long long>(inc.detected_at), inc.detection_latency_sec,
      inc.feed_degraded ? 1 : 0, inc.top_sequence.c_str(),
      inc.summary.c_str());
  crc.Update(line.data(), line.size());
}

std::string JsonList(const std::vector<double>& values, const char* fmt) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += StrPrintf(fmt, values[i]);
  }
  return out + "]";
}

std::vector<double> TickMs(Clock::time_point start,
                          const std::vector<Clock::time_point>& stamps) {
  std::vector<double> out;
  out.reserve(stamps.size());
  Clock::time_point prev = start;
  for (const Clock::time_point t : stamps) {
    out.push_back(Seconds(prev, t) * 1e3);
    prev = t;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Untraced measured runs.

int PrintSetup(double setup_s) {
  std::printf("{\"setup_s\":%.9f}\n", setup_s);
  return 0;
}

int RunServe(const std::string& capture, std::size_t threads,
             const std::string& checkpoint, bool setup_only) {
  const collector::EventStream stream = LoadCapture(capture);
  obs::HealthRegistry health;
  core::IncidentLog log;
  obs::TimeSeriesStore series;
  obs::ProvenanceLedger ledger;
  health.StartWatchdog(2.5);
  core::LiveRunner runner(ServeOptions(threads, checkpoint), &health, &log,
                          &series, &ledger);
  const double setup_s = SecondsSince(kProcessStart);
  if (setup_only) {
    health.StopWatchdog();
    return PrintSetup(setup_s);
  }

  std::vector<Clock::time_point> stamps;
  stamps.reserve(static_cast<std::size_t>(
      (stream.back().time - stream.front().time) / kTick + 2));
  const double cpu0 = CpuSeconds();
  const Clock::time_point start = Clock::now();
  const core::LiveStats stats = runner.Run(
      stream, nullptr,
      [&stamps](const core::LiveStats&) { stamps.push_back(Clock::now()); });
  const double wall_s = SecondsSince(start);
  const double cpu_s = CpuSeconds() - cpu0;
  health.StopWatchdog();

  util::Crc32Accumulator crc;
  std::vector<double> detected;
  for (const core::IncidentLog::Entry& e : log.Since(0)) {
    DigestIncident(crc, e.seq, e.incident);
    detected.push_back(util::ToSeconds(e.incident.detected_at));
  }
  std::printf(
      "{\"setup_s\":%.9f,\"wall_s\":%.9f,\"cpu_s\":%.6f,\"rss_mib\":%.3f,"
      "\"events\":%zu,\"ticks\":%llu,\"incidents\":%zu,\"digest\":\"%08x\","
      "\"restored\":%s,\"checkpoint_writes\":%llu,\"checkpoint_failures\":%llu,"
      "\"tick_ms\":%s,\"detected_at_s\":%s}\n",
      setup_s, wall_s, cpu_s, PeakRssMib(), stream.size(),
      static_cast<unsigned long long>(stats.ticks), detected.size(),
      crc.value(), stats.restored ? "true" : "false",
      static_cast<unsigned long long>(stats.checkpoint_writes),
      static_cast<unsigned long long>(stats.checkpoint_failures),
      JsonList(TickMs(start, stamps), "%.6f").c_str(),
      JsonList(detected, "%.6f").c_str());
  return 0;
}

// What the animate and picture flows produce.  A frame is busy when it
// applied events or was rendered; the offline "tick" latency is the
// wall time of busy frames (most frames of a weeks-long capture
// consolidate no events at all).
struct OfflineOutput {
  util::Crc32Accumulator svg;
  std::size_t frames = 0;
  std::size_t frames_rendered = 0;
  std::vector<double> busy_frame_ms;
};

using Interval = std::pair<Clock::time_point, Clock::time_point>;

// The `ranomaly animate` flow (every kOfflineRenderEvery-th frame is
// pruned, laid out and rendered) and the closing `ranomaly picture`,
// with the SVG bytes digested instead of written.  `renders` (when set)
// collects the prune+layout+render intervals.
void AnimateAndPicture(const collector::EventStream& stream, OfflineOutput& out,
                       std::vector<Interval>* renders) {
  tamp::Animator animator({}, tamp::AnimationOptions{});
  const auto render = [&](const auto& draw) {
    const Clock::time_point begin = Clock::now();
    const tamp::PrunedGraph pruned =
        tamp::Prune(animator.graph(), {.threshold = kOfflinePruneThreshold});
    const std::string svg = draw(pruned, tamp::ComputeLayout(pruned));
    out.svg.Update(svg.data(), svg.size());
    if (renders != nullptr) renders->emplace_back(begin, Clock::now());
  };
  Clock::time_point frame_begin = Clock::now();
  animator.Play(stream.events(), [&](std::size_t frame,
                                     const tamp::Animator::FrameStats& stats) {
    ++out.frames;
    const bool rendered = frame % kOfflineRenderEvery == 0;
    if (rendered) {
      render([&](const tamp::PrunedGraph& pruned, const tamp::Layout& layout) {
        return tamp::RenderAnimationFrameSvg(pruned, layout,
                                             animator.DecorationsFor(pruned),
                                             stats.clock, std::nullopt);
      });
      ++out.frames_rendered;
    }
    const Clock::time_point now = Clock::now();
    if (stats.events_applied > 0 || rendered) {
      out.busy_frame_ms.push_back(Seconds(frame_begin, now) * 1e3);
    }
    frame_begin = now;
  });
  render([](const tamp::PrunedGraph& pruned, const tamp::Layout& layout) {
    tamp::RenderOptions options;
    options.title = "offline-table1";
    return tamp::RenderSvg(pruned, layout, options);
  });
}

core::PipelineOptions OfflineOptions(std::size_t threads) {
  core::PipelineOptions options;
  options.threads = threads;
  return options;
}

std::uint32_t DigestIncidents(const std::vector<core::Incident>& incidents) {
  util::Crc32Accumulator crc;
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    DigestIncident(crc, i + 1, incidents[i]);
  }
  return crc.value();
}

int RunOffline(const std::string& capture, std::size_t threads,
               bool setup_only) {
  const collector::EventStream stream = LoadCapture(capture);
  const core::Pipeline pipeline(OfflineOptions(threads));
  const double setup_s = SecondsSince(kProcessStart);
  if (setup_only) return PrintSetup(setup_s);

  const double cpu0 = CpuSeconds();
  const Clock::time_point start = Clock::now();
  const std::vector<core::Incident> incidents = pipeline.Analyze(stream);
  OfflineOutput out;
  AnimateAndPicture(stream, out, nullptr);
  const double wall_s = SecondsSince(start);
  const double cpu_s = CpuSeconds() - cpu0;

  std::printf(
      "{\"setup_s\":%.9f,\"wall_s\":%.9f,\"cpu_s\":%.6f,\"rss_mib\":%.3f,"
      "\"events\":%zu,\"frames\":%zu,\"ticks\":%zu,\"incidents\":%zu,"
      "\"digest\":\"%08x\",\"svg_digest\":\"%08x\",\"frames_rendered\":%zu,"
      "\"tick_ms\":%s}\n",
      setup_s, wall_s, cpu_s, PeakRssMib(), stream.size(), out.frames,
      out.busy_frame_ms.size(), incidents.size(), DigestIncidents(incidents),
      out.svg.value(), out.frames_rendered,
      JsonList(out.busy_frame_ms, "%.6f").c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Traced runs.  Spans are kept in memory and written as one Chrome trace
// (Perfetto reads it) when the run ends.

struct Span {
  const char* name;
  Clock::time_point begin;
  Clock::time_point end;
  long long tick;  // the tick (serve) or frame (offline) it belongs to; -1 none
};

class SpanLog {
 public:
  // Times `fn` as a span and returns its seconds.
  template <typename Fn>
  double Time(const char* name, long long tick, Fn&& fn) {
    const Clock::time_point begin = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    spans_.push_back({name, begin, end, tick});
    return Seconds(begin, end);
  }
  void Add(const char* name, Clock::time_point begin, Clock::time_point end,
           long long tick) {
    spans_.push_back({name, begin, end, tick});
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const auto us = [](Clock::duration d) {
        return static_cast<long long>(
            std::chrono::duration_cast<std::chrono::microseconds>(d).count());
      };
      out << (i > 0 ? ",\n" : "\n")
          << StrPrintf("{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                       "\"ts\":%lld,\"dur\":%lld,\"pid\":1,\"tid\":1,"
                       "\"args\":{\"tick\":%lld}}",
                       s.name, static_cast<int>(LayerOf(s.name).size()),
                       LayerOf(s.name).data(), us(s.begin - kProcessStart),
                       us(s.end - s.begin), s.tick);
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  static std::string_view LayerOf(std::string_view name) {
    return name.substr(0, name.find('.'));
  }
  std::vector<Span> spans_;
};

struct StemTotals {
  double stem_s = 0.0;
  double encode_s = 0.0;
  double count_s = 0.0;
  double extract_s = 0.0;
  double parallel_s = 0.0;
  std::size_t events_encoded = 0;
  std::size_t distinct = 0;
  std::size_t bigram_entries = 0;
  std::size_t components = 0;

  void Add(const stemming::StemmingStats& s) {
    encode_s += s.encode_seconds;
    count_s += s.count_seconds;
    extract_s += s.extract_seconds;
    parallel_s += s.parallel_seconds;
    events_encoded += s.events_encoded;
    distinct += s.distinct_sequences;
    bigram_entries += s.bigram_table_size;
    components += s.components;
  }
  std::string Json() const {
    const double stages = encode_s + count_s + extract_s;
    return StrPrintf(
        "\"stemming.stem_s\":%.9f,\"stemming.encode_s\":%.9f,"
        "\"stemming.count_s\":%.9f,\"stemming.extract_s\":%.9f,"
        "\"stemming.events_encoded\":%zu,\"stemming.distinct_ratio\":%.9f,"
        "\"stemming.bigram_entries\":%zu,\"stemming.components\":%zu,"
        "\"stemming.parallel_frac\":%.9f",
        stem_s, encode_s, count_s, extract_s, events_encoded,
        events_encoded == 0 ? 0.0
                            : static_cast<double>(distinct) /
                                  static_cast<double>(events_encoded),
        bigram_entries, components, stages > 0 ? parallel_s / stages : 0.0);
  }
};

// The fields of a logged incident that the re-enactment reproduces.
using IncidentKey =
    std::tuple<std::pair<std::uint64_t, std::uint64_t>, util::SimTime,
               core::IncidentKind, util::SimTime, util::SimTime, std::size_t,
               std::size_t, bool>;

IncidentKey KeyOf(const core::Incident& inc) {
  return {inc.stem_key,    inc.detected_at,  inc.kind,
          inc.begin,       inc.end,          inc.event_count,
          inc.prefix_count, inc.feed_degraded};
}

struct Reencoded {
  std::uint64_t cut_at_tick = 0;  // the tick that cut the snapshot
  double encode_s = 0.0;
  double write_s = 0.0;
  std::size_t bytes = 0;
};

// Re-encodes (and re-writes, to `scratch`) the snapshot the runner last
// completed, decoded back from its checkpoint file; nullopt before the
// first write lands.  `tick` tags the spans (-1: after the last tick).
std::optional<Reencoded> ReencodeSnapshot(const std::string& path,
                                          const std::string& scratch,
                                          long long tick, SpanLog& spans) {
  if (!std::filesystem::exists(path)) return std::nullopt;
  const std::optional<collector::Checkpoint> ck =
      collector::ReadCheckpointFile(path);
  core::LiveCheckpointState state;
  std::string error;
  if (!ck.has_value() || !core::DecodeLiveState(*ck, &state, &error)) {
    std::fprintf(stderr, "perfbench: cannot decode %s: %s\n", path.c_str(),
                 error.c_str());
    std::exit(3);
  }
  // The runner encodes the incident log by reference (the borrowing
  // overload); do the same.
  const std::vector<core::IncidentLog::Entry> incidents =
      std::move(state.incidents);
  state.incidents.clear();
  collector::Checkpoint out;
  Reencoded r;
  r.cut_at_tick = state.stats.ticks;
  r.encode_s = spans.Time("core.EncodeLiveState", tick, [&] {
    core::EncodeLiveState(state, incidents, out);
  });
  bool ok = false;
  r.write_s = spans.Time("collector.WriteCheckpointFile", tick, [&] {
    ok = collector::WriteCheckpointFile(out, scratch);
  });
  if (!ok) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", scratch.c_str());
    std::exit(3);
  }
  r.bytes = std::filesystem::file_size(path);
  return r;
}

int TraceServe(const std::string& capture, std::size_t threads,
               const std::string& checkpoint, const std::string& trace_path) {
  SpanLog spans;
  collector::EventStream stream;
  const double load_s = spans.Time("collector.LoadBinary", -1,
                                   [&] { stream = LoadCapture(capture); });
  obs::HealthRegistry health;
  core::IncidentLog log;
  obs::TimeSeriesStore series;
  obs::ProvenanceLedger ledger;
  health.StartWatchdog(2.5);
  const core::LiveOptions options = ServeOptions(threads, checkpoint);
  core::LiveRunner runner(options, &health, &log, &series, &ledger);
  const double setup_s = SecondsSince(kProcessStart);

  // The real replay.  Each tick is timed from the end of the previous
  // callback to the start of this one, so nothing the harness does runs
  // inside it.  The callback samples the live registry into a shadow
  // store (that needs the registry as of this tick) and, on the tick
  // before each checkpoint, re-encodes the snapshot on disk: the
  // runner's background write of it has landed by then and the next has
  // not begun, so the re-write does not contend with the runner's own.
  //
  // Per-tick seconds, index k for tick k + 1 and the last entry for the
  // tail after the final tick: the real tick, and the layer calls
  // re-enacted for it.
  std::vector<double> real_tick_s;
  std::vector<double> layer_tick_s;
  obs::TimeSeriesStore shadow_series;
  const std::string scratch_checkpoint = checkpoint + ".reencoded";
  double sample_s = 0.0;
  double encode_s = 0.0;
  double write_s = 0.0;
  std::size_t checkpoint_bytes = 0;
  const auto reencode = [&](long long tick) {
    const std::optional<Reencoded> r =
        ReencodeSnapshot(checkpoint, scratch_checkpoint, tick, spans);
    if (!r.has_value()) return;
    encode_s += r->encode_s;
    write_s += r->write_s;
    checkpoint_bytes = r->bytes;
    // The runner encodes a periodic snapshot inside the tick that cut it
    // and writes it on a background thread; the final one it encodes and
    // writes synchronously after the last tick.
    if (tick < 0) {
      layer_tick_s.back() += r->encode_s + r->write_s;
    } else {
      layer_tick_s.at(r->cut_at_tick - 1) += r->encode_s;
    }
  };
  std::vector<util::SimTime> tick_ends;
  const Clock::time_point start = Clock::now();
  Clock::time_point tick_begin = start;
  const core::LiveStats stats =
      runner.Run(stream, nullptr, [&](const core::LiveStats& st) {
        const Clock::time_point now = Clock::now();
        const auto tick = static_cast<long long>(st.ticks);
        spans.Add("core.live.tick", tick_begin, now, tick);
        real_tick_s.push_back(Seconds(tick_begin, now));
        tick_ends.push_back(st.clock);
        layer_tick_s.push_back(
            spans.Time("obs.TimeSeriesStore.Sample", tick, [&] {
              shadow_series.Sample(obs::MetricsRegistry::Global(), st.clock);
            }));
        sample_s += layer_tick_s.back();
        if ((st.ticks + 1) % options.checkpoint_every_ticks == 0) {
          reencode(tick);
        }
        tick_begin = Clock::now();
      });
  const Clock::time_point run_end = Clock::now();
  health.StopWatchdog();
  spans.Add("core.live.tail", tick_begin, run_end, -1);
  real_tick_s.push_back(Seconds(tick_begin, run_end));
  layer_tick_s.push_back(0.0);
  reencode(-1);
  std::filesystem::remove(scratch_checkpoint);

  // The analysis, re-enacted after the replay so it cannot slow the real
  // ticks: each tick's window rebuilt by the live loop's rule — events in
  // [tick_end - window, tick_end), stamped with the tick that ingested
  // them (the first boundary strictly after their time), markers dropped —
  // then AnalyzeWindow, first-seen stem dedup, and provenance for each new
  // incident.  The captures carry no markers; one that did would mark
  // incidents feed-degraded, which the re-enactment does not reproduce,
  // so the incident comparison would fail.
  const util::SimTime t0 = stream.front().time;
  std::vector<bgp::Event> routing;
  routing.reserve(stream.size());
  for (const bgp::Event& e : stream.events()) {
    if (bgp::IsMarker(e.type)) continue;
    routing.push_back(e);
    routing.back().ingest_tick =
        t0 + ((e.time - t0) / options.tick + 1) * options.tick;
  }
  const auto for_each_window = [&](const auto& fn) {
    std::size_t lo = 0;
    std::size_t hi = 0;
    for (std::size_t k = 0; k < tick_ends.size(); ++k) {
      const util::SimTime tick_end = tick_ends[k];
      while (hi < routing.size() && routing[hi].time < tick_end) ++hi;
      while (lo < hi && routing[lo].time < tick_end - options.window) ++lo;
      fn(k, tick_end,
         std::span<const bgp::Event>(routing.data() + lo, hi - lo));
    }
  };
  const core::Pipeline pipeline(options.pipeline);
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  std::vector<IncidentKey> reenacted;
  double analyze_window_s = 0.0;
  double provenance_s = 0.0;
  for_each_window([&](std::size_t k, util::SimTime tick_end,
                      std::span<const bgp::Event> window) {
    const auto tick = static_cast<long long>(k + 1);
    const Clock::time_point reenact_begin = Clock::now();
    std::vector<core::Incident> found;
    const double aw_s = spans.Time("core.Pipeline.AnalyzeWindow", tick, [&] {
      found = pipeline.AnalyzeWindow(window);
    });
    analyze_window_s += aw_s;
    layer_tick_s[k] += aw_s;
    for (core::Incident& inc : found) {
      if (!seen.insert(inc.stem_key).second) continue;
      inc.detected_at = tick_end;
      reenacted.push_back(KeyOf(inc));
      const double prov_s =
          spans.Time("core.Pipeline.PopulateProvenance", tick, [&] {
            core::Pipeline::PopulateProvenance(window, ledger.caps(), inc);
          });
      provenance_s += prov_s;
      layer_tick_s[k] += prov_s;
    }
    spans.Add("perfbench.reenact", reenact_begin, Clock::now(), tick);
  });
  // The stemming figures come from a pass of their own.  A Stem call
  // between two AnalyzeWindow calls, which the live loop never makes,
  // changes what the allocator keeps mapped; on a host where page faults
  // were expensive it doubled the re-enacted AnalyzeWindow seconds.
  util::ThreadPool stem_pool(threads);
  stemming::StemmingOptions stem_options = options.pipeline.stemming;
  stem_options.pool = &stem_pool;
  StemTotals stem;
  for_each_window([&](std::size_t k, util::SimTime,
                      std::span<const bgp::Event> window) {
    const auto tick = static_cast<long long>(k + 1);
    stem.stem_s += spans.Time("stemming.Stem", tick, [&] {
      stem.Add(stemming::Stem(window, stem_options).stats);
    });
  });
  const double traced_s = setup_s + SecondsSince(start);

  // Each checkpoint period (the ticks up to and including one snapshot
  // cut; the tail after the last tick is a period of its own) splits into
  // the layer calls re-enacted for it and the live loop's own remainder.
  // Where the re-enacted calls take longer than the period did, the
  // excess (at most the period) is time the loop no longer spends the way
  // the re-enactment assumes — a re-enactment gone stale — and is
  // attributed to nobody: it shows as lost coverage.  Single ticks are
  // too short for this: re-encoding a decoded snapshot can take a few
  // milliseconds longer than the runner's own encode did.
  const std::size_t ticks = tick_ends.size();
  std::vector<std::pair<double, double>> periods;  // (real, re-enacted)
  for (std::size_t k = 0; k < real_tick_s.size(); ++k) {
    if (k % options.checkpoint_every_ticks == 0 || k == ticks) {
      periods.emplace_back(0.0, 0.0);
    }
    periods.back().first += real_tick_s[k];
    periods.back().second += layer_tick_s[k];
  }
  double real_s = 0.0;
  double live_self_s = 0.0;
  double stale_s = 0.0;
  for (const auto& [real, layers] : periods) {
    real_s += real;
    if (layers <= real) {
      live_self_s += real - layers;
    } else {
      stale_s += std::min(real, layers - real);
    }
  }

  std::vector<IncidentKey> logged;
  util::Crc32Accumulator crc;
  std::vector<double> detected;
  for (const core::IncidentLog::Entry& e : log.Since(0)) {
    logged.push_back(KeyOf(e.incident));
    DigestIncident(crc, e.seq, e.incident);
    detected.push_back(util::ToSeconds(e.incident.detected_at));
  }
  if (!spans.Write(trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    return 3;
  }
  std::printf(
      "{\"setup_s\":%.9f,\"traced_s\":%.9f,\"rss_mib\":%.3f,"
      "\"events\":%zu,\"ticks\":%llu,\"incidents\":%zu,\"digest\":\"%08x\","
      "\"reenacted_incidents\":%zu,\"reenactment_matches\":%s,"
      "\"end_to_end_s\":%.9f,\"attributed_s\":%.9f,\"detected_at_s\":%s,"
      "\"layers\":{"
      "\"collector.load_s\":%.9f,\"collector.checkpoint_write_s\":%.9f,%s,"
      "\"core.pipeline.analyze_window_s\":%.9f,"
      "\"core.pipeline.classify_s\":%.9f,\"core.pipeline.analyze_s\":0,"
      "\"core.live.self_s\":%.9f,\"core.live.ticks\":%llu,"
      "\"core.live.incidents\":%zu,\"core.checkpoint.encode_s\":%.9f,"
      "\"core.checkpoint.bytes\":%zu,"
      "\"core.provenance_s\":%.9f,\"obs.series.sample_s\":%.9f,"
      "\"obs.series.count\":%zu,\"tamp.play_s\":0,\"tamp.render_s\":0,"
      "\"tamp.frames_rendered\":0}}\n",
      setup_s, traced_s, PeakRssMib(), stream.size(),
      static_cast<unsigned long long>(stats.ticks), logged.size(), crc.value(),
      reenacted.size(), logged == reenacted ? "true" : "false",
      setup_s + real_s, setup_s + real_s - stale_s,
      JsonList(detected, "%.6f").c_str(), load_s, write_s, stem.Json().c_str(),
      analyze_window_s, analyze_window_s - stem.stem_s, live_self_s,
      static_cast<unsigned long long>(stats.ticks), logged.size(), encode_s,
      checkpoint_bytes, provenance_s, sample_s, series.series_count());
  return 0;
}

int TraceOffline(const std::string& capture, std::size_t threads,
                 const std::string& trace_path) {
  SpanLog spans;
  collector::EventStream stream;
  const double load_s = spans.Time("collector.LoadBinary", -1,
                                   [&] { stream = LoadCapture(capture); });
  const core::Pipeline pipeline(OfflineOptions(threads));
  const double setup_s = SecondsSince(kProcessStart);

  const Clock::time_point start = Clock::now();
  std::vector<core::Incident> incidents;
  const double analyze_s = spans.Time("core.Pipeline.Analyze", -1, [&] {
    incidents = pipeline.Analyze(stream);
  });
  OfflineOutput out;
  std::vector<Interval> renders;
  const double animate_s = spans.Time("tamp.animate_and_picture", -1, [&] {
    AnimateAndPicture(stream, out, &renders);
  });
  double render_s = 0.0;
  for (std::size_t i = 0; i < renders.size(); ++i) {
    spans.Add("tamp.render", renders[i].first, renders[i].second,
              static_cast<long long>(i * kOfflineRenderEvery));
    render_s += Seconds(renders[i].first, renders[i].second);
  }
  const double traced_s = setup_s + SecondsSince(start);
  if (!spans.Write(trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    return 3;
  }
  // Analyze stems its windows inside one call, so the stemming and
  // per-window figures are reported for the serve workloads only.
  const double play_s = animate_s - render_s;
  std::printf(
      "{\"setup_s\":%.9f,\"traced_s\":%.9f,\"rss_mib\":%.3f,"
      "\"events\":%zu,\"frames\":%zu,\"incidents\":%zu,\"digest\":\"%08x\","
      "\"svg_digest\":\"%08x\",\"end_to_end_s\":%.9f,\"attributed_s\":%.9f,"
      "\"layers\":{"
      "\"collector.load_s\":%.9f,\"collector.checkpoint_write_s\":0,%s,"
      "\"core.pipeline.analyze_window_s\":0,\"core.pipeline.classify_s\":0,"
      "\"core.pipeline.analyze_s\":%.9f,"
      "\"core.live.self_s\":0,\"core.live.ticks\":0,\"core.live.incidents\":0,"
      "\"core.checkpoint.encode_s\":0,\"core.checkpoint.bytes\":0,"
      "\"core.provenance_s\":0,"
      "\"obs.series.sample_s\":0,\"obs.series.count\":0,"
      "\"tamp.play_s\":%.9f,\"tamp.render_s\":%.9f,"
      "\"tamp.frames_rendered\":%zu}}\n",
      setup_s, traced_s, PeakRssMib(), stream.size(),
      out.frames, incidents.size(), DigestIncidents(incidents),
      out.svg.value(), traced_s, setup_s + analyze_s + animate_s, load_s,
      StemTotals{}.Json().c_str(), analyze_s, play_s, render_s,
      out.frames_rendered);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen WORKLOAD SEED CAPTURE\n"
               "       perfbench run WORKLOAD CAPTURE THREADS CHECKPOINT\n"
               "       perfbench setup WORKLOAD CAPTURE THREADS\n"
               "       perfbench trace WORKLOAD CAPTURE THREADS CHECKPOINT "
               "TRACE_JSON\n"
               "WORKLOAD: serve-dump | serve-quiet | offline-table1\n");
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string_view cmd = argv[1];
  const std::optional<Workload> workload = ParseWorkload(argv[2]);
  if (!workload.has_value()) return Usage();
  const bool serve = *workload != Workload::kOfflineTable1;
  if (cmd == "gen" && argc == 5) {
    return CmdGen(*workload, std::stoull(argv[3]), argv[4]);
  }
  if ((cmd == "run" && argc == 6) || (cmd == "setup" && argc == 5) ||
      (cmd == "trace" && argc == 7)) {
    const std::size_t threads = std::stoul(argv[4]);
    if (threads == 0) return Usage();
    if (cmd != "trace") {
      const bool setup_only = cmd == "setup";
      return serve ? RunServe(argv[3], threads, setup_only ? "" : argv[5],
                              setup_only)
                   : RunOffline(argv[3], threads, setup_only);
    }
    return serve ? TraceServe(argv[3], threads, argv[5], argv[6])
                 : TraceOffline(argv[3], threads, argv[6]);
  }
  return Usage();
}

}  // namespace
}  // namespace ranomaly::perfbench

int main(int argc, char** argv) { return ranomaly::perfbench::Main(argc, argv); }
