// End-to-end ingest-to-incident throughput: how many events/s does the
// full live path (tick ingest -> windowed analysis -> incident dedup ->
// log append) sustain?  The replay runs at 1/2/4/8
// `PipelineOptions::threads`.  The live path stems and classifies each
// window on the replay thread, so today every count times the same
// serial path; the curve is where cores put across a tick's stages
// would have to show.
//
// This is the trajectory row every later scaling PR is judged against
// (stated target: 1M events/s).  The replay is the `ranomaly serve`
// steady state with production-shaped cadence (10 s ticks, 5 min
// window), so each event is analyzed in every window that slides over
// it — the events/s figure charges that full cost, not just parsing.
//
// It prints one JSON object for tools/run_bench.py --throughput: every
// rep's events/s per thread count, the host CPU count (thread counts
// beyond it time-slice one core and cannot speed up wall time), and a
// cross-thread determinism verdict — every thread count must produce a
// byte-identical incident stream, which the harness refuses to record
// otherwise.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/live.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "util/stats.h"
#include "util/time.h"
#include "workload/eventgen.h"
#include "workload/internet_scale.h"

namespace ranomaly::bench {
namespace {

using util::kMinute;
using util::kSecond;

// Staggered session resets plus a tier-1 failover over steady churn:
// distinct anomalies whose bursts rise above the churn baseline, so
// the replay produces a real incident stream to assert byte-identity
// on — not just raw ingest.  (At the largest churn sizes the per-tick
// baseline approaches the 5x spike factor and fewer bursts qualify;
// the stream stays non-empty via the tier-1 failover.)
const collector::EventStream& Workload(std::size_t churn_events) {
  static std::size_t cached_size = 0;
  static const collector::EventStream* stream = nullptr;
  if (stream == nullptr || cached_size != churn_events) {
    workload::InternetOptions options;
    options.monitored_peers = 5;
    options.prefix_count = 4000;
    options.origin_as_count = 400;
    options.seed = 7;
    const workload::SyntheticInternet internet(options);
    workload::EventStreamGenerator gen(internet, 8);
    gen.SessionReset(0, 8 * kMinute, 30 * kSecond, 5 * kSecond);
    gen.SessionReset(1, 14 * kMinute, 30 * kSecond, 5 * kSecond);
    gen.SessionReset(2, 20 * kMinute, 30 * kSecond, 5 * kSecond);
    gen.Tier1Failover(0, 1, 25 * kMinute, 15 * kSecond);
    gen.Churn(0, 30 * kMinute, churn_events);
    delete stream;
    stream = new collector::EventStream(gen.Take());
    cached_size = churn_events;
  }
  return *stream;
}

// The internet-scale table-dump + churn stream (BuildInternetScale):
// tens of thousands of ASes, 200k+ prefixes, a million-route dump.
// This is the paper-scale row — the full-table regime the Table I
// datasets live in, as opposed to Workload()'s churn-dominated replay.
const collector::EventStream& InternetWorkload(std::size_t ases,
                                               std::size_t prefixes,
                                               std::size_t peers) {
  static const collector::EventStream* stream = nullptr;
  static std::size_t cached[3] = {0, 0, 0};
  if (stream == nullptr || cached[0] != ases || cached[1] != prefixes ||
      cached[2] != peers) {
    workload::InternetScaleOptions options;
    options.as_count = ases;
    options.prefix_count = prefixes;
    options.monitored_peer_count = peers;
    std::string error;
    auto built = workload::BuildInternetScale(options, &error);
    if (!built) {
      std::fprintf(stderr, "internet workload: %s\n", error.c_str());
      std::abort();
    }
    delete stream;
    stream = new collector::EventStream(std::move(built->stream));
    cached[0] = ases;
    cached[1] = prefixes;
    cached[2] = peers;
  }
  return *stream;
}

core::LiveOptions ReplayOptions(std::size_t threads) {
  core::LiveOptions options;
  options.pipeline.threads = threads;
  options.tick = 10 * kSecond;
  options.window = 5 * kMinute;
  options.slo_target_sec = 30.0;
  return options;
}

struct RunResult {
  double seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t incidents = 0;
  std::string incident_json;  // byte-identity witness across thread counts
};

RunResult RunOnce(const collector::EventStream& stream, std::size_t threads) {
  obs::HealthRegistry health;
  core::IncidentLog incidents;
  std::atomic<bool> keep_going{true};
  core::LiveRunner runner(ReplayOptions(threads), &health, &incidents);
  const util::StageTimer timer;
  const core::LiveStats stats =
      runner.Run(stream, &keep_going, [](const core::LiveStats&) {});
  RunResult result;
  result.seconds = timer.Seconds();
  result.events = stats.events_ingested;
  result.incidents = stats.incidents;
  result.incident_json = incidents.ToJson(0);
  return result;
}

}  // namespace

// Runs the full replay `reps` times per thread count (after one warm-up
// at the first count) and prints every run in one JSON object to
// stdout; progress goes to stderr.  Exits non-zero if any run's
// incident stream differs from the first run's.
int RunJson(const collector::EventStream& stream, int reps,
            const std::vector<std::size_t>& thread_counts) {
  RunOnce(stream, thread_counts.front());  // warm caches and allocator
  std::string reference;
  bool identical = true;
  std::printf("{\"events\": %zu, \"host_cpus\": %u, \"rows\": [",
              static_cast<std::size_t>(stream.size()),
              std::thread::hardware_concurrency());
  bool first = true;
  for (const std::size_t threads : thread_counts) {
    std::printf("%s{\"threads\": %zu, \"reps\": [", first ? "" : ", ",
                threads);
    for (int r = 0; r < reps; ++r) {
      const RunResult run = RunOnce(stream, threads);
      if (reference.empty()) reference = run.incident_json;
      if (run.incident_json != reference) identical = false;
      const double events_per_sec =
          static_cast<double>(run.events) / run.seconds;
      std::printf("%s{\"seconds\": %.4f, \"events_per_sec\": %.0f, "
                  "\"incidents\": %llu}",
                  r == 0 ? "" : ", ", run.seconds, events_per_sec,
                  static_cast<unsigned long long>(run.incidents));
      std::fprintf(stderr,
                   "threads %zu rep %d/%d: %.2f s, %.0f events/s, "
                   "%llu incidents\n",
                   threads, r + 1, reps, run.seconds, events_per_sec,
                   static_cast<unsigned long long>(run.incidents));
    }
    std::printf("]}");
    first = false;
  }
  std::printf("], \"incident_streams_identical\": %s}\n",
              identical ? "true" : "false");
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: incident streams differ across thread counts\n");
    return 1;
  }
  return 0;
}

}  // namespace ranomaly::bench

int main(int argc, char** argv) {
  std::size_t events = 200'000;
  int reps = 2;
  std::vector<std::size_t> threads = {1, 2, 4, 8};
  bool internet = false;
  std::size_t ases = 32'000;
  std::size_t prefixes = 210'000;
  std::size_t peers = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--internet") {
      internet = true;
    } else if (arg == "--ases" && i + 1 < argc) {
      ases = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--prefixes" && i + 1 < argc) {
      prefixes = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--peers" && i + 1 < argc) {
      peers = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--events" && i + 1 < argc) {
      events = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads.clear();
      for (const char* p = argv[++i]; *p != '\0';) {
        threads.push_back(static_cast<std::size_t>(std::strtoul(p, nullptr, 10)));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    }
  }
  const ranomaly::collector::EventStream& stream =
      internet ? ranomaly::bench::InternetWorkload(ases, prefixes, peers)
               : ranomaly::bench::Workload(events);
  return ranomaly::bench::RunJson(stream, reps < 1 ? 1 : reps, threads);
}
