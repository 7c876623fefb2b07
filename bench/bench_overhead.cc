// Overhead benchmark: what does one operator-facing feature cost the
// analysis it watches?
//
//   bench_overhead <serve|dashboard|checkpoint|provenance> --pairs N
//
// Each row compares a base side with a treated side that adds one
// feature, over one of two shared workloads:
//
//   serve       Pipeline::Analyze batches on a Table-I-shaped spike,
//               treated: a 1 Hz /metrics + /varz scraper is served.
//   dashboard   the same batches, each iteration also sampling the
//               time-series store (serve samples every tick whether or
//               not anyone watches, so sampling is baseline); treated:
//               one dashboard tab's 1 Hz request rotation is served.
//   checkpoint  one live replay of a session-reset + churn capture;
//               treated: an RNC1 snapshot every 16 ticks (serve default).
//   provenance  the same replay; treated: a provenance ledger captures
//               evidence for every incident.
//
// Each side is timed as a process-CPU delta, which charges the server,
// client and checkpoint-writer threads to the side that runs them while
// excluding other tenants' CPU steal.  Both sides of a pair run back to
// back in this process, the first side alternating between pairs, so a
// load drift shared by adjacent sides cancels in the pair's ratio.  Each
// side runs once as a warm-up before recording starts.
//
// Prints {"row": ..., "pairs": [{"base_ns": ..., "treated_ns": ...}, ...]}
// on stdout; tools/run_bench.py --overhead turns it into a row of
// BENCH_stemming.json.  Exits non-zero when the two sides of a pair
// computed different incidents or a side resumed from a checkpoint.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/live.h"
#include "core/pipeline.h"
#include "obs/health.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/timeseries.h"
#include "table1_common.h"
#include "util/crc32.h"
#include "util/strings.h"
#include "util/time.h"

namespace ranomaly::bench {
namespace {

using util::kMinute;
using util::kSecond;

// What a side computed, compared across the two sides of every pair.
struct Outcome {
  std::uint32_t digest = 0;  // CRC-32 of the incidents
  bool restored = false;     // the live replay resumed from a checkpoint
};

using Side = std::function<Outcome(bool treated)>;

double ProcessCpuNs() {
  std::timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
}

std::uint32_t Digest(const std::string& s) {
  return util::Crc32(s.data(), s.size());
}

// ---------------------------------------------------------------------------
// Analysis batches (serve, dashboard).

const collector::EventStream& SpikeWorkload() {
  static const collector::EventStream* stream = [] {
    const workload::SyntheticInternet internet = BerkeleyScale(23'000);
    return new collector::EventStream(SpikeEvents(internet, 57'000, 42));
  }();
  return *stream;
}

// Starts an ops server over `series` (dashboard on when set) and a client
// thread requesting `rotation` once per second until destroyed.
class PolledServer {
 public:
  PolledServer(obs::TimeSeriesStore* series,
               std::vector<const char*> rotation)
      : server_(core::MakeOpsHandler(
            &obs::MetricsRegistry::Global(), &health_, &incidents_,
            core::OpsInfo{"bench", 30.0, 10.0, 300.0}, series,
            /*dashboard=*/series != nullptr)),
        rotation_(std::move(rotation)) {
    std::string error;
    if (!server_.Start(0, &error)) {
      std::fprintf(stderr, "server start failed: %s\n", error.c_str());
      std::exit(1);
    }
    client_ = std::thread([this] {
      for (std::size_t i = 0; !done_.load(std::memory_order_acquire); ++i) {
        obs::HttpGet(server_.port(), rotation_[i % rotation_.size()]);
        std::this_thread::sleep_for(std::chrono::seconds(1));
      }
    });
  }
  ~PolledServer() {
    done_.store(true, std::memory_order_release);
    client_.join();
    server_.Stop();
  }
  PolledServer(const PolledServer&) = delete;
  PolledServer& operator=(const PolledServer&) = delete;

 private:
  obs::HealthRegistry health_;
  core::IncidentLog incidents_;
  obs::HttpServer server_;
  std::vector<const char*> rotation_;
  std::atomic<bool> done_{false};
  std::thread client_;
};

// Analyze batches calibrated to ~2 s of process CPU per side: long
// enough to cover a couple of 1 Hz requests, short enough that load
// regimes stay matched within a pair.  With `sample`, every iteration
// also samples the registry into a time-series store, which the treated
// side serves as a dashboard; otherwise the treated side is scraped.
Side AnalyzeBatches(bool sample) {
  struct State {
    core::Pipeline pipeline{core::PipelineOptions{.threads = 2}};
    obs::TimeSeriesStore store;
    std::int64_t sim_now = 0;  // one tier-0 bucket per iteration
    int iters = 0;
  };
  auto state = std::make_shared<State>();
  const collector::EventStream& stream = SpikeWorkload();
  const double start = ProcessCpuNs();
  state->pipeline.Analyze(stream);
  state->iters =
      std::max(8, static_cast<int>(2e9 / (ProcessCpuNs() - start)));

  return [state, sample, &stream](bool treated) {
    std::optional<PolledServer> server;
    if (treated && sample) {
      server.emplace(&state->store,
                     std::vector<const char*>{
                         "/dashboard",
                         "/api/series?name=serve_events_ingested_total&res=1",
                         "/api/incidents/timeline"});
    } else if (treated) {
      server.emplace(nullptr, std::vector<const char*>{"/metrics", "/varz"});
    }
    std::vector<core::Incident> incidents;
    for (int i = 0; i < state->iters; ++i) {
      incidents = state->pipeline.Analyze(stream);
      if (sample) {
        state->sim_now += kSecond;
        state->store.Sample(obs::MetricsRegistry::Global(), state->sim_now);
      }
    }
    std::string text;
    for (const core::Incident& inc : incidents) {
      text += util::StrPrintf("%s|%lld|%lld|%zu|%s\n",
                              core::ToString(inc.kind),
                              static_cast<long long>(inc.begin),
                              static_cast<long long>(inc.end),
                              inc.event_count, inc.summary.c_str());
    }
    return Outcome{Digest(text), false};
  };
}

// ---------------------------------------------------------------------------
// Live replays (checkpoint, provenance).

// A session reset over 30 minutes of churn, ~44k events.  The table is
// large enough for the reset to stand out of the churn, so the replay
// logs incidents (3): the ledger captures evidence only for incidents,
// and the sides' digests need incidents to compare.
const collector::EventStream& ReplayWorkload() {
  static const collector::EventStream* stream = [] {
    workload::InternetOptions options;
    options.monitored_peers = 5;
    options.prefix_count = 2000;
    options.origin_as_count = 120;
    options.seed = 7;
    const workload::SyntheticInternet internet(options);
    workload::EventStreamGenerator gen(internet, 8);
    gen.SessionReset(0, 10 * kMinute, kMinute, 20 * kSecond);
    gen.Churn(0, 30 * kMinute, 40000);
    return new collector::EventStream(gen.Take());
  }();
  return *stream;
}

Outcome Replay(const core::LiveOptions& options,
               obs::ProvenanceLedger* ledger) {
  obs::HealthRegistry health;
  core::IncidentLog incidents;
  std::atomic<bool> keep_going{true};
  core::LiveRunner runner(options, &health, &incidents, nullptr, ledger);
  const core::LiveStats stats = runner.Run(ReplayWorkload(), &keep_going);
  return Outcome{Digest(incidents.ToJson(0)), stats.restored};
}

core::LiveOptions ReplayOptions() {
  core::LiveOptions options;
  options.tick = 10 * kSecond;
  options.window = 5 * kMinute;
  options.slo_target_sec = 30.0;
  return options;
}

// The snapshot path is per process, so concurrent runs never share a
// file.  Each checkpointed side deletes the snapshot it cut; a side that
// finds one anyway (left by a killed run under a recycled pid) resumes
// from it, and RunPairs refuses the run.
Side Checkpointed() {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ranomaly_bench_ckpt." + std::to_string(getpid()) + ".rnc1"))
          .string();
  return [path](bool treated) {
    core::LiveOptions options = ReplayOptions();
    if (treated) options.checkpoint_path = path;
    const Outcome outcome = Replay(options, nullptr);
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::filesystem::remove(path + ".tmp", ec);
    return outcome;
  };
}

Side WithProvenance() {
  return [](bool treated) {
    obs::ProvenanceLedger ledger;
    return Replay(ReplayOptions(), treated ? &ledger : nullptr);
  };
}

// ---------------------------------------------------------------------------
// Paired runs.

bool Consistent(const Outcome& base, const Outcome& treated) {
  if (base.restored || treated.restored) {
    std::fprintf(stderr, "FAIL: a side resumed from a checkpoint\n");
    return false;
  }
  if (base.digest != treated.digest) {
    std::fprintf(stderr, "FAIL: incident digests differ: base %08x, "
                 "treated %08x\n", base.digest, treated.digest);
    return false;
  }
  return true;
}

int RunPairs(std::string_view row, const Side& side, int pairs) {
  if (!Consistent(side(false), side(true))) return 1;  // warm-up
  std::printf("{\"row\": \"%.*s\", \"pairs\": [",
              static_cast<int>(row.size()), row.data());
  for (int i = 0; i < pairs; ++i) {
    double ns[2] = {0.0, 0.0};
    Outcome outcome[2];
    // Alternate the first side so a monotonic load drift across the
    // pair window biases half the pairs each way.
    for (const bool treated : {i % 2 == 1, i % 2 == 0}) {
      const double start = ProcessCpuNs();
      outcome[treated] = side(treated);
      ns[treated] = ProcessCpuNs() - start;
    }
    if (!Consistent(outcome[0], outcome[1])) return 1;
    std::printf("%s{\"base_ns\": %.0f, \"treated_ns\": %.0f}",
                i == 0 ? "" : ", ", ns[0], ns[1]);
    std::fflush(stdout);
    std::fprintf(stderr, "%.*s pair %d/%d: base %.1f ms, treated %.1f ms "
                 "(%+.2f%%)\n", static_cast<int>(row.size()), row.data(),
                 i + 1, pairs, ns[0] / 1e6, ns[1] / 1e6,
                 (ns[1] / ns[0] - 1.0) * 100.0);
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace
}  // namespace ranomaly::bench

int main(int argc, char** argv) {
  using namespace ranomaly::bench;
  const std::string_view row = argc > 1 ? argv[1] : "";
  int pairs = 0;
  if (argc == 4 && std::string_view(argv[2]) == "--pairs") {
    pairs = std::atoi(argv[3]);
  }
  Side side;
  if (row == "serve") {
    side = AnalyzeBatches(/*sample=*/false);
  } else if (row == "dashboard") {
    side = AnalyzeBatches(/*sample=*/true);
  } else if (row == "checkpoint") {
    side = Checkpointed();
  } else if (row == "provenance") {
    side = WithProvenance();
  }
  if (!side || pairs < 1) {
    std::fprintf(stderr, "usage: %s <serve|dashboard|checkpoint|provenance> "
                 "--pairs N\n", argv[0]);
    return 2;
  }
  return RunPairs(row, side, pairs);
}
