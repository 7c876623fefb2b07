// Checkpoint-overhead benchmark: what does periodic analysis-tier
// checkpointing cost a live replay?
//
// BM_LiveReplayBare runs core::LiveRunner over a session-reset-plus-
// churn capture with durability off.  BM_LiveReplayCheckpointed runs
// the identical replay cutting an RNC1 v2 snapshot (in-flight admission
// classes, incident log, stemmer vocabulary, peer board, SLO histogram)
// every 16 ticks — the serve default.
//
// `--paired N` bypasses Google Benchmark and runs N (bare,
// checkpointed) pairs back-to-back in this one process, alternating
// which side goes first, timing each replay with a process-CPU-clock
// delta.  On a shared box, background load shifts on a multi-second
// scale and inflates both sides of an adjacent pair by the same
// factor, so the per-pair ratio cancels it; separate processes (the
// plain Google Benchmark run) can land in load regimes that differ by
// 60% and bury a few-percent effect.  tools/run_bench.sh
// --checkpoint-overhead distils the paired run into a
// `checkpoint_overhead` row in BENCH_stemming.json (budget: <= 3%,
// see docs/OBSERVABILITY.md).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <string>
#include <string_view>

#include "core/live.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "util/time.h"
#include "workload/eventgen.h"

namespace ranomaly::bench {
namespace {

using util::kMinute;
using util::kSecond;

const collector::EventStream& Workload() {
  static const collector::EventStream* stream = [] {
    workload::InternetOptions options;
    options.monitored_peers = 5;
    options.prefix_count = 600;
    options.origin_as_count = 120;
    options.seed = 7;
    const workload::SyntheticInternet internet(options);
    workload::EventStreamGenerator gen(internet, 8);
    gen.SessionReset(0, 10 * kMinute, kMinute, 20 * kSecond);
    // A busy feed (~250 events/s average): the overhead fraction is
    // checkpoint cost over replay cost per interval, and an unpaced
    // replay of a sparse feed deflates the denominator by orders of
    // magnitude relative to a paced production tick (10 s of wall).
    gen.Churn(0, 30 * kMinute, 40000);
    return new collector::EventStream(gen.Take());
  }();
  return *stream;
}

core::LiveOptions ReplayOptions() {
  core::LiveOptions options;
  options.tick = 10 * kSecond;
  options.window = 5 * kMinute;
  options.slo_target_sec = 30.0;
  return options;
}

core::LiveStats RunOnce(const core::LiveOptions& options) {
  obs::HealthRegistry health;
  core::IncidentLog incidents;
  std::atomic<bool> keep_going{true};
  core::LiveRunner runner(options, &health, &incidents);
  return runner.Run(Workload(), &keep_going,
                    [](const core::LiveStats&) {});
}

void BM_LiveReplayBare(benchmark::State& state) {
  Workload();  // force stream generation outside the timed loop
  const core::LiveOptions options = ReplayOptions();
  std::uint64_t incidents = 0;
  for (auto _ : state) {
    incidents = RunOnce(options).incidents;
  }
  state.counters["events"] = static_cast<double>(Workload().size());
  state.counters["incidents"] = static_cast<double>(incidents);
}
// Process CPU time (all threads, including the background checkpoint
// writer) is the comparison metric: it charges the full compute cost of
// snapshotting while excluding fsync sleep and — critical on a shared
// box — other tenants' CPU steal, which swamps a few-percent effect in
// wall time.
BENCHMARK(BM_LiveReplayBare)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

void BM_LiveReplayCheckpointed(benchmark::State& state) {
  Workload();  // force stream generation outside the timed loop
  core::LiveOptions options = ReplayOptions();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       "ranomaly_bench_ckpt.rnc1").string();
  options.checkpoint_path = path;
  options.checkpoint_every_ticks = 16;
  std::uint64_t writes = 0;
  for (auto _ : state) {
    // Each iteration must replay from scratch: a leftover snapshot from
    // the previous iteration would be restored and skip the work.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    writes = RunOnce(options).checkpoint_writes;
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".tmp", ec);
  state.counters["events"] = static_cast<double>(Workload().size());
  state.counters["checkpoint_writes"] = static_cast<double>(writes);
}
BENCHMARK(BM_LiveReplayCheckpointed)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

double ProcessCpuNs() {
  std::timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
}

}  // namespace

// Runs `pairs` regime-matched (bare, checkpointed) replay pairs and
// prints one JSON object to stdout; progress goes to stderr.
int RunPaired(int pairs) {
  Workload();  // force stream generation outside any timed region
  const core::LiveOptions bare = ReplayOptions();
  core::LiveOptions checkpointed = ReplayOptions();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       "ranomaly_bench_ckpt.rnc1").string();
  checkpointed.checkpoint_path = path;
  checkpointed.checkpoint_every_ticks = 16;

  const auto run = [&](const core::LiveOptions& options) {
    // A leftover snapshot would be restored and skip the replay work.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    const double start = ProcessCpuNs();
    RunOnce(options);
    return ProcessCpuNs() - start;
  };

  run(bare);  // one warm-up of each side before anything is recorded
  run(checkpointed);
  std::printf("{\"checkpoint_every_ticks\": %llu, \"pairs\": [",
              static_cast<unsigned long long>(
                  checkpointed.checkpoint_every_ticks));
  for (int i = 0; i < pairs; ++i) {
    double bare_ns = 0.0;
    double checkpointed_ns = 0.0;
    // Alternate which side runs first so a monotonic load drift across
    // the ~1 s pair window biases half the pairs each way.
    if (i % 2 == 0) {
      bare_ns = run(bare);
      checkpointed_ns = run(checkpointed);
    } else {
      checkpointed_ns = run(checkpointed);
      bare_ns = run(bare);
    }
    std::printf("%s{\"bare_ns\": %.0f, \"checkpointed_ns\": %.0f}",
                i == 0 ? "" : ", ", bare_ns, checkpointed_ns);
    std::fprintf(stderr, "pair %d/%d: bare %.1f ms, checkpointed %.1f ms "
                 "(ratio %.4f)\n", i + 1, pairs, bare_ns / 1e6,
                 checkpointed_ns / 1e6, checkpointed_ns / bare_ns);
  }
  std::printf("]}\n");
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".tmp", ec);
  return 0;
}

}  // namespace ranomaly::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--paired" && i + 1 < argc) {
      return ranomaly::bench::RunPaired(std::atoi(argv[i + 1]));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
