#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace ranomaly::util {
namespace {

// Set while a thread runs chunks; a nested ParallelFor (any pool) then
// runs inline instead of starting lanes of its own.
thread_local bool tls_in_lane = false;

// Runs the chunks this thread claims from `next` until none is left and
// returns the nanoseconds spent inside fn.
std::uint64_t RunChunks(std::atomic<std::size_t>& next, std::size_t chunks,
                        const std::function<void(std::size_t)>& fn) {
  const bool was_in_lane = tls_in_lane;
  tls_in_lane = true;
  std::uint64_t busy_ns = 0;
  for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
       i < chunks; i = next.fetch_add(1, std::memory_order_relaxed)) {
    StageTimer chunk_timer;
    fn(i);
    const double seconds = chunk_timer.Seconds();
    busy_ns += static_cast<std::uint64_t>(seconds * 1e9);
    RANOMALY_METRIC_COUNT("pool_chunks_total", 1);
    RANOMALY_METRIC_OBSERVE("pool_chunk_seconds", obs::TimeBounds(), seconds);
  }
  tls_in_lane = was_in_lane;
  return busy_ns;
}

}  // namespace

std::size_t ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("RANOMALY_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) {
      return std::min(static_cast<std::size_t>(parsed), kMaxThreads);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads == 0 ? DefaultThreadCount() : threads) {
  RANOMALY_METRIC_SET("pool_threads", static_cast<double>(threads_));
}

void ThreadPool::ParallelFor(std::size_t chunks,
                             const std::function<void(std::size_t)>& fn) {
  if (chunks == 0) return;
  RANOMALY_METRIC_COUNT("pool_jobs_total", 1);
  obs::TraceSpan span("pool.parallel_for");
  span.Annotate("chunks", static_cast<std::uint64_t>(chunks));
  std::atomic<std::size_t> next{0};
  const std::size_t lanes = tls_in_lane ? 1 : std::min(threads_, chunks);
  if (lanes == 1) {
    span.Annotate("mode", "inline");
    RunChunks(next, chunks, fn);
    return;
  }
  span.Annotate("mode", "pooled");
  StageTimer job_timer;
  std::atomic<std::uint64_t> busy_ns{0};
  {
    // Declared after everything the lanes read, so that leaving this
    // scope, by an exception too, joins them while it is all alive.
    std::vector<std::jthread> started;
    started.reserve(lanes - 1);
    for (std::size_t lane = 1; lane < lanes; ++lane) {  // the caller is 0
      started.emplace_back([&, lane] {
        // A name allocates the thread's trace buffer, which lives as long
        // as the tracer: only worth it when spans are being recorded.
        obs::Tracer& tracer = obs::Tracer::Global();
        if (tracer.enabled()) {
          tracer.SetCurrentThreadName("pool-worker-" + std::to_string(lane));
        }
        busy_ns.fetch_add(RunChunks(next, chunks, fn),
                          std::memory_order_relaxed);
      });
    }
    busy_ns.fetch_add(RunChunks(next, chunks, fn), std::memory_order_relaxed);
  }
  // Utilization = busy time over threads() x wall.  Gauge + *_seconds
  // histograms only: all are wall-derived, so they are exempt from the
  // cross-thread-count metric determinism contract.
  const double wall = job_timer.Seconds();
  const double busy =
      static_cast<double>(busy_ns.load(std::memory_order_relaxed)) / 1e9;
  if (wall > 0.0) {
    RANOMALY_METRIC_SET(
        "pool_utilization",
        std::min(1.0, busy / (wall * static_cast<double>(threads_))));
  }
  RANOMALY_METRIC_OBSERVE("pool_job_seconds", obs::TimeBounds(), wall);
  RANOMALY_METRIC_OBSERVE("pool_busy_seconds", obs::TimeBounds(), busy);
}

}  // namespace ranomaly::util
