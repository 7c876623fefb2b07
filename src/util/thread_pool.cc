#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace ranomaly::util {
namespace {

// Set while a thread is executing pool work; nested ParallelFor calls
// (any pool) detect it and run inline instead of waiting on a pool that
// may be saturated by their own ancestors.
thread_local bool tls_in_pool_worker = false;

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
  workers_.reserve(threads_ > 0 ? threads_ - 1 : 0);
  for (std::size_t i = 0; i + 1 < threads_; ++i) {
    const std::size_t worker_index = i + 1;  // caller thread is worker 0
    workers_.emplace_back([this, worker_index] {
      obs::Tracer::Global().SetCurrentThreadName(
          "pool-worker-" + std::to_string(worker_index));
      WorkerMain();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::RunChunks(std::uint32_t generation,
                           const std::function<void(std::size_t)>& fn,
                           std::size_t end) {
  // Claims are CAS increments on a (generation | index) word: a worker
  // waking late can never claim an index against a newer job's bounds,
  // because the generation tag no longer matches.
  const bool was_in_worker = tls_in_pool_worker;
  tls_in_pool_worker = true;
  std::uint64_t v = claim_.load(std::memory_order_acquire);
  for (;;) {
    if (static_cast<std::uint32_t>(v >> 32) != generation) break;
    const std::size_t idx = static_cast<std::uint32_t>(v);
    if (idx >= end) break;
    if (!claim_.compare_exchange_weak(v, v + 1, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      continue;  // v reloaded by the failed CAS
    }
    {
      StageTimer chunk_timer;
      fn(idx);
      const double seconds = chunk_timer.Seconds();
      busy_ns_.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                         std::memory_order_relaxed);
      RANOMALY_METRIC_COUNT("pool_chunks_total", 1);
      RANOMALY_METRIC_OBSERVE("pool_chunk_seconds", obs::TimeBounds(),
                              seconds);
    }
    if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 == end) {
      // Last chunk: wake the caller.  Lock so the notify cannot slip
      // between the caller's predicate check and its wait.
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
    v = claim_.load(std::memory_order_acquire);
  }
  tls_in_pool_worker = was_in_worker;
}

void ThreadPool::WorkerMain() {
  std::uint32_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t end = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      fn = fn_;
      end = end_;
    }
    // A worker that wakes only after its job completed finds fn_ reset:
    // the job is done, so there is nothing to claim.
    if (fn == nullptr) continue;
    RunChunks(seen_generation, *fn, end);
  }
}

void ThreadPool::RunInline(std::size_t chunks,
                           const std::function<void(std::size_t)>& fn) {
  // Serial pool, trivial job, or nested call from a worker.
  const bool was_in_worker = tls_in_pool_worker;
  tls_in_pool_worker = true;
  for (std::size_t i = 0; i < chunks; ++i) {
    StageTimer chunk_timer;
    fn(i);
    RANOMALY_METRIC_COUNT("pool_chunks_total", 1);
    RANOMALY_METRIC_OBSERVE("pool_chunk_seconds", obs::TimeBounds(),
                            chunk_timer.Seconds());
  }
  tls_in_pool_worker = was_in_worker;
}

void ThreadPool::ParallelFor(std::size_t chunks,
                             const std::function<void(std::size_t)>& fn) {
  if (chunks == 0) return;
  RANOMALY_METRIC_COUNT("pool_jobs_total", 1);
  obs::TraceSpan span("pool.parallel_for");
  span.Annotate("chunks", static_cast<std::uint64_t>(chunks));
  if (workers_.empty() || chunks == 1 || tls_in_pool_worker) {
    span.Annotate("mode", "inline");
    RunInline(chunks, fn);
    return;
  }
  span.Annotate("mode", "pooled");
  std::lock_guard<std::mutex> caller_lock(caller_mu_);
  StageTimer job_timer;
  std::uint32_t generation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    generation = ++generation_;
    fn_ = &fn;
    end_ = chunks;
    completed_.store(0, std::memory_order_relaxed);
    busy_ns_.store(0, std::memory_order_relaxed);
    claim_.store(static_cast<std::uint64_t>(generation) << 32,
                 std::memory_order_release);
  }
  work_cv_.notify_all();
  // The caller runs chunks too.
  RunChunks(generation, fn, chunks);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return completed_.load(std::memory_order_acquire) == end_;
  });
  fn_ = nullptr;
  lock.unlock();
  // Utilization = busy time over lanes x wall.  Gauge + *_seconds
  // histogram only: both are wall-derived, so they are exempt from the
  // cross-thread-count metric determinism contract.
  const double wall = job_timer.Seconds();
  const double busy =
      static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) / 1e9;
  if (wall > 0.0 && threads_ > 0) {
    RANOMALY_METRIC_SET(
        "pool_utilization",
        std::min(1.0, busy / (wall * static_cast<double>(threads_))));
  }
  RANOMALY_METRIC_OBSERVE("pool_job_seconds", obs::TimeBounds(), wall);
  RANOMALY_METRIC_OBSERVE("pool_busy_seconds", obs::TimeBounds(), busy);
}

}  // namespace ranomaly::util
