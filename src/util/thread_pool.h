// Fixed-size deterministic thread pool.
//
// Its users (Pipeline::Analyze's spike-window fan-out, internet-scale
// generation's propagation waves) need parallelism whose *results* are
// bit-identical to the serial path.  The pool therefore has no work
// stealing and no scheduling freedom that could leak into outputs: work
// is expressed as `chunks` indexed tasks, callers store per-chunk results
// and merge them in chunk order, so which thread ran a chunk can never
// matter.  Thread count is an execution resource, not an algorithm
// parameter — `RANOMALY_THREADS=1` and `RANOMALY_THREADS=8` must produce
// identical bytes.
//
// Nesting: ParallelFor issued from inside a pool worker (by code that a
// chunk calls) runs inline on that worker rather than deadlocking on the
// already-busy pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace ranomaly::util {

class ThreadPool {
 public:
  // threads == 0 picks DefaultThreadCount().  A pool of 1 spawns no
  // workers; ParallelFor then runs inline.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threads() const { return threads_; }

  // Runs fn(chunk) for every chunk in [0, chunks), on the workers plus
  // the calling thread, and returns when all chunks completed.  Chunks
  // are claimed in index order from a shared counter.  fn must not
  // throw.  Calls from different threads are serialized; calls from
  // inside a worker run inline.
  void ParallelFor(std::size_t chunks,
                   const std::function<void(std::size_t)>& fn);

  // Grain control: number of chunks needed to cover `items` work items
  // at `grain` items per chunk (at least 1 chunk when items > 0).  The
  // split depends only on the inputs, never on the thread count, so a
  // ParallelFor over it is deterministic by construction.
  static std::size_t ChunksFor(std::size_t items, std::size_t grain) {
    if (items == 0) return 0;
    const std::size_t g = grain == 0 ? 1 : grain;
    return (items + g - 1) / g;
  }

  // The [begin, end) item range of `chunk` under the same split.
  static std::pair<std::size_t, std::size_t> ChunkRange(std::size_t items,
                                                        std::size_t grain,
                                                        std::size_t chunk) {
    const std::size_t g = grain == 0 ? 1 : grain;
    const std::size_t begin = chunk * g;
    const std::size_t end = begin + g < items ? begin + g : items;
    return {begin, end};
  }

  // The most threads a pool is asked for from outside the program:
  // RANOMALY_THREADS is clamped to it, and a command-line thread count
  // above it is refused.
  static constexpr std::size_t kMaxThreads = 256;

  // RANOMALY_THREADS if set (clamped to [1, kMaxThreads]), else
  // hardware_concurrency(), else 1.
  static std::size_t DefaultThreadCount();

 private:
  void WorkerMain();
  void RunChunks(std::uint32_t generation,
                 const std::function<void(std::size_t)>& fn,
                 std::size_t end);
  void RunInline(std::size_t chunks,
                 const std::function<void(std::size_t)>& fn);

  std::size_t threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a new job
  std::condition_variable done_cv_;   // caller waits for completion
  std::mutex caller_mu_;              // serializes ParallelFor callers
  std::uint32_t generation_ = 0;      // bumped per job
  bool shutdown_ = false;

  // Current job; fn_/end_ are written and read under mu_ (stragglers are
  // fenced off by the generation tag in claim_).
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t end_ = 0;
  // (generation << 32) | next_chunk_index — the claim word.
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<std::size_t> completed_{0};
  // Sum of per-chunk execution nanoseconds for the current job; with the
  // job's wall time it yields the pool_utilization gauge (busy time over
  // threads x wall — 1.0 means no lane ever starved).
  std::atomic<std::uint64_t> busy_ns_{0};
};

}  // namespace ranomaly::util
