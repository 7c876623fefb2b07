// Deterministic fork-join parallel loop.
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
// A pool is only a thread count: each ParallelFor starts the lanes it
// runs on and joins them before it returns, so no thread outlives its
// job and calls from different threads never wait on each other.
//
// Nesting: ParallelFor issued from inside a lane (by code that a chunk
// calls) runs inline on that lane, so nested jobs never multiply the
// thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>

namespace ranomaly::util {

class ThreadPool {
 public:
  // threads == 0 picks DefaultThreadCount().  Starts no thread.
  explicit ThreadPool(std::size_t threads = 0);

  std::size_t threads() const { return threads_; }

  // Runs fn(chunk) for every chunk in [0, chunks) on min(threads(),
  // chunks) lanes, the calling thread and the ones this call starts, and
  // returns when all chunks completed and every started lane is joined.
  // Chunks are claimed in index order from a shared counter.  fn must
  // not throw.  Calls from inside a lane run inline.
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
  std::size_t threads_;
};

}  // namespace ranomaly::util
