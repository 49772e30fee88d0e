// thread_pool.h — deterministic fixed-size thread pool for data-parallel
// kernels and embarrassingly parallel experiment loops.
//
// Design constraints (DESIGN.md §2, "Threading"):
//   * Determinism: `parallel_for` splits [begin, end) into chunks whose
//     boundaries depend only on (begin, end, grain) — never on the thread
//     count or on scheduling.  Callers arrange that every chunk writes a
//     disjoint output region (or that cross-chunk reductions happen in a
//     fixed chunk order on the calling thread), so results are bit-exact
//     and identical for any RRP_THREADS value, including 1.
//   * Legacy serial path: a pool of size 1 never spawns threads and runs
//     every chunk inline on the caller, reproducing the pre-threading
//     engine instruction-for-instruction.
//   * Reentrancy: `parallel_for` called from inside a worker runs serially
//     inline (no nested fan-out, no deadlock on the single job slot).
//   * Exceptions: the first exception thrown by any chunk is captured and
//     rethrown on the calling thread after all chunks finish.
//
// The process-wide pool is sized by, in priority order: the last
// `set_global_threads()` call (the `rrp_cli --threads` flag), the
// RRP_THREADS environment variable, then `hardware_concurrency()`.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rrp {

class ThreadPool {
 public:
  /// Chunk body: processes the half-open index range [chunk_begin,
  /// chunk_end).
  using ChunkFn = std::function<void(std::int64_t, std::int64_t)>;

  /// Spawns `threads - 1` workers (the caller participates as the Nth).
  /// `threads` is clamped to >= 1; a pool of size 1 owns no threads.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return threads_; }

  /// Runs fn over [begin, end) split into ceil((end-begin)/grain) chunks.
  /// Chunk k covers [begin + k*grain, min(begin + (k+1)*grain, end)).
  /// Chunks may execute concurrently and in any order; see the header
  /// comment for the determinism contract.  `grain` is clamped to >= 1.
  /// `max_slots` > 0 caps the threads that take chunks, so a body may
  /// index per-thread scratch by chunk_slot() (chunk boundaries, and so
  /// every result and counter, do not depend on it).
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const ChunkFn& fn, int max_slots = 0);

  /// Inside a chunk body: the executing thread's index among the threads
  /// taking part in that parallel_for — 0 for the caller and for every
  /// serial/inline chunk, 1.. for workers — always below its max_slots.
  static int chunk_slot();

  /// True when called from inside one of this pool's workers.
  static bool in_worker();

  /// True while ANY parallel_for chunk body is executing on this thread —
  /// worker chunks, chunks the caller drains itself, and the inline serial
  /// path alike.  Unlike in_worker(), this is consistent across thread
  /// counts (with RRP_THREADS=1 chunks run inline on the caller, which
  /// in_worker() does not see), so the observability layer uses it to
  /// suppress span recording deterministically (see util/trace.h).
  static bool in_parallel_region();

  /// The process-wide pool (created on first use).
  static ThreadPool& global();

  /// Resizes the process-wide pool (tears down and respawns workers).
  /// Must not be called while a parallel_for is in flight; intended for
  /// process startup (CLI flag) and tests.
  static void set_global_threads(int threads);

  /// Thread count the global pool has (or would be created with).
  static int global_thread_count();

 private:
  struct Job {
    const ChunkFn* fn = nullptr;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::int64_t grain = 1;
    std::int64_t next_chunk = 0;   // next chunk index to claim
    std::int64_t chunk_count = 0;  // total chunks in this job
    std::int64_t done_chunks = 0;  // chunks fully executed
    int max_slots = 0;             // threads allowed to take chunks
    std::exception_ptr error;      // first failure, rethrown on the caller
  };

  void worker_loop(int slot);
  /// Claims and runs chunks of the current job until none remain.
  void drain_job(std::unique_lock<std::mutex>& lock, int slot);

  int threads_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  // signals workers: job posted / stop
  std::condition_variable done_cv_;  // signals caller: all chunks done
  Job job_;
  bool has_job_ = false;
  bool stop_ = false;
  std::uint64_t job_serial_ = 0;  // wakes workers exactly once per job
};

/// Convenience wrapper over the global pool.
inline void parallel_for(std::int64_t begin, std::int64_t end,
                         std::int64_t grain, const ThreadPool::ChunkFn& fn,
                         int max_slots = 0) {
  ThreadPool::global().parallel_for(begin, end, grain, fn, max_slots);
}

/// RAII override of the global pool size (tests / benchmarks).
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads)
      : saved_(ThreadPool::global_thread_count()) {
    ThreadPool::set_global_threads(threads);
  }
  ~ThreadCountGuard() { ThreadPool::set_global_threads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

}  // namespace rrp
