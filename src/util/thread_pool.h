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
//   * Lockstep handoff: each thread works through its own share of the
//     chunks and then takes halves of the others' shares, so a tiny job's
//     chunks are not fought over one at a time.  A thread that waits — a
//     worker for the next job, the caller for its workers' chunks — first
//     spins a bounded number of pause iterations on an atomic (the job
//     word, the tally) and only then parks on a condition variable; a
//     pool larger than the core count parks at once.  A notify is issued
//     only when a thread is actually parked, so back-to-back jobs (one
//     serve tick after another) meet without a futex sleep and wake.
//
// The process-wide pool is sized by, in priority order: the last
// `set_global_threads()` call (the `rrp_cli --threads` flag), the
// RRP_THREADS environment variable, then `hardware_concurrency()`.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
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
  /// The posted job.  The caller writes it (and the ranges) only while no
  /// worker is inside a job (the tally's in-job count is 0) and publishes
  /// it with the job word, so a worker that joined reads it unchanged
  /// until it leaves.
  struct Job {
    const ChunkFn* fn = nullptr;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::int64_t grain = 1;
    int participants = 1;  // threads allowed to take chunks (slots 0..)
  };

  /// One participant's share of the job's chunk indices, [front, back)
  /// packed as (back << 32) | front.  Its owner takes chunks one at a
  /// time from the front; a thread that ran out of its own takes half of
  /// what is left from the back.  Each sits on its own cache line, so a
  /// thread working through its own share touches no line another thread
  /// is using until someone steals.
  struct alignas(64) Range {
    std::atomic<std::uint64_t> word{0};
  };

  void worker_loop(int slot);
  /// Runs chunk `chunk` of the current job on this thread as `slot`.
  void run_chunk(int slot, std::int64_t chunk);
  /// Takes and runs chunks of the current job until every share is empty;
  /// returns how many this thread ran.
  std::int64_t drain_job(int slot);
  /// Worker wait: true once a job newer than `seen` is open, false on stop.
  bool await_job(std::uint64_t seen);
  /// Caller wait until the tally's bits under `mask` read `want`.
  void await_tally(std::uint64_t mask, std::uint64_t want);
  /// Wakes the caller when it is parked in await_tally.
  void wake_caller();

  // The handoff state sits on separate cache lines (64 B on x86): a
  // worker spinning on the job word must not pull a line the caller
  // writes while it works.  The job shares the word's line, so a worker
  // that sees the word has the job with it.
  static constexpr std::size_t kLine = 64;

  int threads_;
  int spin_iterations_;  // before a waiting thread parks; 0 if oversubscribed
  std::vector<std::thread> workers_;
  std::mutex mutex_;                 // parking and error_ only
  std::condition_variable work_cv_;  // parked workers: job posted / stop
  std::condition_variable done_cv_;  // parked caller: count reached
  std::exception_ptr error_;         // the job's first failure
  std::uint64_t job_serial_ = 0;        // caller-side copy of the last serial
  std::atomic<bool> in_flight_{false};  // a parallel_for is posted
  std::unique_ptr<Range[]> ranges_;     // one share per slot
  // (serial << 1) | open: a worker joins the job whose serial it has not
  // seen while the open bit is set.  Spun on by idle workers.
  alignas(kLine) std::atomic<std::uint64_t> job_word_{0};
  Job job_;
  std::atomic<bool> stop_{false};
  // (chunks workers ran, cumulative mod 2^48) << 16 | workers in a job.
  // One word, so a worker leaves and reports in one add and the caller
  // sees both in one read; the count runs on across jobs instead of
  // being reset, so a worker passing through never races a reset.
  alignas(kLine) std::atomic<std::uint64_t> tally_{0};
  std::uint64_t done_mark_ = 0;  // caller side: the tally's count when done
  alignas(kLine) std::atomic<int> parked_workers_{0};   // in work_cv_.wait
  std::atomic<bool> caller_parked_{false};              // in done_cv_.wait
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
