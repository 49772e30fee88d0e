#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "util/checks.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace rrp {

namespace {

thread_local bool tls_in_worker = false;
// True while a chunk body runs on this thread via the inline serial path
// (tls_in_worker covers the worker/drain paths).  Together they make
// in_parallel_region() thread-count-invariant.
thread_local bool tls_in_chunk = false;
// The executing thread's slot in the job whose chunk body runs here.
thread_local int tls_slot = 0;

// RAII so an exception thrown by a chunk body cannot leave the flag set.
struct ChunkFlagGuard {
  ChunkFlagGuard() : saved(tls_in_chunk), saved_slot(tls_slot) {
    tls_in_chunk = true;
    tls_slot = 0;
  }
  ~ChunkFlagGuard() {
    tls_in_chunk = saved;
    tls_slot = saved_slot;
  }
  bool saved;
  int saved_slot;
};

int clamp_threads(int threads) { return std::max(1, threads); }

// Pause iterations a waiting thread spins on an atomic before it parks on
// a condition variable.  One iteration (a load plus a pause hint) takes
// about 26 ns on the 4-vCPU Xeon the fleet benchmark runs on, so 2048 of
// them last about 50 us: longer than the ~25 us serial fold between two
// serve ticks, so a worker is still spinning when the next tick posts,
// and short enough that an idle pool parks well within one tick.  It is
// an iteration bound, not a deadline, so the pool reads no clock (the
// rrp_lint determinism rules keep ambient time out of src/); on a core
// with a cheaper pause the spin is shorter, which costs an occasional
// park, never correctness.
constexpr int kSpinIterations = 2048;

/// Spin-wait hint: lets the sibling hyperthread run and saves power.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

constexpr std::uint64_t pack_range(std::uint64_t front, std::uint64_t back) {
  return (back << 32) | front;
}
constexpr std::uint64_t range_front(std::uint64_t word) {
  return word & 0xFFFFFFFFu;
}
constexpr std::uint64_t range_back(std::uint64_t word) { return word >> 32; }

// The tally: workers in a job in the low kInJobBits, the running count of
// chunks they ran above it (wrapping at 2^48, which only the compare sees).
constexpr int kInJobBits = 16;
constexpr std::uint64_t kInJobMask = (std::uint64_t{1} << kInJobBits) - 1;
constexpr std::uint64_t kDoneMask = (std::uint64_t{1} << 48) - 1;

// A pool with more threads than the machine has cores does not spin: a
// spinning thread would hold a core a working one needs, so it parks at
// once instead.
int spin_iterations_for(int threads) {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 && static_cast<unsigned>(threads) > hw ? 0 : kSpinIterations;
}

int env_default_threads() {
  const char* env = std::getenv("RRP_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && v >= 1 && v <= 1024)
      return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::mutex global_mutex;
std::unique_ptr<ThreadPool> global_pool;
std::atomic<ThreadPool*> global_pool_fast{nullptr};  // lock-free hot path
int global_threads_override = 0;  // 0 = derive from env / hardware

}  // namespace

ThreadPool::ThreadPool(int threads)
    : threads_(clamp_threads(threads)),
      spin_iterations_(spin_iterations_for(threads_)),
      ranges_(std::make_unique<Range[]>(static_cast<std::size_t>(threads_))) {
  RRP_CHECK_MSG(static_cast<std::uint64_t>(threads_) <= kInJobMask,
                "ThreadPool: at most " << kInJobMask << " threads");
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i)
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  {
    // Taking the mutex orders the stop flag before any parked worker's
    // predicate re-check; spinning workers see the flag directly.
    std::lock_guard<std::mutex> lock(mutex_);
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::in_worker() { return tls_in_worker; }

bool ThreadPool::in_parallel_region() { return tls_in_worker || tls_in_chunk; }

int ThreadPool::chunk_slot() { return tls_slot; }

void ThreadPool::run_chunk(int slot, std::int64_t chunk) {
  const std::int64_t b = job_.begin + chunk * job_.grain;
  const std::int64_t e = std::min(b + job_.grain, job_.end);
  // The caller drains chunks too; flag it while a chunk body runs so a
  // nested parallel_for from inside the body goes down the inline-serial
  // path instead of trying to post a second job (workers set the flag
  // permanently in worker_loop; save/restore makes this a no-op there).
  const bool was_in_worker = tls_in_worker;
  const int was_slot = tls_slot;
  tls_in_worker = true;
  tls_slot = slot;
  std::exception_ptr error;
  try {
    (*job_.fn)(b, e);
  } catch (...) {
    error = std::current_exception();
  }
  tls_in_worker = was_in_worker;
  tls_slot = was_slot;
  if (error) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = error;
  }
}

std::int64_t ThreadPool::drain_job(int slot) {
  const int participants = job_.participants;
  if (slot >= participants) return 0;
  std::int64_t completed = 0;
  // Claims are relaxed: the compare-and-swap alone makes each chunk one
  // thread's, and the job word and the tally order everything else.
  std::atomic<std::uint64_t>& own = ranges_[slot].word;
  std::uint64_t word = own.load(std::memory_order_relaxed);
  while (range_front(word) < range_back(word)) {
    const std::uint64_t next =
        pack_range(range_front(word) + 1, range_back(word));
    if (own.compare_exchange_weak(word, next, std::memory_order_relaxed)) {
      run_chunk(slot, static_cast<std::int64_t>(range_front(word)));
      ++completed;
      word = next;
    }
  }
  // Ranges only shrink within a job, so once every other share has been
  // seen empty no chunk is left unclaimed.
  for (int k = 1; k < participants; ++k) {
    std::atomic<std::uint64_t>& victim = ranges_[(slot + k) % participants].word;
    word = victim.load(std::memory_order_relaxed);
    while (range_front(word) < range_back(word)) {
      const std::uint64_t take =
          (range_back(word) - range_front(word) + 1) / 2;
      const std::uint64_t from = range_back(word) - take;
      if (victim.compare_exchange_weak(word, pack_range(range_front(word), from),
                                       std::memory_order_relaxed)) {
        for (std::uint64_t c = from; c < from + take; ++c)
          run_chunk(slot, static_cast<std::int64_t>(c));
        completed += static_cast<std::int64_t>(take);
        word = victim.load(std::memory_order_relaxed);
      }
    }
  }
  return completed;
}

// Every handoff flag below is a seq_cst atomic on purpose: a parking
// thread publishes "parked" and then re-reads the condition, the waking
// thread publishes the condition and then reads "parked", and only the
// single total order of seq_cst guarantees one of them sees the other
// (no lost wakeup).

bool ThreadPool::await_job(std::uint64_t seen) {
  const auto ready = [&] {
    const std::uint64_t word = job_word_.load();
    return stop_.load() || ((word & 1u) != 0 && (word >> 1) != seen);
  };
  for (int i = 0; i < spin_iterations_; ++i) {
    if (ready()) return !stop_.load();
    cpu_relax();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  parked_workers_.fetch_add(1);
  work_cv_.wait(lock, ready);
  parked_workers_.fetch_sub(1);
  return !stop_.load();
}

void ThreadPool::await_tally(std::uint64_t mask, std::uint64_t want) {
  const auto reached = [&] { return (tally_.load() & mask) == want; };
  for (int i = 0; i < spin_iterations_; ++i) {
    if (reached()) return;
    cpu_relax();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  caller_parked_.store(true);
  done_cv_.wait(lock, reached);
  caller_parked_.store(false);
}

void ThreadPool::wake_caller() {
  if (!caller_parked_.load()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  done_cv_.notify_all();
}

void ThreadPool::worker_loop(int slot) {
  tls_in_worker = true;
  metrics::detail::stripe();  // take a metrics stripe now, not mid-frame
  std::uint64_t seen = 0;  // serial of the last job this worker joined
  while (await_job(seen)) {
    // Announce before reading the word: the caller rewrites job_ only
    // after it closed the word AND then saw no worker in a job, so a
    // worker that reads the word open reads job_ unchanged until it
    // leaves.
    tally_.fetch_add(1);
    const std::uint64_t word = job_word_.load();
    std::int64_t completed = 0;
    if ((word & 1u) != 0 && (word >> 1) != seen) {
      seen = word >> 1;
      completed = drain_job(slot);
    }
    // Leave and report in one add: once the caller sees the count it may
    // return and post again, and by then this worker is out of job_.  The
    // add releases all of this worker's chunk writes to the caller.
    tally_.fetch_add((static_cast<std::uint64_t>(completed) << kInJobBits) -
                     1);
    wake_caller();
  }
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end,
                              std::int64_t grain, const ChunkFn& fn,
                              int max_slots) {
  if (begin >= end) return;
  grain = std::max<std::int64_t>(1, grain);
  const std::int64_t chunks = (end - begin + grain - 1) / grain;

  // Job/chunk counts depend only on (begin, end, grain), so these totals
  // are byte-identical for any thread count.
  static metrics::Counter& jobs = metrics::counter("pool.jobs");
  static metrics::Counter& chunk_count = metrics::counter("pool.chunks");
  jobs.add(1);
  chunk_count.add(chunks);
  RRP_SPAN_VAR(span, "pool.parallel_for");
  span.add_items(chunks);

  // Serial paths: single chunk, single-thread pool, or a nested call from
  // inside a worker.  Running inline keeps pool size 1 byte-identical to
  // the legacy engine and makes nested parallel_for safe.
  if (chunks == 1 || threads_ == 1 || tls_in_worker) {
    for (std::int64_t c = 0; c < chunks; ++c) {
      const std::int64_t b = begin + c * grain;
      ChunkFlagGuard in_chunk;
      fn(b, std::min(b + grain, end));
    }
    return;
  }

  RRP_CHECK_MSG(chunks <= 0xFFFFFFFF,
                "ThreadPool::parallel_for: more than 2^32 - 1 chunks");
  RRP_CHECK_MSG(!in_flight_.exchange(true),
                "ThreadPool::parallel_for is not reentrant from multiple "
                "external threads");
  // The previous job stays open until now: a worker that wakes for it
  // late finds every share empty and leaves.  Close it, then let any
  // worker still inside leave before job_ and the shares are rewritten
  // (the close and the tally read pair with a worker's tally add and
  // word read, so a worker that enters after this sees the word closed).
  job_word_.store(job_serial_ << 1);
  await_tally(kInJobMask, 0);
  const int participants =
      max_slots > 0 ? std::min(max_slots, threads_) : threads_;
  job_ = Job{&fn, begin, end, grain, participants};
  // Participant p's share is chunks [p * chunks / P, (p + 1) * chunks / P).
  for (int p = 0; p < participants; ++p)
    ranges_[p].word.store(
        pack_range(static_cast<std::uint64_t>(chunks * p / participants),
                   static_cast<std::uint64_t>(chunks * (p + 1) / participants)),
        std::memory_order_relaxed);
  ++job_serial_;
  job_word_.store((job_serial_ << 1) | 1u);  // publishes job_ and shares
  if (parked_workers_.load() > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    work_cv_.notify_all();
  }

  // The caller participates, then waits only for the chunks workers ran:
  // a worker that took none is never waited for here.
  const std::int64_t mine = drain_job(0);
  done_mark_ = (done_mark_ + static_cast<std::uint64_t>(chunks - mine)) &
               kDoneMask;
  await_tally(kDoneMask << kInJobBits, done_mark_ << kInJobBits);
  const std::exception_ptr error = std::exchange(error_, nullptr);
  in_flight_.store(false);
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  ThreadPool* fast = global_pool_fast.load(std::memory_order_acquire);
  if (fast != nullptr) return *fast;
  std::lock_guard<std::mutex> lock(global_mutex);
  if (!global_pool) {
    const int n =
        global_threads_override > 0 ? global_threads_override
                                    : env_default_threads();
    global_pool = std::make_unique<ThreadPool>(n);
  }
  global_pool_fast.store(global_pool.get(), std::memory_order_release);
  return *global_pool;
}

void ThreadPool::set_global_threads(int threads) {
  std::lock_guard<std::mutex> lock(global_mutex);
  global_threads_override = clamp_threads(threads);
  if (global_pool && global_pool->thread_count() == global_threads_override)
    return;
  global_pool_fast.store(nullptr, std::memory_order_release);
  global_pool.reset();  // joins workers; respawned lazily at the new size
}

int ThreadPool::global_thread_count() {
  std::lock_guard<std::mutex> lock(global_mutex);
  if (global_pool) return global_pool->thread_count();
  return global_threads_override > 0 ? global_threads_override
                                     : env_default_threads();
}

}  // namespace rrp
