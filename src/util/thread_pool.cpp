#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

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

ThreadPool::ThreadPool(int threads) : threads_(clamp_threads(threads)) {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i)
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::in_worker() { return tls_in_worker; }

bool ThreadPool::in_parallel_region() { return tls_in_worker || tls_in_chunk; }

int ThreadPool::chunk_slot() { return tls_slot; }

void ThreadPool::drain_job(std::unique_lock<std::mutex>& lock, int slot) {
  while (job_.next_chunk < job_.chunk_count) {
    const std::int64_t chunk = job_.next_chunk++;
    const std::int64_t b = job_.begin + chunk * job_.grain;
    const std::int64_t e = std::min(b + job_.grain, job_.end);
    const ChunkFn* fn = job_.fn;
    lock.unlock();
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
      (*fn)(b, e);
    } catch (...) {
      error = std::current_exception();
    }
    tls_in_worker = was_in_worker;
    tls_slot = was_slot;
    lock.lock();
    if (error && !job_.error) job_.error = error;
    ++job_.done_chunks;
  }
}

void ThreadPool::worker_loop(int slot) {
  tls_in_worker = true;
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen_serial = 0;
  while (true) {
    work_cv_.wait(lock, [&] {
      return stop_ || (has_job_ && job_serial_ != seen_serial);
    });
    if (stop_) return;
    seen_serial = job_serial_;
    if (job_.max_slots == 0 || slot < job_.max_slots) drain_job(lock, slot);
    if (job_.done_chunks == job_.chunk_count) done_cv_.notify_all();
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

  std::unique_lock<std::mutex> lock(mutex_);
  RRP_CHECK_MSG(!has_job_, "ThreadPool::parallel_for is not reentrant from "
                           "multiple external threads");
  job_ = Job{};
  job_.fn = &fn;
  job_.begin = begin;
  job_.end = end;
  job_.grain = grain;
  job_.chunk_count = chunks;
  job_.max_slots = std::max(0, max_slots);
  has_job_ = true;
  ++job_serial_;
  work_cv_.notify_all();

  // The caller participates, then waits for stragglers.
  drain_job(lock, 0);
  done_cv_.wait(lock, [&] { return job_.done_chunks == job_.chunk_count; });
  has_job_ = false;
  const std::exception_ptr error = job_.error;
  job_ = Job{};
  lock.unlock();
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
