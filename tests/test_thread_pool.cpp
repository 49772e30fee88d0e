// Thread-pool unit tests plus the bit-exact thread-count parity suite:
// forward/backward on every layer family and batched evaluation must be
// byte-identical for RRP_THREADS = 1, 2, 8 (DESIGN.md threading contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "nn/loss.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace rrp {
namespace {

using rrp::testing::random_tensor;

// ---------------------------------------------------------------------------
// Pool mechanics.
// ---------------------------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(103, 0);  // chunks are disjoint, so no atomics needed
  pool.parallel_for(0, 103, 7, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, NonZeroBeginAndOversizedGrain) {
  ThreadPool pool(3);
  std::vector<int> hits(50, 0);
  pool.parallel_for(10, 50, 1000, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (int i = 0; i < 10; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], 0);
  for (int i = 10; i < 50; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1);
}

TEST(ThreadPool, EmptyRangeRunsNothing) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  pool.parallel_for(5, 3, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ChunkBoundariesIndependentOfThreadCount) {
  // The determinism contract: the chunk set depends only on
  // (begin, end, grain), never on how many workers execute it.
  auto chunk_set = [](int threads) {
    ThreadPool pool(threads);
    std::mutex m;
    std::set<std::pair<std::int64_t, std::int64_t>> chunks;
    pool.parallel_for(3, 97, 11, [&](std::int64_t b, std::int64_t e) {
      std::lock_guard<std::mutex> lock(m);
      chunks.insert({b, e});
    });
    return chunks;
  };
  const auto serial = chunk_set(1);
  EXPECT_EQ(serial, chunk_set(2));
  EXPECT_EQ(serial, chunk_set(8));
  // Chunk k covers [begin + k*grain, min(begin + (k+1)*grain, end)).
  std::set<std::pair<std::int64_t, std::int64_t>> expected;
  for (std::int64_t b = 3; b < 97; b += 11) expected.insert({b, std::min<std::int64_t>(b + 11, 97)});
  EXPECT_EQ(serial, expected);
}

TEST(ThreadPool, SizeOnePoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  bool inline_run = false;
  pool.parallel_for(0, 10, 1, [&](std::int64_t, std::int64_t) {
    inline_run = (std::this_thread::get_id() == caller);
    EXPECT_FALSE(ThreadPool::in_worker());
  });
  EXPECT_TRUE(inline_run);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 32, 1,
                        [&](std::int64_t b, std::int64_t) {
                          if (b == 13) throw std::runtime_error("chunk 13");
                        }),
      std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> ran{0};
  pool.parallel_for(0, 8, 1, [&](std::int64_t, std::int64_t) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, NestedParallelForRunsSerialInline) {
  ThreadPool pool(4);
  std::vector<int> hits(64, 0);
  pool.parallel_for(0, 8, 1, [&](std::int64_t ob, std::int64_t oe) {
    for (std::int64_t o = ob; o < oe; ++o) {
      // Inside a worker the nested call must not fan out (reentrancy
      // guard), but it still has to cover its whole range.
      pool.parallel_for(0, 8, 1, [&](std::int64_t ib, std::int64_t ie) {
        for (std::int64_t i = ib; i < ie; ++i)
          ++hits[static_cast<std::size_t>(o * 8 + i)];
      });
    }
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, MaxSlotsBoundsChunkSlots) {
  // Per-thread scratch indexed by chunk_slot() is safe: with max_slots = S
  // every chunk still runs exactly once, and no two chunks running at the
  // same time share a slot below S.
  ThreadPool pool(8);
  for (const int slots : {1, 3, 8}) {
    std::vector<int> hits(64, 0);
    std::vector<std::atomic<int>> busy(8);
    std::atomic<bool> clash{false};
    std::atomic<int> max_slot{-1};
    pool.parallel_for(
        0, 64, 1,
        [&](std::int64_t b, std::int64_t e) {
          const int slot = ThreadPool::chunk_slot();
          int seen = max_slot.load();
          while (slot > seen && !max_slot.compare_exchange_weak(seen, slot)) {
          }
          if (busy[static_cast<std::size_t>(slot)].fetch_add(1) != 0)
            clash = true;
          for (std::int64_t i = b; i < e; ++i)
            ++hits[static_cast<std::size_t>(i)];
          busy[static_cast<std::size_t>(slot)].fetch_sub(1);
        },
        slots);
    for (int h : hits) EXPECT_EQ(h, 1) << "slots " << slots;
    EXPECT_LT(max_slot.load(), slots);
    EXPECT_FALSE(clash.load()) << "slots " << slots;
  }
  // Serial and nested chunks run in slot 0.
  ThreadPool one(1);
  one.parallel_for(0, 4, 1, [&](std::int64_t, std::int64_t) {
    EXPECT_EQ(ThreadPool::chunk_slot(), 0);
  });
}

TEST(ThreadPool, ManySmallJobsBackToBack) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(0, 17, 3, [&](std::int64_t b, std::int64_t e) {
      std::int64_t local = 0;
      for (std::int64_t i = b; i < e; ++i) local += i;
      sum += local;
    });
    ASSERT_EQ(sum.load(), 17 * 16 / 2);
  }
}

// The lockstep handoff: workers spin on the job word and the caller on
// the tally before either parks, so these run with threads that are
// mid-spin when the next job, the exception or the teardown arrives.  A
// pool with more threads than the host has cores (8 on a 4-core host)
// parks at once instead, so both handoff paths are covered.
TEST(ThreadPoolHandoff, TenThousandShortJobsBackToBack) {
  for (const int threads : {2, 8}) {
    ThreadPool pool(threads);
    std::vector<std::int64_t> slots(16, 0);
    for (int job = 0; job < 10000; ++job) {
      pool.parallel_for(0, 16, 1, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i)
          slots[static_cast<std::size_t>(i)] += i + job;
      });
      // The caller reads every chunk's write as soon as the call returns.
      ASSERT_EQ(slots[15], static_cast<std::int64_t>(job + 1) * 15 +
                               static_cast<std::int64_t>(job) * (job + 1) / 2)
          << "threads " << threads << " job " << job;
    }
  }
}

TEST(ThreadPoolHandoff, SharesAndStealsCoverEachChunkOnce) {
  // Every chunk count against every share split: fewer chunks than
  // threads (empty shares), uneven splits, and slot caps below, at and
  // above the pool size.  The first chunks of each job are slow, so the
  // caller's share is still running when the other threads run out of
  // theirs and steal from it.
  for (const int threads : {2, 3, 4, 8}) {
    ThreadPool pool(threads);
    for (std::int64_t chunks = 2; chunks <= 41; ++chunks) {
      for (const int cap : {0, 1, 2, threads, threads + 1}) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(chunks));
        std::atomic<int> max_slot{-1};
        pool.parallel_for(
            0, chunks, 1,
            [&](std::int64_t b, std::int64_t) {
              const int slot = ThreadPool::chunk_slot();
              int seen = max_slot.load();
              while (slot > seen &&
                     !max_slot.compare_exchange_weak(seen, slot)) {
              }
              if (b < 2) {
                volatile int spin = 0;
                for (int i = 0; i < 20000; ++i) spin = spin + i;
              }
              ++hits[static_cast<std::size_t>(b)];
            },
            cap);
        for (std::int64_t c = 0; c < chunks; ++c)
          ASSERT_EQ(hits[static_cast<std::size_t>(c)].load(), 1)
              << "threads " << threads << " chunks " << chunks << " cap "
              << cap << " chunk " << c;
        ASSERT_LT(max_slot.load(), cap > 0 ? cap : threads);
      }
    }
  }
}

TEST(ThreadPoolHandoff, ExceptionsMaxSlotsAndNestingBetweenJobs) {
  for (const int threads : {2, 8}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 200; ++round) {
      EXPECT_THROW(pool.parallel_for(0, 8, 1,
                                     [&](std::int64_t b, std::int64_t) {
                                       if (b == round % 8)
                                         throw std::runtime_error("chunk");
                                     }),
                   std::runtime_error);
      std::atomic<int> max_slot{-1};
      std::atomic<int> ran{0};
      pool.parallel_for(
          0, 12, 1,
          [&](std::int64_t, std::int64_t) {
            int seen = max_slot.load();
            const int slot = ThreadPool::chunk_slot();
            while (slot > seen && !max_slot.compare_exchange_weak(seen, slot)) {
            }
            ++ran;
          },
          2);
      EXPECT_EQ(ran.load(), 12);
      EXPECT_LT(max_slot.load(), 2);
      std::vector<int> hits(16, 0);
      pool.parallel_for(0, 4, 1, [&](std::int64_t ob, std::int64_t) {
        pool.parallel_for(0, 4, 1, [&](std::int64_t ib, std::int64_t) {
          ++hits[static_cast<std::size_t>(ob * 4 + ib)];
        });
      });
      for (int h : hits) ASSERT_EQ(h, 1) << "threads " << threads;
    }
  }
}

TEST(ThreadPoolHandoff, DestroyAndResizeWhileWorkersSpin) {
  // Each pool dies right after a job, while its workers still spin on the
  // job word; the destructor must wake and join them.
  for (int round = 0; round < 200; ++round) {
    ThreadPool pool(round % 2 == 0 ? 2 : 8);
    std::atomic<int> ran{0};
    pool.parallel_for(0, 8, 1, [&](std::int64_t, std::int64_t) { ++ran; });
    ASSERT_EQ(ran.load(), 8);
  }
  // The global pool resized straight after a job: its spinning workers
  // are joined and a new set serves the next call.
  const ThreadCountGuard restore(ThreadPool::global_thread_count());
  for (int round = 0; round < 100; ++round) {
    ThreadPool::set_global_threads(round % 2 == 0 ? 2 : 8);
    std::atomic<int> ran{0};
    parallel_for(0, 8, 1, [&](std::int64_t, std::int64_t) { ++ran; });
    ASSERT_EQ(ran.load(), 8);
  }
}

TEST(ThreadPool, ThreadCountGuardRestoresGlobal) {
  const int before = ThreadPool::global_thread_count();
  {
    ThreadCountGuard guard(3);
    EXPECT_EQ(ThreadPool::global_thread_count(), 3);
    EXPECT_EQ(ThreadPool::global().thread_count(), 3);
  }
  EXPECT_EQ(ThreadPool::global_thread_count(), before);
}

TEST(ThreadPool, ThreadCountClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1);
  ThreadPool neg(-4);
  EXPECT_EQ(neg.thread_count(), 1);
}

// ---------------------------------------------------------------------------
// Bit-exact parity: forward/backward must not depend on the thread count.
// ---------------------------------------------------------------------------

struct RunCapture {
  std::vector<float> output;
  std::vector<float> grad_in;
  std::vector<float> param_grads;
};

bool operator==(const RunCapture& a, const RunCapture& b) {
  return a.output == b.output && a.grad_in == b.grad_in &&
         a.param_grads == b.param_grads;
}

/// Builds the net fresh, runs one forward/backward pass under `threads`
/// pool threads, and captures every float the pass produced.
template <typename BuildFn>
RunCapture run_pass(int threads, BuildFn&& build, const nn::Tensor& x,
                    const std::vector<int>& labels) {
  ThreadCountGuard guard(threads);
  nn::Network net = build();
  nn::Tensor y = net.forward(x, /*training=*/true);
  nn::LossResult loss = nn::softmax_cross_entropy(y, labels);
  net.zero_grad();
  nn::Tensor gin = net.backward(loss.grad);

  RunCapture cap;
  cap.output.assign(y.data().begin(), y.data().end());
  cap.grad_in.assign(gin.data().begin(), gin.data().end());
  for (const auto& p : net.params())
    cap.param_grads.insert(cap.param_grads.end(), p.grad->data().begin(),
                           p.grad->data().end());
  return cap;
}

std::vector<int> labels_for(int n, int classes, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> out(static_cast<std::size_t>(n));
  for (int& l : out) l = rng.uniform_int(0, classes - 1);
  return out;
}

template <typename BuildFn>
void expect_thread_parity(BuildFn&& build, const nn::Tensor& x, int classes,
                          std::uint64_t label_seed) {
  const std::vector<int> labels = labels_for(x.size(0), classes, label_seed);
  const RunCapture serial = run_pass(1, build, x, labels);
  EXPECT_TRUE(serial == run_pass(2, build, x, labels)) << "threads=2 diverged";
  EXPECT_TRUE(serial == run_pass(8, build, x, labels)) << "threads=8 diverged";
}

TEST(ThreadParity, LinearStack) {
  auto build = [] {
    nn::Network net("n");
    net.emplace<nn::Linear>("fc1", 12, 24);
    net.emplace<nn::ReLU>("r");
    net.emplace<nn::Linear>("fc2", 24, 5);
    Rng rng(41);
    nn::init_network(net, rng);
    return net;
  };
  expect_thread_parity(build, random_tensor({9, 12}, 42), 5, 43);
}

TEST(ThreadParity, ConvNet) {
  auto build = [] {
    nn::Network net("n");
    net.emplace<nn::Conv2D>("c1", 2, 6, 3, 1, 1);
    net.emplace<nn::ReLU>("r1");
    net.emplace<nn::Conv2D>("c2", 6, 4, 3, 2, 0);
    net.emplace<nn::Flatten>("f");
    net.emplace<nn::Linear>("fc", 4 * 3 * 3, 4);
    Rng rng(51);
    nn::init_network(net, rng);
    return net;
  };
  expect_thread_parity(build, random_tensor({5, 2, 8, 8}, 52), 4, 53);
}

TEST(ThreadParity, DepthwiseNet) {
  auto build = [] {
    nn::Network net("n");
    net.emplace<nn::Conv2D>("c", 1, 6, 3, 1, 1);
    net.emplace<nn::ReLU>("r1");
    net.emplace<nn::DepthwiseConv2D>("dw", 6, 3, 1, 1);
    net.emplace<nn::ReLU>("r2");
    net.emplace<nn::Flatten>("f");
    net.emplace<nn::Linear>("fc", 6 * 8 * 8, 3);
    Rng rng(61);
    nn::init_network(net, rng);
    return net;
  };
  expect_thread_parity(build, random_tensor({6, 1, 8, 8}, 62), 3, 63);
}

TEST(ThreadParity, ResidualBnNet) {
  auto build = [] { return rrp::testing::tiny_residual_net(71); };
  expect_thread_parity(build, random_tensor({4, 1, 8, 8}, 72), 3, 73);
}

TEST(ThreadParity, BatchNormNet) {
  auto build = [] { return rrp::testing::tiny_bn_net(81); };
  expect_thread_parity(build, random_tensor({6, 1, 8, 8}, 82), 3, 83);
}

TEST(ThreadParity, BatchedEvaluationMatchesSerial) {
  // Dataset evaluation fans batches out over the pool with per-chunk
  // network clones; accuracy and loss must equal the serial pass exactly.
  const nn::Dataset data = rrp::testing::tiny_dataset(70, 91);
  nn::Network net = rrp::testing::tiny_bn_net(92);
  rrp::testing::quick_train(net, data, /*epochs=*/1, /*seed=*/93);

  double acc1, loss1;
  {
    ThreadCountGuard guard(1);
    acc1 = nn::evaluate_accuracy(net, data, /*batch_size=*/16);
    loss1 = nn::evaluate_loss(net, data, /*batch_size=*/16);
  }
  for (int threads : {2, 8}) {
    ThreadCountGuard guard(threads);
    EXPECT_EQ(acc1, nn::evaluate_accuracy(net, data, 16))
        << "threads=" << threads;
    EXPECT_EQ(loss1, nn::evaluate_loss(net, data, 16))
        << "threads=" << threads;
  }
}

TEST(ThreadParity, TrainingRunMatchesSerial) {
  // A full SGD run (forward + backward + update every step) must produce
  // bit-identical weights regardless of the pool size.
  const nn::Dataset data = rrp::testing::tiny_dataset(48, 95);
  auto train_weights = [&](int threads) {
    ThreadCountGuard guard(threads);
    nn::Network net = rrp::testing::tiny_conv_net(96);
    rrp::testing::quick_train(net, data, /*epochs=*/2, /*seed=*/97);
    std::vector<float> w;
    for (const auto& p : net.params())
      w.insert(w.end(), p.value->data().begin(), p.value->data().end());
    return w;
  };
  const std::vector<float> serial = train_weights(1);
  EXPECT_TRUE(serial == train_weights(2));
  EXPECT_TRUE(serial == train_weights(8));
}

}  // namespace
}  // namespace rrp
