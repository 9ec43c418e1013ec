#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace gpurel {
namespace {

TEST(ThreadPool, RunsAllJobs) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ResultsIndependentOfWorkerCount) {
  auto run = [](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<long> out(200, 0);
    parallel_chunks(pool, out.size(),
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i)
                        out[i] = static_cast<long>(i * i);
                    });
    return std::accumulate(out.begin(), out.end(), 0L);
  };
  EXPECT_EQ(run(1), run(7));
}

TEST(ThreadPool, SingleWorkerIsSerialSafe) {
  ThreadPool pool(1);
  int counter = 0;  // unsynchronized: safe only if jobs are serial
  for (int i = 0; i < 50; ++i) pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter, 50);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) pool.submit([&] { count.fetch_add(1); });
  pool.shutdown();
  pool.shutdown();  // second call must be a no-op
  EXPECT_EQ(count.load(), 10);  // shutdown drains the queue before joining
}

TEST(ThreadPool, ParallelChunksCoversEveryIndexOnce) {
  for (const std::size_t count : {std::size_t{1}, std::size_t{7},
                                  std::size_t{200}}) {
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(count);
    parallel_chunks(pool, hits.size(),
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      ASSERT_LT(begin, end);
                      ASSERT_LE(end, hits.size());
                      for (std::size_t t = begin; t < end; ++t)
                        hits[t].fetch_add(1);
                    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "count=" << count;
  }
}

TEST(ThreadPool, ParallelChunksPullerIdsAreDense) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> by_puller(pool.size());
  parallel_chunks(pool, 100,
                  [&](std::size_t puller, std::size_t begin, std::size_t end) {
                    ASSERT_LT(puller, by_puller.size());
                    by_puller[puller].fetch_add(static_cast<int>(end - begin));
                  });
  int total = 0;
  for (auto& n : by_puller) total += n.load();
  EXPECT_EQ(total, 100);
}

TEST(ThreadPool, ParallelChunksPropagatesExceptionAndAbandons) {
  // One puller (pool of 1) runs chunks in order; after the throwing chunk the
  // remaining chunks must be abandoned, not executed.
  ThreadPool pool(1);
  std::size_t ran = 0;
  EXPECT_THROW(
      parallel_chunks(pool, 100,
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        ran += end - begin;
                        if (begin == 16) throw std::runtime_error("boom");
                      }),
      std::runtime_error);
  EXPECT_EQ(ran, 24u);  // guided chunks [0,8), [8,16), [16,24) — nothing after
}

TEST(ThreadPool, ParallelChunksFirstExceptionWins) {
  // A single puller runs chunks in order, so the first throw is
  // deterministically the first in completion order and must be the one
  // rethrown.
  ThreadPool pool(1);
  try {
    parallel_chunks(pool, 100, [](std::size_t, std::size_t begin, std::size_t) {
      if (begin == 8) throw std::runtime_error("first");
      if (begin == 16) throw std::logic_error("second");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ThreadPool, ParallelChunksZeroCount) {
  ThreadPool pool(2);
  parallel_chunks(pool, 0,
                  [](std::size_t, std::size_t, std::size_t) { FAIL(); });
  SUCCEED();
}

TEST(ThreadPool, RunPerWorkerBuildsOneStatePerPullingWorker) {
  for (const unsigned workers : {1u, 3u}) {
    std::vector<std::atomic<int>> hits(300);
    std::atomic<int> made{0};
    // A state is the worker id it was built for (worker 0's is given).
    const std::vector<int> states = run_per_worker(
        workers, hits.size(), 100,
        [&] { return ++made; },
        [&](int& state, std::size_t worker, std::size_t begin,
            std::size_t end) {
          EXPECT_EQ(worker == 0, state == 100);
          for (std::size_t t = begin; t < end; ++t) hits[t].fetch_add(1);
        });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << workers << " workers";
    ASSERT_EQ(states.size(), workers);
    EXPECT_EQ(states[0], 100);
    // make() ran at most once per other worker: states are per worker.
    EXPECT_LE(made.load(), static_cast<int>(workers) - 1);
  }
}

TEST(ThreadPool, GuidedChunkShrinksToOne) {
  // Early pulls are larger (capped at 8), late pulls shrink to 1, and the
  // boundary walk covers the range exactly.
  EXPECT_EQ(guided_chunk(1000, 4), 8u);
  EXPECT_EQ(guided_chunk(16, 4), 1u);
  EXPECT_EQ(guided_chunk(1, 1), 1u);
  EXPECT_EQ(guided_chunk(0, 4), 1u);  // clamped; callers stop at count anyway
  std::size_t begin = 0, pulls = 0;
  while (begin < 500) {
    const std::size_t step = guided_chunk(500 - begin, 4);
    ASSERT_GE(step, 1u);
    ASSERT_LE(step, 8u);
    begin += step;
    ++pulls;
  }
  EXPECT_EQ(begin, 500u);
  EXPECT_GT(pulls, 500u / 8);
}

}  // namespace
}  // namespace gpurel
