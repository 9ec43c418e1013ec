// A small work-stealing-free thread pool used to parallelize fault-injection
// and beam campaigns (each trial is an independent simulation). Trials are
// seeded per-index, so results are identical regardless of worker count.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gpurel {

/// Fixed-size pool executing void() jobs FIFO.
class ThreadPool {
 public:
  /// Create `workers` threads; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return threads_.size(); }

  /// Enqueue a job. Throws std::runtime_error once shutdown has begun
  /// (explicit shutdown() or destruction).
  void submit(std::function<void()> job);

  /// Block until every submitted job has finished.
  void wait_idle();

  /// Stop accepting jobs, drain the queue, and join every worker. Idempotent;
  /// also invoked by the destructor. After shutdown, submit() throws.
  void shutdown();

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mu_;
  std::condition_variable cv_job_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Chunk size the guided self-scheduler hands to the next free puller:
/// remaining/(4*workers), clamped to [1, 8]. Decreasing chunks keep the
/// cursor cheap early on and balance stragglers (e.g. watchdog-timeout
/// trials) near the end of the loop. Exposed so run_per_worker's inline
/// one-worker loop hands out exactly the chunks parallel_chunks would.
std::size_t guided_chunk(std::size_t remaining, std::size_t workers);

/// Guided self-scheduled loop: up to pool.size() concurrent pullers grab
/// half-open ranges [begin, end) of guided_chunk(remaining, pool.size())
/// indices off a shared atomic cursor and invoke body(puller, begin, end).
/// `puller` is a dense id in [0, pool.size()); each puller's calls are
/// sequential, so per-puller state (e.g. a prepared workload) needs no
/// synchronization. On an exception the first one wins, remaining chunks
/// are abandoned, and the exception is rethrown after in-flight chunks
/// finish. Blocks until done.
void parallel_chunks(
    ThreadPool& pool, std::size_t count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

/// The execution shape of fault campaigns and beam experiments: runs
/// body(state, worker, begin, end) over [0, count) in guided chunks, each
/// worker reusing one State (e.g. a prepared workload and its device) for
/// every chunk it pulls. Worker 0 starts from `first`, the caller's already
/// prepared reference; any other worker builds its own with make() on its
/// first chunk, while worker 0 may already be running. Campaigns and beams
/// pass core::make_instance(factory, reference) as make(): it copies the
/// reference's golden state instead of re-running its fault-free trial, so
/// a call runs that trial once at any worker count. One worker runs the
/// chunks inline on the calling thread, more go through parallel_chunks.
/// Returns the per-worker states; a worker that pulled no chunk keeps a
/// default-constructed State.
template <class State, class Make, class Body>
std::vector<State> run_per_worker(unsigned workers, std::size_t count,
                                  State first, const Make& make,
                                  const Body& body) {
  const std::size_t n = std::max(1u, workers);
  std::vector<State> states(n);
  // One flag per worker, each written only by its own puller (a
  // std::vector<bool> would pack them into shared words).
  std::vector<unsigned char> ready(n, 0);
  states[0] = std::move(first);
  ready[0] = 1;
  auto run = [&](std::size_t worker, std::size_t begin, std::size_t end) {
    if (!ready[worker]) {
      states[worker] = make();
      ready[worker] = 1;
    }
    body(states[worker], worker, begin, end);
  };
  if (n == 1) {
    for (std::size_t begin = 0; begin < count;) {
      const std::size_t end =
          std::min(count, begin + guided_chunk(count - begin, 1));
      run(0, begin, end);
      begin = end;
    }
  } else {
    ThreadPool pool(n);
    parallel_chunks(pool, count, run);
  }
  return states;
}

}  // namespace gpurel
