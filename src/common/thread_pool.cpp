#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace gpurel {

namespace {

// Pool metrics, resolved once (registration takes a lock; bumps don't).
struct PoolMetrics {
  obs::Counter& jobs = obs::Registry::global().counter(
      "gpurel_threadpool_jobs_total");
  obs::Gauge& depth = obs::Registry::global().gauge(
      "gpurel_threadpool_queue_depth");
  obs::Gauge& depth_peak = obs::Registry::global().gauge(
      "gpurel_threadpool_queue_depth_peak");
  obs::Counter& chunk_pulls = obs::Registry::global().counter(
      "gpurel_threadpool_chunk_pulls_total");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard lk(mu_);
    if (stop_) return;  // idempotent (and destructor after shutdown())
    stop_ = true;
  }
  cv_job_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard lk(mu_);
    if (stop_)
      throw std::runtime_error("ThreadPool::submit after shutdown began");
    jobs_.push(std::move(job));
    ++in_flight_;
    const auto depth = static_cast<double>(jobs_.size());
    pool_metrics().depth.set(depth);
    pool_metrics().depth_peak.set_max(depth);
    pool_metrics().jobs.add();
  }
  cv_job_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(mu_);
  cv_idle_.wait(lk, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lk(mu_);
      cv_job_.wait(lk, [this] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stop_ and drained
      job = std::move(jobs_.front());
      jobs_.pop();
      pool_metrics().depth.set(static_cast<double>(jobs_.size()));
    }
    job();
    {
      std::lock_guard lk(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

namespace {

/// Shared first-exception latch for the parallel loops.
class ErrorLatch {
 public:
  void capture() {
    failed_.store(true, std::memory_order_relaxed);
    std::lock_guard lk(mu_);
    if (!error_) error_ = std::current_exception();
  }
  bool failed() const { return failed_.load(std::memory_order_relaxed); }
  void rethrow_if_set() {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mu_;
  std::exception_ptr error_;
  std::atomic<bool> failed_{false};
};

}  // namespace

std::size_t guided_chunk(std::size_t remaining, std::size_t workers) {
  return std::clamp<std::size_t>(remaining / (4 * std::max<std::size_t>(1, workers)),
                                 1, 8);
}

void parallel_chunks(
    ThreadPool& pool, std::size_t count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  std::atomic<std::size_t> next{0};
  ErrorLatch latch;

  // Claim the next half-open range off the shared cursor; empty when done.
  // Guided sizes depend on the cursor, so the claim is a CAS.
  const auto claim = [&](std::size_t& begin, std::size_t& end) {
    begin = next.load(std::memory_order_relaxed);
    do {
      if (begin >= count) return false;
      end = std::min(count, begin + guided_chunk(count - begin, pool.size()));
    } while (!next.compare_exchange_weak(begin, end, std::memory_order_relaxed));
    return true;
  };

  const std::size_t pullers = std::min(pool.size(), count);
  for (std::size_t p = 0; p < pullers; ++p) {
    pool.submit([&, p] {
      std::size_t begin = 0, end = 0;
      while (!latch.failed() && claim(begin, end)) {
        pool_metrics().chunk_pulls.add();
        try {
          body(p, begin, end);
        } catch (...) {
          latch.capture();
        }
      }
    });
  }
  pool.wait_idle();
  latch.rethrow_if_set();
}

}  // namespace gpurel
