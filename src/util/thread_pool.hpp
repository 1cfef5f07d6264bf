#pragma once
// A small fixed-size thread pool with one operation: parallel_for over an
// index range. Built for the gate-parallel optimizer (DESIGN.md Sec. 7.3):
// per-gate decisions are independent once signal statistics are known, so
// workers claim gate indices from a shared queue and write their results
// into disjoint slots — results are deterministic regardless of thread
// count or scheduling.
//
// Index claims take the pool mutex. That is deliberate: the unit of work
// is one whole gate (microseconds at minimum), so claim contention is
// negligible, and generation-tagged claims make late-waking workers
// provably unable to touch a newer job. parallel_for may only be called
// from one submitting thread at a time (the optimizer's main thread), and
// the calling thread participates in the work, so a pool of size 1 (or a
// single-core machine) degenerates to a plain loop.
//
// Construction is all-or-nothing: when the system refuses a thread, the
// workers already started are stopped and joined, and the constructor
// throws tr::Error with ErrorCode::resource (the `util.thread_spawn`
// fault site exercises that path without asking for a huge pool).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace tr::util {

class ThreadPool {
public:
  /// `threads` <= 0 selects one thread per hardware thread.
  explicit ThreadPool(int threads = 0) {
    int count = threads > 0 ? threads
                            : static_cast<int>(std::thread::hardware_concurrency());
    if (count < 1) count = 1;
    thread_count_ = count;
    try {
      workers_.reserve(static_cast<std::size_t>(count - 1));
      for (int t = 0; t + 1 < count; ++t) {
        if (fault::enabled()) fault::check("util.thread_spawn");
        workers_.emplace_back([this] { worker_loop(); });
      }
    } catch (const std::exception& e) {
      const std::size_t started = workers_.size();
      stop_and_join();
      throw Error("ThreadPool: could not start worker " +
                      std::to_string(started + 1) + " of " +
                      std::to_string(count - 1) + ": " + e.what(),
                  ErrorCode::resource);
    }
  }

  ~ThreadPool() { stop_and_join(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const noexcept { return thread_count_; }

  /// Runs fn(i) for every i in [0, n), distributed over the pool; blocks
  /// until all calls complete. The first exception thrown by fn aborts
  /// the remaining unclaimed indices and is rethrown here.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    if (workers_.empty() || n == 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    std::uint64_t my_generation = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      fn_ = &fn;
      total_ = n;
      next_ = 0;
      in_flight_ = 0;
      failure_ = nullptr;
      my_generation = ++generation_;
    }
    job_cv_.notify_all();
    run_share(my_generation);
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return next_ >= total_ && in_flight_ == 0; });
    if (failure_) std::rethrow_exception(failure_);
  }

private:
  void stop_and_join() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      ++generation_;
    }
    job_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  /// Claims one index of job `generation`; false when the job is drained
  /// or a newer job replaced it (late-waking worker).
  bool claim(std::uint64_t generation, std::size_t& index,
             const std::function<void(std::size_t)>** fn) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (generation != generation_ || next_ >= total_) return false;
    index = next_++;
    ++in_flight_;
    *fn = fn_;
    return true;
  }

  void finish(std::uint64_t generation, std::exception_ptr error) {
    bool done = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (generation != generation_) return;
      if (error) {
        if (!failure_) failure_ = error;
        next_ = total_;  // abort unclaimed indices
      }
      --in_flight_;
      done = next_ >= total_ && in_flight_ == 0;
    }
    if (done) done_cv_.notify_all();
  }

  /// Claims and runs indices of job `generation` until none remain.
  void run_share(std::uint64_t generation) {
    std::size_t index = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    while (claim(generation, index, &fn)) {
      std::exception_ptr error;
      try {
        (*fn)(index);
      } catch (...) {
        error = std::current_exception();
      }
      finish(generation, error);
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        job_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      run_share(seen);
    }
  }

  int thread_count_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;

  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t total_ = 0;
  std::size_t next_ = 0;
  std::size_t in_flight_ = 0;
  std::exception_ptr failure_;
};

}  // namespace tr::util
