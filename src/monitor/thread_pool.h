#ifndef LQS_MONITOR_THREAD_POOL_H_
#define LQS_MONITOR_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace lqs {

/// A fixed pool of worker threads executing index-parallel jobs, sized for
/// the monitor's per-tick fan-out (one progress estimate per active
/// session). Workers persist across jobs; ParallelFor hands out indices via
/// an atomic counter so the assignment of index -> thread is dynamic, which
/// is why MonitorService writes results into per-index slots and renders
/// them in index order — output stays deterministic for any thread count.
///
/// With num_threads <= 1 no threads are spawned and jobs run inline on the
/// caller; that is the reference serial schedule the parallel runs must
/// match byte-for-byte.
///
/// Lock discipline (proven by clang -Wthread-safety, DESIGN.md §9): all
/// handoff state is guarded by mu_, a leaf lock (lock_rank::kThreadPool) —
/// user jobs run with no pool lock held, so fn may take its own locks
/// freely.
class ThreadPool {
 public:
  /// `num_threads` <= 0 picks a hardware-based default (capped — see .cc).
  /// Returns once every worker has started and taken the pool lock once,
  /// so no worker's first-use allocation lands in a later ParallelFor.
  explicit ThreadPool(int num_threads);
  /// Joins the workers. Destroying the pool while a ParallelFor is still in
  /// flight on another thread is a contract violation and aborts with a
  /// diagnostic instead of racing the job handoff (the shutdown audit in
  /// DESIGN.md §9; regression-tested in tests/monitor_test.cc).
  ~ThreadPool() LQS_EXCLUDES(mu_);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for every i in [0, n), distributing indices across the
  /// workers, and blocks until all n calls have returned. The caller thread
  /// participates, so the pool makes progress even under a 1-core cgroup.
  /// Not reentrant: one ParallelFor at a time.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn)
      LQS_EXCLUDES(mu_);

  /// Worker count including the caller thread (>= 1).
  int num_threads() const { return num_threads_; }

 private:
  /// One ParallelFor invocation. Lives on the caller's stack; workers hold
  /// a pointer only between Attach/Detach (both under mu_), and ParallelFor
  /// returns only once every attached worker has detached, so the pointer
  /// never outlives the job. `done` and `attached` are guarded by the
  /// owning pool's mu_ — the annotation cannot name another object's
  /// member, so that part of the discipline stays convention plus TSan.
  struct Job {
    const std::function<void(size_t)>* fn;
    size_t size;
    /// Index handout. Relaxed ordering suffices: the counter only
    /// partitions [0, n) between threads; publication of `fn`/`size` to a
    /// worker happens-before via mu_ at attach, and the results written by
    /// fn(i) are published back to the caller via mu_ when `done` is
    /// accumulated under the lock.
    std::atomic<size_t> next{0};
    size_t done = 0;      // guarded by the pool's mu_
    int attached = 0;     // guarded by the pool's mu_
  };

  void WorkerLoop() LQS_EXCLUDES(mu_);
  /// Claims and runs indices of `job` until exhausted; returns the number
  /// of indices this thread completed. Runs with mu_ NOT held.
  static size_t Drain(Job* job);

  /// Both written only in the constructor, before any worker exists; const
  /// in spirit (num_threads_ is clamped from the argument, so it cannot be
  /// a const member initialized in the init list without a helper).
  // lqs-verify: guard-ok(ctor-only write, precedes all worker threads)
  int num_threads_;
  // lqs-verify: guard-ok(ctor-only write, precedes all worker threads)
  std::vector<std::thread> workers_;

  /// Leaf lock for the job handoff; see lock_rank::kThreadPool.
  Mutex mu_{lock_rank::kThreadPool, "ThreadPool::mu_"};
  CondVar job_ready_;
  /// Signalled when a worker lets go of a job, and once when it starts
  /// (the constructor waits for every start).
  CondVar job_done_;
  uint64_t job_generation_ LQS_GUARDED_BY(mu_) = 0;
  bool shutdown_ LQS_GUARDED_BY(mu_) = false;
  /// Workers that have entered WorkerLoop.
  int workers_started_ LQS_GUARDED_BY(mu_) = 0;
  Job* current_job_ LQS_GUARDED_BY(mu_) = nullptr;
};

}  // namespace lqs

#endif  // LQS_MONITOR_THREAD_POOL_H_
