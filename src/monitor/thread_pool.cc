#include "monitor/thread_pool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace lqs {

namespace {
constexpr int kMaxDefaultThreads = 16;
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    num_threads = std::clamp(num_threads, 1, kMaxDefaultThreads);
  }
  num_threads_ = num_threads;
  // The caller acts as one worker inside ParallelFor, so spawn one fewer.
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  // Return only once every worker has taken mu_: a thread's first lock
  // sizes its lock-rank bookkeeping, and that one-time cost belongs to
  // construction, not to whatever the caller measures next.
  MutexLock lock(&mu_);
  while (workers_started_ < num_threads_ - 1) job_done_.Wait(&mu_);
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    if (current_job_ != nullptr) {
      // Shutdown audit (DESIGN.md §9): a destructor racing an in-flight
      // ParallelFor would free mu_ and the condvars under the feet of the
      // caller blocked in the job barrier. That is a caller contract
      // violation; fail loudly instead of corrupting the handoff.
      std::fprintf(stderr,
                   "lqs::ThreadPool: destroyed while a ParallelFor is still "
                   "in flight\n");
      std::fflush(stderr);
      std::abort();
    }
    shutdown_ = true;
  }
  job_ready_.SignalAll();
  for (std::thread& w : workers_) w.join();
}

size_t ThreadPool::Drain(Job* job) {
  size_t completed = 0;
  while (true) {
    const size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job->size) break;
    (*job->fn)(i);
    ++completed;
  }
  return completed;
}

void ThreadPool::WorkerLoop() {
  {
    MutexLock lock(&mu_);
    ++workers_started_;
  }
  job_done_.SignalAll();
  uint64_t seen_generation = 0;
  while (true) {
    Job* job = nullptr;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && job_generation_ == seen_generation) {
        job_ready_.Wait(&mu_);
      }
      if (shutdown_) return;
      seen_generation = job_generation_;
      // The job may already be finished and retired by the time a slow
      // waker gets here; current_job_ is null then and we just re-wait.
      job = current_job_;
      if (job == nullptr) continue;
      job->attached++;
    }
    const size_t completed = Drain(job);
    {
      MutexLock lock(&mu_);
      job->done += completed;
      job->attached--;
    }
    job_done_.SignalAll();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (num_threads_ <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Job job;
  job.fn = &fn;
  job.size = n;
  {
    MutexLock lock(&mu_);
    current_job_ = &job;
    ++job_generation_;
  }
  job_ready_.SignalAll();
  const size_t completed = Drain(&job);
  MutexLock lock(&mu_);
  job.done += completed;
  // Wait for the last index to finish AND every attached worker to let go
  // of the job pointer before `job` leaves scope.
  while (!(job.done == n && job.attached == 0)) {
    job_done_.Wait(&mu_);
  }
  current_job_ = nullptr;
}

}  // namespace lqs
