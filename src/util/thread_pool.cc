#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"

namespace ibfs {
namespace {

// Identity of the worker thread currently executing, for Submit's
// push-to-own-deque fast path and CurrentWorkerIndex. One pool is active
// per worker thread by construction (workers never nest pools).
thread_local const ThreadPool* tls_pool = nullptr;
thread_local int tls_worker_index = -1;

}  // namespace

ThreadPool::ThreadPool(int thread_count) {
  const int n = std::max(1, thread_count);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    shutdown_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  size_t target;
  if (tls_pool == this && tls_worker_index >= 0) {
    target = static_cast<size_t>(tls_worker_index);
    std::lock_guard<std::mutex> lock(workers_[target]->mu);
    workers_[target]->tasks.push_back(std::move(task));
  } else {
    {
      std::lock_guard<std::mutex> lock(submit_mu_);
      target = next_worker_;
      next_worker_ = (next_worker_ + 1) % workers_.size();
    }
    std::lock_guard<std::mutex> lock(workers_[target]->mu);
    workers_[target]->tasks.push_back(std::move(task));
  }
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    ++pending_;
  }
  wake_cv_.notify_one();
}

std::function<void()> ThreadPool::TakeTask(int index) {
  const size_t n = workers_.size();
  // Own deque: LIFO end.
  {
    Worker& own = *workers_[static_cast<size_t>(index)];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      auto task = std::move(own.tasks.back());
      own.tasks.pop_back();
      return task;
    }
  }
  // Steal: siblings' FIFO end, scanning from the next worker around.
  for (size_t off = 1; off < n; ++off) {
    Worker& victim = *workers_[(static_cast<size_t>(index) + off) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      auto task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      return task;
    }
  }
  return {};
}

void ThreadPool::WorkerLoop(int index) {
  tls_pool = this;
  tls_worker_index = index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait(lock, [this] { return pending_ > 0 || shutdown_; });
      if (pending_ == 0 && shutdown_) break;
      // Claim one pending slot before unlocking; the matching task is
      // guaranteed to be in some deque already.
      --pending_;
    }
    task = TakeTask(index);
    // pending_ and the deques are updated under different mutexes, so a
    // claimed slot's task may momentarily be handed to another thief; spin
    // through the deques until it surfaces.
    while (!task) task = TakeTask(index);
    task();
  }
  tls_pool = nullptr;
  tls_worker_index = -1;
}

void ThreadPool::ParallelFor(int64_t n, const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  // Nested call from one of this pool's own workers: blocking on done_cv
  // would park the worker that the submitted iterations need (a guaranteed
  // deadlock at thread_count 1, and a slot leak otherwise). Degrade to
  // inline execution — same iterations, same thread, no waiting.
  if (tls_pool == this) {
    IBFS_LOG(Warning) << "ParallelFor called from worker "
                      << tls_worker_index
                      << " of its own pool; running " << n
                      << " iterations inline to avoid self-deadlock";
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::mutex done_mu;
  std::condition_variable done_cv;
  int64_t remaining = n;
  for (int64_t i = 0; i < n; ++i) {
    Submit([&, i] {
      fn(i);
      // Notify under the lock: done_cv lives on the caller's stack, and an
      // unlocked notify could still be running when the woken caller
      // destroys it.
      std::lock_guard<std::mutex> lock(done_mu);
      --remaining;
      done_cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

int ThreadPool::CurrentWorkerIndex() { return tls_worker_index; }

int ThreadPool::HardwareConcurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ThreadPool::WorkerCount(int requested, int64_t work_items) {
  const int workers =
      requested == 0 ? HardwareConcurrency() : std::max(1, requested);
  return static_cast<int>(
      std::min<int64_t>(workers, std::max<int64_t>(1, work_items)));
}

}  // namespace ibfs
