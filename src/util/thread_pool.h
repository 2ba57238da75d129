#ifndef IBFS_UTIL_THREAD_POOL_H_
#define IBFS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ibfs {

/// A small work-stealing thread pool for host-side parallelism (the engine
/// runs independent BFS groups on it; the cluster engine runs one simulated
/// device per worker).
///
/// Scheduling model: each worker owns a deque. Tasks submitted from a worker
/// go to the back of its own deque (LIFO for locality); tasks submitted from
/// outside the pool are distributed round-robin. A worker pops from the back
/// of its own deque and, when empty, steals from the *front* of a sibling's
/// deque — the classic Chase-Lev discipline (mutex-protected here; task
/// granularity is whole BFS groups, so queue overhead is noise).
///
/// Tasks must not throw — the library is no-throw (Status-based) by
/// convention, and an exception escaping a worker would terminate.
class ThreadPool {
 public:
  /// Spawns `thread_count` workers (clamped to >= 1).
  explicit ThreadPool(int thread_count);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains nothing: outstanding tasks are completed before destruction
  /// returns (the destructor joins after the queues empty).
  ~ThreadPool();

  int thread_count() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task.
  void Submit(std::function<void()> task);

  /// Runs fn(0..n-1) across the pool and blocks until every call returned.
  /// Index order of execution is unspecified; callers needing deterministic
  /// output must merge by index afterwards. When called from one of this
  /// pool's own workers (nesting), the iterations run inline on the calling
  /// thread instead — blocking there would deadlock the worker the
  /// submitted iterations need — and a warning is logged.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  /// Index of the calling pool worker in [0, thread_count), or -1 when the
  /// caller is not one of this pool's workers.
  static int CurrentWorkerIndex();

  /// std::thread::hardware_concurrency with a >= 1 guarantee.
  static int HardwareConcurrency();

  /// Workers worth starting for `work_items` independent items: `requested`
  /// (0 = hardware concurrency, else at least 1), capped by the item count
  /// since extra workers would only idle.
  static int WorkerCount(int requested, int64_t work_items);

 private:
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(int index);
  /// Pops a task for worker `index` (own back first, then steal a sibling's
  /// front). Returns an empty function when every deque is empty.
  std::function<void()> TakeTask(int index);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Sleep/wake plumbing: pending_ counts queued-but-unstarted tasks, so
  // idle workers can block instead of spinning.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  int64_t pending_ = 0;
  bool shutdown_ = false;
  // Round-robin cursor for external submissions.
  std::mutex submit_mu_;
  size_t next_worker_ = 0;
};

}  // namespace ibfs

#endif  // IBFS_UTIL_THREAD_POOL_H_
