#ifndef ARIEL_UTIL_THREAD_POOL_H_
#define ARIEL_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ariel {

/// A work-stealing pool for the parallel rule-matching stage of batch
/// propagation. Workers are persistent (created once, parked between
/// batches); RunAll distributes a task list round-robin across per-worker
/// deques and blocks until every task has finished. The calling thread
/// participates: it drains its own deque and steals alongside the workers,
/// so a pool of N workers gives N+1 executing contexts during a batch.
///
/// Stealing: a context pops its own deque from the front and steals from the
/// back of the fullest other deque, so contended deques split rather than
/// interleave. Tasks must not throw — engine code reports through Status,
/// which callers capture into per-task slots.
///
/// The pool imposes no ordering: batch determinism comes from each task
/// owning its rule's state and stamping P-node insertions by token epoch and
/// rule ordinal (see DiscriminationNetwork::ProcessBatch), never from
/// scheduling.
class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `num_workers` persistent worker threads (at least 1).
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Runs every task to completion, helping from the calling thread.
  /// Not reentrant and not thread-safe: one batch at a time.
  void RunAll(std::vector<Task> tasks);

  /// Lifetime count of cross-deque steals (work-stealing observability;
  /// ProcessBatch publishes the per-batch delta as `match_steal_count`).
  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

 private:
  struct Deque {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  /// Drains deque `home`, then steals, until the batch has no pending work.
  void WorkUntilDrained(size_t home);
  bool PopOwn(size_t home, Task* task);
  bool StealOne(size_t thief, Task* task);
  void WorkerLoop(size_t index);

  // deques_[0..num_workers-1] belong to the workers; the last one belongs
  // to the thread calling RunAll.
  std::vector<std::unique_ptr<Deque>> deques_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable wake_cv_;   // workers park here between batches
  std::condition_variable done_cv_;   // RunAll waits here for the last task
  uint64_t batch_generation_ = 0;     // bumped per RunAll, guarded by mu_
  size_t outstanding_ = 0;            // tasks not yet finished, guarded by mu_
  bool shutdown_ = false;

  std::atomic<uint64_t> steals_{0};
};

}  // namespace ariel

#endif  // ARIEL_UTIL_THREAD_POOL_H_
