#ifndef DCS_COMMON_THREAD_POOL_H_
#define DCS_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace dcs {

/// Contiguous slice [begin, end) of an index space, with its position in the
/// partition. The analysis engines compute per-shard partial results indexed
/// by `index` and merge them in ascending shard order, which is what makes
/// the parallel pipelines deterministic at any thread count.
struct ShardRange {
  std::size_t index = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Partitions [0, count) into at most `max_shards` (clamped to >= 1)
/// non-empty contiguous ranges of near-equal size (the first `count %
/// shards` ranges are one element longer). Deterministic in (count,
/// max_shards) only — never in the number of threads that will run the
/// shards.
std::vector<ShardRange> MakeShards(std::size_t count, std::size_t max_shards);

class ThreadPool;

/// The partition RunShards/ParallelFor use for `count` items on `pool`:
/// MakeShards(count, 4 * pool->num_threads()), or the single shard
/// MakeShards(count, 1) for a null pool (the serial engine). Oversharding by
/// 4x lets the queue load-balance uneven shards (e.g. the triangular pair
/// pass).
std::vector<ShardRange> ShardsFor(const ThreadPool* pool, std::size_t count);

/// The one fork-join entry point of every engine: runs fn(shard) for every
/// shard and returns once all have completed. The shards run inline on the
/// caller, in shard order, when `pool` is null, when there is only one
/// shard, or when the caller is a worker of `pool` (waiting on its own
/// queue would deadlock); otherwise they spread across the pool. Shard
/// contents and merge order never depend on which of these ran, so results
/// are identical — only the schedule changes.
void RunShards(ThreadPool* pool, const std::vector<ShardRange>& shards,
               const std::function<void(const ShardRange&)>& fn);

/// Runs fn(i) for i in [0, count), partitioned with ShardsFor(pool, count)
/// and run through RunShards (so a null pool visits every index in order on
/// the caller).
void ParallelFor(ThreadPool* pool, std::size_t count,
                 const std::function<void(std::size_t)>& fn);

/// \brief Fixed-size worker pool.
///
/// The paper notes (Section IV-D) that the analysis center's work is
/// embarrassingly parallel and suggests spreading it over many CPUs. Both
/// pipelines, and the ingest server's connection drain, run on this pool
/// through RunShards / ParallelFor above; the pool itself exposes no other
/// way to submit work. See docs/PARALLELISM.md for the sharding and merge
/// architecture.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains pending work and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t num_threads() const { return threads_.size(); }

  /// True when the calling thread is one of this pool's workers. RunShards
  /// uses this to degrade to inline execution instead of deadlocking on a
  /// nested fork-join.
  bool OnWorkerThread() const;

 private:
  friend void RunShards(ThreadPool* pool,
                        const std::vector<ShardRange>& shards,
                        const std::function<void(const ShardRange&)>& fn);

  /// Enqueues a task. Only RunShards submits work, and it waits for every
  /// task it submits, so the queue is empty whenever no fork-join is open.
  void Schedule(std::function<void()> task);

  void WorkerLoop();

  /// One mutex covers the scheduling state: queue and shutdown flag move
  /// together. Completion is tracked per RunShards call, not here.
  Mutex mu_{"ThreadPool.mu"};
  CondVar work_available_;
  std::queue<std::function<void()>> queue_ DCS_GUARDED_BY(mu_);
  bool shutting_down_ DCS_GUARDED_BY(mu_) = false;
  /// Written only by the constructor, joined only by the destructor; size()
  /// is read concurrently but the vector is immutable between the two, so
  /// no lock applies (deliberately unguarded).
  std::vector<std::thread> threads_;
};

}  // namespace dcs

#endif  // DCS_COMMON_THREAD_POOL_H_
