#include "common/thread_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace dcs {
namespace {

// Which pool (if any) owns the calling thread. Lets RunShards degrade to
// inline execution when invoked from one of its own workers, where waiting
// would deadlock (the caller's own task occupies the worker it waits on).
thread_local const ThreadPool* current_worker_pool = nullptr;

}  // namespace

std::vector<ShardRange> MakeShards(std::size_t count, std::size_t max_shards) {
  std::vector<ShardRange> shards;
  if (count == 0) return shards;
  const std::size_t n = std::min(count, std::max<std::size_t>(max_shards, 1));
  const std::size_t base = count / n;
  const std::size_t extra = count % n;  // First `extra` shards get +1.
  shards.reserve(n);
  std::size_t begin = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    shards.push_back(ShardRange{s, begin, begin + len});
    begin += len;
  }
  DCS_CHECK(begin == count);
  return shards;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  DCS_CHECK(num_threads >= 1);
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
  }
  work_available_.SignalAll();
  for (std::thread& t : threads_) t.join();
}

bool ThreadPool::OnWorkerThread() const {
  return current_worker_pool == this;
}

void ThreadPool::Schedule(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    DCS_CHECK(!shutting_down_);
    queue_.push(std::move(task));
  }
  work_available_.Signal();
}

std::vector<ShardRange> ShardsFor(const ThreadPool* pool, std::size_t count) {
  return MakeShards(count, pool != nullptr ? pool->num_threads() * 4 : 1);
}

void RunShards(ThreadPool* pool, const std::vector<ShardRange>& shards,
               const std::function<void(const ShardRange&)>& fn) {
  // The deterministic-merge contract: shard indices are their positions and
  // ranges tile [begin, end) without gaps, so per-shard partials can be
  // merged in ascending index order regardless of execution schedule.
  for (std::size_t s = 0; s < shards.size(); ++s) {
    DCS_DCHECK(shards[s].index == s)
        << "shard " << s << " carries index " << shards[s].index;
    DCS_DCHECK(shards[s].begin <= shards[s].end)
        << "shard " << s << " has inverted range";
    DCS_DCHECK(s == 0 || shards[s].begin == shards[s - 1].end)
        << "shard " << s << " is not contiguous with its predecessor";
  }
  if (pool == nullptr || shards.size() <= 1 || pool->OnWorkerThread()) {
    // Serial engine, nothing to spread, or a nested call: run inline.
    for (const ShardRange& shard : shards) fn(shard);
    return;
  }
  // Per-call completion latch, so concurrent callers never wait on each
  // other's work. The count is decremented under the latch's own mutex and
  // the last decrement signals before releasing it: the waiter can only see
  // zero after that release, so it never returns (destroying the latch on
  // its stack) while a worker still touches the mutex or the condvar.
  struct Latch {
    explicit Latch(std::size_t n) : remaining(n) {}
    Mutex mu{"ThreadPool.RunShards.latch"};
    CondVar done;
    std::size_t remaining DCS_GUARDED_BY(mu);
  } latch(shards.size());
  for (const ShardRange& shard : shards) {
    pool->Schedule([&fn, &shard, &latch] {
      fn(shard);
      MutexLock lock(&latch.mu);
      if (--latch.remaining == 0) latch.done.SignalAll();
    });
  }
  MutexLock lock(&latch.mu);
  while (latch.remaining != 0) latch.done.Wait(&lock);
}

void ParallelFor(ThreadPool* pool, std::size_t count,
                 const std::function<void(std::size_t)>& fn) {
  RunShards(pool, ShardsFor(pool, count), [&fn](const ShardRange& shard) {
    for (std::size_t i = shard.begin; i < shard.end; ++i) fn(i);
  });
}

void ThreadPool::WorkerLoop() {
  current_worker_pool = this;
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!shutting_down_ && queue_.empty()) work_available_.Wait(&lock);
      if (queue_.empty()) return;  // shutting_down_ and drained.
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

}  // namespace dcs
