#include "support/thread_pool.hpp"

#include <algorithm>
#include <limits>

#ifdef __linux__
#include <sched.h>
#endif

namespace sunbfs {

namespace {
// Pool currently executing a chunk on this thread; lets nested
// run_chunks/parallel_for calls on the same pool degrade to inline
// execution instead of deadlocking on the dispatch protocol.
thread_local ThreadPool* tls_current_pool = nullptr;

struct CurrentPoolScope {
  ThreadPool* prev;
  explicit CurrentPoolScope(ThreadPool* pool) : prev(tls_current_pool) {
    tls_current_pool = pool;
  }
  ~CurrentPoolScope() { tls_current_pool = prev; }
};
}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) threads = usable_cpus();
  // The caller participates in every batch, so spawn threads-1 workers.
  for (size_t i = 0; i + 1 < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::record_error(size_t chunk) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!error_ || chunk < error_chunk_) {
    error_ = std::current_exception();
    error_chunk_ = chunk;
  }
}

void ThreadPool::worker_loop() {
  uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(size_t)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    {
      CurrentPoolScope scope(this);
      for (;;) {
        size_t chunk;
        {
          std::lock_guard<std::mutex> lk(mu_);
          if (next_chunk_ >= job_chunks_) break;
          chunk = next_chunk_++;
        }
        try {
          (*job)(chunk);
        } catch (...) {
          record_error(chunk);
        }
      }
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::run_inline(size_t nchunks,
                            const std::function<void(size_t)>& fn) {
  // Ascending order: the first throw is necessarily the lowest chunk index,
  // matching the parallel path's deterministic-first-exception guarantee.
  for (size_t i = 0; i < nchunks; ++i) fn(i);
}

void ThreadPool::run_chunks(size_t nchunks,
                            const std::function<void(size_t)>& fn) {
  if (nchunks == 0) return;
  if (workers_.empty() || tls_current_pool == this) {
    run_inline(nchunks, fn);
    return;
  }
  // One batch at a time owns the dispatch slots; a concurrent external
  // submitter runs inline rather than clobbering them (see the header).
  std::unique_lock<std::mutex> submit(submit_mu_, std::try_to_lock);
  if (!submit.owns_lock()) {
    run_inline(nchunks, fn);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &fn;
    job_chunks_ = nchunks;
    next_chunk_ = 0;
    pending_ = workers_.size();
    error_ = nullptr;
    error_chunk_ = std::numeric_limits<size_t>::max();
    ++epoch_;
  }
  cv_start_.notify_all();
  // Caller participates.
  {
    CurrentPoolScope scope(this);
    for (;;) {
      size_t chunk;
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (next_chunk_ >= job_chunks_) break;
        chunk = next_chunk_++;
      }
      try {
        fn(chunk);
      } catch (...) {
        record_error(chunk);
      }
    }
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return pending_ == 0; });
    job_ = nullptr;
    if (error_) {
      auto err = error_;
      error_ = nullptr;
      std::rethrow_exception(err);
    }
  }
}

void ThreadPool::parallel_for(size_t begin, size_t end,
                              const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  size_t n = end - begin;
  size_t parts = std::min(n, size());
  run_chunks(parts, [&](size_t p) {
    size_t lo = begin + n * p / parts;
    size_t hi = begin + n * (p + 1) / parts;
    if (lo < hi) fn(lo, hi);
  });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(0);
  return pool;
}

size_t usable_cpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
    return size_t(CPU_COUNT(&set));
#endif
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

size_t resolve_threads_per_rank(int requested, size_t nranks) {
  if (nranks == 0) nranks = 1;
  return requested > 0 ? size_t(requested)
                       : std::max<size_t>(1, usable_cpus() / nranks);
}

}  // namespace sunbfs
