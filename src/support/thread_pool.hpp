#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/// Shared-memory worker pool for intra-rank parallelism.
///
/// On the simulated machine each rank's "CPE cluster" compute is expressed as
/// parallel_for over local ranges; on a single-core host the pool degrades
/// gracefully to inline execution.
namespace sunbfs {

/// Fixed-size thread pool executing indexed task batches.
///
/// Guarantees (see tests/test_support.cpp, ctest -L tsan):
///  - Exceptions: when chunks throw, the exception from the *lowest-indexed*
///    throwing chunk propagates to the caller, regardless of scheduling
///    order — so a failing parallel loop reports the same error at any
///    thread count.
///  - Re-entrancy: calling run_chunks / parallel_for from inside a chunk of
///    the same pool degrades to inline execution on the calling thread
///    instead of deadlocking on the dispatch protocol.
///  - One submitter at a time: the dispatch slots (job, chunk cursor,
///    pending count) serve one batch.  An external thread that submits
///    while another batch is in flight — e.g. SPMD rank threads reaching a
///    shared pool such as global() together — does not join or overwrite
///    that batch; it runs its own chunks inline on the calling thread.
///    Results are the same either way, so sharing a pool across threads is
///    safe but serializes; per-rank pools (BfsWorkspace) keep the
///    parallelism.
class ThreadPool {
 public:
  /// Create a pool with `threads` workers.  0 means usable_cpus().  A pool
  /// of size <= 1 executes everything inline on the caller thread.
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.empty() ? 1 : workers_.size() + 1; }

  /// Run fn(chunk_index) for chunk_index in [0, nchunks), distributing chunks
  /// across workers (caller participates).  Blocks until all chunks finish.
  /// If any chunks throw, the exception from the lowest chunk index is
  /// rethrown on the caller (deterministic across thread counts).
  void run_chunks(size_t nchunks, const std::function<void(size_t)>& fn);

  /// Parallel loop over [begin, end) in contiguous blocks, one block per
  /// participant: fn(block_begin, block_end).
  void parallel_for(size_t begin, size_t end,
                    const std::function<void(size_t, size_t)>& fn);

  /// Process-wide default pool (size = hardware concurrency).
  static ThreadPool& global();

 private:
  void worker_loop();
  void run_inline(size_t nchunks, const std::function<void(size_t)>& fn);
  void record_error(size_t chunk);

  std::vector<std::thread> workers_;
  /// Held by the one external thread whose batch owns the dispatch slots.
  std::mutex submit_mu_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(size_t)>* job_ = nullptr;
  size_t job_chunks_ = 0;
  size_t next_chunk_ = 0;
  size_t pending_ = 0;
  uint64_t epoch_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
  size_t error_chunk_ = 0;
};

/// CPUs the calling thread may run on: the size of its affinity mask, so a
/// pinned run (taskset, cgroup cpusets) sees its own share, falling back
/// to std::thread::hardware_concurrency() (at least 1).
size_t usable_cpus();

/// Resolve the intra-rank worker-thread count for one rank of an nranks-wide
/// SPMD run.  `requested` <= 0 means auto: usable_cpus() / nranks, floored
/// at 1, so rank-threads x workers never oversubscribe the host by default.
/// Explicit requests pass through unchanged: oversubscription is a
/// supported configuration (e.g. tpr=4 sweeps on small hosts).
size_t resolve_threads_per_rank(int requested, size_t nranks);

}  // namespace sunbfs
