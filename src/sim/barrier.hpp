#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>

/// Abortable rendezvous barrier for the SPMD runtime.
namespace sunbfs::sim {

/// Thrown out of Barrier::wait on every rank when the SPMD run is aborted
/// (some rank threw); unwinds rank threads so the runtime can join them.
class AbortError : public std::runtime_error {
 public:
  AbortError() : std::runtime_error("SPMD run aborted by another rank") {}
};

/// Phase barrier over a fixed number of participants, with an abort channel
/// so a failing rank never deadlocks its peers.
///
/// Arrival is one atomic increment; the last arriver resets the count and
/// advances the phase word.  A waiter with a spin budget first polls the
/// phase with a CPU pause, then parks on a condition variable.  Spinning
/// pays only when every participant owns a core (run_spmd decides); the
/// budget adapts per barrier — halved after a spin that ended in a park,
/// doubled after one that succeeded, never below a floor — so a host
/// shared with other processes does not turn waiters into core burners.
class Barrier {
 public:
  explicit Barrier(int participants, bool spin = false);

  /// Block until all participants arrive.  Throws AbortError if abort() was
  /// or is called while waiting — except that an `exit` wait (a collective's
  /// last barrier, after which no rank reads a peer's own buffers) completes
  /// normally once every participant has arrived, even if an abort races
  /// the wake-up.  A rank failing right after a collective therefore cannot
  /// turn its peers' completed collective into an abort, and their own
  /// errors still get reported.
  void wait(bool exit = false);

  /// Wake all waiters (spinning or parked) with AbortError and make future
  /// waits throw.
  void abort();

 private:
  /// Poll the phase for up to the current spin budget and adapt the budget.
  void spin(uint64_t my_phase);

  static constexpr uint32_t kSpinFloor = 256;
  static constexpr uint32_t kSpinCeiling = 1u << 14;

  const int participants_;
  alignas(64) std::atomic<int> arrived_{0};
  alignas(64) std::atomic<uint64_t> phase_{0};
  std::atomic<bool> aborted_{false};
  std::atomic<uint32_t> spin_budget_;  ///< pause iterations; 0 = always park
  std::mutex mu_;
  std::condition_variable cv_;
};

/// The exit barrier of one collective, armed once the caller's payload is
/// published.  Peers read this rank's published buffers until they pass the
/// exit barrier, so when the read phase throws (a detection under the abort
/// or report policy) the destructor still arrives there before unwinding
/// frees those buffers.
class CollectiveExit {
 public:
  explicit CollectiveExit(Barrier& barrier) : barrier_(barrier) {}
  CollectiveExit(const CollectiveExit&) = delete;
  CollectiveExit& operator=(const CollectiveExit&) = delete;
  ~CollectiveExit() {
    if (passed_) return;
    try {
      barrier_.wait(/*exit=*/true);
    } catch (const AbortError&) {
      // Unwinding already; the error that started it is the one to report.
    }
  }

  void wait() {
    passed_ = true;
    barrier_.wait(/*exit=*/true);
  }

 private:
  Barrier& barrier_;
  bool passed_ = false;
};

}  // namespace sunbfs::sim
