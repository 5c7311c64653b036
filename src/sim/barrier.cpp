#include "sim/barrier.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace sunbfs::sim {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

Barrier::Barrier(int participants, bool spin)
    : participants_(participants), spin_budget_(spin ? kSpinFloor : 0) {
  SUNBFS_CHECK(participants >= 1);
}

void Barrier::wait(bool exit) {
  if (aborted_.load(std::memory_order_acquire)) throw AbortError();
  // Read the phase before arriving: it cannot advance until we do.
  const uint64_t my_phase = phase_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == participants_) {
    arrived_.store(0, std::memory_order_relaxed);
    phase_.store(my_phase + 1, std::memory_order_release);
    // A parker re-checks the phase under the mutex before it sleeps, so
    // taking the mutex here orders this wake-up after that check.
    { std::lock_guard<std::mutex> lk(mu_); }
    cv_.notify_all();
    return;
  }
  spin(my_phase);
  auto released = [&] {
    return aborted_.load(std::memory_order_acquire) ||
           phase_.load(std::memory_order_acquire) != my_phase;
  };
  if (!released()) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, released);
  }
  const bool done = phase_.load(std::memory_order_acquire) != my_phase;
  if (aborted_.load(std::memory_order_acquire) && !(exit && done))
    throw AbortError();
}

void Barrier::spin(uint64_t my_phase) {
  const uint32_t budget = spin_budget_.load(std::memory_order_relaxed);
  if (budget == 0) return;
  for (uint32_t i = 0; i < budget; ++i) {
    if (phase_.load(std::memory_order_acquire) != my_phase) break;
    if (aborted_.load(std::memory_order_relaxed)) return;
    cpu_relax();
  }
  const bool won = phase_.load(std::memory_order_acquire) != my_phase;
  spin_budget_.store(won ? std::min(budget * 2, kSpinCeiling)
                         : std::max(budget / 2, kSpinFloor),
                     std::memory_order_relaxed);
}

void Barrier::abort() {
  aborted_.store(true, std::memory_order_release);
  { std::lock_guard<std::mutex> lk(mu_); }
  cv_.notify_all();
}

}  // namespace sunbfs::sim
