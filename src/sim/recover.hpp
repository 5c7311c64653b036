#pragma once

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"
#include "support/check.hpp"
#include "support/log.hpp"

/// Rollback-and-replay recovery, the one implementation every collective
/// engine shares (bfs1d, bfs15d, bfsasync, msbfs, and through
/// run_with_replay the SSSP query paths).
///
/// An engine runs numbered levels (BFS levels, exchange rounds, SSSP
/// epochs).  Under FaultPolicy::Recover with a plan installed the driver
///  - fires planned rank failures at the start of their level: the plan is
///    replicated, so every rank latches the same one-shot entry and rolls
///    back at the same point without communicating, and the victim's
///    volatile state is wiped first (the crash);
///  - agrees collectively at the end of every level on whether any rank
///    dropped a corrupted contribution (with a local re-check, since a
///    corruption of the agreement itself is dropped identically everywhere);
///  - rolls every rank back to the last checkpoint, taken every
///    checkpoint_interval levels, after a capped exponential backoff on the
///    modeled clock, and gives up with FaultDetected after max_retries
///    consecutive rollbacks;
///  - accounts retries, backoff_s, resent_bytes and completed recoveries in
///    FaultStats.
/// Nothing from a faulty level is committed, so a recovered run is
/// bit-identical to a fault-free one.  Without the Recover policy the
/// driver adds no collective, copy or allocation: a planned failure kills
/// its rank with RankFailure, checked once per level.
namespace sunbfs::sim {

/// An engine's recoverable state for LevelRecovery::run, as three callables:
/// save() snapshots it, restore() brings the snapshot back, wipe() loses it
/// (a rank failure on this rank).  Usually built from lambdas:
/// StateHooks{.save = ..., .restore = ..., .wipe = ...}.
template <typename Save, typename Restore, typename Wipe>
struct StateHooks {
  Save save;
  Restore restore;
  Wipe wipe;
};

class LevelRecovery {
 public:
  LevelRecovery(RankContext& ctx, const RecoveryOptions& rec)
      : ctx_(ctx), rec_(rec), resilient_(ctx.faults.recovering()) {
    if (resilient_) {
      SUNBFS_CHECK(rec.checkpoint_interval >= 1);
      fired_.assign(ctx.faults.plan->rank_failures().size(), false);
    }
  }

  /// Recover policy with a plan installed: levels are checkpointed,
  /// agreed on and replayed.
  bool resilient() const { return resilient_; }

  /// Drive levels 1, 2, ... to completion and return the number of the
  /// last one.  `level(n)` runs level n and returns true when it is the
  /// last; `advance(n)` commits a clean, non-final level; `state` is the
  /// engine's StateHooks.
  template <typename State, typename Level, typename Advance>
  int run(State&& state, Level&& level, Advance&& advance) {
    checkpoint(0, state.save);
    for (int n = 1;; ++n) {
      if (rank_failure(n, state.wipe)) {
        n = rollback(n, state.restore);
        continue;
      }
      const bool last = level(n);
      if (faulty()) {
        n = rollback(n, state.restore);
        continue;
      }
      if (last) return n;
      advance(n);
      checkpoint(n, state.save);
    }
  }

  /// Planned rank failures at the start of `level`.  Returns true when the
  /// level must be rolled back on every rank (`wipe` ran on the victim).
  /// Without the Recover policy the victim throws RankFailure instead.
  template <typename Wipe>
  bool rank_failure(int level, Wipe&& wipe) {
    if (!resilient_) {
      if (ctx_.faults.active())
        for (const auto& f : ctx_.faults.plan->rank_failures())
          if (f.rank == ctx_.rank && f.level == level)
            throw RankFailure(f.rank, f.level);
      return false;
    }
    const auto& failures = ctx_.faults.plan->rank_failures();
    bool fired = false;
    for (size_t i = 0; i < failures.size(); ++i) {
      if (fired_[i] || failures[i].level != level) continue;
      fired_[i] = true;
      fired = true;
      if (failures[i].rank == ctx_.rank) {
        ++ctx_.faults.stats.injected_failures;
        log_debug("rank ", ctx_.rank, ": injected hard failure at level ",
                  level);
        wipe();
      }
    }
    return fired;
  }

  /// End-of-level agreement: true when any rank dropped a corrupted
  /// contribution since the last agreement, or `discarded` (which must be
  /// replicated) is set.  A clean agreement completes a recovery in flight.
  bool faulty(bool discarded = false) {
    if (!resilient_) return false;
    bool bad = ctx_.world.allreduce_or(ctx_.faults.take_pending() || discarded);
    bad = ctx_.faults.take_pending() || bad;
    if (!bad && in_recovery_) {
      ++ctx_.faults.stats.recovered;
      in_recovery_ = false;
      consecutive_retries_ = 0;
    }
    return bad;
  }

  /// Snapshot the engine's state (`save`) when `level` is on the
  /// checkpoint cadence.
  template <typename Save>
  void checkpoint(int level, Save&& save) {
    if (!resilient_ || level % rec_.checkpoint_interval != 0) return;
    ckpt_level_ = level;
    ckpt_bytes_ = ctx_.stats.total_bytes_sent();
    save();
  }

  /// Roll every rank back from `level` to the last checkpoint (`restore`)
  /// after the backoff; returns the checkpoint's level.
  template <typename Restore>
  int rollback(int level, Restore&& restore) {
    obs::Span span("fault", "rollback", ckpt_level_);
    obs::instant("fault", "rollback_from", level);
    backoff("recovery");
    ctx_.faults.stats.resent_bytes +=
        ctx_.stats.total_bytes_sent() - ckpt_bytes_;
    restore();
    log_debug("rank ", ctx_.rank, ": rolled back to the level ", ckpt_level_,
              " checkpoint (retry ", consecutive_retries_, ")");
    return ckpt_level_;
  }

  /// Run an idempotent collective step until a clean agreement; no
  /// rollback, just the backoff between attempts.
  template <typename Step>
  void retry(const char* what, Step&& step) {
    for (;;) {
      step();
      if (!faulty()) return;
      backoff(what);
    }
  }

 private:
  /// Account one retry and sleep the capped exponential backoff; throws
  /// FaultDetected once the consecutive-retry budget is exhausted.
  void backoff(const char* what) {
    ++consecutive_retries_;
    if (consecutive_retries_ > rec_.max_retries)
      throw FaultDetected(std::string("fault: ") + what +
                          " retries exhausted after " +
                          std::to_string(rec_.max_retries) + " attempts");
    auto& fs = ctx_.faults.stats;
    ++fs.retries;
    in_recovery_ = true;
    const double delay = backoff_delay_s(rec_, consecutive_retries_);
    fs.backoff_s += delay;
    obs::Span span("fault", "backoff", consecutive_retries_);
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    obs::Tracer::advance_modeled(delay);
  }

  RankContext& ctx_;
  const RecoveryOptions& rec_;
  const bool resilient_;
  std::vector<bool> fired_;  ///< one-shot latch per planned rank failure
  int ckpt_level_ = 0;
  uint64_t ckpt_bytes_ = 0;  ///< bytes sent when the checkpoint was taken
  int consecutive_retries_ = 0;
  bool in_recovery_ = false;
};

/// Hands planned rank failures to run_with_replay.  The body must call
/// epoch(n) once per round/bucket sweep with a replicated counter n
/// (starting at 1), at a collective-aligned point: failures fire there,
/// mid-attempt, the way they fire mid-search in the level engines.
class ReplayGuard {
 public:
  /// Internal control-flow signal thrown by epoch(); run_with_replay
  /// catches it.  Never escapes to callers.
  struct Aborted {};

  explicit ReplayGuard(LevelRecovery& recovery) : recovery_(recovery) {}

  void epoch(int n) {
    epoch_ = n;
    if (recovery_.rank_failure(n, [] {})) throw Aborted{};
  }
  int last_epoch() const { return epoch_; }

 private:
  LevelRecovery& recovery_;
  int epoch_ = 0;
};

/// Whole-attempt replay for engines without per-level checkpoints (the
/// SSSP query path): a single query is short enough that the cheapest
/// consistent checkpoint is its initial state, so the attempt is the level.
/// Runs `body(guard)` — one full collective pass over ctx.world — agrees on
/// it, and commits it or discards it wholesale and replays.  Returns the
/// first committed attempt's result; throws FaultDetected once
/// rec.max_retries consecutive attempts were discarded.  Without the Recover
/// policy the body runs exactly once.
template <typename Body>
auto run_with_replay(RankContext& ctx, const RecoveryOptions& rec,
                     Body&& body) {
  LevelRecovery recovery(ctx, rec);
  ReplayGuard guard(recovery);
  if (!recovery.resilient()) return body(guard);
  auto nothing = [] {};  // the body rebuilds its state every attempt
  for (;;) {
    // The attempt starts clean: pending flags left over from a discarded
    // attempt were accounted for by that attempt's rollback already.
    (void)ctx.faults.take_pending();
    recovery.checkpoint(0, nothing);
    bool aborted = false;
    decltype(body(guard)) result{};
    try {
      result = body(guard);
    } catch (const ReplayGuard::Aborted&) {
      aborted = true;
    }
    // Aborted or not, every rank reaches this agreement at the same program
    // position (the abort decision is replicated), so it stays aligned.
    if (!recovery.faulty(aborted)) return result;
    recovery.rollback(guard.last_epoch(), nothing);
  }
}

}  // namespace sunbfs::sim
