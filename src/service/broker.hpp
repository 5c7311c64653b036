#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "service/query.hpp"

/// Admission control, overload shedding and deadline-aware batch formation
/// for the graph query service.
///
/// The broker is deliberately communication-free: every rank of a
/// GraphSession runs an identical replica fed by the same seeded workload
/// and the same virtual clock, so all its decisions (admit, reject, shed,
/// expire, close a batch) replicate without a single collective.  That keeps
/// the SPMD collective-ordering contract trivially satisfied and makes a
/// whole serving run replayable from its seed (docs/SERVICE.md
/// "Determinism").  The overload breaker below is likewise fed only by
/// replicated quantities (queue depth, terminal outcomes, the virtual
/// clock).
namespace sunbfs::service {

/// Occupancy/deadline-miss-driven overload shedding: a circuit breaker that
/// sheds the lowest-priority load while the service is saturated, so
/// admitted queries keep a bounded p99 and the shed load gets typed
/// fast-failures (QueryShed) instead of queueing toward certain expiry.
struct ShedConfig {
  bool enabled = false;
  /// Open (Closed -> Shedding) when queue depth reaches this fraction of
  /// queue_capacity...
  double queue_highwater = 0.75;
  /// ...or when the deadline-miss rate over the outcome window reaches this.
  double miss_rate_open = 0.5;
  /// Close (Probing -> Closed) when the windowed miss rate falls below this.
  double miss_rate_close = 0.15;
  /// Sliding window of terminal outcomes the miss rate is computed over.
  int window = 32;
  /// Outcomes required in the window before a rate-based transition.
  int min_samples = 8;
  /// Virtual seconds of shedding before the breaker starts probing.
  double probe_after_s = 0.02;
  /// While probing, admit one of every N sheddable queries.
  int probe_admit_every = 4;
};

/// Breaker states: Closed admits everything, Shedding fast-fails every
/// priority-0 query, Probing lets a trickle through to test the water — a
/// probe miss reopens, a healthy window closes.
enum class BreakerState : int { Closed = 0, Shedding = 1, Probing = 2 };
const char* breaker_state_name(BreakerState state);

struct BrokerConfig {
  /// Close a batch when this many same-kind queries are waiting.
  int batch_width = kMaxBatchWidth;
  /// ...or when the oldest waiting query has queued this long (virtual
  /// seconds).
  double batch_age_s = 0.005;
  /// Bounded admission queue: submissions beyond this depth are rejected
  /// with a typed QueryRejected result.
  size_t queue_capacity = 1024;
  /// Overload shedding policy (disabled by default).
  ShedConfig shed;
};

/// FIFO admission queue + batch former + overload breaker.  All times are
/// virtual seconds.
class QueryBroker {
 public:
  explicit QueryBroker(const BrokerConfig& config) : config_(config) {}

  const BrokerConfig& config() const { return config_; }

  /// Cache-probe admission step (docs/SERVICE.md "The distance oracle"):
  /// when set, submit() consults the probe FIRST — a probe returning true
  /// has filled `*result` with a terminal cache-served answer, and the query
  /// bypasses shedding, the queue and batch formation entirely.  Probes run
  /// before the shed check deliberately: a hit adds no engine load, so
  /// serving it is correct even while the breaker is open.  The probe must
  /// be replicated (same decision on every rank) like every other broker
  /// input.
  using CacheProbe = std::function<bool(const Query&, QueryResult*)>;
  void set_cache_probe(CacheProbe probe) { probe_ = std::move(probe); }

  /// Admit `q`, or refuse it: returns false and (when `rejection` is
  /// non-null) fills it with a typed Rejected result — QueryRejected when
  /// the queue is full, QueryShed when the breaker shed it.  `now_s` drives
  /// the breaker's Shedding -> Probing timer.
  bool submit(const Query& q, QueryResult* rejection = nullptr,
              double now_s = 0);

  /// Feed a terminal outcome back into the breaker's deadline-miss window
  /// (Done with a finite deadline counts as a hit, Expired as a miss; other
  /// statuses are not overload signals).  No-op when shedding is disabled.
  void on_outcome(const QueryResult& result, double now_s);

  bool empty() const { return queue_.empty(); }
  size_t depth() const { return queue_.size(); }

  BreakerState breaker() const { return state_; }
  uint64_t shed_count() const { return sheds_; }
  /// Queue-full refusals (QueryRejected), disjoint from shed_count().
  uint64_t reject_count() const { return rejects_; }
  uint64_t breaker_transitions() const { return transitions_; }

  /// Earliest virtual time at which a batch must close: the head-of-kind
  /// age timeout or the earliest queued deadline, whichever comes first.
  /// +infinity when the queue is empty — the session then jumps straight to
  /// the next arrival.
  double next_close_s() const;

  /// True when form_batch(now) would close a batch: width reached, age
  /// timeout passed, or an expiry needs sweeping.
  bool batch_ready(double now_s) const;

  /// Sweep expired queries (deadline <= now) into `expired` as typed
  /// QueryExpired results, then pop up to batch_width oldest queries of the
  /// head-of-queue's kind.  Returns the batch in admission order (possibly
  /// empty when the sweep drained the queue).
  std::vector<Query> form_batch(double now_s, std::vector<QueryResult>* expired);

 private:
  void transition(BreakerState next, double now_s);

  BrokerConfig config_;
  CacheProbe probe_;
  std::deque<Query> queue_;
  // Breaker state (replicated: inputs are the virtual clock and outcomes).
  BreakerState state_ = BreakerState::Closed;
  std::deque<bool> window_;  ///< recent deadline outcomes, true = miss
  double shed_since_s_ = 0;
  uint64_t probe_counter_ = 0;
  uint64_t sheds_ = 0;
  uint64_t rejects_ = 0;
  uint64_t transitions_ = 0;
};

/// Build the typed Expired result for `q` at virtual time `now_s`.
QueryResult make_expired(const Query& q, double now_s);

/// Build the result of a query served over [start_s, done_s] — by an engine
/// batch or a cache hit: Done, or Expired when done_s is past its deadline.
/// The caller fills in the answer fields.
QueryResult make_served(const Query& q, double start_s, double done_s);

/// Build the typed Failed result for `q`: its batch exhausted in-engine
/// recovery and the retry budget / deadline rules out another attempt.
QueryResult make_failed(const Query& q, double now_s, const std::string& why);

}  // namespace sunbfs::service
