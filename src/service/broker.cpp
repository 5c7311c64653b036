#include "service/broker.hpp"

#include <algorithm>
#include <limits>

namespace sunbfs::service {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

void fill_terminal(QueryResult& r, const Query& q, QueryStatus status,
                   double done_s, std::string error) {
  r.id = q.id;
  r.kind = q.kind;
  r.status = status;
  r.root = q.root;
  r.target = q.target;
  r.arrival_s = q.arrival_s;
  r.deadline_s = q.deadline_s;
  r.done_s = done_s;
  r.latency_s = done_s - q.arrival_s;
  r.retries = q.attempt;
  r.error = std::move(error);
}
}  // namespace

const char* breaker_state_name(BreakerState state) {
  switch (state) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Shedding: return "shedding";
    case BreakerState::Probing: return "probing";
  }
  return "?";
}

QueryResult make_expired(const Query& q, double now_s) {
  QueryResult r;
  fill_terminal(r, q, QueryStatus::Expired, now_s,
                QueryExpired(q.id, q.arrival_s, q.deadline_s, now_s).what());
  return r;
}

QueryResult make_served(const Query& q, double start_s, double done_s) {
  QueryResult r;
  if (done_s > q.deadline_s)
    r = make_expired(q, done_s);
  else
    fill_terminal(r, q, QueryStatus::Done, done_s, {});
  r.start_s = start_s;
  return r;
}

QueryResult make_failed(const Query& q, double now_s, const std::string& why) {
  QueryResult r;
  fill_terminal(r, q, QueryStatus::Failed, now_s,
                QueryFailed(q.id, q.arrival_s, q.deadline_s, now_s,
                            q.attempt + 1, why)
                    .what());
  return r;
}

void QueryBroker::transition(BreakerState next, double now_s) {
  if (state_ == next) return;
  state_ = next;
  ++transitions_;
  if (next == BreakerState::Shedding) {
    shed_since_s_ = now_s;
    window_.clear();  // fresh start: probe outcomes decide what happens next
  }
  if (next == BreakerState::Probing) probe_counter_ = 0;
}

bool QueryBroker::submit(const Query& q, QueryResult* rejection,
                         double now_s) {
  // Cache-probe admission: a hit is a terminal Done (or late-Expired)
  // result served without touching the queue, the breaker or a batch slot.
  if (probe_) {
    QueryResult served;
    if (probe_(q, &served)) {
      if (rejection != nullptr) *rejection = std::move(served);
      return false;
    }
  }
  const ShedConfig& shed = config_.shed;
  if (shed.enabled && state_ == BreakerState::Shedding &&
      now_s >= shed_since_s_ + shed.probe_after_s)
    transition(BreakerState::Probing, now_s);
  if (shed.enabled && state_ != BreakerState::Closed && q.priority <= 0) {
    const bool probe_admit =
        state_ == BreakerState::Probing &&
        probe_counter_++ % uint64_t(std::max(1, shed.probe_admit_every)) == 0;
    if (!probe_admit) {
      ++sheds_;
      if (rejection != nullptr)
        fill_terminal(
            *rejection, q, QueryStatus::Rejected, now_s,
            QueryShed(q.id, q.arrival_s, q.deadline_s, now_s).what());
      return false;
    }
  }
  if (queue_.size() >= config_.queue_capacity) {
    ++rejects_;
    if (rejection != nullptr)
      fill_terminal(*rejection, q, QueryStatus::Rejected, q.arrival_s,
                    QueryRejected(q.id, q.arrival_s, q.deadline_s,
                                  config_.queue_capacity)
                        .what());
    return false;
  }
  queue_.push_back(q);
  // Occupancy trip: the queue crossing the highwater mark is itself an
  // overload signal, independent of misses already observed.
  if (shed.enabled && state_ == BreakerState::Closed &&
      double(queue_.size()) >=
          shed.queue_highwater * double(config_.queue_capacity))
    transition(BreakerState::Shedding, now_s);
  return true;
}

void QueryBroker::on_outcome(const QueryResult& result, double now_s) {
  const ShedConfig& shed = config_.shed;
  if (!shed.enabled) return;
  const bool miss = result.status == QueryStatus::Expired;
  const bool hit =
      result.status == QueryStatus::Done && result.deadline_s != kNoDeadline;
  if (!miss && !hit) return;  // rejections/failures are not overload signals
  window_.push_back(miss);
  while (int(window_.size()) > std::max(1, shed.window)) window_.pop_front();
  const double rate =
      double(std::count(window_.begin(), window_.end(), true)) /
      double(window_.size());
  const bool enough = int(window_.size()) >= std::max(1, shed.min_samples);
  if (state_ == BreakerState::Closed && enough && rate >= shed.miss_rate_open) {
    transition(BreakerState::Shedding, now_s);
  } else if (state_ == BreakerState::Probing) {
    if (enough && rate <= shed.miss_rate_close)
      transition(BreakerState::Closed, now_s);
    else if (miss)
      transition(BreakerState::Shedding, now_s);  // probe failed, reopen
  }
}

double QueryBroker::next_close_s() const {
  if (queue_.empty()) return kInf;
  double close = queue_.front().arrival_s + config_.batch_age_s;
  for (const Query& q : queue_) close = std::min(close, q.deadline_s);
  return close;
}

bool QueryBroker::batch_ready(double now_s) const {
  if (queue_.empty()) return false;
  QueryKind kind = queue_.front().kind;
  int same_kind = 0;
  for (const Query& q : queue_) {
    if (q.deadline_s <= now_s) return true;  // expiry sweep due
    if (q.kind == kind) ++same_kind;
  }
  if (same_kind >= config_.batch_width) return true;
  return now_s >= queue_.front().arrival_s + config_.batch_age_s;
}

std::vector<Query> QueryBroker::form_batch(double now_s,
                                           std::vector<QueryResult>* expired) {
  // Expiry sweep first: a query whose deadline already passed can never
  // complete in time, so it leaves as a typed Expired result instead of
  // occupying a batch slot.
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->deadline_s <= now_s) {
      if (expired != nullptr) expired->push_back(make_expired(*it, now_s));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  std::vector<Query> batch;
  if (queue_.empty()) return batch;
  // One kind per batch (the engines do not mix), oldest first: collect up to
  // batch_width queries matching the head's kind, preserving FIFO order for
  // the rest.
  QueryKind kind = queue_.front().kind;
  for (auto it = queue_.begin();
       it != queue_.end() && int(batch.size()) < config_.batch_width;) {
    if (it->kind == kind) {
      batch.push_back(*it);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return batch;
}

}  // namespace sunbfs::service
