#pragma once

#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "partition/part15d.hpp"
#include "sim/encoding.hpp"
#include "sim/exchange.hpp"
#include "sim/exchange_channel.hpp"
#include "sim/runtime.hpp"
#include "support/bitvector.hpp"
#include "support/thread_pool.hpp"

/// Generic propagation engine over the 1.5D partition — the paper's §8
/// proposal that the partitioning is "neutral to the graph algorithm to run
/// on" and the seed of its "next-generation ShenTu" future work.
///
/// An algorithm supplies, via a Program type:
///   using Value      — per-vertex state (trivially copyable);
///   Value identity() — the neutral element of the gather;
///   Value combine(a, b) — associative+commutative gather of contributions;
///   Value contribution(u_value, u_global, v_global)
///                    — what vertex u sends along edge (u, v);
///   bool update(Value& state, const Value& gathered)
///                    — fold the gathered value into the state; returns
///                      whether the state changed (drives termination).
///
/// Each round propagates over all six subgraph components exactly once per
/// directed arc: EH2EH arcs locally, L→E/H at the L owner, E/H→L through
/// the delegated mirrors (no messages — the whole point of delegation), and
/// L→L with owner messages through a resident sim::ExchangeChannel — wire
/// encoding, checksums, fault injection and the --exchange plans apply as
/// for every other staged payload.  E/H accumulators are merged with the
/// mesh column+row reduction under `combine`.  Rounds repeat until no
/// vertex changes (or `max_rounds`).
///
/// Because every global arc contributes exactly once and accumulators start
/// from identity(), the engine is correct for both idempotent gathers
/// (min/max — label propagation, SSSP) and non-idempotent ones
/// (+ — PageRank-style sums).  That is also why L→L messages are never
/// folded in flight: only the receiver applies `combine`.
namespace sunbfs::analytics {

struct PropagateResult {
  int rounds = 0;
  bool converged = false;
};

struct PropagateOptions {
  /// When true, only vertices whose state changed in the previous round
  /// contribute in the next one — the delta/frontier execution every
  /// monotone program (min/max label propagation, SSSP relaxation) admits.
  /// Must stay false for programs whose gather must see every neighbor
  /// each round (e.g. sums).
  bool incremental = false;
  /// Adaptive wire encoding for the L→L exchange (sim/encoding.hpp).
  sim::EncodingOptions encoding;
  /// Exchange plan backend for the L→L exchange (sim/exchange.hpp).
  sim::ExchangeOptions exchange;
};

/// One L→L contribution: `value` for global vertex `dst`, owned by the
/// receiver.
template <typename Value>
struct PropagateMsg {
  graph::Vertex dst;
  Value value;
};

}  // namespace sunbfs::analytics

namespace sunbfs::sim {

/// Wire codec for L→L contributions: the destination id keys the
/// sort/bitmap; an integral value follows as a varint (zigzag when signed),
/// any other value as its raw bytes.
template <typename Value>
struct WireFormat<analytics::PropagateMsg<Value>> {
  using Msg = analytics::PropagateMsg<Value>;
  // Raw-codec blocks and fault checksums copy whole structs.
  static_assert(sizeof(Msg) == sizeof(graph::Vertex) + sizeof(Value),
                "PropagateMsg<Value> must have no padding");
  static constexpr bool kVarint = std::is_integral_v<Value>;

  static uint64_t to_varint(Value v) {
    if constexpr (std::is_signed_v<Value>)
      return zigzag(int64_t(v));
    else
      return uint64_t(v);
  }
  static uint64_t key(const Msg& m) { return uint64_t(m.dst); }
  static bool less(const Msg& a, const Msg& b) {
    if (a.dst != b.dst) return a.dst < b.dst;
    if constexpr (kVarint)
      return a.value < b.value;
    else
      return std::memcmp(&a.value, &b.value, sizeof(Value)) < 0;
  }
  static uint64_t minor(const Msg& m)
    requires std::is_unsigned_v<Value>
  {
    return uint64_t(m.value);
  }
  static size_t rest_size(const Msg& m) {
    if constexpr (kVarint)
      return varint_size(to_varint(m.value));
    else
      return sizeof(Value);
  }
  static uint8_t* put_rest(const Msg& m, uint8_t* p) {
    if constexpr (kVarint) {
      return put_varint(p, to_varint(m.value));
    } else {
      std::memcpy(p, &m.value, sizeof(Value));
      return p + sizeof(Value);
    }
  }
  static const uint8_t* get_rest(const uint8_t* p, const uint8_t* end,
                                 uint64_t key, Msg& m) {
    if (key > uint64_t(INT64_MAX)) return nullptr;
    m.dst = graph::Vertex(key);
    if constexpr (kVarint) {
      using Lim = std::numeric_limits<Value>;
      uint64_t v = 0;
      p = get_varint(p, end, &v);
      if (p == nullptr) return nullptr;
      if constexpr (std::is_signed_v<Value>) {
        const int64_t s = unzigzag(v);
        if (s < int64_t(Lim::min()) || s > int64_t(Lim::max())) return nullptr;
        m.value = Value(s);
      } else {
        if (v > uint64_t(Lim::max())) return nullptr;
        m.value = Value(v);
      }
      return p;
    } else {
      if (size_t(end - p) < sizeof(Value)) return nullptr;
      std::memcpy(&m.value, p, sizeof(Value));
      return p + sizeof(Value);
    }
  }
};

}  // namespace sunbfs::sim

namespace sunbfs::analytics {

template <typename Program>
class PropagationEngine {
 public:
  using Value = typename Program::Value;

  PropagationEngine(sim::RankContext& ctx, const partition::Part15d& part,
                    Program program, PropagateOptions options = {})
      : ctx_(ctx),
        part_(part),
        program_(std::move(program)),
        options_(options),
        k_(part.cls.num_eh()),
        nloc_(part.local_count),
        eh_value_(k_, program_.identity()),
        l_value_(nloc_, program_.identity()),
        acc_eh_(k_),
        acc_l_(nloc_),
        eh_changed_(k_),
        l_changed_(nloc_),
        plan_(sim::ExchangePlan::build(options.exchange.backend, ctx.nranks(),
                                       ctx.mesh)) {
    // Prime the L→L channel once for every round: each arc sends at most
    // one message, and on a symmetric graph every message a rank receives
    // mirrors one of its own l2l arcs, so the arc count bounds a round's
    // sends and receives alike.
    const size_t nparts = size_t(ctx.nranks());
    const size_t cap = size_t(part.l2l.num_arcs()) + 64;
    channel_.set_encoding(options.encoding);
    channel_.prime(nparts, 1, cap, cap, cap);
    channel_.prime_staged(plan_, ctx.rank, 1, cap, cap);
  }

  /// Initialize every vertex's state from init(global_id).  Only vertices
  /// whose initial state differs from identity() are sources in the first
  /// incremental round: an identity state has nothing to contribute to a
  /// monotone gather, so activating it would only ship identity messages.
  template <typename InitFn>
  void initialize(InitFn init) {
    const Value id = program_.identity();
    auto differs = [&id](const Value& v) {
      return std::memcmp(&v, &id, sizeof(Value)) != 0;
    };
    eh_changed_.reset();
    l_changed_.reset();
    for (uint64_t i = 0; i < k_; ++i) {
      eh_value_[i] = init(part_.cls.eh_to_global(i));
      if (differs(eh_value_[i])) eh_changed_.set(i);
    }
    for (uint64_t l = 0; l < nloc_; ++l) {
      l_value_[l] = init(part_.space.to_global(ctx_.rank, l));
      if (differs(l_value_[l])) l_changed_.set(l);
    }
  }

  /// Run until convergence or max_rounds.  Collective.
  PropagateResult run(int max_rounds = 1 << 20) {
    PropagateResult result;
    for (int round = 0; round < max_rounds; ++round) {
      ++result.rounds;
      if (!step()) {
        result.converged = true;
        break;
      }
    }
    return result;
  }

  /// One full propagation round; returns whether anything changed globally.
  /// Collective.
  bool step() {
    const partition::EhlTable& cls = part_.cls;
    auto contrib_eh = [&](uint64_t u, graph::Vertex v_global) {
      return program_.contribution(eh_value_[u], cls.eh_to_global(u),
                                   v_global);
    };
    auto contrib_l = [&](uint64_t lloc, graph::Vertex v_global) {
      return program_.contribution(l_value_[lloc],
                                   part_.space.to_global(ctx_.rank, lloc),
                                   v_global);
    };

    const bool inc = options_.incremental;
    auto eh_active = [&](uint64_t x) { return !inc || eh_changed_.get(x); };
    auto l_active = [&](uint64_t l) { return !inc || l_changed_.get(l); };

    // --- gather into EH -------------------------------------------------
    acc_eh_.assign(k_, program_.identity());
    for (uint64_t x = 0; x < part_.eh2eh.num_rows(); ++x) {
      if (part_.eh2eh.degree(x) == 0 || !eh_active(x)) continue;
      for (graph::Vertex y : part_.eh2eh.neighbors(x))
        acc_eh_[size_t(y)] = program_.combine(
            acc_eh_[size_t(y)], contrib_eh(x, cls.eh_to_global(uint64_t(y))));
    }
    for (uint64_t l = 0; l < nloc_; ++l) {
      if (!l_active(l)) continue;
      for (graph::Vertex e : part_.l2e.neighbors(l))
        acc_eh_[size_t(e)] = program_.combine(
            acc_eh_[size_t(e)], contrib_l(l, cls.eh_to_global(uint64_t(e))));
      for (graph::Vertex h : part_.l2h.neighbors(l))
        acc_eh_[size_t(h)] = program_.combine(
            acc_eh_[size_t(h)], contrib_l(l, cls.eh_to_global(uint64_t(h))));
    }
    if (k_ > 0) {
      auto op = [this](Value a, Value b) { return program_.combine(a, b); };
      ctx_.col.allreduce_inplace(std::span<Value>(acc_eh_), op);
      ctx_.row.allreduce_inplace(std::span<Value>(acc_eh_), op);
    }

    // --- gather into L ----------------------------------------------------
    acc_l_.assign(nloc_, program_.identity());
    for (uint64_t l = 0; l < nloc_; ++l) {
      graph::Vertex gl = part_.space.to_global(ctx_.rank, l);
      for (graph::Vertex e : part_.l2e.neighbors(l))
        if (eh_active(uint64_t(e)))
          acc_l_[l] = program_.combine(acc_l_[l], contrib_eh(uint64_t(e), gl));
      for (graph::Vertex h : part_.l2h.neighbors(l))
        if (eh_active(uint64_t(h)))
          acc_l_[l] = program_.combine(acc_l_[l], contrib_eh(uint64_t(h), gl));
    }
    channel_.begin(size_t(ctx_.nranks()), 1, plan_, ctx_.rank);
    for (uint64_t l = 0; l < nloc_; ++l) {
      if (!l_active(l)) continue;
      for (graph::Vertex l2 : part_.l2l.neighbors(l)) {
        int owner = part_.space.owner(l2);
        if (owner == ctx_.rank) {
          uint64_t t = part_.space.to_local(owner, l2);
          acc_l_[t] = program_.combine(acc_l_[t], contrib_l(l, l2));
        } else {
          channel_.push(0, size_t(owner), Msg{l2, contrib_l(l, l2)});
        }
      }
    }
    for (const Msg& m : channel_.exchange(ctx_.world, pool_)) {
      uint64_t t = part_.space.to_local(ctx_.rank, m.dst);
      acc_l_[t] = program_.combine(acc_l_[t], m.value);
    }

    // --- update -----------------------------------------------------------
    bool changed = false;
    eh_changed_.reset();
    l_changed_.reset();
    for (uint64_t i = 0; i < k_; ++i) {
      // Replicated update: identical inputs everywhere, identical result.
      bool c = program_.update(eh_value_[i], acc_eh_[i]);
      if (c) eh_changed_.set(i);  // replicated, like the value itself
      // Only the owner votes, so "changed" is counted once per vertex.
      if (c && part_.eh_space.owner(graph::Vertex(i)) == ctx_.rank)
        changed = true;
    }
    for (uint64_t l = 0; l < nloc_; ++l) {
      if (part_.local_is_eh.get(l)) continue;
      if (program_.update(l_value_[l], acc_l_[l])) {
        l_changed_.set(l);
        changed = true;
      }
    }
    return ctx_.world.allreduce_or(changed);
  }

  /// Final per-owned-vertex values (local index order).  EH vertices read
  /// from the replicated array.
  std::vector<Value> owned_values() const {
    std::vector<Value> out(nloc_);
    for (uint64_t l = 0; l < nloc_; ++l) {
      graph::Vertex g = part_.space.to_global(ctx_.rank, l);
      uint64_t eh = part_.cls.eh_of(g);
      out[l] =
          eh == partition::EhlTable::kNotEh ? l_value_[l] : eh_value_[eh];
    }
    return out;
  }

  Program& program() { return program_; }

  /// Capacity growths of the L→L channel since construction (priming
  /// included); flat across rounds.
  uint64_t staging_allocs() const { return channel_.allocs(); }

 private:
  using Msg = PropagateMsg<Value>;

  sim::RankContext& ctx_;
  const partition::Part15d& part_;
  Program program_;
  PropagateOptions options_;
  uint64_t k_, nloc_;
  std::vector<Value> eh_value_, l_value_;
  std::vector<Value> acc_eh_, acc_l_;  // per-round gathers, resident
  BitVector eh_changed_, l_changed_;
  sim::ExchangePlan plan_;
  sim::ExchangeChannel<Msg> channel_;
  ThreadPool pool_{1};  // the sweep is serial; a size-1 pool runs inline
};

}  // namespace sunbfs::analytics
