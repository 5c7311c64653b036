#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/comm.hpp"
#include "sim/comm_buffer.hpp"
#include "sim/exchange.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

/// Execution of an ExchangePlan over the reusable staging pools.
///
/// ExchangeChannel<T> keeps the A2aStaging begin/push/exchange/src_offsets
/// surface the engines already speak, and adds one staged-round overload of
/// begin(): hand it a plan with stages() > 0 and every push is wrapped in a
/// Routed<T> envelope, sent through the plan's hops (each hop an ordinary —
/// encoded, checksummed, fault-injectable — alltoallv over the same
/// communicator), merged in flight where the payload's ExchangeMergePolicy
/// allows, and finally unwrapped into a receive buffer whose per-source
/// delimiters match what a direct alltoallv would have produced.  Receivers
/// that reconstruct global ids from the source rank (CompactMsg, MsbfsMsg)
/// therefore work unchanged; they only ever see messages in a different
/// order, which every receive path tolerates by contract (docs/PERF.md).
///
/// Two pools by value: `direct_` carries plain T rounds, `hop_` carries the
/// routed envelopes.  Keeping them separate (rather than nesting
/// A2aStaging<Routed<T>> rounds inside one pool) preserves the grow-only
/// capacity story — prime() + prime_staged() reserve both shapes up front
/// and steady-state `comm.staging_allocs` stays zero for every backend.
namespace sunbfs::sim {

template <typename T>
class ExchangeChannel {
 public:
  // Hop pools always merge, so priming reserves their block-sort scratch.
  ExchangeChannel() { hop_.set_merge(true); }

  /// Wire-encoding policy for both legs.  As with A2aStaging, set before
  /// priming so encoded buffers land in the warmup reservation.
  void set_encoding(const EncodingOptions& enc) {
    direct_.set_encoding(enc);
    hop_.set_encoding(enc);
  }
  const EncodingOptions& encoding() const { return direct_.encoding(); }

  /// Open a direct round: plain alltoallv, byte-identical to A2aStaging.
  void begin(size_t nparts, size_t nthreads) {
    staged_ = false;
    nparts_ = nparts;
    direct_.begin(nparts, nthreads);
  }

  /// Open a staged round routed by `plan`; `self` is this rank's id in the
  /// communicator the exchange will run over.  A degenerate plan
  /// (stages() == 0) falls back to the direct round — same bytes, same
  /// collective count on every rank.
  void begin(size_t nparts, size_t nthreads, const ExchangePlan& plan,
             int self) {
    if (plan.stages() == 0) {
      begin(nparts, nthreads);
      return;
    }
    SUNBFS_ASSERT(size_t(plan.nparts()) == nparts);
    staged_ = true;
    plan_ = &plan;
    self_ = self;
    nparts_ = nparts;
    hop_.begin(nparts, nthreads);
  }

  /// Append one message for final destination `dst` from writer lane
  /// `thread`.  Staged rounds stage into the stage-0 hop's lane.
  void push(size_t thread, size_t dst, const T& msg) {
    if (!staged_) {
      direct_.push(thread, dst, msg);
      return;
    }
    const size_t first = size_t(plan_->hop(0, self_, int(dst)));
    hop_.push(thread, first,
              Routed<T>{Routed<T>::make_route(uint32_t(dst), uint32_t(self_)),
                        msg});
  }

  /// Run the round: one alltoallv when direct, one per stage when staged
  /// (re-staging between hops, merging at every one).  Returns the received
  /// concatenation, delimited per original source by src_offsets().
  std::span<const T> exchange(Comm& comm, ThreadPool& pool) {
    if (!staged_) return direct_.exchange(comm, pool);
    std::span<const Routed<T>> held = hop_.exchange(comm, pool);
    for (int s = 1; s < plan_->stages(); ++s) {
      hop_.begin(nparts_, 1);
      for (const Routed<T>& m : held)
        hop_.push(0, size_t(plan_->hop(s, self_, int(m.dst_part()))), m);
      held = hop_.exchange(comm, pool);
    }
    // Every surviving envelope terminates here; unwrap with a stable
    // counting sort by source rank so src_offsets() delimits exactly as a
    // direct alltoallv would (the merge policies guarantee each survivor's
    // source is the one whose payload the receiver must attribute).
    if (src_offsets_.capacity() < nparts_ + 1) ++allocs_;
    src_offsets_.assign(nparts_ + 1, 0);
    for (const Routed<T>& m : held) {
      SUNBFS_ASSERT(m.dst_part() == uint32_t(self_));
      ++src_offsets_[m.src_part() + 1];
    }
    for (size_t s = 0; s < nparts_; ++s) src_offsets_[s + 1] += src_offsets_[s];
    if (fill_.capacity() < nparts_) ++allocs_;
    fill_.assign(src_offsets_.begin(), src_offsets_.end() - 1);
    if (held.size() > final_.capacity()) ++allocs_;
    final_.clear();
    final_.resize(held.size());
    for (const Routed<T>& m : held) final_[fill_[m.src_part()]++] = m.msg;
    return final_;
  }

  /// Per-source delimiters into the last exchange()'s result (nparts+1).
  const std::vector<size_t>& src_offsets() const {
    return staged_ ? src_offsets_ : direct_.src_offsets();
  }

  /// Pre-size the direct leg (identical contract to A2aStaging::prime).
  void prime(size_t nparts, size_t nthreads, size_t lane_cap, size_t send_cap,
             size_t recv_cap) {
    direct_.prime(nparts, nthreads, lane_cap, send_cap, recv_cap);
  }

  /// Pre-size the staged leg for `plan` rounds staged by `nthreads` writers.
  /// `lane_cap` bounds one writer's whole staged volume (a single first hop
  /// can absorb everything a thread pushes), `volume_cap` bounds the rank's
  /// per-stage traffic.  Only the hop lanes the plan can actually reach from
  /// `self` get the big reservations; everything else stays at zero, which
  /// is what keeps staged priming affordable while steady-state allocs still
  /// reach zero after the warmup root.
  void prime_staged(const ExchangePlan& plan, int self, size_t nthreads,
                    size_t lane_cap, size_t volume_cap) {
    if (plan.stages() == 0) return;
    const size_t nparts = size_t(plan.nparts());
    // Convergent stages (the fold hop, row splits) can briefly double a
    // rank's held volume relative to the uniform per-rank bound.
    const size_t stage_cap = 2 * volume_cap + 64;
    hop_.prime(nparts, nthreads, /*lane_cap=*/0, stage_cap, stage_cap);
    for (int d = 0; d < int(nparts); ++d) {
      const size_t h0 = size_t(plan.hop(0, self, d));
      for (size_t t = 0; t < nthreads; ++t)
        hop_.prime_lane(nparts, t, h0, lane_cap);
      // hop(s, self, d) at later stages assumes `self` can legitimately
      // hold messages there; a butterfly tail rank (self >= q on a
      // non-power-of-two communicator) cannot — it folded everything away
      // at stage 0 and hop() composes out of range for it.  Such a rank
      // pushes nothing at those stages either, so skipping the lane keeps
      // primed lanes == pushed lanes (steady allocs stay zero).
      for (int s = 1; s < plan.stages(); ++s) {
        const size_t hs = size_t(plan.hop(s, self, d));
        if (hs < nparts) hop_.prime_lane(nparts, 0, hs, stage_cap);
      }
    }
    if (src_offsets_.capacity() < nparts + 1) {
      ++allocs_;
      src_offsets_.reserve(nparts + 1);
    }
    if (fill_.capacity() < nparts) {
      ++allocs_;
      fill_.reserve(nparts);
    }
    if (final_.capacity() < volume_cap) {
      ++allocs_;
      final_.reserve(volume_cap);
    }
  }

  /// Total capacity growths across both legs since construction.
  uint64_t allocs() const {
    return direct_.allocs() + hop_.allocs() + allocs_;
  }

 private:
  A2aStaging<T> direct_;
  A2aStaging<Routed<T>> hop_;
  const ExchangePlan* plan_ = nullptr;
  int self_ = 0;
  size_t nparts_ = 0;
  bool staged_ = false;
  std::vector<T> final_;              // unwrapped staged receive buffer
  std::vector<size_t> src_offsets_;   // staged per-source delimiters
  std::vector<size_t> fill_;          // counting-sort cursors
  uint64_t allocs_ = 0;
};

}  // namespace sunbfs::sim
