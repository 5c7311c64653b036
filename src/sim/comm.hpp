#pragma once

#include <chrono>
#include <cstring>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/trace.hpp"
#include "sim/barrier.hpp"
#include "sim/comm_stats.hpp"
#include "sim/fault.hpp"
#include "sim/topology.hpp"
#include "support/check.hpp"
#include "support/log.hpp"
#include "support/timer.hpp"

/// MPI-style collectives for the in-process SPMD runtime.
///
/// A Comm is a lightweight per-rank handle onto shared state owned by the
/// runtime.  The contract every caller relies on:
///
///  * **Ordering.**  Collectives must be entered by every rank of the
///    communicator in the same program order, exactly as in MPI; there is no
///    tag matching, so a reordered call pairs with the wrong publication
///    slots.  The engines guarantee this by deriving every branch that picks
///    a collective from replicated or allreduced state.
///  * **Payloads** must be trivially copyable.  Fixed-size collectives
///    (allreduce<T>, allgather<T>) copy the value into an inline shared slot
///    and pass one barrier.  Variable-size ones (alltoallv, allgatherv,
///    reduce_scatter_block, broadcast, allreduce_inplace) publish raw
///    pointers to the caller's buffers, which must stay live and unmodified
///    until the collective returns on every rank — their exit barrier
///    enforces this.
///  * **Accounting.**  Every collective records into the rank's CommStats:
///    payload bytes (split intra/inter-supernode), modeled network seconds
///    from the Topology cost model (identical on every participating rank —
///    max-semantics), measured wall seconds, and the rank's wait-for-peers
///    imbalance: the thread-CPU arrival spread at the collective (how much
///    longer the slowest peer computed since the previous collective).  The
///    CPU clock makes that split meaningful even when the host
///    oversubscribes rank threads onto fewer cores, where a wall-clock wait
///    would mostly measure scheduler serialization.  When tracing is
///    attached it also emits an obs span on both
///    clocks and advances the rank's modeled clock.
///  * **Fault surface** (PR 1).  Faults fire only while the rank's
///    FaultState is armed, and a plan's call indices count armed calls of
///    each collective type per global rank — arming is therefore part of
///    the reproducibility contract: the same plan over the same program
///    replays identically.
///
/// When a FaultPlan is installed the collectives become the fault surface:
/// stragglers sleep before publishing, scheduled payload faults corrupt the
/// published bytes (never the caller's buffer), and — when checksums are on —
/// every received contribution is verified against the sender's xxhash-style
/// checksum of the original payload.  A mismatch raises FaultDetected naming
/// both ranks, or, under the recover policy, drops the corrupted contribution
/// and records a pending fault for the engines' checkpoint/rollback loop.
namespace sunbfs::sim {

/// Inline publication slot of a fixed-size collective (allreduce<T>,
/// allgather<T>): the caller's value is copied in, so peers never read the
/// caller's variable and no exit barrier has to keep it alive.
struct alignas(64) InlineSlot {
  static constexpr size_t kBytes = 64;
  unsigned char bytes[kBytes] = {};
  uint64_t nbytes = 0;
  uint64_t sum = 0;  ///< checksum of the caller's original value
};

/// Shared state backing one communicator group; owned by the runtime.
struct CommShared {
  /// `spin`: barrier waiters spin before parking (see Barrier).
  CommShared(std::vector<int> ranks, const Topology* topo, bool spin = false);

  std::vector<int> global_ranks;  // participant global ranks, by index
  const Topology* topology;
  Barrier barrier;
  // Fixed-size publication slots, double-buffered by collective parity like
  // cpu_arrival (see Comm::arrival_base).
  std::vector<InlineSlot> inline_slots;
  // Variable-size publication slots, one per participant (pointer + byte
  // count + checksum of the original payload).
  std::vector<const void*> ptrs;
  std::vector<uint64_t> nbytes;
  std::vector<uint64_t> sums;
  // Alltoallv publication matrix: slot [src * P + dst].
  std::vector<const void*> a2a_ptrs;
  std::vector<uint64_t> a2a_nbytes;
  std::vector<uint64_t> a2a_sums;
  // Scratch used by segment-parallel reductions.
  std::vector<unsigned char> scratch;
  // Per-rank thread-CPU seconds since the previous collective,
  // double-buffered by collective parity (see Comm::arrival_base).
  std::vector<double> cpu_arrival;
};

/// Per-rank communicator handle.
class Comm {
 public:
  Comm() = default;
  Comm(CommShared* shared, int index, CommStats* stats,
       FaultState* faults = nullptr)
      : shared_(shared), index_(index), stats_(stats), faults_(faults) {}

  bool valid() const { return shared_ != nullptr; }
  /// Rank of the caller within this communicator.
  int rank() const { return index_; }
  /// Number of participants.
  int size() const { return int(shared_->global_ranks.size()); }
  /// Global rank of participant `index`.
  int global_rank_of(int index) const { return shared_->global_ranks[index]; }

  /// Synchronize all participants.
  void barrier() {
    WallTimer t;
    begin_collective(CollectiveType::Barrier);
    double cpu = deposit_cpu_arrival();
    shared_->barrier.wait(/*exit=*/true);
    record(CollectiveType::Barrier, 0, 0,
           topo().transfer_time(size(), 0, 0), t.seconds(), cpu);
  }

  /// Element-wise reduction of a single value across all participants;
  /// every rank receives the result.  One barrier: the value travels through
  /// an inline slot (see publish_inline).
  template <typename T, typename Op>
  T allreduce(const T& value, Op op) {
    WallTimer t;
    uint64_t call = begin_collective(CollectiveType::Allreduce);
    double cpu = deposit_cpu_arrival();
    const InlineSlot* slots =
        publish_inline(CollectiveType::Allreduce, call, value);
    shared_->barrier.wait(/*exit=*/true);
    // Fold the verified contributions; every rank reads the same shared
    // slots and checksums, so dropped sources are dropped identically
    // everywhere and replicated decisions stay replicated.
    T acc = value;
    bool seeded = false;
    for (int j = 0; j < size(); ++j) {
      T v;
      if (!read_inline(CollectiveType::Allreduce, j, slots[j], v)) continue;
      acc = seeded ? op(acc, v) : v;
      seeded = true;
    }
    auto [intra, inter] = symmetric_bytes(sizeof(T));
    record(CollectiveType::Allreduce, sizeof(T), inter,
           topo().transfer_time(size(), intra, inter), t.seconds(), cpu);
    return acc;
  }

  /// Sum-reduction convenience.
  template <typename T>
  T allreduce_sum(const T& value) {
    return allreduce(value, [](T a, T b) { return a + b; });
  }

  /// Logical-or reduction convenience.
  bool allreduce_or(bool value) {
    return allreduce(int(value), [](int a, int b) { return a | b; }) != 0;
  }

  /// Max-reduction convenience.
  template <typename T>
  T allreduce_max(const T& value) {
    return allreduce(value, [](T a, T b) { return a > b ? a : b; });
  }

  /// Gather one value from each participant; result indexed by rank.
  /// Dropped (corrupted) contributions come back value-initialized.  One
  /// barrier, like allreduce.
  template <typename T>
  std::vector<T> allgather(const T& value) {
    WallTimer t;
    uint64_t call = begin_collective(CollectiveType::Allgather);
    double cpu = deposit_cpu_arrival();
    const InlineSlot* slots =
        publish_inline(CollectiveType::Allgather, call, value);
    shared_->barrier.wait(/*exit=*/true);
    std::vector<T> out(size());
    for (int j = 0; j < size(); ++j)
      read_inline(CollectiveType::Allgather, j, slots[j], out[size_t(j)]);
    auto [intra, inter] = symmetric_bytes(sizeof(T));
    record(CollectiveType::Allgather, sizeof(T), inter,
           topo().transfer_time(size(), intra, inter), t.seconds(), cpu);
    return out;
  }

  /// Variable-size gather: concatenation of every participant's span in rank
  /// order.  If `offsets` is non-null it receives size()+1 entries delimiting
  /// each rank's contribution in the result.  Dropped contributions appear
  /// empty.
  template <typename T>
  std::vector<T> allgatherv(std::span<const T> mine,
                            std::vector<size_t>* offsets = nullptr) {
    std::vector<T> out;
    allgatherv_into(mine, out, offsets);
    return out;
  }

  /// Allocation-free allgatherv: writes the concatenation into `out`,
  /// reusing its capacity across calls.  `grow_allocs` (when non-null) is
  /// incremented iff this call had to grow `out` — the steady-state
  /// allocation proof behind comm.staging_allocs.
  template <typename T>
  void allgatherv_into(std::span<const T> mine, std::vector<T>& out,
                       std::vector<size_t>* offsets = nullptr,
                       uint64_t* grow_allocs = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    WallTimer t;
    uint64_t call = begin_collective(CollectiveType::Allgather);
    double cpu = deposit_cpu_arrival();
    publish_checked(CollectiveType::Allgather, call, mine.data(),
                    mine.size_bytes());
    shared_->barrier.wait();
    CollectiveExit exit_barrier(shared_->barrier);
    // Effective per-source sizes: published sizes minus dropped corruptions.
    // Never trust a sender-published byte count blindly — a count that is not
    // a multiple of the element size would silently truncate and shift every
    // later rank's data.
    std::vector<uint64_t>& eff = eff_scratch_;
    eff.assign(static_cast<size_t>(size()), 0);
    size_t total_bytes = 0;
    for (int j = 0; j < size(); ++j) {
      uint64_t nb = shared_->nbytes[j];
      if (!verify_source(CollectiveType::Allgather, j, shared_->ptrs[j], nb,
                         shared_->sums[j]))
        nb = 0;
      check_source_multiple(CollectiveType::Allgather, j, nb, sizeof(T));
      eff[size_t(j)] = nb;
      total_bytes += nb;
    }
    size_t need = total_bytes / sizeof(T);
    if (grow_allocs && need > out.capacity()) ++*grow_allocs;
    out.clear();
    out.resize(need);
    if (offsets) offsets->assign(size_t(size()) + 1, 0);
    size_t pos = 0;
    for (int j = 0; j < size(); ++j) {
      if (offsets) (*offsets)[j] = pos / sizeof(T);
      if (eff[size_t(j)] > 0)
        std::memcpy(reinterpret_cast<unsigned char*>(out.data()) + pos,
                    shared_->ptrs[j], eff[size_t(j)]);
      pos += eff[size_t(j)];
    }
    if (offsets) (*offsets)[size()] = pos / sizeof(T);
    // Each rank's NIC receives everyone else's contribution.
    auto [intra, inter] = gatherv_bytes();
    exit_barrier.wait();
    record(CollectiveType::Allgather, mine.size_bytes(), inter,
           topo().transfer_time(size(), intra, inter), t.seconds(), cpu);
  }

  /// MPI_Reduce_scatter_block: `contrib` has size() * block elements; rank r
  /// receives the element-wise reduction of block r across all participants.
  template <typename T, typename Op>
  std::vector<T> reduce_scatter_block(std::span<const T> contrib, size_t block,
                                      Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    SUNBFS_CHECK(contrib.size() == block * size_t(size()));
    WallTimer t;
    uint64_t call = begin_collective(CollectiveType::ReduceScatter);
    double cpu = deposit_cpu_arrival();
    publish_checked(CollectiveType::ReduceScatter, call, contrib.data(),
                    contrib.size_bytes());
    shared_->barrier.wait();
    CollectiveExit exit_barrier(shared_->barrier);
    std::vector<T> out(block);
    // Seed from the caller's own (uncorrupted) contribution so a dropped
    // source never leaves the result unseeded.
    if (block > 0)
      std::memcpy(out.data(), contrib.data() + size_t(index_) * block,
                  block * sizeof(T));
    for (int j = 0; j < size(); ++j) {
      if (j == index_) continue;
      if (!verify_source(CollectiveType::ReduceScatter, j, shared_->ptrs[j],
                         shared_->nbytes[j], shared_->sums[j]))
        continue;
      check_source_size(CollectiveType::ReduceScatter, j, shared_->nbytes[j],
                        contrib.size_bytes());
      const T* blk = static_cast<const T*>(shared_->ptrs[j]) +
                     size_t(index_) * block;
      for (size_t i = 0; i < block; ++i) out[i] = op(out[i], blk[i]);
    }
    auto [intra, inter] = symmetric_bytes(block * sizeof(T));
    exit_barrier.wait();
    record(CollectiveType::ReduceScatter, contrib.size_bytes(), inter,
           topo().transfer_time(size(), intra, inter), t.seconds(), cpu);
    return out;
  }

  /// Element-wise allreduce over a span, in place (used for frontier
  /// bit-vector unions along mesh columns).  Implemented as a
  /// segment-parallel reduce + gather through shared scratch.
  template <typename T, typename Op>
  void allreduce_inplace(std::span<T> data, Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (size() == 1) return;  // nothing to exchange
    WallTimer t;
    uint64_t call = begin_collective(CollectiveType::Allreduce);
    double cpu = deposit_cpu_arrival();
    publish_checked(CollectiveType::Allreduce, call, data.data(),
                    data.size_bytes());
    if (index_ == 0) shared_->scratch.resize(data.size_bytes());
    shared_->barrier.wait();
    CollectiveExit exit_barrier(shared_->barrier);
    // Verify every contribution once; all ranks read the same shared
    // checksums, so the set of honest sources is identical everywhere.
    const bool sums = checksums_on();
    std::vector<bool> use;
    if (sums) {
      use.resize(size_t(size()));
      for (int j = 0; j < size(); ++j) {
        use[size_t(j)] =
            verify_source(CollectiveType::Allreduce, j, shared_->ptrs[j],
                          shared_->nbytes[j], shared_->sums[j]);
        if (use[size_t(j)])
          check_source_size(CollectiveType::Allreduce, j, shared_->nbytes[j],
                            data.size_bytes());
      }
    } else {
      check_source_size(CollectiveType::Allreduce, 0, shared_->nbytes[0],
                        data.size_bytes());
    }
    // Each participant reduces its own contiguous segment into scratch,
    // seeding from its own original buffer (immune to publish corruption).
    size_t n = data.size();
    size_t lo = n * size_t(index_) / size_t(size());
    size_t hi = n * size_t(index_ + 1) / size_t(size());
    T* scratch = reinterpret_cast<T*>(shared_->scratch.data());
    for (size_t i = lo; i < hi; ++i) {
      T acc = data[i];
      for (int j = 0; j < size(); ++j) {
        if (j == index_ || (sums && !use[size_t(j)])) continue;
        acc = op(acc, static_cast<const T*>(shared_->ptrs[j])[i]);
      }
      scratch[i] = acc;
    }
    shared_->barrier.wait();
    if (!data.empty()) std::memcpy(data.data(), scratch, data.size_bytes());
    auto [intra, inter] = symmetric_bytes(data.size_bytes());
    exit_barrier.wait();
    record(CollectiveType::Allreduce, data.size_bytes(), inter,
           topo().transfer_time(size(), intra, inter), t.seconds(), cpu);
  }

  /// Personalized all-to-all: `to[d]` is the message for participant d; the
  /// result is the concatenation of messages addressed to the caller in
  /// source-rank order.  If `src_offsets` is non-null it receives size()+1
  /// entries delimiting each source's data in the result.  Dropped messages
  /// appear empty.
  template <typename T>
  std::vector<T> alltoallv(const std::vector<std::vector<T>>& to,
                           std::vector<size_t>* src_offsets = nullptr) {
    SUNBFS_CHECK(int(to.size()) == size());
    std::vector<T> out;
    alltoallv_core<T>(
        [&](int d) -> std::pair<const void*, uint64_t> {
          return {to[size_t(d)].data(), to[size_t(d)].size() * sizeof(T)};
        },
        out, src_offsets, nullptr);
    return out;
  }

  /// Allocation-free personalized all-to-all over a flat, pre-staged send
  /// buffer: `send` holds the messages for all destinations back-to-back and
  /// `elem_offsets` (size()+1 entries, in elements) delimits destination d's
  /// span as [elem_offsets[d], elem_offsets[d+1]).  The received
  /// concatenation is written into `out`, reusing its capacity across calls;
  /// `grow_allocs` (when non-null) is incremented iff this call had to grow
  /// `out` — the steady-state allocation proof behind comm.staging_allocs.
  /// Fault injection, checksums and byte/imbalance accounting are identical
  /// to the vector-of-vectors overload (both run the same core).
  template <typename T>
  void alltoallv_flat(std::span<const T> send,
                      std::span<const uint64_t> elem_offsets,
                      std::vector<T>& out,
                      std::vector<size_t>* src_offsets = nullptr,
                      uint64_t* grow_allocs = nullptr) {
    SUNBFS_CHECK(elem_offsets.size() == size_t(size()) + 1);
    SUNBFS_CHECK(elem_offsets[size_t(size())] <= send.size());
    alltoallv_core<T>(
        [&](int d) -> std::pair<const void*, uint64_t> {
          uint64_t lo = elem_offsets[size_t(d)];
          uint64_t hi = elem_offsets[size_t(d) + 1];
          return {send.data() + lo, (hi - lo) * sizeof(T)};
        },
        out, src_offsets, grow_allocs);
  }

  /// Broadcast `data` from participant `root` into every rank's buffer.
  /// A dropped (corrupted) broadcast leaves the receivers' buffers untouched.
  template <typename T>
  void broadcast(std::span<T> data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    SUNBFS_CHECK(root >= 0 && root < size());
    WallTimer t;
    uint64_t call = begin_collective(CollectiveType::Broadcast);
    double cpu = deposit_cpu_arrival();
    publish_checked(CollectiveType::Broadcast, call, data.data(),
                    data.size_bytes());
    shared_->barrier.wait();
    CollectiveExit exit_barrier(shared_->barrier);
    if (verify_source(CollectiveType::Broadcast, root, shared_->ptrs[root],
                      shared_->nbytes[root], shared_->sums[root])) {
      check_source_size(CollectiveType::Broadcast, root,
                        shared_->nbytes[root], data.size_bytes());
      if (index_ != root)
        std::memcpy(data.data(), shared_->ptrs[root], data.size_bytes());
    }
    auto [intra, inter] = symmetric_bytes(data.size_bytes());
    exit_barrier.wait();
    record(CollectiveType::Broadcast, index_ == root ? data.size_bytes() : 0,
           index_ == root ? inter : 0,
           topo().transfer_time(size(), intra, inter), t.seconds(), cpu);
  }

  /// Sender-side wire-encoding accounting (sim/encoding.hpp): how many
  /// blocks/messages travelled under `codec` on `type` collectives and how
  /// the encoded bytes compare to the fixed-width representation.  Pure
  /// bookkeeping — the encoded payload itself flows through the normal
  /// publish/verify path, so checksums and Topology charging already see it.
  void note_encoding(CollectiveType type, WireCodec codec, uint64_t blocks,
                     uint64_t messages, uint64_t raw_bytes,
                     uint64_t encoded_bytes) {
    if (stats_)
      stats_->note_encoding(type, codec, blocks, messages, raw_bytes,
                            encoded_bytes);
  }

 private:
  const Topology& topo() const { return *shared_->topology; }

  int my_global_rank() const { return shared_->global_ranks[index_]; }

  bool checksums_on() const { return faults_ != nullptr && faults_->checksums; }

  /// Shared alltoallv implementation.  `part(d)` yields destination d's
  /// payload as {pointer, bytes}; the received concatenation lands in `out`
  /// (capacity reused; growth counted into `grow_allocs` when non-null).
  /// This single core carries the fault-injection surface (straggler +
  /// payload corruption + checksum verification) and the byte/imbalance
  /// accounting for every staging flavour.
  template <typename T, typename PartFn>
  void alltoallv_core(PartFn&& part, std::vector<T>& out,
                      std::vector<size_t>* src_offsets,
                      uint64_t* grow_allocs) {
    static_assert(std::is_trivially_copyable_v<T>);
    WallTimer t;
    uint64_t call = begin_collective(CollectiveType::Alltoallv);
    double cpu = deposit_cpu_arrival();
    int p = size();
    const PayloadFault* fault = pending_payload(CollectiveType::Alltoallv,
                                                call);
    int corrupt_dst = -1;
    if (fault) {
      // Corrupt the message to the scheduled peer (or the first non-empty).
      corrupt_dst = fault->peer >= 0 ? fault->peer % p : -1;
      if (corrupt_dst >= 0 && part(corrupt_dst).second == 0) corrupt_dst = -1;
      if (corrupt_dst < 0)
        for (int d = 0; d < p && corrupt_dst < 0; ++d)
          if (part(d).second != 0) corrupt_dst = d;
      if (corrupt_dst < 0) {  // nothing to corrupt this call; stay pending
        defer_payload(CollectiveType::Alltoallv, fault);
        fault = nullptr;
      }
    }
    for (int d = 0; d < p; ++d) {
      auto [ptr, nb] = part(d);
      if (checksums_on())
        shared_->a2a_sums[size_t(index_) * p + d] = checksum64(ptr, nb);
      if (fault && d == corrupt_dst) corrupt(*fault, ptr, nb);
      shared_->a2a_ptrs[size_t(index_) * p + d] = ptr;
      shared_->a2a_nbytes[size_t(index_) * p + d] = nb;
    }
    shared_->barrier.wait();
    CollectiveExit exit_barrier(shared_->barrier);
    std::vector<uint64_t>& eff = eff_scratch_;
    eff.assign(static_cast<size_t>(p), 0);
    size_t total_bytes = 0;
    for (int s = 0; s < p; ++s) {
      size_t slot = size_t(s) * p + index_;
      uint64_t nb = shared_->a2a_nbytes[slot];
      if (!verify_source(CollectiveType::Alltoallv, s,
                         shared_->a2a_ptrs[slot], nb,
                         checksums_on() ? shared_->a2a_sums[slot] : 0))
        nb = 0;
      // A sender-published byte count must always cover whole elements;
      // trusting it blindly would desync the receiver's message framing.
      check_source_multiple(CollectiveType::Alltoallv, s, nb, sizeof(T));
      eff[size_t(s)] = nb;
      total_bytes += nb;
    }
    size_t need = total_bytes / sizeof(T);
    if (grow_allocs && need > out.capacity()) ++*grow_allocs;
    out.clear();
    out.resize(need);
    if (src_offsets) src_offsets->assign(size_t(p) + 1, 0);
    size_t pos = 0;
    for (int s = 0; s < p; ++s) {
      if (src_offsets) (*src_offsets)[s] = pos / sizeof(T);
      uint64_t nb = eff[size_t(s)];
      if (nb > 0)
        std::memcpy(reinterpret_cast<unsigned char*>(out.data()) + pos,
                    shared_->a2a_ptrs[size_t(s) * p + index_], nb);
      pos += nb;
    }
    if (src_offsets) (*src_offsets)[p] = pos / sizeof(T);
    auto [sent, intra, inter, max_intra, max_inter] = a2a_bytes();
    exit_barrier.wait();
    record(CollectiveType::Alltoallv, sent, inter,
           topo().transfer_time(p, max_intra, max_inter), t.seconds(), cpu);
  }

  /// Count this armed collective call, fire any scheduled straggler delay,
  /// and return the call index the fault plan is keyed on.
  uint64_t begin_collective(CollectiveType type) {
    if (faults_ == nullptr || !faults_->active()) return ~uint64_t(0);
    uint64_t call = faults_->calls[int(type)]++;
    if (const StragglerFault* s =
            faults_->plan->straggler(my_global_rank(), type, call)) {
      faults_->stats.injected_stragglers += 1;
      faults_->stats.straggler_delay_s += s->delay_s;
      log_debug("fault: injected straggler on rank ", my_global_rank(), ", ",
                collective_type_name(type), " call ", call, ", ",
                s->delay_s * 1e3, " ms");
      std::this_thread::sleep_for(
          std::chrono::duration<double>(s->delay_s));
      straggle_pending_s_ += s->delay_s;  // sleep is off the CPU clock
    }
    return call;
  }

  /// Payload fault scheduled for this exact call — or one deferred from an
  /// earlier call of this type that carried no payload to corrupt.  Callers
  /// must re-stash via defer_payload if this call has no payload either.
  const PayloadFault* pending_payload(CollectiveType type, uint64_t call) {
    if (faults_ == nullptr || !faults_->active()) return nullptr;
    if (const PayloadFault* f =
            faults_->plan->payload(my_global_rank(), type, call))
      return f;
    const PayloadFault* f = faults_->deferred[size_t(type)];
    faults_->deferred[size_t(type)] = nullptr;
    return f;
  }

  /// Keep `fault` pending for this rank's next call of `type`: its scheduled
  /// call had nothing to corrupt (every message empty).
  void defer_payload(CollectiveType type, const PayloadFault* fault) {
    faults_->deferred[size_t(type)] = fault;
    log_debug("fault: deferring ", fault_kind_name(fault->kind), " on rank ",
              my_global_rank(), " — ", collective_type_name(type),
              " call had no payload");
  }

  /// Apply `fault` to the payload about to be published: the original bytes
  /// are copied into rank-local scratch and the copy is corrupted, so the
  /// caller's buffer stays intact and the pre-computed checksum still covers
  /// the true payload.
  void corrupt(const PayloadFault& fault, const void*& ptr, uint64_t& nbytes) {
    if (nbytes == 0) return;  // nothing to corrupt
    corrupt_buf_.assign(static_cast<const unsigned char*>(ptr),
                        static_cast<const unsigned char*>(ptr) + nbytes);
    corrupt_copy(fault, corrupt_buf_.data(), nbytes);
    ptr = corrupt_buf_.data();
  }

  /// Corrupt the copy `buf` of a non-empty payload in place: flip one bit
  /// or drop the trailing byte.
  void corrupt_copy(const PayloadFault& fault, unsigned char* buf,
                    uint64_t& nbytes) {
    if (fault.kind == FaultKind::BitFlip)
      buf[nbytes / 2] ^= 0x10;
    else
      nbytes -= 1;  // truncate: drop the trailing byte
    faults_->stats.injected_corruptions += 1;
    log_debug("fault: injected ", fault_kind_name(fault.kind), " on rank ",
              my_global_rank(), ", ", collective_type_name(fault.collective),
              " call ", fault.call_index);
  }

  /// Publish `(ptr, bytes)` with its checksum, applying any payload fault
  /// scheduled for this call.
  void publish_checked(CollectiveType type, uint64_t call, const void* ptr,
                       uint64_t bytes) {
    if (checksums_on()) shared_->sums[index_] = checksum64(ptr, bytes);
    if (const PayloadFault* fault = pending_payload(type, call)) {
      if (bytes == 0)
        defer_payload(type, fault);  // nothing to corrupt this call
      else
        corrupt(*fault, ptr, bytes);
    }
    shared_->ptrs[index_] = ptr;
    shared_->nbytes[index_] = bytes;
  }

  /// Copy `value` into this rank's inline slot of the current parity, with
  /// the checksum of the original and any payload fault scheduled for this
  /// call applied to the copy; returns the parity's slot array.
  ///
  /// Fixed-size collectives need a single barrier: half h of the slots is
  /// next written at collective k+2, which a rank reaches only after every
  /// peer passed a barrier of k+1 — by then each peer has finished reading
  /// half h.  Variable-size collectives publish pointers to the caller's
  /// buffers instead and keep their exit barrier.
  template <typename T>
  const InlineSlot* publish_inline(CollectiveType type, uint64_t call,
                                   const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) <= InlineSlot::kBytes,
                  "fixed-size collective payload exceeds the inline slot");
    InlineSlot* slots = shared_->inline_slots.data() + arrival_base();
    InlineSlot& mine = slots[index_];
    if (checksums_on()) mine.sum = checksum64(&value, sizeof(T));
    std::memcpy(mine.bytes, &value, sizeof(T));
    mine.nbytes = sizeof(T);
    if (const PayloadFault* fault = pending_payload(type, call))
      corrupt_copy(*fault, mine.bytes, mine.nbytes);
    return slots;
  }

  /// Verify participant `src`'s inline slot and copy its value into `out`;
  /// returns false (leaving `out` untouched) when the contribution is dropped.
  template <typename T>
  bool read_inline(CollectiveType type, int src, const InlineSlot& slot,
                   T& out) {
    if (!verify_source(type, src, slot.bytes, slot.nbytes, slot.sum))
      return false;
    check_source_size(type, src, slot.nbytes, sizeof(T));
    std::memcpy(&out, slot.bytes, sizeof(T));
    return true;
  }

  /// Verify participant `src`'s published payload against its checksum.
  /// Returns true when the contribution is usable.  On mismatch: records the
  /// detection and either throws FaultDetected (abort / report policies) or
  /// marks a pending fault and returns false so the caller drops the
  /// contribution (recover policy).
  bool verify_source(CollectiveType type, int src, const void* ptr,
                     uint64_t nbytes, uint64_t sum) {
    if (!checksums_on()) return true;
    bool ok = checksum64(ptr, nbytes) == sum;
    if (stats_) stats_->note_checksum(ok);
    if (ok) return true;
    faults_->stats.detected += 1;
    std::string msg = detail::log_format(
        "fault: checksum mismatch in ", collective_type_name(type),
        " — payload from rank ", global_rank_of(src), " corrupt at rank ",
        my_global_rank());
    log_debug(msg);
    if (faults_->policy == FaultPolicy::Recover) {
      faults_->pending = true;
      return false;
    }
    throw FaultDetected(msg, type, global_rank_of(src), my_global_rank());
  }

  /// Matched-size assertion for fixed-size contributions.
  void check_source_size(CollectiveType type, int src, uint64_t nbytes,
                         uint64_t expected) const {
    SUNBFS_CHECK_MSG(
        nbytes == expected,
        detail::log_format(collective_type_name(type), ": rank ",
                           global_rank_of(src), " published ", nbytes,
                           " bytes where receiver rank ", my_global_rank(),
                           " expected ", expected));
  }

  /// Element-size divisibility assertion for variable-size contributions.
  void check_source_multiple(CollectiveType type, int src, uint64_t nbytes,
                             uint64_t elem) const {
    SUNBFS_CHECK_MSG(
        nbytes % elem == 0,
        detail::log_format(collective_type_name(type), ": rank ",
                           global_rank_of(src), " published ", nbytes,
                           " bytes, not a multiple of the ", elem,
                           "-byte element size expected by receiver rank ",
                           my_global_rank()));
  }

  /// Deposit this rank's thread-CPU seconds consumed since its previous
  /// collective on this communicator (plus any injected straggler delay,
  /// whose sleep is invisible to the CPU clock).  Must run before the
  /// collective's first barrier; the spread of these deposits across ranks
  /// is the wait-for-peers measurement behind CollectiveEntry::imbalance_s.
  /// The thread-CPU clock (not wall) keeps it meaningful when the host
  /// oversubscribes rank threads onto fewer cores.
  double deposit_cpu_arrival() {
    double now = ThreadCpuTimer::now();
    double delta = last_cpu_ >= 0 ? now - last_cpu_ : 0.0;
    delta += straggle_pending_s_;
    straggle_pending_s_ = 0;
    shared_->cpu_arrival[arrival_base() + size_t(index_)] = delta;
    return delta;
  }

  /// Base slot of the current collective's half of the arrival and inline
  /// slot buffers.  Double-buffered by parity: a rank racing into collective
  /// k+1 writes the other half, and it cannot reach k+2 (which overwrites
  /// half k) before every peer passed a barrier of k+1 — i.e. after they
  /// finished reading half k.
  size_t arrival_base() const {
    return size_t(collective_seq_ & 1) * size_t(size());
  }

  void record(CollectiveType type, uint64_t bytes_sent, uint64_t inter,
              double modeled_s, double wall_s, double my_cpu_delta) {
    // Arrival spread: how much longer the slowest peer computed before this
    // collective — the wait this rank would incur on a dedicated machine.
    double max_delta = my_cpu_delta;
    size_t base = arrival_base();
    for (int j = 0; j < size(); ++j)
      max_delta = std::max(max_delta, shared_->cpu_arrival[base + size_t(j)]);
    double imbalance_s = max_delta - my_cpu_delta;
    last_cpu_ = ThreadCpuTimer::now();
    ++collective_seq_;
    if (stats_)
      stats_->record(type, bytes_sent, inter, modeled_s, wall_s, imbalance_s);
    // One span per collective on both clocks; advances this rank's modeled
    // clock so BFS/chip spans recorded later line up after it.
    obs::complete_span("comm", collective_type_name(type),
                       int64_t(bytes_sent), wall_s, modeled_s,
                       /*advance_modeled=*/true);
  }

  /// For symmetric collectives where each rank effectively exchanges
  /// `bytes_per_rank` with every peer group: returns {intra, inter} bytes the
  /// most loaded rank moves across each network level.
  std::pair<uint64_t, uint64_t> symmetric_bytes(uint64_t bytes_per_rank) const {
    uint64_t intra = 0, inter = 0;
    int me = shared_->global_ranks[index_];
    for (int j = 0; j < size(); ++j) {
      if (j == index_) continue;
      if (topo().same_supernode(me, shared_->global_ranks[j]))
        intra += bytes_per_rank;
      else
        inter += bytes_per_rank;
    }
    return {intra, inter};
  }

  /// allgatherv: most loaded rank receives everyone's contribution.
  std::pair<uint64_t, uint64_t> gatherv_bytes() const {
    uint64_t intra = 0, inter = 0;
    int me = shared_->global_ranks[index_];
    for (int j = 0; j < size(); ++j) {
      if (j == index_) continue;
      if (topo().same_supernode(me, shared_->global_ranks[j]))
        intra += shared_->nbytes[j];
      else
        inter += shared_->nbytes[j];
    }
    return {intra, inter};
  }

  /// alltoallv byte accounting: {my_sent, my_intra, my_inter,
  /// max_rank_intra, max_rank_inter}.
  std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t> a2a_bytes()
      const {
    int p = size();
    uint64_t my_sent = 0, my_intra = 0, my_inter = 0;
    uint64_t max_intra = 0, max_inter = 0;
    for (int s = 0; s < p; ++s) {
      uint64_t s_intra = 0, s_inter = 0;
      int gs = shared_->global_ranks[s];
      for (int d = 0; d < p; ++d) {
        if (s == d) continue;
        uint64_t nb = shared_->a2a_nbytes[size_t(s) * p + d];
        if (topo().same_supernode(gs, shared_->global_ranks[d]))
          s_intra += nb;
        else
          s_inter += nb;
      }
      if (s == index_) {
        my_intra = s_intra;
        my_inter = s_inter;
        my_sent = s_intra + s_inter;
      }
      max_intra = std::max(max_intra, s_intra);
      max_inter = std::max(max_inter, s_inter);
    }
    return {my_sent, my_intra, my_inter, max_intra, max_inter};
  }

  CommShared* shared_ = nullptr;
  int index_ = 0;
  double last_cpu_ = -1;           ///< thread-CPU reading at last record()
  double straggle_pending_s_ = 0;  ///< injected delay folded into next deposit
  uint64_t collective_seq_ = 0;    ///< parity for the arrival double-buffer
  CommStats* stats_ = nullptr;
  FaultState* faults_ = nullptr;
  /// Scratch holding the corrupted copy of a published payload until the
  /// collective completes.
  std::vector<unsigned char> corrupt_buf_;
  /// Reused per-source effective-size scratch for alltoallv/allgatherv
  /// (capacity is retained across calls — no steady-state allocation).
  std::vector<uint64_t> eff_scratch_;
};

}  // namespace sunbfs::sim
