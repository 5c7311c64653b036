#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "partition/part1d.hpp"
#include "sim/comm_buffer.hpp"
#include "sim/exchange_channel.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"

/// Batched multi-source BFS (MS-BFS, Then et al., adapted to the distributed
/// 1D layout): up to service::kMaxBatchWidth roots traverse simultaneously,
/// one bit per query in every frontier/visited word, so the whole batch
/// shares each level's collectives — one alltoallv (top-down) or one
/// frontier allgather (bottom-up) per level for all W queries, instead of W
/// sequential sweeps.  This is the amortization the query service's batching
/// exists to buy (docs/SERVICE.md; tests/test_service.cpp asserts the
/// collective-count win via CommStats).
///
/// Determinism contract: the parent of vertex v for query q is the
/// *maximum global id* neighbour u with depth_q(u) == depth_q(v) - 1.  The
/// rule names a unique tree per (graph, root) — independent of traversal
/// direction, batch width, batch composition and thread count — which is
/// what makes "batch output bit-identical to W single-root runs" a testable
/// equality rather than a coincidence of scheduling.  (The bottom-up kernel
/// therefore scans *all* neighbours of a pending vertex; the early-exit
/// first-match trick of bfs1d would tie the parent to CSR order.)
namespace sunbfs::bfs {
class BfsWorkspace;
}

namespace sunbfs::service {

/// One batched visit: receiver-local target, sender-local source (the source
/// rank is recovered from the alltoallv src_offsets), and the query bit-mask
/// the source's frontier carries for this edge.  One message per cross-rank
/// frontier edge — per-target dedup is skipped because the max-parent rule
/// needs every candidate source, and a per-(target, query) dedup table would
/// cost W x |V| words per level.
struct MsbfsMsg {
  uint32_t dst;
  uint32_t src;
  uint64_t mask;
};

struct MsbfsOptions {
  /// Switch to bottom-up when active (vertex, query) pairs exceed this
  /// fraction of total x width.
  double pull_ratio = 0.10;
  /// Deterministic compute-cost model: modeled seconds per examined edge
  /// (the virtual clock must not depend on host wall time — see
  /// docs/SERVICE.md "Determinism").
  double sim_seconds_per_edge = 2e-9;
  /// Worker threads per rank; <= 0 means auto.  Ignored when `workspace` is
  /// provided.
  int threads_per_rank = 0;
  /// Optional resident per-rank workspace (pool + frontier gather buffer),
  /// shared across batches by the session.
  bfs::BfsWorkspace* workspace = nullptr;
  /// Optional resident staging channel for the batched visit messages; null
  /// means a private pool per run (cold — the session keeps a warm one).
  sim::ExchangeChannel<MsbfsMsg>* staging = nullptr;
  /// Adaptive wire encoding for the visit alltoallv and the frontier-word
  /// allgather (sim/encoding.hpp); applied to the pools each run.
  sim::EncodingOptions encoding;
  /// Exchange plan backend for the visit alltoallv (sim/exchange.hpp).
  /// Results stay bit-identical across backends (ctest -L differential).
  sim::ExchangeOptions exchange;
  /// Checkpoint/rollback recovery knobs, honoured when the rank runs under
  /// FaultPolicy::Recover (same contract as bfs1d/bfs15d: per-level
  /// checkpoints of the mask words + parents, collective agreement on the
  /// pending-fault flag, capped exponential backoff).  Results stay
  /// bit-identical to a fault-free run.
  sim::RecoveryOptions recovery;
  /// Also record per-vertex hop depths into MsbfsResult::depth (query-major,
  /// -1 = unreached).  Free of extra collectives: depths are stamped in the
  /// serial per-level commit.  The distance oracle's sketches and cached
  /// trees are built from these rows (src/service/oracle/).
  bool record_depths = false;
};

struct MsbfsResult {
  int width = 0;
  /// Owned-slice parent arrays, query-major: parent[q * local_count + lloc].
  /// kNoVertex where query q never reached the vertex.
  std::vector<graph::Vertex> parent;
  /// BFS levels (eccentricity from the root within its component) per query.
  std::vector<int> levels;
  /// Owned-slice hop depths, query-major like `parent` (only populated when
  /// MsbfsOptions::record_depths): -1 where query q never reached the vertex.
  std::vector<int32_t> depth;
  int num_iterations = 0;    ///< shared level-loop sweeps for the batch
  uint64_t work_edges = 0;   ///< this rank's examined-edge count
  double compute_model_s = 0;  ///< work_edges x sim_seconds_per_edge / threads
};

/// Run one batch of `roots` (1 <= |roots| <= kMaxBatchWidth, duplicates
/// allowed) over the resident 1D partition.  Collective over ctx.world.
MsbfsResult msbfs_run(sim::RankContext& ctx, const partition::Part1d& part,
                      std::span<const graph::Vertex> roots,
                      const MsbfsOptions& options = {});

}  // namespace sunbfs::service

namespace sunbfs::sim {

/// Wire codec for the batched visit message: `dst` keys the sort/bitmap,
/// `src` and the query mask follow as varints (sparse batches have few low
/// bits set; full-width masks fall back to raw via exact measurement).
template <>
struct WireFormat<service::MsbfsMsg> {
  static uint64_t key(const service::MsbfsMsg& m) { return m.dst; }
  static bool less(const service::MsbfsMsg& a, const service::MsbfsMsg& b) {
    if (a.dst != b.dst) return a.dst < b.dst;
    if (a.src != b.src) return a.src < b.src;
    return a.mask < b.mask;
  }
  static uint64_t minor(const service::MsbfsMsg& m) { return m.src; }
  static size_t rest_size(const service::MsbfsMsg& m) {
    return varint_size(m.src) + varint_size(m.mask);
  }
  static uint8_t* put_rest(const service::MsbfsMsg& m, uint8_t* p) {
    p = put_varint(p, m.src);
    return put_varint(p, m.mask);
  }
  static const uint8_t* get_rest(const uint8_t* p, const uint8_t* end,
                                 uint64_t key, service::MsbfsMsg& m) {
    if (key > UINT32_MAX) return nullptr;
    uint64_t src = 0, mask = 0;
    p = get_varint(p, end, &src);
    if (p == nullptr || src > UINT32_MAX) return nullptr;
    p = get_varint(p, end, &mask);
    if (p == nullptr) return nullptr;
    m.dst = uint32_t(key);
    m.src = uint32_t(src);
    m.mask = mask;
    return p;
  }
};

/// Staged-exchange fold for batched visits: two messages for the same
/// (target, source) pair carry query masks the receiver ORs into the same
/// next-frontier word, so an intermediate hop may OR them early.  `src` is
/// *sender-local*, so equality is only meaningful within one source rank —
/// messages from different src_parts must never merge (same src, different
/// global vertex), which the src_part guard enforces.
template <>
struct ExchangeMergePolicy<service::MsbfsMsg> {
  static constexpr bool enabled = true;
  static bool same(const service::MsbfsMsg& a, uint32_t a_src_part,
                   const service::MsbfsMsg& b, uint32_t b_src_part) {
    return a_src_part == b_src_part && a.dst == b.dst && a.src == b.src;
  }
  static void fold(service::MsbfsMsg& into, uint32_t& /*into_src_part*/,
                   const service::MsbfsMsg& from, uint32_t /*from_src_part*/) {
    into.mask |= from.mask;
  }
};

}  // namespace sunbfs::sim
