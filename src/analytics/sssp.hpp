#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "partition/part15d.hpp"
#include "sim/encoding.hpp"
#include "sim/exchange.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"

/// Single-source shortest paths over the 1.5D partition (Graph 500's second
/// kernel; §8 lists SSSP among the algorithms the push-pull structure
/// carries to).
///
/// Edge weights are synthesized deterministically and symmetrically from the
/// endpoint ids (the Graph 500 SSSP benchmark likewise attaches generated
/// weights to the Kronecker graph).  Relaxation is chaotic Bellman-Ford over
/// the six subgraph components per round: E/H distances are replicated and
/// merged with the column+row min-reduction; L-to-L relaxations message
/// through the staged exchange pools (analytics/propagate.hpp).
namespace sunbfs::analytics {

using Dist = uint64_t;
inline constexpr Dist kInfDist = ~Dist(0) / 4;

/// Deterministic symmetric weight in [1, max_weight] for edge {u, v}.
Dist edge_weight(graph::Vertex u, graph::Vertex v, uint64_t seed,
                 Dist max_weight = 255);

struct SsspOptions {
  uint64_t weight_seed = 42;
  Dist max_weight = 255;
  /// Adaptive wire encoding for the L-to-L relaxation exchange
  /// (sim/encoding.hpp).
  sim::EncodingOptions encoding;
  /// Exchange plan backend for the L-to-L relaxation exchange
  /// (sim/exchange.hpp).  Distances stay bit-identical across backends
  /// (ctest -L differential).
  sim::ExchangeOptions exchange;
  /// Rollback-and-replay knobs, honoured under FaultPolicy::Recover: the
  /// whole query replays from its initial state after a dropped corrupted
  /// contribution or a planned rank failure (sim/recover.hpp), with results
  /// bit-identical to a fault-free run.
  sim::RecoveryOptions recovery;
};

/// Bellman-Ford relaxation as a propagation program (analytics/propagate.hpp):
/// a vertex's state is its tentative distance; along edge (u, v) it
/// contributes dist(u) + w(u, v); the gather keeps the minimum.
struct RelaxProgram {
  using Value = Dist;
  uint64_t seed;
  Dist max_weight;

  Value identity() const { return kInfDist; }
  Value combine(Value a, Value b) const { return std::min(a, b); }
  Value contribution(Value u_value, graph::Vertex u, graph::Vertex v) const {
    if (u_value >= kInfDist) return kInfDist;
    return u_value + edge_weight(u, v, seed, max_weight);
  }
  bool update(Value& state, const Value& gathered) const {
    if (gathered < state) {
      state = gathered;
      return true;
    }
    return false;
  }
};

/// Distances of this rank's owned vertices (kInfDist if unreachable).
/// Collective.
std::vector<Dist> sssp15d(sim::RankContext& ctx,
                          const partition::Part15d& part, graph::Vertex root,
                          const SsspOptions& options = {});

/// Serial reference (Dijkstra) with the same weight function.
std::vector<Dist> reference_sssp(uint64_t num_vertices,
                                 std::span<const graph::Edge> edges,
                                 graph::Vertex root,
                                 const SsspOptions& options = {});

/// Outcome of validating one SSSP run (Graph 500 kernel-3-style rules).
struct SsspValidation {
  bool ok = false;
  std::string error;
  uint64_t reached = 0;
  uint64_t edges_in_component = 0;  ///< TEPS numerator (self loops excluded)
};

/// Validate `dist` as the exact shortest distances from `root` without a
/// reference solution:
///   1. dist[root] == 0;
///   2. an edge never connects a reached and an unreached vertex;
///   3. every edge is feasible: |d(u) - d(v)| <= w(u, v);
///   4. every reached non-root vertex has a tight predecessor
///      (d(v) == d(u) + w(u, v) for some neighbor u).
/// With positive weights, (1)+(3) bound d from above by the true distance
/// and (4) bounds it from below, so passing implies exactness.
SsspValidation validate_sssp(uint64_t num_vertices,
                             std::span<const graph::Edge> edges,
                             graph::Vertex root, std::span<const Dist> dist,
                             const SsspOptions& options = {});

/// One cross-rank relaxation: candidate distance `dist` for global vertex
/// `dst` (owned by the receiver).  Carried by the incremental SSSP repair
/// (mutate/repair.hpp).
struct DistMsg {
  graph::Vertex dst;
  Dist dist;
};

}  // namespace sunbfs::analytics

namespace sunbfs::sim {

/// Wire codec for relaxations: the global destination id keys the
/// sort/bitmap; the candidate distance follows as a varint (exact
/// measurement falls back to raw when distances are large).
template <>
struct WireFormat<analytics::DistMsg> {
  static uint64_t key(const analytics::DistMsg& m) { return uint64_t(m.dst); }
  static bool less(const analytics::DistMsg& a, const analytics::DistMsg& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.dist < b.dist;
  }
  static uint64_t minor(const analytics::DistMsg& m) { return m.dist; }
  static size_t rest_size(const analytics::DistMsg& m) {
    return varint_size(uint64_t(m.dist));
  }
  static uint8_t* put_rest(const analytics::DistMsg& m, uint8_t* p) {
    return put_varint(p, m.dist);
  }
  static const uint8_t* get_rest(const uint8_t* p, const uint8_t* end,
                                 uint64_t key, analytics::DistMsg& m) {
    if (key > uint64_t(INT64_MAX)) return nullptr;
    uint64_t v = 0;
    p = get_varint(p, end, &v);
    if (p == nullptr) return nullptr;
    m.dst = graph::Vertex(key);
    m.dist = analytics::Dist(v);
    return p;
  }
};

/// Staged-exchange fold for relaxations: the receiver keeps the minimum
/// candidate distance per destination, so an intermediate hop may take the
/// min early.  Source ranks are irrelevant to the reduction.
template <>
struct ExchangeMergePolicy<analytics::DistMsg> {
  static constexpr bool enabled = true;
  static bool same(const analytics::DistMsg& a, uint32_t /*a_src_part*/,
                   const analytics::DistMsg& b, uint32_t /*b_src_part*/) {
    return a.dst == b.dst;
  }
  static void fold(analytics::DistMsg& into, uint32_t& into_src_part,
                   const analytics::DistMsg& from, uint32_t from_src_part) {
    // Keep the (dist, src_part) minimum so the surviving message is
    // independent of fold order; the receiver's min over dist alone is
    // unchanged by which src_part delivers it.
    if (from.dist < into.dist ||
        (from.dist == into.dist && from_src_part < into_src_part)) {
      into.dist = from.dist;
      into_src_part = from_src_part;
    }
  }
};

}  // namespace sunbfs::sim
