#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "graph/csr.hpp"
#include "partition/classify.hpp"
#include "partition/space.hpp"
#include "sim/runtime.hpp"
#include "support/bitvector.hpp"
#include "support/thread_pool.hpp"

/// 3-level degree-aware 1.5D graph partitioning (§4.1).
///
/// The original edge set is split into six components by the E/H/L classes
/// of the endpoints; each component is placed so that its traversal needs
/// only the communication the paper prescribes:
///
///   EH2EH  2D-partitioned over EH ids: arc x->y at mesh rank
///          (row(eh_owner(y)), col(eh_owner(x))).  Stored in both
///          orientations (eh2eh for push, eh2eh_rev for pull).
///   E2L    both orientations at owner(l) (E is delegated globally, so
///          neither direction communicates): e2l rows are EH ids, l2e rows
///          are local L indices.
///   H2L    arc h->l at rank (row(owner(l)), col(eh_owner(h))): the rank
///          shares a column with h's delegates and a row with owner(l), so
///          push messages travel intra-row only.
///   L2H    at owner(l) (rows local l, values EH ids): push messages go
///          intra-row to h's column delegate.
///   L2L    at the owner of the source endpoint, classic 1D.
///
/// Self loops are kept (the generator produces them; traversal never acts on
/// them because the endpoint is already visited).
namespace sunbfs::partition {

/// Index of each subgraph in per-subgraph arrays (arc counts, timings).
enum class Subgraph : int { EH2EH = 0, E2L, L2E, H2L, L2H, L2L };
inline constexpr int kSubgraphCount = 6;
const char* subgraph_name(Subgraph s);

/// One rank's share of the 1.5D-partitioned graph.
struct Part15d {
  VertexSpace space;     ///< original vertex id ownership
  CyclicSpace eh_space;  ///< EH id ownership (cyclic over [0, num_eh))
  EhlTable cls;          ///< replicated classification table

  uint64_t local_begin = 0;  ///< first owned original vertex
  uint64_t local_count = 0;  ///< owned original vertices
  /// Owned original vertex (local index) -> vertex is E or H (its traversal
  /// state lives in the EH arrays, not the local L arrays).
  BitVector local_is_eh;

  graph::Csr eh2eh;      ///< rows: EH x (my column), values: EH y (my row)
  graph::Csr eh2eh_rev;  ///< rows: EH y (my row), values: EH x (my column)
  graph::Csr e2l;        ///< rows: EH id (E), values: local l index
  graph::Csr l2e;        ///< rows: local l, values: EH id (E)
  graph::Csr h2l;        ///< rows: EH id (H), values: global l id
  /// Same arcs as h2l, destination-major ("stored by the destination
  /// index", §4.3): rows are row-local L indices (all L vertices owned by
  /// ranks in this mesh row, concatenated in column order), values are EH
  /// ids of h.  Drives the H2L bottom-up at the storage rank.
  graph::Csr h2l_by_l;
  /// row_l_offsets[c] is the row-local index of the first vertex owned by
  /// the rank in mesh column c of this row (size cols + 1).
  std::vector<uint64_t> row_l_offsets;
  graph::Csr l2h;        ///< rows: local l, values: EH id (H)
  graph::Csr l2l;        ///< rows: local l, values: global l' id

  /// Arc count stored on this rank per subgraph (Figure 13 balance data).
  std::array<uint64_t, kSubgraphCount> arc_counts{};

  // --- mesh placement helpers -------------------------------------------
  /// Mesh row of the rank owning EH id k.
  int eh_row(uint64_t eh_id, const sim::MeshShape& mesh) const {
    return mesh.row_of(eh_space.owner(graph::Vertex(eh_id)));
  }
  /// Mesh column of the rank owning EH id k.
  int eh_col(uint64_t eh_id, const sim::MeshShape& mesh) const {
    return mesh.col_of(eh_space.owner(graph::Vertex(eh_id)));
  }
};

/// Build the 1.5D partition collectively.  `slice` is this rank's slice of
/// the global undirected edge list; `local_degrees` must come from
/// compute_local_degrees over the same slices.  The arc sort runs on this
/// rank's `pool`, or on the calling thread when it is null; the partition
/// is the same either way.
Part15d build_15d(sim::RankContext& ctx, const VertexSpace& space,
                  std::span<const graph::Edge> slice,
                  std::span<const uint64_t> local_degrees,
                  DegreeThresholds thresholds, ThreadPool* pool = nullptr);

}  // namespace sunbfs::partition
