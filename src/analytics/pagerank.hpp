#pragma once

#include <span>
#include <vector>

#include "partition/part15d.hpp"
#include "sim/runtime.hpp"

/// PageRank over the 1.5D partition (§8: "the push-pull selection behind
/// [sub-iteration direction optimization] works on many graph algorithms,
/// including ... PageRank").
///
/// Power iteration with damping and dangling-mass redistribution, run as a
/// propagation program (analytics/propagate.hpp): the engine gathers every
/// arc's rank/degree share once per step — E/H sums merged with the
/// column+row reduction, H/E-to-L computed locally from the delegated
/// mirrors, only L-to-L shares messaged through its exchange channel.  The
/// driver sets each step's teleport + dangling base and stops on the L1
/// change of the owned values, so every vertex counts once.
namespace sunbfs::analytics {

/// One power-iteration step as a propagation program: a vertex sends its
/// rank divided by its degree along every arc, and its next rank is `base`
/// plus the damped sum it gathered.  The driver sets `base` (teleport plus
/// redistributed dangling mass) before each step.
struct PageRankProgram {
  using Value = double;
  const partition::Part15d* part = nullptr;
  int rank = 0;  ///< the calling rank
  std::span<const uint64_t> local_degrees;
  double damping = 0.85;
  double base = 0;

  Value identity() const { return 0.0; }
  Value combine(Value a, Value b) const { return a + b; }
  /// Only called for senders with arcs, so the degree is positive.  A
  /// sender this rank does not own is an E/H vertex (L arcs are sent by
  /// their owner), whose degree the replicated table holds.
  Value contribution(Value u_value, graph::Vertex u, graph::Vertex) const {
    const partition::VertexSpace& space = part->space;
    const uint64_t degree =
        space.owner(u) == rank ? local_degrees[space.to_local(rank, u)]
                               : part->cls.eh_degree(part->cls.eh_of(u));
    return u_value / double(degree);
  }
  bool update(Value& state, const Value& gathered) const {
    const Value next = base + damping * gathered;
    const bool changed = next != state;
    state = next;
    return changed;
  }
};

struct PageRankOptions {
  double damping = 0.85;
  int max_iterations = 100;
  /// Stop when the global L1 change drops below this.
  double tolerance = 1e-12;
};

/// Ranks of this rank's owned vertices (local index order); sums to 1 over
/// all ranks.  `local_degrees` must match partition::compute_local_degrees.
/// Collective.
std::vector<double> pagerank15d(sim::RankContext& ctx,
                                const partition::Part15d& part,
                                std::span<const uint64_t> local_degrees,
                                const PageRankOptions& options = {});

/// Serial reference power iteration with the identical update rule.
std::vector<double> reference_pagerank(uint64_t num_vertices,
                                       std::span<const graph::Edge> edges,
                                       const PageRankOptions& options = {});

}  // namespace sunbfs::analytics
