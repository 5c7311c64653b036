#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "partition/part15d.hpp"
#include "sim/runtime.hpp"

/// Connected components over the 1.5D partition — the paper's §8 claim that
/// 3-level degree-aware 1.5D partitioning is neutral to the graph algorithm.
///
/// Min-label propagation: every vertex starts with its own id; labels flow
/// along all six subgraph components until a fixpoint.  E/H labels are
/// replicated and merged with the same column+row reduction the BFS engine
/// uses for frontiers; L-to-L propagation goes through the staged exchange
/// pools like BFS top-down.
namespace sunbfs::analytics {

/// Min-label propagation as a propagation program (analytics/propagate.hpp):
/// every vertex repeatedly adopts the smallest label among itself and its
/// neighbors.
struct MinLabelProgram {
  using Value = graph::Vertex;
  Value identity() const { return std::numeric_limits<Value>::max(); }
  Value combine(Value a, Value b) const { return std::min(a, b); }
  Value contribution(Value u_value, graph::Vertex, graph::Vertex) const {
    return u_value;
  }
  bool update(Value& state, const Value& gathered) const {
    if (gathered < state) {
      state = gathered;
      return true;
    }
    return false;
  }
};

/// Labels of this rank's owned vertices (local index order).  Two vertices
/// are in the same component iff they end with the same label (the minimum
/// global vertex id of the component).  Collective.
std::vector<graph::Vertex> cc15d(sim::RankContext& ctx,
                                 const partition::Part15d& part);

/// Serial reference (union-find).
std::vector<graph::Vertex> reference_cc(uint64_t num_vertices,
                                        std::span<const graph::Edge> edges);

}  // namespace sunbfs::analytics
