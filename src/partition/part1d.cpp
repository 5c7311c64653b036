#include "partition/part1d.hpp"

#include "support/check.hpp"
#include "support/prefix.hpp"

namespace sunbfs::partition {

Part1d build_1d(sim::RankContext& ctx, const VertexSpace& space,
                std::span<const graph::Edge> slice) {
  SUNBFS_CHECK(space.nranks == ctx.nranks());
  // Both orientations, including self loops twice, matching
  // Csr::from_undirected's adjacency-matrix convention: count per owner,
  // then fill each owner's block in slice order.
  std::vector<uint64_t> count(size_t(ctx.nranks()), 0);
  for (const graph::Edge& e : slice) {
    ++count[size_t(space.owner(e.u))];
    ++count[size_t(space.owner(e.v))];
  }
  std::vector<uint64_t> off = offsets_from_counts(count);
  std::vector<uint64_t> next(off.begin(), off.end() - 1);
  std::vector<graph::Edge> send(off.back());
  for (const graph::Edge& e : slice) {
    send[next[size_t(space.owner(e.u))]++] = graph::Edge{e.u, e.v};
    send[next[size_t(space.owner(e.v))]++] = graph::Edge{e.v, e.u};
  }
  std::vector<graph::Edge> arcs;
  ctx.world.alltoallv_flat(std::span<const graph::Edge>(send),
                           std::span<const uint64_t>(off), arcs);
  send.clear();
  send.shrink_to_fit();

  Part1d part;
  part.space = space;
  std::vector<graph::Vertex> rows, vals;
  rows.reserve(arcs.size());
  vals.reserve(arcs.size());
  for (const graph::Edge& a : arcs) {
    rows.push_back(graph::Vertex(space.to_local(ctx.rank, a.u)));
    vals.push_back(a.v);
  }
  part.adj = graph::Csr::from_arcs(space.count(ctx.rank), rows, vals);
  return part;
}

}  // namespace sunbfs::partition
