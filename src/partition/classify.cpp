#include "partition/classify.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/prefix.hpp"

namespace sunbfs::partition {

EhlTable::EhlTable(
    DegreeThresholds thresholds,
    std::vector<std::pair<uint64_t, graph::Vertex>> eh_by_degree_desc)
    : thresholds_(thresholds) {
  SUNBFS_CHECK_MSG(thresholds.e >= thresholds.h,
                   "E threshold must be >= H threshold");
  eh_to_global_.reserve(eh_by_degree_desc.size());
  eh_degree_.reserve(eh_by_degree_desc.size());
  global_to_eh_.reserve(eh_by_degree_desc.size());
  for (const auto& [deg, v] : eh_by_degree_desc) {
    SUNBFS_CHECK(deg >= thresholds.h);
    uint64_t id = eh_to_global_.size();
    eh_to_global_.push_back(v);
    eh_degree_.push_back(deg);
    bool inserted = global_to_eh_.emplace(v, id).second;
    SUNBFS_CHECK_MSG(inserted, "duplicate vertex in EH nomination");
    if (deg >= thresholds.e) {
      SUNBFS_CHECK_MSG(num_e_ == id, "E vertices must precede H in the order");
      num_e_ = id + 1;
    }
  }
}

std::vector<uint64_t> compute_local_degrees(
    sim::RankContext& ctx, const VertexSpace& space,
    std::span<const graph::Edge> slice) {
  SUNBFS_CHECK(space.nranks == ctx.nranks());
  // Aggregate counts locally per destination owner, then exchange compact
  // (vertex, count) pairs.
  struct VertexCount {
    graph::Vertex v;
    uint64_t count;
  };
  int p = ctx.nranks();
  std::vector<std::unordered_map<graph::Vertex, uint64_t>> agg(static_cast<size_t>(p));
  for (const graph::Edge& e : slice) {
    agg[size_t(space.owner(e.u))][e.u]++;
    agg[size_t(space.owner(e.v))][e.v]++;
  }
  // Flatten the maps in owner order: block d is agg[d]'s pairs.
  std::vector<uint64_t> count(static_cast<size_t>(p));
  for (int d = 0; d < p; ++d) count[size_t(d)] = agg[size_t(d)].size();
  std::vector<uint64_t> off = offsets_from_counts(count);
  std::vector<VertexCount> send;
  send.reserve(off.back());
  for (int d = 0; d < p; ++d)
    for (const auto& [v, c] : agg[size_t(d)]) send.push_back(VertexCount{v, c});
  std::vector<VertexCount> got;
  ctx.world.alltoallv_flat(std::span<const VertexCount>(send),
                           std::span<const uint64_t>(off), got);

  std::vector<uint64_t> degrees(space.count(ctx.rank), 0);
  for (const auto& vc : got)
    degrees[space.to_local(ctx.rank, vc.v)] += vc.count;
  return degrees;
}

EhlTable classify_vertices(sim::RankContext& ctx, const VertexSpace& space,
                           std::span<const uint64_t> local_degrees,
                           DegreeThresholds thresholds) {
  SUNBFS_CHECK(local_degrees.size() == space.count(ctx.rank));
  struct Nomination {
    uint64_t degree;
    graph::Vertex v;
  };
  std::vector<Nomination> mine;
  for (uint64_t l = 0; l < local_degrees.size(); ++l)
    if (local_degrees[l] >= thresholds.h)
      mine.push_back(
          Nomination{local_degrees[l], space.to_global(ctx.rank, l)});

  std::vector<Nomination> all =
      ctx.world.allgatherv(std::span<const Nomination>(mine));
  // Deterministic global order: degree descending, id ascending.  Identical
  // on every rank, so EH ids agree everywhere without further communication.
  std::sort(all.begin(), all.end(), [](const Nomination& a, const Nomination& b) {
    if (a.degree != b.degree) return a.degree > b.degree;
    return a.v < b.v;
  });
  std::vector<std::pair<uint64_t, graph::Vertex>> ordered;
  ordered.reserve(all.size());
  for (const auto& n : all) ordered.emplace_back(n.degree, n.v);
  return EhlTable(thresholds, std::move(ordered));
}

}  // namespace sunbfs::partition
