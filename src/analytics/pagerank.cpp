#include "analytics/pagerank.hpp"

#include <cmath>

#include "analytics/propagate.hpp"
#include "graph/csr.hpp"
#include "support/check.hpp"

namespace sunbfs::analytics {

using graph::Vertex;

std::vector<double> pagerank15d(sim::RankContext& ctx,
                                const partition::Part15d& part,
                                std::span<const uint64_t> local_degrees,
                                const PageRankOptions& options) {
  const uint64_t nloc = part.local_count;
  const double n = double(part.space.total);
  SUNBFS_CHECK(local_degrees.size() == nloc);

  PropagationEngine<PageRankProgram> engine(
      ctx, part,
      PageRankProgram{&part, ctx.rank, local_degrees, options.damping});
  engine.initialize([n](Vertex) { return 1.0 / n; });
  std::vector<double> rank = engine.owned_values();
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double dangling_local = 0;
    for (uint64_t l = 0; l < nloc; ++l)
      if (local_degrees[l] == 0) dangling_local += rank[l];
    const double dangling = ctx.world.allreduce_sum(dangling_local);
    engine.program().base =
        (1.0 - options.damping) / n + options.damping * dangling / n;
    engine.step();

    std::vector<double> next = engine.owned_values();
    double delta_local = 0;
    for (uint64_t l = 0; l < nloc; ++l)
      delta_local += std::abs(next[l] - rank[l]);
    rank = std::move(next);
    if (ctx.world.allreduce_sum(delta_local) < options.tolerance) break;
  }
  return rank;
}

std::vector<double> reference_pagerank(uint64_t num_vertices,
                                       std::span<const graph::Edge> edges,
                                       const PageRankOptions& options) {
  graph::Csr adj = graph::Csr::from_undirected(num_vertices, edges);
  const double n = double(num_vertices);
  std::vector<double> rank(num_vertices, 1.0 / n);
  std::vector<double> next(num_vertices);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double dangling = 0;
    for (uint64_t v = 0; v < num_vertices; ++v)
      if (adj.degree(v) == 0) dangling += rank[v];
    const double base =
        (1.0 - options.damping) / n + options.damping * dangling / n;
    std::fill(next.begin(), next.end(), base);
    for (uint64_t v = 0; v < num_vertices; ++v) {
      if (adj.degree(v) == 0) continue;
      double c = options.damping * rank[v] / double(adj.degree(v));
      for (Vertex u : adj.neighbors(v)) next[size_t(u)] += c;
    }
    double delta = 0;
    for (uint64_t v = 0; v < num_vertices; ++v)
      delta += std::abs(next[v] - rank[v]);
    rank.swap(next);
    if (delta < options.tolerance) break;
  }
  return rank;
}

}  // namespace sunbfs::analytics
