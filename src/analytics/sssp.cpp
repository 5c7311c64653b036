#include "analytics/sssp.hpp"

#include <queue>
#include <sstream>

#include "analytics/propagate.hpp"

#include "graph/csr.hpp"
#include "sim/recover.hpp"
#include "support/check.hpp"
#include "support/random.hpp"

namespace sunbfs::analytics {

using graph::Vertex;

Dist edge_weight(Vertex u, Vertex v, uint64_t seed, Dist max_weight) {
  uint64_t a = uint64_t(std::min(u, v));
  uint64_t b = uint64_t(std::max(u, v));
  uint64_t h = SplitMix64::mix(seed ^ (a * 0x9E3779B97F4A7C15ull + b + 1));
  return 1 + h % max_weight;
}

std::vector<Dist> sssp15d(sim::RankContext& ctx,
                          const partition::Part15d& part, Vertex root,
                          const SsspOptions& options) {
  SUNBFS_CHECK(root >= 0 && uint64_t(root) < part.space.total);
  // Whole-query rollback-and-replay (sim/recover.hpp): the engine is
  // rebuilt per attempt, so a discarded attempt leaves no state behind; the
  // guard fires planned rank failures at the replicated round counter.
  return sim::run_with_replay(
      ctx, options.recovery, [&](sim::ReplayGuard& guard) {
        PropagationEngine<RelaxProgram> engine(
            ctx, part, RelaxProgram{options.weight_seed, options.max_weight},
            {.incremental = true,
             .encoding = options.encoding,
             .exchange = options.exchange});
        engine.initialize(
            [&](Vertex v) { return v == root ? Dist(0) : kInfDist; });
        for (int round = 1; round <= (1 << 20); ++round) {
          guard.epoch(round);
          if (!engine.step()) break;
        }
        return engine.owned_values();
      });
}

SsspValidation validate_sssp(uint64_t num_vertices,
                             std::span<const graph::Edge> edges,
                             Vertex root, std::span<const Dist> dist,
                             const SsspOptions& options) {
  SsspValidation res;
  auto fail = [&](const std::string& why) {
    res.ok = false;
    res.error = why;
    return res;
  };
  if (dist.size() != num_vertices) return fail("distance array size mismatch");
  if (root < 0 || uint64_t(root) >= num_vertices)
    return fail("root out of range");
  if (dist[size_t(root)] != 0) return fail("dist[root] != 0");

  auto w = [&](Vertex a, Vertex b) {
    return edge_weight(a, b, options.weight_seed, options.max_weight);
  };
  // Rules 2 and 3 over the edge list; count the TEPS numerator.
  for (const graph::Edge& e : edges) {
    if (e.u < 0 || uint64_t(e.u) >= num_vertices || e.v < 0 ||
        uint64_t(e.v) >= num_vertices)
      return fail("edge endpoint out of range");
    bool ru = dist[size_t(e.u)] < kInfDist;
    bool rv = dist[size_t(e.v)] < kInfDist;
    if (ru != rv) return fail("edge connects reached and unreached vertices");
    if (!ru) continue;
    Dist hi = std::max(dist[size_t(e.u)], dist[size_t(e.v)]);
    Dist lo = std::min(dist[size_t(e.u)], dist[size_t(e.v)]);
    if (e.u != e.v && hi - lo > w(e.u, e.v))
      return fail("edge violates the triangle inequality");
    if (e.u != e.v) res.edges_in_component++;
  }
  // Rule 4: tight predecessor for every reached non-root vertex.
  graph::Csr adj = graph::Csr::from_undirected(num_vertices, edges);
  for (uint64_t v = 0; v < num_vertices; ++v) {
    if (dist[v] >= kInfDist) continue;
    ++res.reached;
    if (Vertex(v) == root) continue;
    bool tight = false;
    for (Vertex u : adj.neighbors(v)) {
      if (dist[size_t(u)] >= kInfDist) continue;
      if (dist[size_t(u)] + w(u, Vertex(v)) == dist[v]) {
        tight = true;
        break;
      }
    }
    if (!tight) {
      std::ostringstream os;
      os << "vertex " << v << " has no tight predecessor";
      return fail(os.str());
    }
  }
  res.ok = true;
  return res;
}

std::vector<Dist> reference_sssp(uint64_t num_vertices,
                                 std::span<const graph::Edge> edges,
                                 Vertex root, const SsspOptions& options) {
  graph::Csr adj = graph::Csr::from_undirected(num_vertices, edges);
  std::vector<Dist> dist(num_vertices, kInfDist);
  dist[size_t(root)] = 0;
  using Item = std::pair<Dist, Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  pq.emplace(0, root);
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[size_t(v)]) continue;
    for (Vertex u : adj.neighbors(uint64_t(v))) {
      Dist cand = d + edge_weight(v, u, options.weight_seed,
                                  options.max_weight);
      if (cand < dist[size_t(u)]) {
        dist[size_t(u)] = cand;
        pq.emplace(cand, u);
      }
    }
  }
  return dist;
}

}  // namespace sunbfs::analytics
