#include "analytics/cc.hpp"

#include <functional>
#include <numeric>

#include "analytics/propagate.hpp"
#include "support/check.hpp"

namespace sunbfs::analytics {

using graph::Vertex;

std::vector<Vertex> cc15d(sim::RankContext& ctx,
                          const partition::Part15d& part) {
  PropagateOptions options;
  options.incremental = true;
  PropagationEngine<MinLabelProgram> engine(ctx, part, MinLabelProgram{},
                                            options);
  engine.initialize([](Vertex v) { return v; });
  engine.run();
  return engine.owned_values();
}

std::vector<Vertex> reference_cc(uint64_t num_vertices,
                                 std::span<const graph::Edge> edges) {
  std::vector<Vertex> parent(num_vertices);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<Vertex(Vertex)> find = [&](Vertex v) {
    while (parent[size_t(v)] != v) {
      parent[size_t(v)] = parent[size_t(parent[size_t(v)])];
      v = parent[size_t(v)];
    }
    return v;
  };
  for (const graph::Edge& e : edges) {
    Vertex a = find(e.u), b = find(e.v);
    if (a != b) parent[size_t(std::max(a, b))] = std::min(a, b);
  }
  std::vector<Vertex> label(num_vertices);
  for (uint64_t v = 0; v < num_vertices; ++v) label[v] = find(Vertex(v));
  return label;
}

}  // namespace sunbfs::analytics
