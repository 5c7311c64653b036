#include "graph/validate.hpp"

#include <atomic>
#include <deque>
#include <sstream>

#include "graph/csr.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace sunbfs::graph {

std::vector<Vertex> reference_bfs(uint64_t num_vertices,
                                  std::span<const Edge> edges, Vertex root) {
  SUNBFS_CHECK(root >= 0 && uint64_t(root) < num_vertices);
  Csr adj = Csr::from_undirected(num_vertices, edges);
  std::vector<Vertex> parent(num_vertices, kNoVertex);
  parent[size_t(root)] = root;
  std::deque<Vertex> frontier = {root};
  while (!frontier.empty()) {
    Vertex u = frontier.front();
    frontier.pop_front();
    for (Vertex v : adj.neighbors(uint64_t(u))) {
      if (parent[size_t(v)] == kNoVertex) {
        parent[size_t(v)] = u;
        frontier.push_back(v);
      }
    }
  }
  return parent;
}

std::vector<int64_t> levels_from_parents(uint64_t num_vertices,
                                         std::span<const Vertex> parent,
                                         Vertex root) {
  SUNBFS_CHECK(parent.size() == num_vertices);
  std::vector<int64_t> level(num_vertices, -1);
  level[size_t(root)] = 0;
  for (uint64_t v = 0; v < num_vertices; ++v) {
    if (parent[v] == kNoVertex || level[v] >= 0) continue;
    // Walk up to a vertex with known level, then unwind.
    std::vector<uint64_t> path;
    uint64_t cur = v;
    while (level[cur] < 0) {
      path.push_back(cur);
      SUNBFS_CHECK_MSG(path.size() <= num_vertices,
                       "cycle in parent pointers");
      Vertex p = parent[cur];
      SUNBFS_CHECK_MSG(p >= 0 && uint64_t(p) < num_vertices,
                       "parent out of range");
      cur = uint64_t(p);
    }
    int64_t base = level[cur];
    for (auto it = path.rbegin(); it != path.rend(); ++it)
      level[*it] = ++base;
  }
  return level;
}

ValidationResult validate_bfs(uint64_t num_vertices,
                              std::span<const Edge> edges, Vertex root,
                              std::span<const Vertex> parent,
                              ThreadPool* pool) {
  ValidationResult res;
  const bool threaded = pool && pool->size() > 1;
  // Smallest index in [0, n) where ok(i) is false, or n when all pass.
  // Hunting for the *minimum* failing index keeps the reported violation
  // identical at any thread count.
  auto first_bad = [&](uint64_t n, auto&& ok) -> uint64_t {
    std::atomic<uint64_t> bad{n};
    auto scan = [&](uint64_t lo, uint64_t hi) {
      for (uint64_t i = lo; i < hi; ++i) {
        if (i >= bad.load(std::memory_order_relaxed)) return;
        if (!ok(i)) {
          uint64_t cur = bad.load(std::memory_order_relaxed);
          while (i < cur && !bad.compare_exchange_weak(cur, i)) {
          }
          return;
        }
      }
    };
    if (threaded)
      pool->parallel_for(0, n, [&](size_t lo, size_t hi) { scan(lo, hi); });
    else
      scan(0, n);
    return bad.load();
  };
  // Count of indices in [0, n) satisfying pred (per-chunk partial sums).
  auto par_count = [&](uint64_t n, auto&& pred) -> uint64_t {
    if (!threaded) {
      uint64_t c = 0;
      for (uint64_t i = 0; i < n; ++i)
        if (pred(i)) ++c;
      return c;
    }
    std::atomic<uint64_t> total{0};
    pool->parallel_for(0, n, [&](size_t lo, size_t hi) {
      uint64_t c = 0;
      for (uint64_t i = lo; i < hi; ++i)
        if (pred(i)) ++c;
      total.fetch_add(c, std::memory_order_relaxed);
    });
    return total.load();
  };
  auto fail = [&](const std::string& why) {
    res.ok = false;
    res.error = why;
    return res;
  };
  if (parent.size() != num_vertices) return fail("parent array size mismatch");
  if (root < 0 || uint64_t(root) >= num_vertices)
    return fail("root out of range");
  if (parent[size_t(root)] != root) return fail("parent[root] != root");

  // Rule 2: tree structure (level computation detects cycles / bad parents).
  std::vector<int64_t> level;
  try {
    level = levels_from_parents(num_vertices, parent, root);
  } catch (const CheckError& e) {
    return fail(e.what());
  }
  for (uint64_t v = 0; v < num_vertices; ++v) {
    if (parent[v] != kNoVertex && level[v] < 0)
      return fail("vertex with parent not connected to root");
    if (parent[v] == kNoVertex && level[v] >= 0 && Vertex(v) != root)
      return fail("reached vertex without parent");
  }

  // Rule 3: every tree edge must exist in the input.  One pass over the
  // edges marks each vertex v that some edge joins to parent[v].
  std::vector<std::atomic<bool>> has_tree_edge(num_vertices);
  auto in_range = [&](Vertex x) {
    return x >= 0 && uint64_t(x) < num_vertices;
  };
  auto mark = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const Edge& e = edges[i];
      if (!in_range(e.u) || !in_range(e.v)) continue;  // rule 4 names these
      if (parent[size_t(e.v)] == e.u)
        has_tree_edge[size_t(e.v)].store(true, std::memory_order_relaxed);
      if (parent[size_t(e.u)] == e.v)
        has_tree_edge[size_t(e.u)].store(true, std::memory_order_relaxed);
    }
  };
  if (threaded)
    pool->parallel_for(0, edges.size(), mark);
  else
    mark(0, edges.size());
  auto tree_edge_in_graph = [&](uint64_t v) {
    return has_tree_edge[v].load(std::memory_order_relaxed);
  };
  uint64_t bad_v = first_bad(num_vertices, [&](uint64_t v) {
    if (parent[v] == kNoVertex || Vertex(v) == root) return true;
    return tree_edge_in_graph(v) && level[v] == level[size_t(parent[v])] + 1;
  });
  if (bad_v < num_vertices) {
    // Re-derive which rule the first offender broke.
    if (!tree_edge_in_graph(bad_v)) {
      std::ostringstream os;
      os << "tree edge (" << bad_v << ", " << parent[bad_v]
         << ") not in graph";
      return fail(os.str());
    }
    return fail("tree edge does not connect adjacent levels");
  }

  // Rule 4 + 5: level difference over input edges; component spanning;
  // TEPS numerator.
  uint64_t bad_e = first_bad(edges.size(), [&](uint64_t i) {
    const Edge& e = edges[i];
    if (e.u < 0 || uint64_t(e.u) >= num_vertices || e.v < 0 ||
        uint64_t(e.v) >= num_vertices)
      return false;
    bool ru = level[size_t(e.u)] >= 0;
    bool rv = level[size_t(e.v)] >= 0;
    if (ru != rv) return false;
    if (ru && rv) {
      int64_t d = level[size_t(e.u)] - level[size_t(e.v)];
      if (d < -1 || d > 1) return false;
    }
    return true;
  });
  if (bad_e < edges.size()) {
    const Edge& e = edges[bad_e];
    if (e.u < 0 || uint64_t(e.u) >= num_vertices || e.v < 0 ||
        uint64_t(e.v) >= num_vertices)
      return fail("edge endpoint out of range");
    if ((level[size_t(e.u)] >= 0) != (level[size_t(e.v)] >= 0))
      return fail("edge connects reached and unreached vertices");
    return fail("edge spans more than one level");
  }
  res.edges_in_component = par_count(edges.size(), [&](uint64_t i) {
    const Edge& e = edges[i];
    return level[size_t(e.u)] >= 0 && level[size_t(e.v)] >= 0 && e.u != e.v;
  });
  res.reached =
      par_count(num_vertices, [&](uint64_t v) { return level[v] >= 0; });

  res.ok = true;
  return res;
}

}  // namespace sunbfs::graph
