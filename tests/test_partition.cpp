// Tests for the partitioning substrate: vertex space arithmetic, distributed
// degree computation, E/H/L classification, the six-subgraph 1.5D partition
// (edge conservation + placement rules) and the vanilla 1D baseline.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "bfs/bfs15d.hpp"
#include "bfs/workspace.hpp"
#include "graph/rmat.hpp"
#include "graph/csr.hpp"
#include "partition/balance.hpp"
#include "partition/classify.hpp"
#include "partition/part15d.hpp"
#include "partition/part1d.hpp"
#include "sim/runtime.hpp"

namespace sunbfs::partition {
namespace {

using graph::Edge;
using graph::Graph500Config;
using graph::Vertex;

std::vector<Edge> slice_of(const Graph500Config& cfg, int rank, int nranks) {
  uint64_t m = cfg.num_edges();
  return graph::generate_rmat_range(cfg, m * uint64_t(rank) / uint64_t(nranks),
                                    m * uint64_t(rank + 1) / uint64_t(nranks));
}

TEST(VertexSpace, OwnerMatchesIntervals) {
  VertexSpace s{1000, 7};
  uint64_t covered = 0;
  for (int r = 0; r < 7; ++r) {
    EXPECT_LE(s.begin(r), s.end(r));
    covered += s.count(r);
    for (uint64_t v = s.begin(r); v < s.end(r); ++v) {
      ASSERT_EQ(s.owner(Vertex(v)), r);
      ASSERT_EQ(s.to_local(r, Vertex(v)), v - s.begin(r));
      ASSERT_EQ(s.to_global(r, v - s.begin(r)), Vertex(v));
    }
  }
  EXPECT_EQ(covered, 1000u);
  EXPECT_GE(s.max_count(), 1000u / 7);
}

TEST(VertexSpace, TinySpaces) {
  VertexSpace s{3, 8};  // more ranks than vertices
  for (uint64_t v = 0; v < 3; ++v) {
    int r = s.owner(Vertex(v));
    EXPECT_GE(uint64_t(v), s.begin(r));
    EXPECT_LT(uint64_t(v), s.end(r));
  }
}

TEST(Degrees, MatchSerialComputation) {
  Graph500Config cfg;
  cfg.scale = 10;
  auto all = generate_rmat(cfg);
  auto expected = graph::undirected_degrees(cfg.num_vertices(), all);

  sim::MeshShape mesh{2, 2};
  VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  std::vector<std::vector<uint64_t>> got(size_t(mesh.ranks()));
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    got[size_t(ctx.rank)] = compute_local_degrees(ctx, space, slice);
  });
  for (int r = 0; r < mesh.ranks(); ++r)
    for (uint64_t l = 0; l < space.count(r); ++l)
      ASSERT_EQ(got[size_t(r)][l], expected[space.begin(r) + l])
          << "rank " << r << " local " << l;
}

TEST(Classify, ThresholdsSplitClasses) {
  Graph500Config cfg;
  cfg.scale = 12;
  auto all = generate_rmat(cfg);
  auto degrees = graph::undirected_degrees(cfg.num_vertices(), all);

  sim::MeshShape mesh{2, 2};
  VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  DegreeThresholds th{256, 64};
  std::vector<EhlTable> tables(size_t(mesh.ranks()));
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto local_deg = compute_local_degrees(ctx, space, slice);
    tables[size_t(ctx.rank)] = classify_vertices(ctx, space, local_deg, th);
  });
  const EhlTable& t = tables[0];
  // All ranks agree.
  for (const auto& other : tables) {
    ASSERT_EQ(other.num_eh(), t.num_eh());
    ASSERT_EQ(other.num_e(), t.num_e());
    for (uint64_t k = 0; k < t.num_eh(); ++k)
      ASSERT_EQ(other.eh_to_global(k), t.eh_to_global(k));
  }
  // Membership matches degrees exactly.
  uint64_t expected_eh = 0, expected_e = 0;
  for (uint64_t v = 0; v < cfg.num_vertices(); ++v) {
    if (degrees[v] >= th.h) ++expected_eh;
    if (degrees[v] >= th.e) ++expected_e;
    EXPECT_EQ(t.is_eh(Vertex(v)), degrees[v] >= th.h);
  }
  EXPECT_EQ(t.num_eh(), expected_eh);
  EXPECT_EQ(t.num_e(), expected_e);
  EXPECT_GT(t.num_eh(), 0u);
  EXPECT_GT(t.num_e(), 0u);
  EXPECT_GT(t.num_h(), 0u);
  // EH ids ordered by degree descending.
  for (uint64_t k = 1; k < t.num_eh(); ++k)
    EXPECT_GE(t.eh_degree(k - 1), t.eh_degree(k));
  // E ids form the prefix.
  for (uint64_t k = 0; k < t.num_eh(); ++k)
    EXPECT_EQ(t.is_e(k), t.eh_degree(k) >= th.e);
}

TEST(Classify, RejectsInvertedThresholds) {
  EXPECT_THROW(EhlTable(DegreeThresholds{10, 20}, {}), CheckError);
}

// Shared fixture: build the 1.5D partition on a mesh and check global
// invariants against the serially generated graph.
class Part15dTest : public ::testing::TestWithParam<sim::MeshShape> {};

TEST_P(Part15dTest, ConservesEveryEdgeWithCorrectPlacement) {
  sim::MeshShape mesh = GetParam();
  Graph500Config cfg;
  cfg.scale = 11;
  auto all = generate_rmat(cfg);
  auto degrees = graph::undirected_degrees(cfg.num_vertices(), all);
  VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  DegreeThresholds th{128, 32};

  std::vector<Part15d> parts(size_t(mesh.ranks()));
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto local_deg = compute_local_degrees(ctx, space, slice);
    parts[size_t(ctx.rank)] =
        build_15d(ctx, space, slice, local_deg, th);
  });

  const EhlTable& cls = parts[0].cls;
  const CyclicSpace eh_space = parts[0].eh_space;

  // Expected arc multiset per component, derived serially.
  uint64_t expect_eh2eh = 0, expect_el = 0, expect_hl = 0, expect_ll = 0;
  for (const Edge& e : all) {
    bool ue = cls.is_eh(e.u), ve = cls.is_eh(e.v);
    if (ue && ve)
      expect_eh2eh += 2;  // both orientations, self loops twice
    else if (ue || ve) {
      uint64_t k = cls.eh_of(ue ? e.u : e.v);
      (cls.is_e(k) ? expect_el : expect_hl) += 1;
    } else
      expect_ll += 2;
  }

  uint64_t got_eh2eh = 0, got_e2l = 0, got_l2e = 0, got_h2l = 0, got_l2h = 0,
           got_l2l = 0;
  for (int r = 0; r < mesh.ranks(); ++r) {
    const Part15d& p = parts[size_t(r)];
    got_eh2eh += p.eh2eh.num_arcs();
    got_e2l += p.e2l.num_arcs();
    got_l2e += p.l2e.num_arcs();
    got_h2l += p.h2l.num_arcs();
    got_l2h += p.l2h.num_arcs();
    got_l2l += p.l2l.num_arcs();
    // Reverse orientation is arc-for-arc.
    EXPECT_EQ(p.eh2eh.num_arcs(), p.eh2eh_rev.num_arcs());
    EXPECT_EQ(p.e2l.num_arcs(), p.l2e.num_arcs());

    // Placement rules.
    int myrow = mesh.row_of(r), mycol = mesh.col_of(r);
    for (uint64_t x = 0; x < p.eh2eh.num_rows(); ++x) {
      if (p.eh2eh.degree(x) == 0) continue;
      EXPECT_EQ(mesh.col_of(eh_space.owner(Vertex(x))), mycol);
      for (Vertex y : p.eh2eh.neighbors(x))
        EXPECT_EQ(mesh.row_of(eh_space.owner(y)), myrow);
    }
    for (uint64_t h = 0; h < p.h2l.num_rows(); ++h) {
      if (p.h2l.degree(h) == 0) continue;
      EXPECT_FALSE(cls.is_e(h));  // rows of h2l are H vertices
      EXPECT_EQ(mesh.col_of(eh_space.owner(Vertex(h))), mycol);
      for (Vertex l : p.h2l.neighbors(h)) {
        EXPECT_FALSE(cls.is_eh(l));
        EXPECT_EQ(mesh.row_of(space.owner(l)), myrow);  // intra-row push
      }
    }
    for (uint64_t l = 0; l < p.l2h.num_rows(); ++l) {
      if (p.l2h.degree(l) == 0) continue;
      EXPECT_FALSE(p.local_is_eh.get(l));  // rows are local L vertices
      for (Vertex h : p.l2h.neighbors(l))
        EXPECT_FALSE(cls.is_e(uint64_t(h)));
    }
    for (uint64_t e = 0; e < p.e2l.num_rows(); ++e) {
      if (p.e2l.degree(e) == 0) continue;
      EXPECT_TRUE(cls.is_e(e));
      for (Vertex lloc : p.e2l.neighbors(e))
        EXPECT_FALSE(p.local_is_eh.get(uint64_t(lloc)));
    }
  }
  EXPECT_EQ(got_eh2eh, expect_eh2eh);
  EXPECT_EQ(got_e2l, expect_el);
  EXPECT_EQ(got_l2e, expect_el);
  EXPECT_EQ(got_h2l, expect_hl);
  EXPECT_EQ(got_l2h, expect_hl);
  EXPECT_EQ(got_l2l, expect_ll);
}

INSTANTIATE_TEST_SUITE_P(Meshes, Part15dTest,
                         ::testing::Values(sim::MeshShape{1, 1},
                                           sim::MeshShape{1, 4},
                                           sim::MeshShape{4, 1},
                                           sim::MeshShape{2, 2},
                                           sim::MeshShape{2, 3},
                                           sim::MeshShape{3, 2}));

TEST(Part15d, DegenerateNoHeavy) {
  // h == e: |H| = 0 — the paper's "1D with heavy delegates" degeneration.
  Graph500Config cfg;
  cfg.scale = 10;
  sim::MeshShape mesh{2, 2};
  VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  std::vector<Part15d> parts(size_t(mesh.ranks()));
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto deg = compute_local_degrees(ctx, space, slice);
    parts[size_t(ctx.rank)] =
        build_15d(ctx, space, slice, deg, DegreeThresholds{64, 64});
  });
  EXPECT_EQ(parts[0].cls.num_h(), 0u);
  for (const auto& p : parts) {
    EXPECT_EQ(p.h2l.num_arcs(), 0u);
    EXPECT_EQ(p.l2h.num_arcs(), 0u);
  }
}

TEST(Part15d, DegenerateNoLight) {
  // h <= min degree: |L| = 0 — the 2D degeneration.
  Graph500Config cfg;
  cfg.scale = 9;
  sim::MeshShape mesh{2, 2};
  VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  std::vector<Part15d> parts(size_t(mesh.ranks()));
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto deg = compute_local_degrees(ctx, space, slice);
    parts[size_t(ctx.rank)] =
        build_15d(ctx, space, slice, deg, DegreeThresholds{1024, 0});
  });
  for (const auto& p : parts) {
    EXPECT_EQ(p.e2l.num_arcs(), 0u);
    EXPECT_EQ(p.l2l.num_arcs(), 0u);
    EXPECT_EQ(p.h2l.num_arcs(), 0u);
  }
  // Every vertex that has an edge is EH. Isolated vertices may remain L.
  uint64_t total_eh2eh = 0;
  for (const auto& p : parts) total_eh2eh += p.eh2eh.num_arcs();
  auto all = generate_rmat(cfg);
  EXPECT_EQ(total_eh2eh, 2 * all.size());
}

TEST(Part15d, BalanceReportCoversAllRanks) {
  Graph500Config cfg;
  cfg.scale = 12;
  sim::MeshShape mesh{2, 4};
  VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  std::vector<BalanceReport> reports(size_t(mesh.ranks()));
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto deg = compute_local_degrees(ctx, space, slice);
    auto part = build_15d(ctx, space, slice, deg, DegreeThresholds{256, 64});
    reports[size_t(ctx.rank)] = gather_balance(ctx, part);
  });
  const auto& rep = reports[0];
  for (int s = 0; s < kSubgraphCount; ++s) {
    EXPECT_EQ(rep.per_subgraph[size_t(s)].n, uint64_t(mesh.ranks()));
    EXPECT_EQ(rep.per_rank_counts[size_t(s)].size(), size_t(mesh.ranks()));
  }
  // The headline claim of §6.2.2: the big subgraphs spread only a few
  // percent between ranks.  Loose bound at this tiny scale.
  EXPECT_LT(rep.per_subgraph[int(Subgraph::L2L)].spread(), 0.3);
}

TEST(Part1d, StoresFullAdjacencyAtOwners) {
  Graph500Config cfg;
  cfg.scale = 10;
  auto all = generate_rmat(cfg);
  sim::MeshShape mesh{2, 2};
  VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  std::vector<Part1d> parts(size_t(mesh.ranks()));
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    parts[size_t(ctx.rank)] = build_1d(ctx, space, slice);
  });
  // Distributed adjacency equals the serial symmetric adjacency.
  auto ref = graph::Csr::from_undirected(cfg.num_vertices(), all);
  for (int r = 0; r < mesh.ranks(); ++r) {
    const Part1d& p = parts[size_t(r)];
    for (uint64_t l = 0; l < space.count(r); ++l) {
      uint64_t g = space.begin(r) + l;
      auto got = p.adj.neighbors(l);
      auto want = ref.neighbors(g);
      std::multiset<Vertex> gs(got.begin(), got.end());
      std::multiset<Vertex> ws(want.begin(), want.end());
      ASSERT_EQ(gs, ws) << "vertex " << g;
    }
  }
}

TEST(CyclicSpace, DealsIdsRoundRobin) {
  CyclicSpace s{10, 3};
  EXPECT_EQ(s.owner(0), 0);
  EXPECT_EQ(s.owner(1), 1);
  EXPECT_EQ(s.owner(2), 2);
  EXPECT_EQ(s.owner(3), 0);
  EXPECT_EQ(s.count(0), 4u);  // 0,3,6,9
  EXPECT_EQ(s.count(1), 3u);  // 1,4,7
  EXPECT_EQ(s.count(2), 3u);  // 2,5,8
  EXPECT_EQ(s.max_count(), 4u);
  uint64_t covered = 0;
  for (int r = 0; r < 3; ++r) {
    for (uint64_t i = 0; i < s.count(r); ++i) {
      Vertex g = s.to_global(r, i);
      ASSERT_EQ(s.owner(g), r);
      ASSERT_EQ(s.to_local(r, g), i);
      ++covered;
    }
  }
  EXPECT_EQ(covered, 10u);
}

TEST(CyclicSpace, EmptyAndSingleton) {
  CyclicSpace empty{0, 4};
  for (int r = 0; r < 4; ++r) EXPECT_EQ(empty.count(r), 0u);
  CyclicSpace one{1, 4};
  EXPECT_EQ(one.owner(0), 0);
  EXPECT_EQ(one.count(0), 1u);
  EXPECT_EQ(one.count(3), 0u);
}

TEST(EhlTable, EhOfReturnsNotEhForLightVertices) {
  EhlTable t(DegreeThresholds{100, 10}, {{150, 7}, {50, 3}});
  EXPECT_EQ(t.num_eh(), 2u);
  EXPECT_EQ(t.num_e(), 1u);
  EXPECT_TRUE(t.is_e(0));
  EXPECT_FALSE(t.is_e(1));
  EXPECT_EQ(t.eh_of(7), 0u);
  EXPECT_EQ(t.eh_of(3), 1u);
  EXPECT_EQ(t.eh_of(999), EhlTable::kNotEh);
  EXPECT_FALSE(t.is_eh(999));
  EXPECT_EQ(t.eh_to_global(1), 3);
  EXPECT_EQ(t.eh_degree(0), 150u);
}

TEST(Part15d, H2lMirrorsAgreeArcForArc) {
  Graph500Config cfg;
  cfg.scale = 10;
  sim::MeshShape mesh{2, 3};
  VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto deg = compute_local_degrees(ctx, space, slice);
    auto part = build_15d(ctx, space, slice, deg, {128, 16});
    // Same arcs, two orientations, same rank.
    EXPECT_EQ(part.h2l.num_arcs(), part.h2l_by_l.num_arcs());
    // Row-local offsets cover exactly the ranks of this row.
    ASSERT_EQ(part.row_l_offsets.size(), size_t(ctx.mesh.cols) + 1);
    uint64_t total = 0;
    for (int c = 0; c < ctx.mesh.cols; ++c)
      total += space.count(ctx.mesh.rank_of(ctx.row_index(), c));
    EXPECT_EQ(part.row_l_offsets.back(), total);
    EXPECT_EQ(part.h2l_by_l.num_rows(), total);
  });
}

// The arc sort (PARADIS, unstable) runs on the rank's own pool; CSR
// neighbour order is its equal-key order, so every subgraph — and the BFS
// parents built on them — must be bit-identical at any pool size.
TEST(Part15d, ArcSortPoolSizeLeavesPartitionAndParentsIdentical) {
  Graph500Config cfg;
  cfg.scale = 12;
  cfg.seed = 3;
  sim::MeshShape mesh{2, 2};
  VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  const Vertex root = slice_of(cfg, 0, 1).front().u;
  // Per rank: every CSR array of the partition, then the parent slice.
  using Dump = std::vector<std::vector<int64_t>>;
  auto build = [&](size_t threads) {
    std::vector<Dump> dumps(size_t(mesh.ranks()));
    sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
      bfs::BfsWorkspace ws(std::max<size_t>(threads, 1));
      auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
      auto deg = compute_local_degrees(ctx, space, slice);
      auto part = build_15d(ctx, space, slice, deg, {128, 32},
                            threads == 0 ? nullptr : &ws.pool());
      Dump& d = dumps[size_t(ctx.rank)];
      for (const graph::Csr* c :
           {&part.eh2eh, &part.eh2eh_rev, &part.e2l, &part.l2e, &part.h2l,
            &part.h2l_by_l, &part.l2h, &part.l2l}) {
        d.emplace_back(c->offsets().begin(), c->offsets().end());
        d.emplace_back(c->values().begin(), c->values().end());
      }
      bfs::Bfs15dOptions o;
      o.workspace = &ws;
      const auto res = bfs::bfs15d_run(ctx, part, root, o);
      d.emplace_back(res.parent.begin(), res.parent.end());
    });
    return dumps;
  };
  const std::vector<Dump> serial = build(0);  // null pool: calling thread
  for (size_t threads : {1, 2, 4})
    EXPECT_EQ(build(threads), serial) << threads << " threads per rank";
}

TEST(Subgraph, NamesAreStable) {
  EXPECT_STREQ(subgraph_name(Subgraph::EH2EH), "EH2EH");
  EXPECT_STREQ(subgraph_name(Subgraph::L2L), "L2L");
}

}  // namespace
}  // namespace sunbfs::partition
