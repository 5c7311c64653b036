// Tests for the analytics built on the 1.5D partition (the paper's §8
// algorithm-neutrality claim): connected components, PageRank and SSSP all
// match serial references exactly (CC/SSSP) or within FP tolerance (PR).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "analytics/cc.hpp"
#include "analytics/propagate.hpp"
#include "analytics/pagerank.hpp"
#include "analytics/sssp.hpp"
#include "analytics/sssp_runner.hpp"
#include "graph/validate.hpp"
#include "graph/csr.hpp"
#include "graph/rmat.hpp"
#include "sim/runtime.hpp"

namespace sunbfs::analytics {
namespace {

using graph::Edge;
using graph::Graph500Config;
using graph::Vertex;

std::vector<Edge> slice_of(const Graph500Config& cfg, int rank, int nranks) {
  uint64_t m = cfg.num_edges();
  return graph::generate_rmat_range(cfg, m * uint64_t(rank) / uint64_t(nranks),
                                    m * uint64_t(rank + 1) / uint64_t(nranks));
}

struct Built {
  partition::VertexSpace space;
  partition::Part15d part;
  std::vector<uint64_t> degrees;
};

Built build(sim::RankContext& ctx, const Graph500Config& cfg,
            partition::DegreeThresholds th) {
  Built b;
  b.space = partition::VertexSpace{cfg.num_vertices(), ctx.nranks()};
  auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
  b.degrees = partition::compute_local_degrees(ctx, b.space, slice);
  b.part = partition::build_15d(ctx, b.space, slice, b.degrees, th);
  return b;
}

struct MeshCase {
  int rows, cols;
};

class AnalyticsMeshes : public ::testing::TestWithParam<MeshCase> {};

TEST_P(AnalyticsMeshes, ConnectedComponentsMatchUnionFind) {
  auto mc = GetParam();
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 17;
  std::vector<Vertex> got;
  sim::run_spmd(sim::MeshShape{mc.rows, mc.cols}, [&](sim::RankContext& ctx) {
    auto b = build(ctx, cfg, {128, 32});
    auto labels = cc15d(ctx, b.part);
    auto gathered = ctx.world.allgatherv(std::span<const Vertex>(labels));
    if (ctx.rank == 0) got = std::move(gathered);
  });
  auto edges = graph::generate_rmat(cfg);
  auto ref = reference_cc(cfg.num_vertices(), edges);
  ASSERT_EQ(got.size(), ref.size());
  for (uint64_t v = 0; v < cfg.num_vertices(); ++v)
    ASSERT_EQ(got[v], ref[v]) << "vertex " << v;
}

TEST_P(AnalyticsMeshes, PageRankMatchesReference) {
  auto mc = GetParam();
  Graph500Config cfg;
  cfg.scale = 9;
  cfg.seed = 23;
  PageRankOptions opts;
  opts.max_iterations = 30;
  opts.tolerance = 0;  // fixed iteration count for exact comparability
  std::vector<double> got;
  sim::run_spmd(sim::MeshShape{mc.rows, mc.cols}, [&](sim::RankContext& ctx) {
    auto b = build(ctx, cfg, {64, 16});
    auto ranks = pagerank15d(ctx, b.part, b.degrees, opts);
    auto gathered = ctx.world.allgatherv(std::span<const double>(ranks));
    if (ctx.rank == 0) got = std::move(gathered);
  });
  auto edges = graph::generate_rmat(cfg);
  auto ref = reference_pagerank(cfg.num_vertices(), edges, opts);
  double sum = 0;
  for (uint64_t v = 0; v < cfg.num_vertices(); ++v) {
    ASSERT_NEAR(got[v], ref[v], 1e-9) << "vertex " << v;
    sum += got[v];
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST_P(AnalyticsMeshes, SsspMatchesDijkstra) {
  auto mc = GetParam();
  Graph500Config cfg;
  cfg.scale = 9;
  cfg.seed = 29;
  auto edges = graph::generate_rmat(cfg);
  Vertex root = edges[5].u;
  std::vector<Dist> got;
  sim::run_spmd(sim::MeshShape{mc.rows, mc.cols}, [&](sim::RankContext& ctx) {
    auto b = build(ctx, cfg, {64, 16});
    auto dist = sssp15d(ctx, b.part, root);
    auto gathered = ctx.world.allgatherv(std::span<const Dist>(dist));
    if (ctx.rank == 0) got = std::move(gathered);
  });
  auto ref = reference_sssp(cfg.num_vertices(), edges, root);
  for (uint64_t v = 0; v < cfg.num_vertices(); ++v)
    ASSERT_EQ(got[v], ref[v]) << "vertex " << v;
}

INSTANTIATE_TEST_SUITE_P(Meshes, AnalyticsMeshes,
                         ::testing::Values(MeshCase{1, 1}, MeshCase{2, 2},
                                           MeshCase{2, 3}));

TEST(EdgeWeight, SymmetricDeterministicBounded) {
  for (uint64_t s : {1ull, 42ull}) {
    for (Vertex u = 0; u < 50; ++u) {
      for (Vertex v = u; v < 50; ++v) {
        Dist w1 = edge_weight(u, v, s, 100);
        Dist w2 = edge_weight(v, u, s, 100);
        ASSERT_EQ(w1, w2);
        ASSERT_GE(w1, 1u);
        ASSERT_LE(w1, 100u);
      }
    }
  }
  EXPECT_NE(edge_weight(1, 2, 1), edge_weight(1, 3, 1));
}

TEST(Sssp, UnreachableVerticesStayInfinite) {
  Graph500Config cfg;
  cfg.scale = 9;
  auto edges = graph::generate_rmat(cfg);
  auto deg = graph::undirected_degrees(cfg.num_vertices(), edges);
  Vertex root = edges[0].u;
  std::vector<Dist> got;
  sim::run_spmd(sim::MeshShape{2, 2}, [&](sim::RankContext& ctx) {
    auto b = build(ctx, cfg, {64, 16});
    auto dist = sssp15d(ctx, b.part, root);
    auto gathered = ctx.world.allgatherv(std::span<const Dist>(dist));
    if (ctx.rank == 0) got = std::move(gathered);
  });
  bool any_inf = false;
  for (uint64_t v = 0; v < cfg.num_vertices(); ++v) {
    if (deg[v] == 0 && Vertex(v) != root) {
      EXPECT_EQ(got[v], kInfDist);
      any_inf = true;
    }
  }
  EXPECT_TRUE(any_inf);
}

TEST(Cc, ComponentCountMatches) {
  Graph500Config cfg;
  cfg.scale = 11;
  cfg.seed = 3;
  std::vector<Vertex> got;
  sim::run_spmd(sim::MeshShape{1, 4}, [&](sim::RankContext& ctx) {
    auto b = build(ctx, cfg, {128, 32});
    auto labels = cc15d(ctx, b.part);
    auto gathered = ctx.world.allgatherv(std::span<const Vertex>(labels));
    if (ctx.rank == 0) got = std::move(gathered);
  });
  auto edges = graph::generate_rmat(cfg);
  auto ref = reference_cc(cfg.num_vertices(), edges);
  std::set<Vertex> got_comps(got.begin(), got.end());
  std::set<Vertex> ref_comps(ref.begin(), ref.end());
  EXPECT_EQ(got_comps.size(), ref_comps.size());
}


// ------------------------------------------------- propagation framework

// Custom program: every vertex learns the maximum vertex id in its
// component (the dual of cc15d's min-label program).
struct MaxLabelProgram {
  using Value = Vertex;
  Value identity() const { return -1; }
  Value combine(Value a, Value b) const { return std::max(a, b); }
  Value contribution(Value u_value, Vertex, Vertex) const { return u_value; }
  bool update(Value& state, const Value& gathered) const {
    if (gathered > state) {
      state = gathered;
      return true;
    }
    return false;
  }
};

TEST(Propagate, CustomMaxLabelProgramFindsComponentMax) {
  Graph500Config cfg;
  cfg.scale = 9;
  cfg.seed = 41;
  std::vector<Vertex> got;
  sim::run_spmd(sim::MeshShape{2, 2}, [&](sim::RankContext& ctx) {
    auto b = build(ctx, cfg, {64, 16});
    PropagationEngine<MaxLabelProgram> engine(ctx, b.part, {});
    engine.initialize([](Vertex v) { return v; });
    auto res = engine.run();
    EXPECT_TRUE(res.converged);
    EXPECT_GT(res.rounds, 1);
    auto gathered = ctx.world.allgatherv(
        std::span<const Vertex>(engine.owned_values()));
    if (ctx.rank == 0) got = std::move(gathered);
  });
  // Reference: max id per union-find component.
  auto edges = graph::generate_rmat(cfg);
  auto ref_min = reference_cc(cfg.num_vertices(), edges);
  std::map<Vertex, Vertex> comp_max;
  for (uint64_t v = 0; v < cfg.num_vertices(); ++v) {
    auto [it, ok] = comp_max.try_emplace(ref_min[v], Vertex(v));
    if (!ok) it->second = std::max(it->second, Vertex(v));
  }
  for (uint64_t v = 0; v < cfg.num_vertices(); ++v)
    ASSERT_EQ(got[v], comp_max[ref_min[v]]) << "vertex " << v;
}

// Custom program with a non-idempotent gather: each vertex sums its
// neighbors' initial weights (one round = a sparse matrix-vector product).
struct NeighborSumProgram {
  using Value = uint64_t;
  Value identity() const { return 0; }
  Value combine(Value a, Value b) const { return a + b; }
  Value contribution(Value u_value, Vertex, Vertex) const { return u_value; }
  bool update(Value& state, const Value& gathered) const {
    state = gathered;
    return false;  // single-shot
  }
};

TEST(Propagate, NonIdempotentGatherCountsEveryArcOnce) {
  Graph500Config cfg;
  cfg.scale = 9;
  cfg.seed = 43;
  std::vector<uint64_t> got;
  sim::run_spmd(sim::MeshShape{2, 3}, [&](sim::RankContext& ctx) {
    auto b = build(ctx, cfg, {64, 16});
    PropagationEngine<NeighborSumProgram> engine(ctx, b.part, {});
    engine.initialize([](Vertex v) { return uint64_t(v) + 1; });
    engine.step();
    auto gathered = ctx.world.allgatherv(
        std::span<const uint64_t>(engine.owned_values()));
    if (ctx.rank == 0) got = std::move(gathered);
  });
  // Reference SpMV: sum over the symmetric adjacency (self loops twice).
  auto edges = graph::generate_rmat(cfg);
  auto adj = graph::Csr::from_undirected(cfg.num_vertices(), edges);
  for (uint64_t v = 0; v < cfg.num_vertices(); ++v) {
    uint64_t want = 0;
    for (Vertex u : adj.neighbors(v)) want += uint64_t(u) + 1;
    ASSERT_EQ(got[v], want) << "vertex " << v;
  }
}

// The L→L channel is primed at construction from the partition's own arc
// count: no round afterwards grows a staging buffer, for SSSP relaxation
// and min-label CC, direct and staged, on a power-of-two mesh and one with
// butterfly tail ranks.
TEST(Propagate, StagingAllocsFlatAfterConstruction) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 53;
  const Vertex root = graph::generate_rmat(cfg)[5].u;
  for (MeshCase mc : {MeshCase{2, 2}, MeshCase{2, 3}}) {
    for (sim::ExchangeBackend backend :
         {sim::ExchangeBackend::Direct, sim::ExchangeBackend::Butterfly}) {
      SCOPED_TRACE(std::to_string(mc.rows) + "x" + std::to_string(mc.cols) +
                   " " + sim::exchange_backend_name(backend));
      const int nranks = mc.rows * mc.cols;
      std::vector<uint64_t> growth(size_t(nranks), 0);
      std::vector<int> rounds(size_t(nranks), 0);
      sim::run_spmd(sim::MeshShape{mc.rows, mc.cols},
                    [&](sim::RankContext& ctx) {
        auto b = build(ctx, cfg, {128, 32});
        PropagateOptions opts;
        opts.incremental = true;
        opts.exchange.backend = backend;
        auto drive = [&](auto& engine) {
          const uint64_t primed = engine.staging_allocs();
          while (engine.step()) ++rounds[size_t(ctx.rank)];
          growth[size_t(ctx.rank)] += engine.staging_allocs() - primed;
        };
        PropagationEngine<RelaxProgram> sssp(ctx, b.part,
                                             RelaxProgram{42, 255}, opts);
        sssp.initialize([&](Vertex v) { return v == root ? 0 : kInfDist; });
        drive(sssp);
        PropagationEngine<MinLabelProgram> cc(ctx, b.part, MinLabelProgram{},
                                              opts);
        cc.initialize([](Vertex v) { return v; });
        drive(cc);
      });
      for (int r = 0; r < nranks; ++r) {
        EXPECT_EQ(growth[size_t(r)], 0u) << "rank " << r;
        EXPECT_GT(rounds[size_t(r)], 2) << "rank " << r;
      }
    }
  }
}

// ------------------------------------------------------- SSSP validation

TEST(SsspValidate, AcceptsExactDistancesRejectsPerturbations) {
  Graph500Config cfg;
  cfg.scale = 9;
  cfg.seed = 47;
  auto edges = graph::generate_rmat(cfg);
  Vertex root = edges[3].u;
  auto dist = reference_sssp(cfg.num_vertices(), edges, root);
  auto ok = validate_sssp(cfg.num_vertices(), edges, root, dist);
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_GT(ok.reached, 0u);
  EXPECT_GT(ok.edges_in_component, 0u);

  // Perturbations must be rejected.
  auto too_small = dist;
  for (uint64_t v = 0; v < cfg.num_vertices(); ++v)
    if (Vertex(v) != root && too_small[v] < kInfDist && too_small[v] > 0) {
      too_small[v] -= 1;  // no longer has a tight predecessor or violates (3)
      break;
    }
  EXPECT_FALSE(validate_sssp(cfg.num_vertices(), edges, root, too_small).ok);

  auto wrong_root = dist;
  wrong_root[size_t(root)] = 1;
  EXPECT_FALSE(validate_sssp(cfg.num_vertices(), edges, root, wrong_root).ok);

  auto cut = dist;
  for (uint64_t v = 0; v < cfg.num_vertices(); ++v)
    if (Vertex(v) != root && cut[v] < kInfDist) {
      cut[v] = kInfDist;  // reached vertex declared unreachable
      break;
    }
  EXPECT_FALSE(validate_sssp(cfg.num_vertices(), edges, root, cut).ok);
}

TEST(SsspRunner, EndToEndValidates) {
  SsspRunnerConfig cfg;
  cfg.graph.scale = 10;
  cfg.graph.seed = 51;
  cfg.thresholds = {128, 32};
  cfg.num_roots = 3;
  sim::Topology topo(sim::MeshShape{2, 2});
  auto result = run_graph500_sssp(topo, cfg);
  EXPECT_TRUE(result.all_valid);
  EXPECT_EQ(result.runs.size(), 3u);
  EXPECT_GT(result.harmonic_gteps, 0.0);
  for (const auto& r : result.runs) {
    EXPECT_TRUE(r.valid) << r.error;
    EXPECT_GT(r.traversed_edges, 0u);
  }
}

TEST(SsspRunner, BfsAndSsspAgreeOnReachability) {
  // Kernel 2 and kernel 3 must reach the same component from the same key.
  Graph500Config cfg;
  cfg.scale = 9;
  cfg.seed = 53;
  auto edges = graph::generate_rmat(cfg);
  Vertex root = edges[9].u;
  auto bfs_parent = graph::reference_bfs(cfg.num_vertices(), edges, root);
  auto dist = reference_sssp(cfg.num_vertices(), edges, root);
  for (uint64_t v = 0; v < cfg.num_vertices(); ++v)
    ASSERT_EQ(bfs_parent[v] != graph::kNoVertex, dist[v] < kInfDist);
}


TEST(PageRank, DampingChangesRanksButNotMass) {
  Graph500Config cfg;
  cfg.scale = 9;
  cfg.seed = 67;
  auto run_with = [&](double damping) {
    PageRankOptions opts;
    opts.damping = damping;
    opts.max_iterations = 25;
    opts.tolerance = 0;
    std::vector<double> out;
    sim::run_spmd(sim::MeshShape{2, 2}, [&](sim::RankContext& ctx) {
      auto b = build(ctx, cfg, {64, 16});
      auto r = pagerank15d(ctx, b.part, b.degrees, opts);
      auto g = ctx.world.allgatherv(std::span<const double>(r));
      if (ctx.rank == 0) out = std::move(g);
    });
    return out;
  };
  auto low = run_with(0.5);
  auto high = run_with(0.95);
  double sum_low = 0, sum_high = 0, diff = 0;
  for (uint64_t v = 0; v < cfg.num_vertices(); ++v) {
    sum_low += low[v];
    sum_high += high[v];
    diff += std::abs(low[v] - high[v]);
  }
  EXPECT_NEAR(sum_low, 1.0, 1e-6);   // probability mass conserved
  EXPECT_NEAR(sum_high, 1.0, 1e-6);
  EXPECT_GT(diff, 1e-3);             // damping actually matters
}

}  // namespace
}  // namespace sunbfs::analytics
