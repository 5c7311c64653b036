// Property-based and randomized-sweep tests: invariants that must hold for
// arbitrary seeds, shapes and option combinations.  These complement the
// per-module unit tests with breadth.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>

#include "bfs/bfs15d.hpp"
#include "bfs/runner.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "partition/part15d.hpp"
#include "sim/runtime.hpp"
#include "sort/ocs_rma.hpp"
#include "sort/paradis.hpp"
#include "support/random.hpp"

namespace sunbfs {
namespace {

using graph::Edge;
using graph::Graph500Config;
using graph::Vertex;
using graph::kNoVertex;

// ------------------------------------------------------------ BFS sweeps

struct SweepCase {
  uint64_t seed;
  int scale;
  int rows, cols;
  uint64_t e_th, h_th;
  bool sub_iter;
  bool forwarding;
};

class BfsSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(BfsSweep, EveryConfigurationValidates) {
  const SweepCase c = GetParam();
  Graph500Config cfg;
  cfg.scale = c.scale;
  cfg.seed = c.seed;
  sim::MeshShape mesh{c.rows, c.cols};
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  Vertex root = graph::generate_rmat_range(cfg, c.seed % 7, c.seed % 7 + 1)[0].v;

  std::vector<Vertex> parent;
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    uint64_t m = cfg.num_edges();
    auto slice = graph::generate_rmat_range(
        cfg, m * uint64_t(ctx.rank) / uint64_t(ctx.nranks()),
        m * uint64_t(ctx.rank + 1) / uint64_t(ctx.nranks()));
    auto deg = partition::compute_local_degrees(ctx, space, slice);
    auto part = partition::build_15d(ctx, space, slice, deg,
                                     {c.e_th, c.h_th});
    bfs::Bfs15dOptions opts;
    opts.sub_iteration_direction = c.sub_iter;
    opts.l2l_forwarding = c.forwarding;
    auto res = bfs::bfs15d_run(ctx, part, root, opts);
    auto gathered =
        ctx.world.allgatherv(std::span<const Vertex>(res.parent));
    if (ctx.rank == 0) parent = std::move(gathered);
  });
  auto edges = graph::generate_rmat(cfg);
  auto v = graph::validate_bfs(cfg.num_vertices(), edges, root, parent);
  EXPECT_TRUE(v.ok) << v.error;
  auto ref = graph::reference_bfs(cfg.num_vertices(), edges, root);
  for (uint64_t i = 0; i < cfg.num_vertices(); ++i)
    ASSERT_EQ(parent[i] != kNoVertex, ref[i] != kNoVertex) << "vertex " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Random, BfsSweep,
    ::testing::Values(
        SweepCase{101, 10, 2, 2, 128, 16, true, false},
        SweepCase{102, 10, 1, 3, 64, 8, true, true},
        SweepCase{103, 10, 3, 1, 256, 64, false, false},
        SweepCase{104, 11, 2, 2, 512, 128, true, false},
        SweepCase{105, 9, 2, 3, 32, 4, true, true},
        SweepCase{106, 10, 3, 3, 128, 128, false, true},
        SweepCase{107, 11, 2, 2, 1u << 20, 1u << 20, true, false},
        SweepCase{108, 9, 4, 2, 16, 2, true, false},
        SweepCase{109, 10, 2, 4, 2048, 1, true, true},
        SweepCase{110, 11, 1, 1, 128, 32, false, false},
        SweepCase{111, 10, 3, 2, 96, 24, true, false},
        SweepCase{112, 9, 1, 5, 48, 12, false, true},
        SweepCase{113, 11, 4, 4, 256, 32, true, true},
        SweepCase{114, 10, 2, 2, 8, 8, true, false},
        SweepCase{115, 9, 5, 1, 512, 2, true, false},
        SweepCase{116, 10, 4, 3, 64, 64, false, false}));

// ------------------------------------------------------- collective fuzz

class CollectiveFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CollectiveFuzz, AlltoallvMatchesReference) {
  const uint64_t seed = GetParam();
  sim::MeshShape mesh{2, 3};
  int p = mesh.ranks();
  // Reference message matrix.
  Xoshiro256StarStar rng(seed);
  std::vector<std::vector<std::vector<uint32_t>>> msgs(
      static_cast<size_t>(p),
      std::vector<std::vector<uint32_t>>(static_cast<size_t>(p)));
  for (int s = 0; s < p; ++s)
    for (int d = 0; d < p; ++d) {
      size_t n = rng.next_below(50);
      for (size_t i = 0; i < n; ++i)
        msgs[size_t(s)][size_t(d)].push_back(uint32_t(rng.next()));
    }
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    std::vector<size_t> off;
    auto got = ctx.world.alltoallv(msgs[size_t(ctx.rank)], &off);
    for (int s = 0; s < p; ++s) {
      const auto& want = msgs[size_t(s)][size_t(ctx.rank)];
      ASSERT_EQ(off[size_t(s) + 1] - off[size_t(s)], want.size());
      for (size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(got[off[size_t(s)] + i], want[i]);
    }
  });
}

TEST_P(CollectiveFuzz, ReduceScatterMinMatchesReference) {
  const uint64_t seed = GetParam();
  sim::MeshShape mesh{2, 2};
  int p = mesh.ranks();
  const size_t block = 37;
  Xoshiro256StarStar rng(seed ^ 0xABCD);
  std::vector<std::vector<int64_t>> contribs(static_cast<size_t>(p));
  for (auto& c : contribs) {
    c.resize(block * size_t(p));
    for (auto& x : c) x = int64_t(rng.next() % 1000) - 500;
  }
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto mine = ctx.world.reduce_scatter_block(
        std::span<const int64_t>(contribs[size_t(ctx.rank)]), block,
        [](int64_t a, int64_t b) { return std::min(a, b); });
    for (size_t i = 0; i < block; ++i) {
      int64_t want = contribs[0][size_t(ctx.rank) * block + i];
      for (int r = 1; r < p; ++r)
        want = std::min(want, contribs[size_t(r)][size_t(ctx.rank) * block + i]);
      ASSERT_EQ(mine[i], want);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectiveFuzz,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------------------- sort fuzz

class SortFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SortFuzz, ParadisSortsArbitraryDistributions) {
  const uint64_t seed = GetParam();
  Xoshiro256StarStar rng(seed);
  // Mixture: uniform, clustered, and power-of-two-heavy values.
  std::vector<uint64_t> v(1 + rng.next_below(30000));
  for (auto& x : v) {
    switch (rng.next_below(3)) {
      case 0: x = rng.next(); break;
      case 1: x = 1000 + rng.next_below(16); break;
      default: x = uint64_t(1) << rng.next_below(63); break;
    }
  }
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  sort::paradis_sort(std::span(v), [](uint64_t x) { return x; },
                     ThreadPool::global());
  EXPECT_EQ(v, expected);
}

TEST_P(SortFuzz, OcsRmaHandlesStructPayloads) {
  struct Msg {
    uint32_t dst;
    uint32_t a;
    uint64_t b;
  };
  const uint64_t seed = GetParam();
  Xoshiro256StarStar rng(seed + 77);
  chip::Chip chip(chip::Geometry::tiny());
  std::vector<Msg> in(500 + rng.next_below(4000));
  for (auto& m : in) {
    m.dst = uint32_t(rng.next_below(11));
    m.a = uint32_t(rng.next());
    m.b = rng.next();
  }
  std::vector<Msg> out(in.size());
  sort::OcsParams params;
  params.buffer_bytes = 256;
  auto res = sort::ocs_rma_bucket_sort<Msg>(
      chip, in, std::span(out), 11, [](const Msg& m) { return m.dst; },
      -1, params);
  // Bucketed correctly and payloads intact (multiset equality on (a,b)).
  std::multiset<std::pair<uint32_t, uint64_t>> want, got;
  for (const auto& m : in) want.emplace(m.a, m.b);
  for (uint32_t bkt = 0; bkt < 11; ++bkt)
    for (uint64_t i = res.offsets[bkt]; i < res.offsets[bkt + 1]; ++i) {
      ASSERT_EQ(out[i].dst, bkt);
      got.emplace(out[i].a, out[i].b);
    }
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortFuzz, ::testing::Values(11, 12, 13, 14));

// ------------------------------------------------------ generator sweeps

class ScramblerSweep : public ::testing::TestWithParam<int> {};

void VertexScramblerBijectionCheck(int scale);

TEST_P(ScramblerSweep, BijectionAtEveryScale) {
  int scale = GetParam();
  VertexScramblerBijectionCheck(scale);
}

INSTANTIATE_TEST_SUITE_P(Scales, ScramblerSweep,
                         ::testing::Values(4, 7, 13, 16));

void VertexScramblerBijectionCheck(int scale) {
  graph::VertexScrambler s(scale, 999);
  uint64_t n = uint64_t(1) << scale;
  // Sampled round-trip (full for small scales).
  uint64_t step = n > (1 << 12) ? n / (1 << 12) : 1;
  for (uint64_t v = 0; v < n; v += step) {
    Vertex sv = s.scramble(Vertex(v));
    ASSERT_GE(sv, 0);
    ASSERT_LT(uint64_t(sv), n);
    ASSERT_EQ(s.unscramble(sv), Vertex(v));
  }
}

TEST(RmatProperties, EdgeCountMatchesEdgeFactor) {
  for (int ef : {8, 16, 32}) {
    Graph500Config cfg;
    cfg.scale = 8;
    cfg.edge_factor = ef;
    EXPECT_EQ(cfg.num_edges(), cfg.num_vertices() * uint64_t(ef));
    EXPECT_EQ(graph::generate_rmat(cfg).size(), cfg.num_edges());
  }
}

TEST(RmatProperties, DifferentSeedsGiveDifferentGraphs) {
  Graph500Config a, b;
  a.scale = b.scale = 10;
  a.seed = 1;
  b.seed = 2;
  auto ea = graph::generate_rmat(a);
  auto eb = graph::generate_rmat(b);
  size_t same = 0;
  for (size_t i = 0; i < ea.size(); ++i)
    if (ea[i] == eb[i]) ++same;
  EXPECT_LT(same, ea.size() / 100);
}

// ----------------------------------------------- cross-engine consistency

TEST(CrossEngine, AllEnginesAgreeOnReachability) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 55;
  sim::Topology topo(sim::MeshShape{2, 2});

  bfs::RunnerConfig c15;
  c15.graph = cfg;
  c15.num_roots = 3;
  c15.thresholds = {128, 32};
  bfs::RunnerConfig c1 = c15;
  c1.engine = bfs::EngineKind::OneD;

  auto r15 = bfs::run_graph500(topo, c15);
  auto r1 = bfs::run_graph500(topo, c1);
  ASSERT_TRUE(r15.all_valid);
  ASSERT_TRUE(r1.all_valid);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r15.runs[i].root, r1.runs[i].root);
    EXPECT_EQ(r15.runs[i].traversed_edges, r1.runs[i].traversed_edges);
  }
}

TEST(CrossEngine, ThresholdChoiceNeverChangesTheTraversalResult) {
  // Performance knob only: any (E, H) choice yields the same reachable set
  // and edge count.
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 66;
  sim::Topology topo(sim::MeshShape{2, 2});
  uint64_t expected = 0;
  for (auto th : {partition::DegreeThresholds{64, 8},
                  partition::DegreeThresholds{512, 512},
                  partition::DegreeThresholds{1u << 20, 0}}) {
    bfs::RunnerConfig c;
    c.graph = cfg;
    c.num_roots = 2;
    c.thresholds = th;
    auto r = bfs::run_graph500(topo, c);
    ASSERT_TRUE(r.all_valid);
    uint64_t sum = r.runs[0].traversed_edges + r.runs[1].traversed_edges;
    if (expected == 0)
      expected = sum;
    else
      EXPECT_EQ(sum, expected);
  }
}


// --------------------------------------------- runner with chip kernels

TEST(RunnerIntegration, ChipPullKernelsValidateEndToEnd) {
  for (auto kernel : {bfs::Bfs15dOptions::EhPullKernel::ChipGld,
                      bfs::Bfs15dOptions::EhPullKernel::ChipRma}) {
    bfs::RunnerConfig cfg;
    cfg.graph.scale = 9;
    cfg.graph.seed = 91;
    cfg.thresholds = {64, 16};
    cfg.num_roots = 2;
    cfg.bfs.pull_kernel = kernel;
    cfg.chip_geometry = chip::Geometry::tiny();
    sim::Topology topo(sim::MeshShape{2, 2});
    auto result = bfs::run_graph500(topo, cfg);
    EXPECT_TRUE(result.all_valid) << "kernel " << int(kernel);
  }
}

TEST(RunnerIntegration, CustomTopologyParametersAffectModeledTime) {
  bfs::RunnerConfig cfg;
  cfg.graph.scale = 11;
  cfg.thresholds = {128, 32};
  cfg.num_roots = 2;
  cfg.validate = false;
  sim::TopologyParams fast, slow;
  slow.nic_bytes_per_s = fast.nic_bytes_per_s / 100;
  slow.oversubscription = 32;
  auto rf = bfs::run_graph500(sim::Topology(sim::MeshShape{2, 2}, fast), cfg);
  auto rs = bfs::run_graph500(sim::Topology(sim::MeshShape{2, 2}, slow), cfg);
  // Identical work, slower network: the modeled network seconds must grow.
  // (harmonic_gteps also folds in measured compute CPU, which host load can
  // swing by more than the network difference.)
  EXPECT_GT(rs.spmd.modeled_comm_s(), rf.spmd.modeled_comm_s() * 1.5);
  EXPECT_EQ(rf.runs[0].traversed_edges, rs.runs[0].traversed_edges);
}

TEST(RunnerIntegration, InvalidRootConfigurationSurfaces) {
  // A root outside the vertex space must throw, not hang or corrupt.
  sim::MeshShape mesh{2, 2};
  graph::Graph500Config g;
  g.scale = 8;
  partition::VertexSpace space{g.num_vertices(), mesh.ranks()};
  EXPECT_THROW(
      sim::run_spmd(mesh,
                    [&](sim::RankContext& ctx) {
                      uint64_t m = g.num_edges();
                      auto slice = graph::generate_rmat_range(
                          g, m * uint64_t(ctx.rank) / uint64_t(ctx.nranks()),
                          m * uint64_t(ctx.rank + 1) / uint64_t(ctx.nranks()));
                      auto deg =
                          partition::compute_local_degrees(ctx, space, slice);
                      auto part = partition::build_15d(ctx, space, slice, deg,
                                                       {64, 16});
                      bfs::bfs15d_run(ctx, part,
                                      graph::Vertex(g.num_vertices() + 5));
                    }),
      CheckError);
}

}  // namespace
}  // namespace sunbfs
