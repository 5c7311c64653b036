// Tests for the graph substrate: R-MAT generator conformance, vertex
// scrambling, CSR construction, reference BFS, Graph 500 validation rules
// and TEPS accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>

#include "graph/csr.hpp"
#include "graph/gteps.hpp"
#include "graph/io.hpp"
#include "graph/lattice.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "support/check.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"

namespace sunbfs::graph {
namespace {

/// validate_bfs serially and on a 4-worker pool: the verdict, the named
/// violation and the counts must not depend on the thread count.
ValidationResult validate_both(uint64_t num_vertices,
                               std::span<const Edge> edges, Vertex root,
                               std::span<const Vertex> parent) {
  static ThreadPool pool(4);
  ValidationResult serial = validate_bfs(num_vertices, edges, root, parent);
  ValidationResult pooled =
      validate_bfs(num_vertices, edges, root, parent, &pool);
  EXPECT_EQ(serial.ok, pooled.ok);
  EXPECT_EQ(serial.error, pooled.error);
  EXPECT_EQ(serial.reached, pooled.reached);
  EXPECT_EQ(serial.edges_in_component, pooled.edges_in_component);
  return serial;
}

TEST(Scrambler, IsABijection) {
  for (int scale : {1, 2, 3, 5, 10}) {
    VertexScrambler s(scale, 12345);
    uint64_t n = uint64_t(1) << scale;
    std::set<Vertex> seen;
    for (uint64_t v = 0; v < n; ++v) {
      Vertex sv = s.scramble(Vertex(v));
      ASSERT_GE(sv, 0);
      ASSERT_LT(uint64_t(sv), n) << "scale " << scale;
      seen.insert(sv);
      ASSERT_EQ(s.unscramble(sv), Vertex(v));
    }
    EXPECT_EQ(seen.size(), n) << "scale " << scale;
  }
}

TEST(Scrambler, DifferentSeedsDiffer) {
  VertexScrambler a(10, 1), b(10, 2);
  int diff = 0;
  for (Vertex v = 0; v < 1024; ++v)
    if (a.scramble(v) != b.scramble(v)) ++diff;
  EXPECT_GT(diff, 1000);
}

TEST(Rmat, DeterministicAndRangeConsistent) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 99;
  auto all = generate_rmat(cfg);
  EXPECT_EQ(all.size(), cfg.num_edges());
  // A sub-range must equal the corresponding slice of the full list.
  auto slice = generate_rmat_range(cfg, 100, 200);
  for (size_t i = 0; i < slice.size(); ++i)
    EXPECT_EQ(slice[i], all[100 + i]);
  // Regenerating gives identical output.
  auto again = generate_rmat(cfg);
  EXPECT_EQ(all.size(), again.size());
  EXPECT_TRUE(std::equal(all.begin(), all.end(), again.begin()));
}

TEST(Rmat, EndpointsInRange) {
  Graph500Config cfg;
  cfg.scale = 8;
  for (const Edge& e : generate_rmat(cfg)) {
    ASSERT_GE(e.u, 0);
    ASSERT_LT(uint64_t(e.u), cfg.num_vertices());
    ASSERT_GE(e.v, 0);
    ASSERT_LT(uint64_t(e.v), cfg.num_vertices());
  }
}

TEST(Rmat, DegreeDistributionIsSkewed) {
  // The defining property the whole paper builds on: extremely skewed
  // degrees.  At scale 14 the max degree must dwarf the mean (32) and a
  // large fraction of vertices must sit far below the mean.
  Graph500Config cfg;
  cfg.scale = 14;
  auto edges = generate_rmat(cfg);
  auto deg = undirected_degrees(cfg.num_vertices(), edges);
  uint64_t max_deg = 0, below_mean = 0;
  for (uint64_t d : deg) {
    max_deg = std::max(max_deg, d);
    if (d < 32) ++below_mean;
  }
  EXPECT_GT(max_deg, 2000u);  // heavy hubs
  EXPECT_GT(below_mean, cfg.num_vertices() / 2);  // long light tail
}

TEST(Rmat, ScrambledIdsCarryNoDegreeInfo) {
  // Average degree of the low-id half must be close to the high-id half;
  // without scrambling, low ids (many zero bits chosen with prob A=0.57)
  // would be much heavier.
  Graph500Config cfg;
  cfg.scale = 12;
  auto deg = undirected_degrees(cfg.num_vertices(), generate_rmat(cfg));
  uint64_t half = cfg.num_vertices() / 2;
  double lo = 0, hi = 0;
  for (uint64_t v = 0; v < half; ++v) lo += double(deg[v]);
  for (uint64_t v = half; v < cfg.num_vertices(); ++v) hi += double(deg[v]);
  EXPECT_LT(std::abs(lo - hi) / (lo + hi), 0.05);
}

TEST(Csr, FromUndirectedBuildsSymmetricAdjacency) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 2}, {0, 1}};
  Csr adj = Csr::from_undirected(4, edges);
  EXPECT_EQ(adj.num_rows(), 4u);
  EXPECT_EQ(adj.num_arcs(), 8u);  // 2 per edge, self loop twice
  EXPECT_EQ(adj.degree(0), 2u);   // duplicate edge kept
  EXPECT_EQ(adj.degree(1), 3u);
  EXPECT_EQ(adj.degree(2), 3u);
  EXPECT_EQ(adj.degree(3), 0u);
  auto n1 = adj.neighbors(1);
  std::multiset<Vertex> got(n1.begin(), n1.end());
  EXPECT_EQ(got, (std::multiset<Vertex>{0, 0, 2}));
}

TEST(Csr, FromArcsGroupsByRow) {
  std::vector<Vertex> rows = {2, 0, 2, 1};
  std::vector<Vertex> vals = {10, 20, 30, 40};
  Csr csr = Csr::from_arcs(3, rows, vals);
  EXPECT_EQ(csr.degree(0), 1u);
  EXPECT_EQ(csr.neighbors(0)[0], 20);
  EXPECT_EQ(csr.degree(2), 2u);
  std::multiset<Vertex> r2(csr.neighbors(2).begin(), csr.neighbors(2).end());
  EXPECT_EQ(r2, (std::multiset<Vertex>{10, 30}));
}

TEST(ReferenceBfs, SimplePath) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}};
  auto parent = reference_bfs(5, edges, 0);
  EXPECT_EQ(parent[0], 0);
  EXPECT_EQ(parent[1], 0);
  EXPECT_EQ(parent[2], 1);
  EXPECT_EQ(parent[3], 2);
  EXPECT_EQ(parent[4], kNoVertex);
}

TEST(Validate, AcceptsReferenceBfs) {
  Graph500Config cfg;
  cfg.scale = 10;
  auto edges = generate_rmat(cfg);
  Vertex root = edges[0].u;
  auto parent = reference_bfs(cfg.num_vertices(), edges, root);
  auto res = validate_both(cfg.num_vertices(), edges, root, parent);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.reached, 0u);
  EXPECT_GT(res.edges_in_component, 0u);
  EXPECT_LE(res.edges_in_component, edges.size());
}

TEST(Validate, RejectsBadRootParent) {
  std::vector<Edge> edges = {{0, 1}};
  std::vector<Vertex> parent = {kNoVertex, 0};  // parent[0] should be 0
  auto res = validate_both(2, edges, 0, parent);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("root"), std::string::npos);
}

TEST(Validate, RejectsFabricatedTreeEdge) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}};
  std::vector<Vertex> parent = {0, 0, 0};  // 2's parent 0: no such edge
  auto res = validate_both(3, edges, 0, parent);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("not in graph"), std::string::npos);
}

TEST(Validate, RejectsNonSpanningTree) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}};
  std::vector<Vertex> parent = {0, 0, kNoVertex};  // 2 reachable but missed
  auto res = validate_both(3, edges, 0, parent);
  EXPECT_FALSE(res.ok);
}

TEST(Validate, RejectsLevelSkip) {
  // Path 0-1-2-3 plus chord 0-3 claimed as tree edge at wrong level is
  // caught by level rules: parent chain 3->2->1->0 but parent[3]=0 gives
  // level(3)=1 while edge (2,3) spans levels 2 and 1 — fine; instead
  // fabricate: parent[2]=0 -> not an edge.  Use cycle instead:
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}};
  std::vector<Vertex> parent = {0, 2, 1};  // 1<->2 parent cycle
  auto res = validate_both(3, edges, 0, parent);
  EXPECT_FALSE(res.ok);
}

TEST(Validate, RejectsCrossComponentReach) {
  std::vector<Edge> edges = {{0, 1}, {2, 3}};
  std::vector<Vertex> parent = {0, 0, kNoVertex, kNoVertex};
  auto res = validate_both(4, edges, 0, parent);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.reached, 2u);
  EXPECT_EQ(res.edges_in_component, 1u);
  // Claiming to reach the other component without a path must fail.
  std::vector<Vertex> bad = {0, 0, 3, 2};  // 2,3 parented to each other
  EXPECT_FALSE(validate_both(4, edges, 0, bad).ok);
}

TEST(Validate, SelfLoopsExcludedFromTeps) {
  std::vector<Edge> edges = {{0, 1}, {0, 0}, {1, 1}};
  auto parent = reference_bfs(2, edges, 0);
  auto res = validate_both(2, edges, 0, parent);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.edges_in_component, 1u);
}

TEST(Levels, ComputedByWalking) {
  std::vector<Vertex> parent = {0, 0, 1, 1, kNoVertex};
  auto lv = levels_from_parents(5, parent, 0);
  EXPECT_EQ(lv, (std::vector<int64_t>{0, 1, 2, 2, -1}));
}

TEST(Levels, DetectsCycle) {
  std::vector<Vertex> parent = {0, 2, 1};
  EXPECT_THROW(levels_from_parents(3, parent, 0), CheckError);
}

TEST(Gteps, HarmonicMean) {
  std::vector<BfsRunSample> runs = {{1.0, 1000}, {1.0, 3000}};
  // Harmonic mean of 1000 and 3000 TEPS = 1500.
  EXPECT_DOUBLE_EQ(harmonic_mean_teps(runs), 1500.0);
  EXPECT_DOUBLE_EQ(gteps(1.5e12), 1500.0);
}

TEST(Gteps, DegreeDistributionCounts) {
  std::vector<uint64_t> degrees = {0, 1, 1, 5, 5, 5};
  auto dist = degree_distribution(degrees);
  EXPECT_EQ(dist[0], 1u);
  EXPECT_EQ(dist[1], 2u);
  EXPECT_EQ(dist[5], 3u);
}


TEST(Validate, RejectsWrongSizeParentArray) {
  std::vector<Edge> edges = {{0, 1}};
  std::vector<Vertex> parent = {0};
  EXPECT_FALSE(validate_both(2, edges, 0, parent).ok);
  EXPECT_FALSE(validate_both(2, edges, 5, std::vector<Vertex>{0, 0}).ok);
}

// Seeded tamper sweep on a lattice: rewiring one parent to a non-neighbour
// or dropping one tree edge from the input must be named as exactly that
// tree edge, at any thread count.
TEST(Validate, TamperSweepOnLatticeNamesTheBrokenTreeEdge) {
  const LatticeConfig cfg = LatticeConfig::grid(12, 17);
  const uint64_t n = cfg.num_vertices();
  const auto edges = generate_lattice(cfg);
  const Vertex root = 5;
  const auto parent = reference_bfs(n, edges, root);
  const auto level = levels_from_parents(n, parent, root);
  ASSERT_TRUE(validate_both(n, edges, root, parent).ok);
  const Csr adj = Csr::from_undirected(n, edges);
  auto tree_edge_error = [](Vertex v, Vertex p) {
    return "tree edge (" + std::to_string(v) + ", " + std::to_string(p) +
           ") not in graph";
  };
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Xoshiro256StarStar rng(seed);
    Vertex v = root;
    while (v == root) v = Vertex(rng.next_below(n));
    // Rewire: a new parent that is not a neighbour and sits no deeper than
    // v, so it cannot be v's descendant and the tree stays acyclic.
    auto nbrs = adj.neighbors(uint64_t(v));
    Vertex w = v;
    while (w == v || level[size_t(w)] > level[size_t(v)] ||
           std::find(nbrs.begin(), nbrs.end(), w) != nbrs.end())
      w = Vertex(rng.next_below(n));
    auto rewired = parent;
    rewired[size_t(v)] = w;
    auto res = validate_both(n, edges, root, rewired);
    EXPECT_FALSE(res.ok) << "seed " << seed;
    EXPECT_EQ(res.error, tree_edge_error(v, w)) << "seed " << seed;
    // Drop: remove v's tree edge from the input (the lattice is simple).
    std::vector<Edge> dropped;
    for (const Edge& e : edges)
      if (std::minmax(e.u, e.v) != std::minmax(v, parent[size_t(v)]))
        dropped.push_back(e);
    ASSERT_EQ(dropped.size(), edges.size() - 1);
    res = validate_both(n, dropped, root, parent);
    EXPECT_FALSE(res.ok) << "seed " << seed;
    EXPECT_EQ(res.error, tree_edge_error(v, parent[size_t(v)]))
        << "seed " << seed;
  }
}

TEST(Rmat, MinimalScaleOne) {
  Graph500Config cfg;
  cfg.scale = 1;
  auto edges = generate_rmat(cfg);
  EXPECT_EQ(edges.size(), 32u);
  for (const Edge& e : edges) {
    ASSERT_GE(e.u, 0);
    ASSERT_LE(e.u, 1);
    ASSERT_GE(e.v, 0);
    ASSERT_LE(e.v, 1);
  }
}

TEST(Gteps, RejectsEmptyAndZeroRuns) {
  std::vector<BfsRunSample> empty;
  EXPECT_THROW(harmonic_mean_teps(empty), CheckError);
  std::vector<BfsRunSample> zero = {{0.0, 100}};
  EXPECT_THROW(harmonic_mean_teps(zero), CheckError);
}

TEST(EdgeListIo, TextRoundTripWithCommentsAndBlanks) {
  Graph500Config cfg;
  cfg.scale = 8;
  auto edges = generate_rmat(cfg);
  std::string path = ::testing::TempDir() + "/edges.txt";
  write_edge_list_text(path, edges);
  uint64_t n = 0;
  auto back = read_edge_list_text(path, &n);
  EXPECT_EQ(back.size(), edges.size());
  EXPECT_TRUE(std::equal(edges.begin(), edges.end(), back.begin()));
  EXPECT_LE(n, cfg.num_vertices());
  EXPECT_GT(n, 0u);
}

TEST(EdgeListIo, BinaryRoundTrip) {
  Graph500Config cfg;
  cfg.scale = 9;
  auto edges = generate_rmat(cfg);
  std::string path = ::testing::TempDir() + "/edges.bin";
  write_edge_list_binary(path, edges);
  uint64_t n = 0;
  auto back = read_edge_list_binary(path, &n);
  EXPECT_TRUE(std::equal(edges.begin(), edges.end(), back.begin()));
}

TEST(EdgeListIo, RejectsMissingAndMalformedFiles) {
  uint64_t n = 0;
  EXPECT_THROW(read_edge_list_text("/nonexistent/file.txt", &n), CheckError);
  std::string path = ::testing::TempDir() + "/bad.txt";
  {
    std::ofstream out(path);
    out << "# header\n1 2\nnot numbers here\n";
  }
  EXPECT_THROW(read_edge_list_text(path, &n), CheckError);
  std::string badbin = ::testing::TempDir() + "/bad.bin";
  {
    std::ofstream out(badbin, std::ios::binary);
    out << "xyz";  // not a multiple of sizeof(Edge)
  }
  EXPECT_THROW(read_edge_list_binary(badbin, &n), CheckError);
}

TEST(EdgeListIo, TextParserSkipsCommentsAndWhitespace) {
  std::string path = ::testing::TempDir() + "/snap.txt";
  {
    std::ofstream out(path);
    out << "# SNAP-style header\n";
    out << "\n";
    out << "  0 5\n";
    out << "\t5 9\n";
    out << "# trailing comment\n";
  }
  uint64_t n = 0;
  auto edges = read_edge_list_text(path, &n);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (Edge{0, 5}));
  EXPECT_EQ(edges[1], (Edge{5, 9}));
  EXPECT_EQ(n, 10u);
}

// ------------------------------------- deterministic lattice generators

// Simple, well-formed edge lists: endpoints in range, no self loops, no
// duplicates in either orientation, and exactly the advertised count.
void expect_simple_lattice(const LatticeConfig& cfg) {
  auto edges = generate_lattice(cfg);
  ASSERT_EQ(edges.size(), cfg.num_edges());
  std::set<std::pair<Vertex, Vertex>> seen;
  for (const Edge& e : edges) {
    ASSERT_GE(e.u, 0);
    ASSERT_GE(e.v, 0);
    ASSERT_LT(uint64_t(e.u), cfg.num_vertices());
    ASSERT_LT(uint64_t(e.v), cfg.num_vertices());
    ASSERT_NE(e.u, e.v) << "self loop";
    auto key = std::minmax(e.u, e.v);
    ASSERT_TRUE(seen.insert({key.first, key.second}).second)
        << "duplicate edge " << e.u << "-" << e.v;
  }
}

TEST(Lattice, GeneratesSimpleGraphsOfTheAdvertisedSize) {
  expect_simple_lattice(LatticeConfig::path(2));
  expect_simple_lattice(LatticeConfig::path(257));
  expect_simple_lattice(LatticeConfig::grid(1, 7));
  expect_simple_lattice(LatticeConfig::grid(8, 13));
  expect_simple_lattice(LatticeConfig::torus(5, 9));
  // Short torus dimensions must not emit self loops or duplicate wraps.
  expect_simple_lattice(LatticeConfig::torus(2, 6));
  expect_simple_lattice(LatticeConfig::torus(1, 6));
  expect_simple_lattice(LatticeConfig::torus(2, 2));
}

// Same contract as the R-MAT generator: edge i is a pure function of
// (config, i), so disjoint ranges concatenate to the canonical list.
TEST(Lattice, RangeConcatenationIsTheCanonicalList) {
  const LatticeConfig cfg = LatticeConfig::torus(6, 8);
  auto full = generate_lattice(cfg);
  for (int parts : {2, 3, 5}) {
    std::vector<Edge> cat;
    uint64_t m = cfg.num_edges();
    for (int p = 0; p < parts; ++p) {
      auto range = generate_lattice_range(
          cfg, m * uint64_t(p) / uint64_t(parts),
          m * uint64_t(p + 1) / uint64_t(parts));
      cat.insert(cat.end(), range.begin(), range.end());
    }
    ASSERT_EQ(cat.size(), full.size());
    for (size_t i = 0; i < full.size(); ++i) ASSERT_EQ(cat[i], full[i]);
  }
}

// The diameter helper against the serial reference: the BFS eccentricity of
// a corner (path/grid) or any vertex (torus is vertex-transitive) is the
// diameter.
TEST(Lattice, DiameterMatchesReferenceBfsEccentricity) {
  for (const LatticeConfig& cfg :
       {LatticeConfig::path(97), LatticeConfig::grid(9, 14),
        LatticeConfig::torus(8, 11), LatticeConfig::torus(2, 9)}) {
    auto edges = generate_lattice(cfg);
    auto parent = reference_bfs(cfg.num_vertices(), edges, 0);
    auto levels = levels_from_parents(cfg.num_vertices(), parent, 0);
    int64_t ecc = 0;
    for (int64_t l : levels) {
      ASSERT_GE(l, 0) << "lattice must be connected";
      ecc = std::max(ecc, l);
    }
    EXPECT_EQ(uint64_t(ecc), cfg.diameter())
        << cfg.rows << "x" << cfg.cols << " kind "
        << int(cfg.kind);
  }
}

}  // namespace
}  // namespace sunbfs::graph
