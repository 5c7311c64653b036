// Exchange-plan tests (ctest -L differential / -L faults): the staged
// exchange backends must be pure routing — bit-identical engine output —
// and the recovery machinery must see through every staged hop.  Four
// layers:
//
//   1. ExchangePlan unit tests: hop() composed over every stage delivers
//      every (holder, dst) pair for every backend, mesh shape and
//      communicator size (including non-power-of-two butterflies), stage
//      counts match the construction, and the degenerate shapes collapse
//      to direct.
//   2. Backend bit-identity: each engine (1D, 1.5D, MS-BFS, and the
//      propagation engine's SSSP and CC) run under butterfly and 2D-CA —
//      across encoding on/off and thread counts — returns output
//      bit-identical to the direct-alltoallv baseline, which the suites in
//      test_differential.cpp already pin to the serial oracles (SSSP and
//      CC are compared to reference_sssp / reference_cc directly).
//   3. Fault recovery through staged hops: corruption and rank failures
//      landing inside the butterfly's intermediate alltoallvs are
//      detected (xxhash64 block checksums per hop), rolled back and
//      replayed to the exact fault-free answer.
//   4. A seeded randomized full-pipeline sweep over exchange backends;
//      any failure prints one graph500_runner command line (including
//      --exchange) that replays it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "analytics/cc.hpp"
#include "analytics/propagate.hpp"
#include "analytics/sssp.hpp"
#include "bfs/bfs15d.hpp"
#include "bfs/bfs1d.hpp"
#include "bfs/messages.hpp"
#include "bfs/runner.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "partition/part15d.hpp"
#include "partition/part1d.hpp"
#include "service/msbfs.hpp"
#include "sim/exchange.hpp"
#include "sim/exchange_channel.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"
#include "support/random.hpp"

namespace sunbfs {
namespace {

using graph::Edge;
using graph::Graph500Config;
using graph::Vertex;

std::vector<Edge> slice_of(const Graph500Config& cfg, int rank, int nranks) {
  uint64_t m = cfg.num_edges();
  return graph::generate_rmat_range(cfg, m * uint64_t(rank) / uint64_t(nranks),
                                    m * uint64_t(rank + 1) / uint64_t(nranks));
}

Vertex pick_root(const Graph500Config& cfg) {
  return graph::generate_rmat_range(cfg, 0, 1)[0].u;
}

// ------------------------------------------------ plan routing unit tests

// Composing hop() over every stage must land every message on its
// destination, for every backend over representative meshes — including a
// communicator smaller than the mesh (sub-communicator exchanges always
// run nparts < ranks through the butterfly's fold path or degenerate).
TEST(ExchangePlan, HopCompositionDeliversEveryPair) {
  const sim::MeshShape meshes[] = {{1, 1}, {1, 4}, {4, 1}, {2, 2},
                                   {2, 3}, {3, 2}, {2, 4}, {4, 4}};
  const sim::ExchangeBackend backends[] = {sim::ExchangeBackend::Direct,
                                           sim::ExchangeBackend::Butterfly,
                                           sim::ExchangeBackend::TwoDCA};
  for (const auto mesh : meshes) {
    for (const auto backend : backends) {
      for (int nparts : {mesh.ranks(), std::max(1, mesh.ranks() - 1)}) {
        const auto plan = sim::ExchangePlan::build(backend, nparts, mesh);
        for (int dst = 0; dst < nparts; ++dst) {
          for (int holder = 0; holder < nparts; ++holder) {
            int h = holder;
            for (int s = 0; s < plan.stages(); ++s) h = plan.hop(s, h, dst);
            if (plan.stages() > 0) {
              ASSERT_EQ(h, dst)
                  << sim::exchange_backend_name(backend) << " on "
                  << mesh.rows << "x" << mesh.cols << " nparts " << nparts
                  << ": holder " << holder << " never reached " << dst;
            }
          }
        }
      }
    }
  }
}

TEST(ExchangePlan, StageCountsMatchConstruction) {
  const sim::MeshShape m44{4, 4};
  // Direct and single-rank plans are always flat.
  EXPECT_EQ(sim::ExchangePlan::build(sim::ExchangeBackend::Direct, 16, m44)
                .stages(),
            0);
  EXPECT_EQ(sim::ExchangePlan::build(sim::ExchangeBackend::Butterfly, 1, m44)
                .stages(),
            0);
  // Power-of-two butterfly: log2(P) bit stages.
  EXPECT_EQ(sim::ExchangePlan::build(sim::ExchangeBackend::Butterfly, 16, m44)
                .stages(),
            4);
  EXPECT_EQ(sim::ExchangePlan::build(sim::ExchangeBackend::Butterfly, 4, m44)
                .stages(),
            2);
  // Non-power-of-two: fold + log2(q) + unfold.
  EXPECT_EQ(sim::ExchangePlan::build(sim::ExchangeBackend::Butterfly, 6,
                                     sim::MeshShape{2, 3})
                .stages(),
            4);  // fold, bit1, bit2, unfold (q = 4)
  EXPECT_EQ(sim::ExchangePlan::build(sim::ExchangeBackend::Butterfly, 3,
                                     sim::MeshShape{3, 1})
                .stages(),
            3);  // fold, bit1, unfold (q = 2)
  // 2D-CA: row split + column delivery when there is something to split...
  EXPECT_EQ(sim::ExchangePlan::build(sim::ExchangeBackend::TwoDCA, 16, m44)
                .stages(),
            2);
  // ...and degenerate on flat meshes or sub-communicators.
  EXPECT_EQ(sim::ExchangePlan::build(sim::ExchangeBackend::TwoDCA, 4,
                                     sim::MeshShape{1, 4})
                .stages(),
            0);
  EXPECT_EQ(sim::ExchangePlan::build(sim::ExchangeBackend::TwoDCA, 8, m44)
                .stages(),
            0);
}

// With row-major rank numbering and a power-of-two column count, the
// butterfly's low-bit-first order means the early stages permute only the
// column: merging happens inside a supernode row before any message
// crosses the oversubscribed inter-supernode links (docs/COMM.md).
TEST(ExchangePlan, ButterflyEarlyStagesStayInsideTheRow) {
  const sim::MeshShape mesh{4, 4};
  const auto plan = sim::ExchangePlan::build(sim::ExchangeBackend::Butterfly,
                                             mesh.ranks(), mesh);
  ASSERT_EQ(plan.stages(), 4);
  const int col_stages = 2;  // log2(cols)
  for (int dst = 0; dst < mesh.ranks(); ++dst) {
    for (int holder = 0; holder < mesh.ranks(); ++holder) {
      int h = holder;
      for (int s = 0; s < col_stages; ++s) {
        const int next = plan.hop(s, h, dst);
        ASSERT_EQ(mesh.row_of(next), mesh.row_of(h))
            << "stage " << s << " crossed rows for holder " << holder
            << " dst " << dst;
        h = next;
      }
      // After the column stages the holder already sits in dst's column.
      ASSERT_EQ(mesh.col_of(h), mesh.col_of(dst));
    }
  }
}

// 2D-CA routes every message through exactly one rank: the row-mate in the
// destination's column.  At most one hop is inter-supernode.
TEST(ExchangePlan, TwoDCARoutesThroughTheRowMate) {
  const sim::MeshShape mesh{2, 4};
  const auto plan = sim::ExchangePlan::build(sim::ExchangeBackend::TwoDCA,
                                             mesh.ranks(), mesh);
  ASSERT_EQ(plan.stages(), 2);
  for (int dst = 0; dst < mesh.ranks(); ++dst) {
    for (int holder = 0; holder < mesh.ranks(); ++holder) {
      const int mid = plan.hop(0, holder, dst);
      EXPECT_EQ(mesh.row_of(mid), mesh.row_of(holder));
      EXPECT_EQ(mesh.col_of(mid), mesh.col_of(dst));
      EXPECT_EQ(plan.hop(1, mid, dst), dst);
    }
  }
}

// prime_staged must tolerate a butterfly tail rank (self >= q on a
// non-power-of-two communicator): hop(s, self, d) composes out of range at
// stages such a rank never holds messages at, and the priming loop used to
// index a staging lane past the pool — an out-of-bounds read that only
// crashed when nthreads == 1 kept the pool at exactly nparts lanes.
TEST(ExchangePlan, PrimeStagedToleratesFoldedTailRanks) {
  const sim::MeshShape mesh{3, 2};
  const auto plan = sim::ExchangePlan::build(sim::ExchangeBackend::Butterfly,
                                             mesh.ranks(), mesh);
  ASSERT_GT(plan.stages(), 0);
  for (int self = 0; self < mesh.ranks(); ++self) {
    sim::ExchangeChannel<bfs::CompactMsg> ch;
    ch.prime_staged(plan, self, /*nthreads=*/1, /*lane_cap=*/64,
                    /*volume_cap=*/256);
  }
}

// ------------------------------------------- engine backend bit-identity

std::vector<Vertex> run_1d(const Graph500Config& cfg, sim::MeshShape mesh,
                           Vertex root, int threads, bool encoding,
                           sim::ExchangeBackend backend) {
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  std::vector<Vertex> global_parent;
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto part = partition::build_1d(ctx, space, slice);
    bfs::Bfs1dOptions opts;
    opts.threads_per_rank = threads;
    opts.encoding.enabled = encoding;
    opts.exchange.backend = backend;
    auto res = bfs::bfs1d_run(ctx, part, root, opts);
    auto gathered = ctx.world.allgatherv(std::span<const Vertex>(res.parent));
    if (ctx.rank == 0) global_parent = std::move(gathered);
  });
  return global_parent;
}

std::vector<Vertex> run_15d(const Graph500Config& cfg, sim::MeshShape mesh,
                            Vertex root, int threads, bool encoding,
                            sim::ExchangeBackend backend) {
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  std::vector<Vertex> global_parent;
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto deg = partition::compute_local_degrees(ctx, space, slice);
    auto part = partition::build_15d(ctx, space, slice, deg, {128, 32});
    bfs::Bfs15dOptions opts;
    opts.threads_per_rank = threads;
    opts.encoding.enabled = encoding;
    opts.exchange.backend = backend;
    auto res = bfs::bfs15d_run(ctx, part, root, opts);
    auto gathered = ctx.world.allgatherv(std::span<const Vertex>(res.parent));
    if (ctx.rank == 0) global_parent = std::move(gathered);
  });
  return global_parent;
}

struct BackendCase {
  const char* engine;  // "1d" or "1.5d"
  uint64_t seed;
  int scale;
  int rows, cols;
};

class BackendBitIdentity : public ::testing::TestWithParam<BackendCase> {};

// Parent claims are order-independent reductions, so re-routing (and
// in-flight merging) must not change one output word: every staged backend
// at every (encoding, threads) combination equals the direct baseline,
// which test_differential.cpp pins against the serial reference.
TEST_P(BackendBitIdentity, ParentsEqualDirectBaseline) {
  const BackendCase c = GetParam();
  Graph500Config cfg;
  cfg.scale = c.scale;
  cfg.seed = c.seed;
  const Vertex root = pick_root(cfg);
  const sim::MeshShape mesh{c.rows, c.cols};
  const bool is_1d = std::string(c.engine) == "1d";
  auto run = [&](int threads, bool encoding, sim::ExchangeBackend backend) {
    return is_1d ? run_1d(cfg, mesh, root, threads, encoding, backend)
                 : run_15d(cfg, mesh, root, threads, encoding, backend);
  };
  const auto baseline = run(1, true, sim::ExchangeBackend::Direct);
  // Direct stays the oracle-pinned answer regardless of routing.
  auto levels =
      graph::levels_from_parents(cfg.num_vertices(), baseline, root);
  ASSERT_GT(levels[size_t(root)] + 1, 0);
  for (sim::ExchangeBackend backend :
       {sim::ExchangeBackend::Butterfly, sim::ExchangeBackend::TwoDCA}) {
    for (bool encoding : {true, false}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(std::string(c.engine) + " " +
                     sim::exchange_backend_name(backend) + ", encoding " +
                     (encoding ? "on" : "off") + ", threads " +
                     std::to_string(threads));
        ASSERT_EQ(run(threads, encoding, backend), baseline);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeededConfigs, BackendBitIdentity,
    ::testing::Values(BackendCase{"1d", 51, 10, 2, 2},
                      BackendCase{"1d", 52, 10, 2, 4},
                      BackendCase{"1d", 53, 9, 2, 3},  // non-pow2 butterfly
                      BackendCase{"1.5d", 54, 10, 2, 2},
                      BackendCase{"1.5d", 55, 10, 2, 4},
                      BackendCase{"1.5d", 56, 9, 3, 2}));

// MS-BFS: the batch engine's OR-mask visit messages merge across senders;
// exact parent equality with the direct run (which MsbfsOracle in
// test_differential.cpp pins to the canonical max-global-id rule).
TEST(BackendBitIdentityMsbfs, BatchParentsEqualDirectBaseline) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 61;
  const sim::MeshShape mesh{2, 2};
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  const int width = 17;

  auto run = [&](sim::ExchangeBackend backend, bool encoding, int threads) {
    std::vector<std::vector<Vertex>> got;
    sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
      auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
      auto degrees = partition::compute_local_degrees(ctx, space, slice);
      auto part = partition::build_1d(ctx, space, slice);
      auto keys = bfs::pick_search_keys(ctx, space, degrees, width, cfg.seed);
      service::MsbfsOptions opts;
      opts.threads_per_rank = threads;
      opts.encoding.enabled = encoding;
      opts.exchange.backend = backend;
      auto batch = service::msbfs_run(ctx, part, keys, opts);
      const uint64_t local = space.count(ctx.rank);
      std::vector<std::vector<Vertex>> gathered(keys.size());
      for (size_t q = 0; q < keys.size(); ++q)
        gathered[q] = ctx.world.allgatherv(std::span<const Vertex>(
            batch.parent.data() + q * local, local));
      if (ctx.rank == 0) got = std::move(gathered);
    });
    return got;
  };

  const auto baseline = run(sim::ExchangeBackend::Direct, true, 1);
  ASSERT_EQ(baseline.size(), size_t(width));
  for (sim::ExchangeBackend backend :
       {sim::ExchangeBackend::Butterfly, sim::ExchangeBackend::TwoDCA}) {
    for (bool encoding : {true, false}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(std::string(sim::exchange_backend_name(backend)) +
                     ", encoding " + (encoding ? "on" : "off") +
                     ", threads " + std::to_string(threads));
        ASSERT_EQ(run(backend, encoding, threads), baseline);
      }
    }
  }
}

// Propagation engine: L→L contributions travel the staged pools without
// in-flight folding; SSSP distances and CC labels equal the serial
// references on every mesh × backend × encoding case (both are unique
// answers, so equality is the full check).
TEST(BackendBitIdentityPropagation, SsspAndCcEqualReferences) {
  Graph500Config cfg;
  cfg.scale = 9;
  cfg.seed = 67;
  auto edges = graph::generate_rmat(cfg);
  const Vertex root = edges[5].u;
  const auto want_dist = analytics::reference_sssp(cfg.num_vertices(), edges,
                                                   root);
  const auto want_label = analytics::reference_cc(cfg.num_vertices(), edges);

  for (const sim::MeshShape mesh : {sim::MeshShape{2, 2}, {2, 3}}) {
    for (sim::ExchangeBackend backend :
         {sim::ExchangeBackend::Direct, sim::ExchangeBackend::Butterfly,
          sim::ExchangeBackend::TwoDCA}) {
      for (bool encoding : {true, false}) {
        SCOPED_TRACE(std::to_string(mesh.rows) + "x" +
                     std::to_string(mesh.cols) + " " +
                     sim::exchange_backend_name(backend) + ", encoding " +
                     (encoding ? "on" : "off"));
        std::vector<analytics::Dist> dist;
        std::vector<Vertex> label;
        sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
          partition::VertexSpace space{cfg.num_vertices(), ctx.nranks()};
          auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
          auto degrees = partition::compute_local_degrees(ctx, space, slice);
          auto part =
              partition::build_15d(ctx, space, slice, degrees, {64, 16});
          analytics::SsspOptions opts;
          opts.encoding.enabled = encoding;
          opts.exchange.backend = backend;
          auto d = analytics::sssp15d(ctx, part, root, opts);
          // cc15d's own engine, under the same wire options.
          analytics::PropagationEngine<analytics::MinLabelProgram> cc(
              ctx, part, {},
              {.incremental = true,
               .encoding = opts.encoding,
               .exchange = opts.exchange});
          cc.initialize([](Vertex v) { return v; });
          cc.run();
          auto gd =
              ctx.world.allgatherv(std::span<const analytics::Dist>(d));
          auto gl = ctx.world.allgatherv(
              std::span<const Vertex>(cc.owned_values()));
          if (ctx.rank == 0) {
            dist = std::move(gd);
            label = std::move(gl);
          }
        });
        ASSERT_EQ(dist, want_dist);
        ASSERT_EQ(label, want_label);
      }
    }
  }
}

// -------------------------------- fault recovery through staged hops

// Each staged hop is its own alltoallv on the wire: its blocks carry their
// own xxhash64 checksums and count against the fault plan's per-collective
// call indices.  Corruption landing in ANY butterfly stage — and a rank
// failure mid-search — must be detected, rolled back and replayed to the
// bit-exact fault-free answer, for bfs1d and for sssp15d.
struct StagedFaultCase {
  sim::FaultKind kind;
  uint64_t call_index;  // which Alltoallv the corruption lands in
  int threads;
  bool encoding;
};

class StagedFaultRecovery : public ::testing::TestWithParam<StagedFaultCase> {
};

TEST_P(StagedFaultRecovery, RecoveredParentsEqualFaultFree) {
  const StagedFaultCase c = GetParam();
  SCOPED_TRACE(std::string("kind ") + sim::fault_kind_name(c.kind) +
               ", call index " + std::to_string(c.call_index) + ", threads " +
               std::to_string(c.threads) + ", encoding " +
               (c.encoding ? "on" : "off"));
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 71;
  const sim::MeshShape mesh{2, 2};
  const Vertex root = pick_root(cfg);
  const auto backend = sim::ExchangeBackend::Butterfly;

  const auto expect = run_1d(cfg, mesh, root, c.threads, c.encoding, backend);

  sim::FaultPlan plan;
  switch (c.kind) {
    case sim::FaultKind::BitFlip:
      plan.add_bitflip(1, sim::CollectiveType::Alltoallv, c.call_index);
      break;
    case sim::FaultKind::Truncate:
      plan.add_truncate(0, sim::CollectiveType::Alltoallv, c.call_index);
      break;
    case sim::FaultKind::RankFailure:
      plan.add_rank_failure(1, 2);
      break;
    case sim::FaultKind::Straggler:
      plan.add_straggler(1, sim::CollectiveType::Alltoallv, c.call_index,
                         1e-3);
      break;
  }
  sim::SpmdOptions sopts;
  sopts.policy = sim::FaultPolicy::Recover;
  sopts.faults = &plan;

  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  std::vector<Vertex> got;
  auto report = sim::run_spmd(sim::Topology(mesh), [&](sim::RankContext& ctx) {
    ctx.faults.armed = false;  // setup runs fault-free, as in the runner
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto part = partition::build_1d(ctx, space, slice);
    bfs::Bfs1dOptions opts;
    opts.threads_per_rank = c.threads;
    opts.encoding.enabled = c.encoding;
    opts.exchange.backend = backend;
    ctx.faults.armed = true;
    auto res = bfs::bfs1d_run(ctx, part, root, opts);
    ctx.faults.armed = false;
    auto gathered = ctx.world.allgatherv(std::span<const Vertex>(res.parent));
    if (ctx.rank == 0) got = std::move(gathered);
  }, sopts);
  ASSERT_TRUE(report.ok()) << report.errors.front();

  const sim::FaultStats totals = report.fault_totals();
  EXPECT_GE(totals.injected(), 1u);
  if (c.kind != sim::FaultKind::Straggler) {
    EXPECT_GE(totals.recovered, 1u);
  }
  ASSERT_EQ(got, expect);

  // The same plan against sssp15d: one staged L→L exchange per round, so
  // the corruption lands in its butterfly hops instead.
  const auto edges = graph::generate_rmat(cfg);
  const auto want = analytics::reference_sssp(cfg.num_vertices(), edges, root);
  std::vector<analytics::Dist> dist;
  auto sssp_report =
      sim::run_spmd(sim::Topology(mesh), [&](sim::RankContext& ctx) {
        ctx.faults.armed = false;
        auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
        auto degrees = partition::compute_local_degrees(ctx, space, slice);
        auto part = partition::build_15d(ctx, space, slice, degrees, {64, 16});
        analytics::SsspOptions opts;
        opts.encoding.enabled = c.encoding;
        opts.exchange.backend = backend;
        ctx.faults.armed = true;
        auto d = analytics::sssp15d(ctx, part, root, opts);
        ctx.faults.armed = false;
        auto gathered =
            ctx.world.allgatherv(std::span<const analytics::Dist>(d));
        if (ctx.rank == 0) dist = std::move(gathered);
      }, sopts);
  ASSERT_TRUE(sssp_report.ok()) << sssp_report.errors.front();
  const sim::FaultStats sssp_totals = sssp_report.fault_totals();
  EXPECT_GE(sssp_totals.injected(), 1u);
  if (c.kind != sim::FaultKind::Straggler) {
    EXPECT_GE(sssp_totals.recovered, 1u);
  }
  ASSERT_EQ(dist, want);
}

INSTANTIATE_TEST_SUITE_P(
    ButterflyStages, StagedFaultRecovery,
    ::testing::Values(
        // Corruptions landing at increasing Alltoallv call indices hit
        // different stages of different levels' butterflies (2 staged
        // hops per level on a 2x2 mesh).
        StagedFaultCase{sim::FaultKind::BitFlip, 0, 1, true},
        StagedFaultCase{sim::FaultKind::BitFlip, 1, 1, true},
        StagedFaultCase{sim::FaultKind::BitFlip, 2, 4, true},
        StagedFaultCase{sim::FaultKind::BitFlip, 3, 1, false},
        StagedFaultCase{sim::FaultKind::Truncate, 1, 1, true},
        StagedFaultCase{sim::FaultKind::Truncate, 2, 4, false},
        StagedFaultCase{sim::FaultKind::RankFailure, 0, 1, true},
        StagedFaultCase{sim::FaultKind::RankFailure, 0, 4, false},
        StagedFaultCase{sim::FaultKind::Straggler, 1, 4, true}));

// ----------------------------------------- seeded randomized sweep

uint64_t env_u64(const char* name, uint64_t fallback) {
  const char* s = std::getenv(name);
  return (s != nullptr && *s != '\0') ? std::strtoull(s, nullptr, 10)
                                      : fallback;
}

// Full-pipeline draws over (engine, backend, mesh, threads, encoding,
// faults); every draw must validate, and a failing one prints the exact
// graph500_runner invocation — --exchange included — that replays it.
TEST(RandomizedExchangeSweep, SampledPipelinesValidateOrPrintRepro) {
  const uint64_t seed = env_u64("SUNBFS_SWEEP_SEED", 2026);
  const uint64_t iters = env_u64("SUNBFS_SWEEP_ITERS", 2);
  Xoshiro256StarStar rng(seed ^ 0xbf11);
  static const sim::MeshShape kMeshes[] = {{1, 2}, {2, 2}, {2, 4}, {4, 4}};
  static const int kThreads[] = {1, 2, 4};
  static const sim::ExchangeBackend kBackends[] = {
      sim::ExchangeBackend::Direct, sim::ExchangeBackend::Butterfly,
      sim::ExchangeBackend::TwoDCA};

  for (uint64_t it = 0; it < iters; ++it) {
    bfs::RunnerConfig cfg;
    cfg.graph.scale = int(9 + rng.next() % 3);
    cfg.graph.seed = 1 + rng.next() % 1000;
    cfg.engine = (rng.next() % 2 == 0) ? bfs::EngineKind::OneFiveD
                                       : bfs::EngineKind::OneD;
    cfg.num_roots = int(1 + rng.next() % 3);
    const int threads = kThreads[rng.next() % 3];
    cfg.bfs.threads_per_rank = threads;
    cfg.bfs1d.threads_per_rank = threads;
    const bool encoding = rng.next() % 2 == 0;
    cfg.bfs.encoding.enabled = encoding;
    cfg.bfs1d.encoding.enabled = encoding;
    const sim::ExchangeBackend backend = kBackends[1 + rng.next() % 2];
    cfg.bfs.exchange.backend = backend;
    cfg.bfs1d.exchange.backend = backend;
    const sim::MeshShape mesh = kMeshes[rng.next() % 4];
    const bool faulty = rng.next() % 2 == 0;
    const uint64_t fault_seed = 1 + rng.next() % 64;
    sim::FaultPlan plan;
    if (faulty) {
      plan = sim::FaultPlan::random(fault_seed, mesh.ranks(),
                                    /*stragglers=*/1, /*corruptions=*/2,
                                    /*failures=*/1);
      cfg.faults = &plan;
      cfg.fault_policy = sim::FaultPolicy::Recover;
    }
    cfg.validate = true;

    std::string repro =
        "graph500_runner --scale " + std::to_string(cfg.graph.scale) +
        " --seed " + std::to_string(cfg.graph.seed) + " --rows " +
        std::to_string(mesh.rows) + " --cols " + std::to_string(mesh.cols) +
        " --roots " + std::to_string(cfg.num_roots) + " --threads-per-rank " +
        std::to_string(threads) + " --engine " +
        (cfg.engine == bfs::EngineKind::OneD ? "1d" : "1.5d") +
        " --exchange " + sim::exchange_backend_name(backend);
    if (faulty)
      repro += " --faults " + std::to_string(fault_seed) +
               " --fault-policy recover";
    if (!encoding) repro += " --no-encoding";
    SCOPED_TRACE("repro: " + repro);

    sim::Topology topo(mesh);
    bfs::RunnerResult result;
    try {
      result = bfs::run_graph500(topo, cfg);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "sweep draw " << it << " threw: " << e.what()
                    << "\n  repro: " << repro;
      continue;
    }
    EXPECT_TRUE(result.spmd.ok())
        << "sweep draw " << it << " SPMD errors\n  repro: " << repro;
    EXPECT_TRUE(result.all_valid)
        << "sweep draw " << it << " failed validation\n  repro: " << repro;
  }
}

}  // namespace
}  // namespace sunbfs
