// Tests for the SPMD runtime: topology cost model, barriers and every
// collective, including sub-communicators, statistics and abort semantics.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>

#include "sim/runtime.hpp"
#include "support/check.hpp"
#include "support/random.hpp"

namespace sunbfs::sim {
namespace {

TEST(Topology, SupernodeMappingFollowsRows) {
  Topology topo(MeshShape{4, 3});
  EXPECT_EQ(topo.ranks_per_supernode(), 3);
  EXPECT_EQ(topo.supernode_count(), 4);
  EXPECT_TRUE(topo.same_supernode(0, 2));
  EXPECT_FALSE(topo.same_supernode(2, 3));
  EXPECT_EQ(topo.supernode_of(11), 3);
}

TEST(Topology, CustomSupernodeSize) {
  TopologyParams p;
  p.ranks_per_supernode = 2;
  Topology topo(MeshShape{2, 4}, p);
  EXPECT_EQ(topo.supernode_count(), 4);
  EXPECT_TRUE(topo.same_supernode(0, 1));
  EXPECT_FALSE(topo.same_supernode(1, 2));
}

TEST(Topology, InterSupernodeBytesCostMore) {
  Topology topo(MeshShape{4, 4});
  double intra = topo.transfer_time(4, 1 << 20, 0);
  double inter = topo.transfer_time(4, 0, 1 << 20);
  EXPECT_GT(inter, intra * 4);  // 8x oversubscription on the default params
}

TEST(Topology, LatencyGrowsWithParticipants) {
  Topology topo(MeshShape{16, 16});
  EXPECT_LT(topo.transfer_time(2, 0, 0), topo.transfer_time(256, 0, 0));
}

TEST(MeshShape, RowMajorNumbering) {
  MeshShape m{3, 5};
  EXPECT_EQ(m.ranks(), 15);
  EXPECT_EQ(m.row_of(7), 1);
  EXPECT_EQ(m.col_of(7), 2);
  EXPECT_EQ(m.rank_of(1, 2), 7);
}

TEST(Runtime, RunsEveryRankOnce) {
  std::vector<std::atomic<int>> counts(6);
  run_spmd(MeshShape{2, 3}, [&](RankContext& ctx) {
    counts[ctx.rank].fetch_add(1);
    EXPECT_EQ(ctx.world.size(), 6);
    EXPECT_EQ(ctx.row.size(), 3);
    EXPECT_EQ(ctx.col.size(), 2);
    EXPECT_EQ(ctx.row.rank(), ctx.col_index());
    EXPECT_EQ(ctx.col.rank(), ctx.row_index());
  });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(Runtime, SingleRankWorks) {
  int ran = 0;
  run_spmd(MeshShape{1, 1}, [&](RankContext& ctx) {
    ran = 1;
    EXPECT_EQ(ctx.world.allreduce_sum(5), 5);
  });
  EXPECT_EQ(ran, 1);
}

TEST(Runtime, ExceptionAbortsAllRanksAndRethrows) {
  EXPECT_THROW(run_spmd(MeshShape{2, 2},
                        [&](RankContext& ctx) {
                          if (ctx.rank == 2) throw std::runtime_error("rank2");
                          // Other ranks block in a barrier; must be released.
                          ctx.world.barrier();
                          ctx.world.barrier();
                        }),
               std::runtime_error);
}

TEST(Collectives, AllreduceSumAndMax) {
  run_spmd(MeshShape{2, 2}, [&](RankContext& ctx) {
    int sum = ctx.world.allreduce_sum(ctx.rank + 1);
    EXPECT_EQ(sum, 1 + 2 + 3 + 4);
    int mx = ctx.world.allreduce_max(ctx.rank * 10);
    EXPECT_EQ(mx, 30);
    EXPECT_TRUE(ctx.world.allreduce_or(ctx.rank == 3));
    EXPECT_FALSE(ctx.world.allreduce_or(false));
  });
}

TEST(Collectives, AllgatherOrdersByRank) {
  run_spmd(MeshShape{1, 4}, [&](RankContext& ctx) {
    auto got = ctx.world.allgather(100 + ctx.rank);
    EXPECT_EQ(got, (std::vector<int>{100, 101, 102, 103}));
  });
}

TEST(Collectives, AllgathervVariableSizes) {
  run_spmd(MeshShape{2, 2}, [&](RankContext& ctx) {
    std::vector<int> mine(size_t(ctx.rank), ctx.rank);  // rank r sends r copies
    std::vector<size_t> offsets;
    auto got = ctx.world.allgatherv(std::span<const int>(mine), &offsets);
    EXPECT_EQ(got.size(), 0u + 1 + 2 + 3);
    EXPECT_EQ(offsets, (std::vector<size_t>{0, 0, 1, 3, 6}));
    EXPECT_EQ(got, (std::vector<int>{1, 2, 2, 3, 3, 3}));
  });
}

TEST(Collectives, ReduceScatterBlockSums) {
  // Each rank contributes [rank, rank, rank, rank] over 2 blocks of size 2;
  // rank r receives block r summed over ranks.
  run_spmd(MeshShape{1, 2}, [&](RankContext& ctx) {
    std::vector<int> contrib = {ctx.rank, ctx.rank + 1, 10 * ctx.rank,
                                10 * ctx.rank + 1};
    auto mine = ctx.world.reduce_scatter_block(
        std::span<const int>(contrib), 2, [](int a, int b) { return a + b; });
    ASSERT_EQ(mine.size(), 2u);
    if (ctx.rank == 0) {
      EXPECT_EQ(mine[0], 0 + 1);
      EXPECT_EQ(mine[1], 1 + 2);
    } else {
      EXPECT_EQ(mine[0], 0 + 10);
      EXPECT_EQ(mine[1], 1 + 11);
    }
  });
}

TEST(Collectives, AllreduceInplaceUnionsWords) {
  run_spmd(MeshShape{2, 2}, [&](RankContext& ctx) {
    std::vector<uint64_t> bits(8, 0);
    bits[size_t(ctx.rank) * 2] = uint64_t(1) << ctx.rank;
    ctx.world.allreduce_inplace(std::span<uint64_t>(bits),
                                [](uint64_t a, uint64_t b) { return a | b; });
    for (int r = 0; r < 4; ++r)
      EXPECT_EQ(bits[size_t(r) * 2], uint64_t(1) << r) << "rank " << r;
    EXPECT_EQ(bits[1], 0u);
  });
}

TEST(Collectives, AlltoallvRoutesMessages) {
  run_spmd(MeshShape{2, 2}, [&](RankContext& ctx) {
    int p = ctx.world.size();
    // Rank s sends (s*10+d) repeated (s+d) times to rank d.
    std::vector<std::vector<int>> to(p);
    for (int d = 0; d < p; ++d)
      to[d].assign(size_t(ctx.rank + d), ctx.rank * 10 + d);
    std::vector<size_t> src_off;
    auto got = ctx.world.alltoallv(to, &src_off);
    ASSERT_EQ(src_off.size(), size_t(p) + 1);
    for (int s = 0; s < p; ++s) {
      size_t n = src_off[s + 1] - src_off[s];
      EXPECT_EQ(n, size_t(s + ctx.rank));
      for (size_t i = src_off[s]; i < src_off[s + 1]; ++i)
        EXPECT_EQ(got[i], s * 10 + ctx.rank);
    }
  });
}

TEST(Collectives, AlltoallvEmptyMessagesOk) {
  run_spmd(MeshShape{1, 3}, [&](RankContext& ctx) {
    std::vector<std::vector<int>> to(3);
    auto got = ctx.world.alltoallv(to);
    EXPECT_TRUE(got.empty());
  });
}

TEST(Collectives, BroadcastFromNonzeroRoot) {
  run_spmd(MeshShape{2, 2}, [&](RankContext& ctx) {
    std::vector<double> data(5, ctx.rank == 2 ? 3.25 : 0.0);
    ctx.world.broadcast(std::span<double>(data), 2);
    for (double d : data) EXPECT_DOUBLE_EQ(d, 3.25);
  });
}

TEST(Collectives, RowAndColumnCommsAreDisjoint) {
  run_spmd(MeshShape{2, 3}, [&](RankContext& ctx) {
    // Row sum: ranks in row r are {3r, 3r+1, 3r+2}.
    int row_sum = ctx.row.allreduce_sum(ctx.rank);
    int r = ctx.row_index();
    EXPECT_EQ(row_sum, 3 * r + 3 * r + 1 + 3 * r + 2);
    // Column gather: ranks in column c are {c, c+3}.
    auto col = ctx.col.allgather(ctx.rank);
    EXPECT_EQ(col, (std::vector<int>{ctx.col_index(), ctx.col_index() + 3}));
  });
}

TEST(Stats, BytesAndModeledTimeRecorded) {
  auto report = run_spmd(MeshShape{2, 2}, [&](RankContext& ctx) {
    std::vector<std::vector<int>> to(4);
    for (int d = 0; d < 4; ++d) to[d].assign(100, d);
    ctx.world.alltoallv(to);
  });
  const auto& e0 = report.per_rank[0].entry(CollectiveType::Alltoallv);
  EXPECT_EQ(e0.calls, 1u);
  // 3 remote destinations x 100 ints.
  EXPECT_EQ(e0.bytes_sent, 3u * 100 * sizeof(int));
  EXPECT_GT(e0.modeled_s, 0.0);
  // In a 2x2 mesh with rows as supernodes, half of remote traffic crosses.
  EXPECT_EQ(e0.bytes_inter_supernode, 2u * 100 * sizeof(int));
  // Modeled time identical on all ranks.
  for (const auto& s : report.per_rank)
    EXPECT_DOUBLE_EQ(s.entry(CollectiveType::Alltoallv).modeled_s,
                     e0.modeled_s);
  CommStats agg = report.aggregate();
  EXPECT_EQ(agg.entry(CollectiveType::Alltoallv).calls, 4u);
}

TEST(Stats, MergeAndReset) {
  CommStats a, b;
  a.record(CollectiveType::Allgather, 100, 40, 0.5, 0.6, 0.05);
  b.record(CollectiveType::Allgather, 50, 0, 0.1, 0.2, 0.01);
  a.merge(b);
  EXPECT_EQ(a.entry(CollectiveType::Allgather).bytes_sent, 150u);
  EXPECT_EQ(a.entry(CollectiveType::Allgather).calls, 2u);
  EXPECT_DOUBLE_EQ(a.total_modeled_s(), 0.6);
  a.reset();
  EXPECT_EQ(a.total_bytes_sent(), 0u);
}

TEST(Collectives, InplaceAllreduceSingleRankIsNoop) {
  sim::run_spmd(sim::MeshShape{1, 1}, [&](sim::RankContext& ctx) {
    std::vector<uint64_t> data = {1, 2, 3};
    ctx.world.allreduce_inplace(std::span<uint64_t>(data),
                                [](uint64_t a, uint64_t b) { return a | b; });
    EXPECT_EQ(data, (std::vector<uint64_t>{1, 2, 3}));
    // No bytes recorded for the no-op.
    EXPECT_EQ(ctx.stats.entry(CollectiveType::Allreduce).calls, 0u);
  });
}

TEST(Collectives, AllgathervAllEmpty) {
  sim::run_spmd(sim::MeshShape{2, 2}, [&](sim::RankContext& ctx) {
    std::vector<int> nothing;
    std::vector<size_t> off;
    auto got = ctx.world.allgatherv(std::span<const int>(nothing), &off);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(off, (std::vector<size_t>{0, 0, 0, 0, 0}));
  });
}

TEST(Collectives, BroadcastStructPayload) {
  struct Payload {
    double a;
    int b;
  };
  sim::run_spmd(sim::MeshShape{1, 3}, [&](sim::RankContext& ctx) {
    std::vector<Payload> data(4);
    if (ctx.rank == 1)
      for (int i = 0; i < 4; ++i) data[size_t(i)] = {i * 1.5, i};
    ctx.world.broadcast(std::span<Payload>(data), 1);
    for (int i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(data[size_t(i)].a, i * 1.5);
      EXPECT_EQ(data[size_t(i)].b, i);
    }
  });
}

TEST(Collectives, AllreduceMinOnSigned) {
  sim::run_spmd(sim::MeshShape{2, 2}, [&](sim::RankContext& ctx) {
    int64_t v = ctx.rank == 2 ? -5 : ctx.rank;
    int64_t mn = ctx.world.allreduce(
        v, [](int64_t a, int64_t b) { return std::min(a, b); });
    EXPECT_EQ(mn, -5);
  });
}

TEST(Barrier, ManyIterationsStayInSync) {
  // Stress sequencing: a counter that every rank increments between barriers
  // must be exactly nranks * i after barrier i.
  const int iters = 50;
  std::atomic<int> counter{0};
  run_spmd(MeshShape{1, 4}, [&](RankContext& ctx) {
    for (int i = 1; i <= iters; ++i) {
      counter.fetch_add(1);
      ctx.world.barrier();
      EXPECT_EQ(counter.load(), 4 * i);
      ctx.world.barrier();
    }
  });
}


// ---- rendezvous: spin-then-park barrier, one-barrier collectives ----------

int host_cores() {
  return std::max(1, int(std::thread::hardware_concurrency()));
}

/// `participants` threads run `iters` rounds of increment / wait / check /
/// wait on one barrier; the counter must read participants * i after round i.
void expect_barrier_in_sync(int participants, bool spin, int iters) {
  Barrier barrier(participants, spin);
  std::atomic<int> counter{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < participants; ++t)
    threads.emplace_back([&] {
      for (int i = 1; i <= iters; ++i) {
        counter.fetch_add(1);
        barrier.wait();
        if (counter.load() != participants * i) mismatches.fetch_add(1);
        barrier.wait();
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(counter.load(), participants * iters);
}

TEST(Barrier, InSyncWithMoreParticipantsThanCoresParking) {
  expect_barrier_in_sync(host_cores() + 2, /*spin=*/false, 200);
}

TEST(Barrier, InSyncWithFewerParticipantsThanCoresSpinning) {
  expect_barrier_in_sync(std::max(2, host_cores() / 2), /*spin=*/true, 2000);
}

TEST(Barrier, SpinningBarrierStaysInSyncWhenOversubscribed) {
  // The adaptive budget must keep an oversubscribed spinner correct (and
  // terminating): waiters fall back to parking.
  expect_barrier_in_sync(host_cores() + 2, /*spin=*/true, 200);
}

TEST(Barrier, AbortWakesSpinningAndParkedWaiters) {
  // Abort after no delay (waiters still arriving or spinning), a short one
  // (spinning) and a long one (parked): every waiter must get AbortError.
  for (bool spin : {false, true})
    for (int delay_us : {0, 50, 20000}) {
      Barrier barrier(3, spin);
      std::atomic<int> aborted{0};
      std::vector<std::thread> waiters;
      for (int t = 0; t < 2; ++t)
        waiters.emplace_back([&] {
          try {
            barrier.wait();
          } catch (const AbortError&) {
            aborted.fetch_add(1);
          }
        });
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      barrier.abort();
      for (auto& t : waiters) t.join();
      EXPECT_EQ(aborted.load(), 2) << "spin " << spin << " delay " << delay_us;
      EXPECT_THROW(barrier.wait(), AbortError);
    }
}

TEST(Barrier, CompletedExitWaitSurvivesARacingAbort) {
  // The last participant aborts right after the exit wait completes; the
  // others' completed exit wait must still return normally.
  for (bool spin : {false, true})
    for (int round = 0; round < 200; ++round) {
      Barrier barrier(3, spin);
      std::atomic<int> threw{0};
      auto waiter = [&] {
        try {
          barrier.wait(/*exit=*/true);
        } catch (const AbortError&) {
          threw.fetch_add(1);
        }
      };
      std::thread a(waiter), b(waiter);
      try {
        barrier.wait(/*exit=*/true);
      } catch (const AbortError&) {
        threw.fetch_add(1);
      }
      barrier.abort();
      a.join();
      b.join();
      ASSERT_EQ(threw.load(), 0) << "spin " << spin << " round " << round;
    }
}

/// A 64-byte allgather payload: the largest an inline slot takes.
struct Wide {
  std::array<uint64_t, 8> w;
  bool operator==(const Wide&) const = default;
};
static_assert(sizeof(Wide) == InlineSlot::kBytes);

uint64_t stress_value(uint64_t seed, int rank, int iter) {
  return SplitMix64::mix(seed ^ (uint64_t(rank) << 40) ^ uint64_t(iter)) %
         1000003;
}

Wide stress_wide(uint64_t seed, int rank, int iter) {
  Wide w;
  for (size_t k = 0; k < w.w.size(); ++k)
    w.w[k] = stress_value(seed + k, rank, iter);
  return w;
}

/// Seeded parity stress: every rank runs the same seeded schedule of
/// fixed-size (one-barrier) and variable-size collectives on the world, row
/// and column communicators, with a seeded per-iteration compute skew so
/// ranks race each other into consecutive calls; each result is checked
/// against the value a serial model computes from the same formulas.
void parity_stress(MeshShape mesh, uint64_t seed, int iters) {
  std::atomic<int> wrong{0};
  run_spmd(mesh, [&](RankContext& ctx) {
    const int p = ctx.nranks();
    auto check = [&](bool ok) {
      if (!ok) wrong.fetch_add(1);
    };
    for (int i = 0; i < iters; ++i) {
      // Skew: spin for 0..~40 us, different per rank and iteration.
      auto until = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(
                       SplitMix64::mix(seed * 31 + uint64_t(ctx.rank) * 7 +
                                       uint64_t(i)) %
                       40);
      while (std::chrono::steady_clock::now() < until) {
      }
      const uint64_t mine = stress_value(seed, ctx.rank, i);
      switch (SplitMix64::mix(seed ^ uint64_t(i)) % 6) {
        case 0: {  // world allreduce, the per-level control collective
          uint64_t want = 0;
          for (int r = 0; r < p; ++r) want += stress_value(seed, r, i);
          check(ctx.world.allreduce_sum(mine) == want);
          break;
        }
        case 1: {  // row allgather of a full 64-byte slot
          auto got = ctx.row.allgather(stress_wide(seed, ctx.rank, i));
          for (int c = 0; c < ctx.mesh.cols; ++c)
            check(got[size_t(c)] ==
                  stress_wide(seed, ctx.mesh.rank_of(ctx.row_index(), c), i));
          break;
        }
        case 2: {  // column max, back to back with a world allgather
          uint64_t want = 0;
          for (int r = 0; r < ctx.mesh.rows; ++r)
            want = std::max(
                want, stress_value(seed, ctx.mesh.rank_of(r, ctx.col_index()),
                                   i));
          check(ctx.col.allreduce_max(mine) == want);
          auto all = ctx.world.allgather(mine);
          for (int r = 0; r < p; ++r)
            check(all[size_t(r)] == stress_value(seed, r, i));
          break;
        }
        case 3: {  // world alltoallv with seeded message lengths
          std::vector<std::vector<uint64_t>> to{size_t(p)};
          for (int d = 0; d < p; ++d)
            to[size_t(d)].assign((mine + uint64_t(d)) % 4,
                                 mine * 16 + uint64_t(d));
          std::vector<size_t> off;
          auto got = ctx.world.alltoallv(to, &off);
          for (int s = 0; s < p; ++s) {
            const uint64_t sv = stress_value(seed, s, i);
            check(off[size_t(s) + 1] - off[size_t(s)] ==
                  (sv + uint64_t(ctx.rank)) % 4);
            for (size_t k = off[size_t(s)]; k < off[size_t(s) + 1]; ++k)
              check(got[k] == sv * 16 + uint64_t(ctx.rank));
          }
          break;
        }
        case 4: {  // row bit-union in place, then a row sum
          std::vector<uint64_t> bits(4, 0);
          bits[mine % 4] = uint64_t(1) << (mine % 64);
          ctx.row.allreduce_inplace(
              std::span<uint64_t>(bits),
              [](uint64_t a, uint64_t b) { return a | b; });
          std::vector<uint64_t> want(4, 0);
          uint64_t sum = 0;
          for (int c = 0; c < ctx.mesh.cols; ++c) {
            uint64_t v =
                stress_value(seed, ctx.mesh.rank_of(ctx.row_index(), c), i);
            want[v % 4] |= uint64_t(1) << (v % 64);
            sum += v;
          }
          check(bits == want);
          check(ctx.row.allreduce_sum(mine) == sum);
          break;
        }
        default: {  // three world allreduces in a row: parity wraps twice
          uint64_t want = 0;
          for (int r = 0; r < p; ++r) want += stress_value(seed, r, i);
          check(ctx.world.allreduce_sum(mine) == want);
          check(ctx.world.allreduce_sum(mine + 1) == want + uint64_t(p));
          bool any = false;
          for (int r = 0; r < p; ++r)
            any |= stress_value(seed, r, i) % uint64_t(p) == uint64_t(r);
          check(ctx.world.allreduce_or(mine % uint64_t(p) ==
                                       uint64_t(ctx.rank)) == any);
          break;
        }
      }
    }
  });
  EXPECT_EQ(wrong.load(), 0) << "mesh " << mesh.rows << "x" << mesh.cols
                             << " seed " << seed;
}

TEST(Collectives, ParityStressAgainstSerialModel) {
  // 2x2 fits a 4-core host (spinning barriers); 2x3 oversubscribes it.
  for (uint64_t seed : {1, 2})
    parity_stress(MeshShape{2, 2}, seed, 600);
  parity_stress(MeshShape{2, 3}, 3, 300);
}

/// What one run of six world allreduces under a fault plan produced.
struct AllreduceFaultOutcome {
  SpmdReport report;        ///< when the run returned
  bool threw = false;       ///< the run rethrew a detection (abort policy)
  FaultDetected error{""};  ///< that detection
  std::vector<std::array<uint64_t, 6>> sums;  ///< [rank][call] results
  std::atomic<int> corrupted_callers{0};  ///< callers whose value changed
};

/// Run `nranks` ranks through six world allreduces of rank- and
/// call-dependent values under `plan`; every rank records each result and
/// whether its own value was modified by the call.
void allreduce_fault_run(AllreduceFaultOutcome& out, const FaultPlan& plan,
                         FaultPolicy policy, int nranks) {
  out.sums.assign(size_t(nranks), {});
  Topology topo(MeshShape{1, nranks});
  SpmdOptions opts;
  opts.policy = policy;
  opts.faults = &plan;
  try {
    out.report = run_spmd(
        topo,
        [&](RankContext& ctx) {
          for (int call = 0; call < 6; ++call) {
            const uint64_t value = uint64_t(ctx.rank + 1) << (8 * call % 48);
            const uint64_t before = value;
            out.sums[size_t(ctx.rank)][size_t(call)] =
                ctx.world.allreduce_sum(value);
            if (value != before) out.corrupted_callers.fetch_add(1);
          }
        },
        opts);
  } catch (const FaultDetected& e) {
    out.threw = true;
    out.error = e;
  }
}

TEST(FaultSurface, AllreduceCorruptionDetectedAndAttributed) {
  const int nranks = 4;
  for (FaultKind kind : {FaultKind::BitFlip, FaultKind::Truncate}) {
    const int src = 2;
    const uint64_t bad_call = 3;
    FaultPlan plan;
    if (kind == FaultKind::BitFlip)
      plan.add_bitflip(src, CollectiveType::Allreduce, bad_call);
    else
      plan.add_truncate(src, CollectiveType::Allreduce, bad_call);
    auto clean_sum = [&](int call, bool drop_src) {
      uint64_t s = 0;
      for (int r = 0; r < nranks; ++r)
        if (!(drop_src && r == src)) s += uint64_t(r + 1) << (8 * call % 48);
      return s;
    };

    // Abort: the detection names the corrupting rank and the collective.
    AllreduceFaultOutcome aborted;
    allreduce_fault_run(aborted, plan, FaultPolicy::Abort, nranks);
    ASSERT_TRUE(aborted.threw) << fault_kind_name(kind);
    EXPECT_EQ(aborted.error.collective, CollectiveType::Allreduce);
    EXPECT_EQ(aborted.error.source_rank, src);
    EXPECT_NE(std::string(aborted.error.what()).find("from rank 2"),
              std::string::npos)
        << aborted.error.what();
    for (int r = 0; r < nranks; ++r)
      for (int call = 0; call < int(bad_call); ++call)
        EXPECT_EQ(aborted.sums[size_t(r)][size_t(call)],
                  clean_sum(call, false));
    EXPECT_EQ(aborted.corrupted_callers.load(), 0);

    // Recover: every rank drops the same source at the bad call, flags a
    // pending fault and carries on; the other calls are untouched.
    AllreduceFaultOutcome recovered;
    allreduce_fault_run(recovered, plan, FaultPolicy::Recover, nranks);
    ASSERT_FALSE(recovered.threw) << recovered.error.what();
    EXPECT_TRUE(recovered.report.ok());
    for (int r = 0; r < nranks; ++r)
      for (int call = 0; call < 6; ++call)
        EXPECT_EQ(recovered.sums[size_t(r)][size_t(call)],
                  clean_sum(call, call == int(bad_call)))
            << "rank " << r << " call " << call;
    const FaultStats f = recovered.report.fault_totals();
    EXPECT_EQ(f.injected_corruptions, 1u);
    EXPECT_EQ(f.detected, uint64_t(nranks));  // every rank verifies every slot
    EXPECT_EQ(recovered.corrupted_callers.load(), 0);
  }
}

}  // namespace
}  // namespace sunbfs::sim
