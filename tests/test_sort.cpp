// Tests for the sorting substrate: OCS-RMA bucket sort, baselines, PARADIS
// in-place radix sort, the LSD block radix sort and PSRS global sort.
// Heavy use of parameterized property tests: permutations preserved,
// bucket/order invariants hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "sim/runtime.hpp"
#include "sort/bucket_baselines.hpp"
#include "sort/lsd_radix.hpp"
#include "sort/ocs_rma.hpp"
#include "sort/paradis.hpp"
#include "sort/psrs.hpp"
#include "sort/two_stage.hpp"
#include "support/random.hpp"

namespace sunbfs::sort {
namespace {

std::vector<uint64_t> random_keys(size_t n, uint64_t seed,
                                  uint64_t bound = ~0ull) {
  Xoshiro256StarStar rng(seed);
  std::vector<uint64_t> v(n);
  for (auto& x : v) x = bound == ~0ull ? rng.next() : rng.next_below(bound);
  return v;
}

std::multiset<uint64_t> multiset_of(const std::vector<uint64_t>& v) {
  return {v.begin(), v.end()};
}

// ---------------------------------------------------------------- OCS-RMA

struct OcsCase {
  size_t n;
  uint32_t buckets;
  int n_cgs;
};

class OcsRmaTest : public ::testing::TestWithParam<OcsCase> {};

TEST_P(OcsRmaTest, BucketsArePermutationAndWellFormed) {
  const OcsCase c = GetParam();
  chip::Chip chip(chip::Geometry::tiny());
  auto input = random_keys(c.n, 1000 + c.n);
  std::vector<uint64_t> output(c.n, 0);
  auto bucket_of = [nb = c.buckets](uint64_t v) { return uint32_t(v % nb); };
  OcsParams params;
  params.buffer_bytes = 256;  // small LDM in tiny geometry
  auto res = ocs_rma_bucket_sort<uint64_t>(chip, input, std::span(output),
                                           c.buckets, bucket_of, c.n_cgs,
                                           params);
  ASSERT_EQ(res.offsets.size(), size_t(c.buckets) + 1);
  EXPECT_EQ(res.offsets.front(), 0u);
  EXPECT_EQ(res.offsets.back(), c.n);
  // Every element within its bucket range.
  for (uint32_t b = 0; b < c.buckets; ++b)
    for (uint64_t i = res.offsets[b]; i < res.offsets[b + 1]; ++i)
      EXPECT_EQ(bucket_of(output[i]), b) << "at " << i;
  // Multiset preserved.
  EXPECT_EQ(multiset_of(input), multiset_of(output));
  EXPECT_GT(res.report.modeled_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OcsRmaTest,
    ::testing::Values(OcsCase{0, 4, 1}, OcsCase{1, 4, 1}, OcsCase{100, 1, 1},
                      OcsCase{1000, 16, 1}, OcsCase{1000, 16, 2},
                      OcsCase{5000, 13, 2}, OcsCase{257, 16, 1},
                      OcsCase{4096, 7, 2}));

TEST(OcsRma, SingleCgUsesNoAtomics) {
  chip::Chip chip(chip::Geometry::tiny());
  auto input = random_keys(2000, 7);
  std::vector<uint64_t> out(input.size());
  OcsParams params;
  params.buffer_bytes = 256;
  auto res = ocs_rma_bucket_sort<uint64_t>(
      chip, input, std::span(out), 8,
      [](uint64_t v) { return uint32_t(v & 7); }, 1, params);
  // The paper's exclusiveness guarantee: zero atomic instructions on 1 CG.
  EXPECT_EQ(res.report.totals.atomic_ops, 0u);
}

TEST(OcsRma, MultiCgUsesAtomicsButFewerThanPerRecord) {
  chip::Chip chip(chip::Geometry::tiny());
  auto input = random_keys(4000, 8);
  std::vector<uint64_t> out(input.size());
  OcsParams params;
  params.buffer_bytes = 256;
  auto res = ocs_rma_bucket_sort<uint64_t>(
      chip, input, std::span(out), 8,
      [](uint64_t v) { return uint32_t(v & 7); }, 2, params);
  EXPECT_GT(res.report.totals.atomic_ops, 0u);
  // Batched reservation: far fewer atomics than records.
  EXPECT_LT(res.report.totals.atomic_ops, input.size() / 4);
}

TEST(OcsRma, ModeledThroughputBeatsBaselines) {
  // The Figure 14 ordering must hold even at test sizes:
  // OCS (1 CG) >> MPE, and OCS >> atomic-append.
  chip::Chip chip(chip::Geometry::tiny());
  auto input = random_keys(20000, 9);
  std::vector<uint64_t> out(input.size());
  auto bucket_of = [](uint64_t v) { return uint32_t(v & 15); };
  OcsParams params;
  params.buffer_bytes = 256;
  auto ocs = ocs_rma_bucket_sort<uint64_t>(chip, input, std::span(out), 16,
                                           bucket_of, 1, params);
  auto mpe = mpe_bucket_sort<uint64_t>(chip, input, std::span(out), 16,
                                       bucket_of);
  auto atomic = atomic_append_bucket_sort<uint64_t>(
      chip, input, std::span(out), 16, bucket_of, 1, params);
  uint64_t bytes = input.size() * sizeof(uint64_t);
  double t_ocs = ocs.report.modeled_bytes_per_s(bytes);
  double t_mpe = mpe.report.modeled_bytes_per_s(bytes);
  double t_atomic = atomic.report.modeled_bytes_per_s(bytes);
  EXPECT_GT(t_ocs, 20 * t_mpe);
  EXPECT_GT(t_ocs, 2 * t_atomic);
}

TEST(BucketBaselines, MpeAndAtomicMatchReference) {
  chip::Chip chip(chip::Geometry::tiny());
  auto input = random_keys(3000, 11);
  auto bucket_of = [](uint64_t v) { return uint32_t(v % 10); };
  std::vector<uint64_t> ref_out(input.size());
  auto ref_off = reference_bucket_sort<uint64_t>(input, std::span(ref_out), 10,
                                                 bucket_of);
  std::vector<uint64_t> mpe_out(input.size());
  auto mpe = mpe_bucket_sort<uint64_t>(chip, input, std::span(mpe_out), 10,
                                       bucket_of);
  EXPECT_EQ(mpe.offsets, ref_off);
  EXPECT_EQ(mpe_out, ref_out);  // MPE version is stable, like the reference
  std::vector<uint64_t> at_out(input.size());
  auto at = atomic_append_bucket_sort<uint64_t>(chip, input, std::span(at_out),
                                                10, bucket_of, 2);
  EXPECT_EQ(at.offsets, ref_off);
  EXPECT_EQ(multiset_of(at_out), multiset_of(ref_out));
  for (uint32_t b = 0; b < 10; ++b)
    for (uint64_t i = at.offsets[b]; i < at.offsets[b + 1]; ++i)
      EXPECT_EQ(bucket_of(at_out[i]), b);
}

// ---------------------------------------------------------------- PARADIS

class ParadisTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParadisTest, SortsRandomInput) {
  size_t n = GetParam();
  ThreadPool pool(3);
  auto v = random_keys(n, n + 1);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  paradis_sort(std::span(v), [](uint64_t x) { return x; }, pool);
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParadisTest,
                         ::testing::Values(0, 1, 2, 63, 64, 65, 1000, 100000));

TEST(Paradis, SmallKeyRange) {
  auto v = random_keys(50000, 3, 4);  // keys in [0,4)
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  paradis_sort_u64(std::span(v));
  EXPECT_EQ(v, expected);
}

TEST(Paradis, AlreadySortedAndReversed) {
  std::vector<uint64_t> v(10000);
  std::iota(v.begin(), v.end(), 0);
  auto sorted = v;
  paradis_sort_u64(std::span(v));
  EXPECT_EQ(v, sorted);
  std::reverse(v.begin(), v.end());
  paradis_sort_u64(std::span(v));
  EXPECT_EQ(v, sorted);
}

TEST(Paradis, AllEqualKeys) {
  std::vector<uint64_t> v(5000, 42);
  paradis_sort_u64(std::span(v));
  EXPECT_TRUE(std::all_of(v.begin(), v.end(),
                          [](uint64_t x) { return x == 42; }));
}

TEST(Paradis, StructWithKeyFunction) {
  struct Edge {
    uint32_t src, dst;
  };
  Xoshiro256StarStar rng(5);
  std::vector<Edge> edges(10000);
  for (auto& e : edges) {
    e.src = uint32_t(rng.next_below(1000));
    e.dst = uint32_t(rng.next_below(1000));
  }
  paradis_sort(
      std::span(edges),
      [](const Edge& e) { return (uint64_t(e.src) << 32) | e.dst; },
      ThreadPool::global());
  for (size_t i = 1; i < edges.size(); ++i) {
    uint64_t a = (uint64_t(edges[i - 1].src) << 32) | edges[i - 1].dst;
    uint64_t b = (uint64_t(edges[i].src) << 32) | edges[i].dst;
    ASSERT_LE(a, b);
  }
}

TEST(Paradis, FullWidthKeys) {
  auto v = random_keys(20000, 17);
  for (size_t i = 0; i < v.size(); i += 3) v[i] |= (uint64_t(1) << 63);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  paradis_sort_u64(std::span(v));
  EXPECT_EQ(v, expected);
}

// ------------------------------------------------------------- LSD radix

// The LSD passes must be a *stable* sort on the low `bits` bits: equal
// values keep their input order, whatever the width (0 and 64 included) and
// whether a digit is shared by every element (skipped pass).
TEST(LsdRadix, StableOnTheLowBits) {
  struct Rec {
    uint64_t value;
    uint32_t index;
  };
  for (int bits : {0, 1, 11, 12, 23, 33, 64}) {
    for (uint64_t shared_high : {0ull, 1ull}) {
      Xoshiro256StarStar rng(uint64_t(bits) * 7 + shared_high);
      std::vector<Rec> v(5000);
      for (uint32_t i = 0; i < v.size(); ++i) {
        uint64_t x = bits == 64 ? rng.next()
                                : rng.next() & ((uint64_t(1) << bits) - 1);
        // Few distinct values so stability is observable; optionally force
        // the top digit to one shared value.
        x &= ~uint64_t(0) << (bits > 4 ? bits - 4 : 0);
        if (shared_high && bits > 0) x |= uint64_t(1) << (bits - 1);
        v[i] = Rec{x, i};
      }
      auto want = v;
      std::stable_sort(
          want.begin(), want.end(),
          [](const Rec& a, const Rec& b) { return a.value < b.value; });
      std::vector<Rec> scratch(v.size());
      lsd_radix_sort(std::span<Rec>(v), std::span<Rec>(scratch),
                     [](const Rec& r) { return r.value; }, bits);
      for (size_t i = 0; i < v.size(); ++i) {
        ASSERT_EQ(v[i].value, want[i].value) << bits << " bits at " << i;
        ASSERT_EQ(v[i].index, want[i].index) << bits << " bits at " << i;
      }
    }
  }
}

// ------------------------------------------------------------------ PSRS

struct PsrsCase {
  int rows, cols;
  size_t per_rank;
};

class PsrsTest : public ::testing::TestWithParam<PsrsCase> {};

TEST_P(PsrsTest, GloballySortedAndPermutation) {
  auto c = GetParam();
  int p = c.rows * c.cols;
  std::vector<std::vector<uint64_t>> inputs(static_cast<size_t>(p));
  std::multiset<uint64_t> all;
  for (int r = 0; r < p; ++r) {
    inputs[size_t(r)] = random_keys(c.per_rank + size_t(r % 3), 100 + r);
    all.insert(inputs[size_t(r)].begin(), inputs[size_t(r)].end());
  }
  std::vector<std::vector<uint64_t>> outputs(static_cast<size_t>(p));
  sim::run_spmd(sim::MeshShape{c.rows, c.cols}, [&](sim::RankContext& ctx) {
    ThreadPool pool(2);
    outputs[size_t(ctx.rank)] = psrs_sort(
        ctx.world, inputs[size_t(ctx.rank)], [](uint64_t v) { return v; },
        pool);
  });
  // Each rank locally sorted; concatenation globally sorted; permutation.
  std::multiset<uint64_t> seen;
  uint64_t prev = 0;
  for (int r = 0; r < p; ++r) {
    for (uint64_t v : outputs[size_t(r)]) {
      ASSERT_GE(v, prev);
      prev = v;
      seen.insert(v);
    }
  }
  EXPECT_EQ(seen, all);
}

INSTANTIATE_TEST_SUITE_P(Meshes, PsrsTest,
                         ::testing::Values(PsrsCase{1, 1, 1000},
                                           PsrsCase{1, 2, 500},
                                           PsrsCase{2, 2, 2000},
                                           PsrsCase{2, 4, 1500},
                                           PsrsCase{1, 3, 0}));

TEST(Psrs, BalanceIsReasonableOnUniformKeys) {
  const int p = 4;
  std::vector<std::vector<uint64_t>> inputs(p);
  for (int r = 0; r < p; ++r) inputs[size_t(r)] = random_keys(10000, 7 + r);
  std::vector<size_t> sizes(p);
  sim::run_spmd(sim::MeshShape{2, 2}, [&](sim::RankContext& ctx) {
    ThreadPool pool(2);
    auto out = psrs_sort(ctx.world, inputs[size_t(ctx.rank)],
                         [](uint64_t v) { return v; }, pool);
    sizes[size_t(ctx.rank)] = out.size();
  });
  size_t total = 0;
  for (size_t s : sizes) total += s;
  EXPECT_EQ(total, 40000u);
  for (size_t s : sizes) {
    EXPECT_GT(s, total / p / 2);
    EXPECT_LT(s, total / p * 2);
  }
}

TEST(Psrs, DuplicateHeavyKeys) {
  // Skewed key distribution (many duplicates) must still sort correctly.
  const int p = 4;
  std::vector<std::vector<uint64_t>> inputs(p);
  for (int r = 0; r < p; ++r) inputs[size_t(r)] = random_keys(5000, r + 1, 5);
  std::vector<std::vector<uint64_t>> outputs(p);
  sim::run_spmd(sim::MeshShape{1, 4}, [&](sim::RankContext& ctx) {
    ThreadPool pool(2);
    outputs[size_t(ctx.rank)] = psrs_sort(ctx.world, inputs[size_t(ctx.rank)],
                                          [](uint64_t v) { return v; }, pool);
  });
  uint64_t prev = 0;
  size_t total = 0;
  for (auto& out : outputs)
    for (uint64_t v : out) {
      ASSERT_GE(v, prev);
      prev = v;
      ++total;
    }
  EXPECT_EQ(total, 20000u);
}


TEST(Psrs, AllEqualKeysDegenerateSplitters) {
  // Every sample equals every pivot: the partition must still conserve and
  // order the data (everything lands left of the pivots).
  const int p = 4;
  std::vector<std::vector<uint64_t>> inputs(p);
  for (auto& in : inputs) in.assign(3000, 42);
  size_t total = 0;
  sim::run_spmd(sim::MeshShape{2, 2}, [&](sim::RankContext& ctx) {
    ThreadPool pool(2);
    auto out = psrs_sort(ctx.world, inputs[size_t(ctx.rank)],
                         [](uint64_t v) { return v; }, pool);
    uint64_t n = ctx.world.allreduce_sum(uint64_t(out.size()));
    if (ctx.rank == 0) total = n;
    for (uint64_t v : out) ASSERT_EQ(v, 42u);
  });
  EXPECT_EQ(total, 12000u);
}

TEST(OcsRma, MoreBucketsThanRecords) {
  chip::Chip chip(chip::Geometry::tiny());
  std::vector<uint64_t> in = {3, 7, 11};
  std::vector<uint64_t> out(in.size());
  OcsParams params;
  params.buffer_bytes = 64;
  auto res = ocs_rma_bucket_sort<uint64_t>(
      chip, in, std::span(out), 16, [](uint64_t v) { return uint32_t(v); },
      1, params);
  EXPECT_EQ(res.offsets.back(), 3u);
  EXPECT_EQ(res.offsets[3], 0u);
  EXPECT_EQ(res.offsets[4] - res.offsets[3], 1u);   // bucket 3
  EXPECT_EQ(res.offsets[8] - res.offsets[7], 1u);   // bucket 7
  EXPECT_EQ(res.offsets[12] - res.offsets[11], 1u); // bucket 11
}

TEST(TwoStage, SubrangeLargerThanDestination) {
  chip::Chip chip(chip::Geometry::tiny());
  std::vector<uint32_t> dest(50, 0);
  std::vector<UpdateMsg<uint32_t>> msgs;
  for (uint32_t i = 0; i < 50; ++i) msgs.push_back({i, i});
  auto res = two_stage_update<uint32_t>(
      chip, msgs, std::span(dest),
      [](uint32_t& slot, const uint32_t& v) {
        slot = v;
        return true;
      },
      4096, 1, OcsParams{.buffer_bytes = 128});
  EXPECT_EQ(res.applied, 50u);
  for (uint32_t i = 0; i < 50; ++i) ASSERT_EQ(dest[i], i);
}

// ------------------------------------------------------------- two-stage

TEST(TwoStage, AppliesFirstWinsUpdatesExclusively) {
  chip::Chip chip(chip::Geometry::tiny());
  const size_t n = 4096;
  std::vector<uint64_t> dest(n, ~0ull);
  Xoshiro256StarStar rng(13);
  std::vector<UpdateMsg<uint64_t>> msgs(20000);
  for (auto& m : msgs) {
    m.dst = rng.next_below(n);
    m.value = rng.next_below(1000);
  }
  // min-wins apply is order-insensitive, so the result is deterministic.
  auto res = two_stage_update<uint64_t>(
      chip, msgs, std::span(dest),
      [](uint64_t& slot, const uint64_t& v) {
        if (v < slot) {
          slot = v;
          return true;
        }
        return false;
      },
      256, 2, OcsParams{.buffer_bytes = 256});
  std::vector<uint64_t> expected(n, ~0ull);
  for (const auto& m : msgs) expected[m.dst] = std::min(expected[m.dst], m.value);
  EXPECT_EQ(dest, expected);
  EXPECT_GE(res.applied, n / 2);  // most slots got at least one winner
  EXPECT_GT(res.report.modeled_seconds, 0.0);
}

TEST(TwoStage, ApplyPassUsesNoAtomicsOrGst) {
  chip::Chip chip(chip::Geometry::tiny());
  std::vector<uint32_t> dest(1024, 0);
  std::vector<UpdateMsg<uint32_t>> msgs(5000);
  Xoshiro256StarStar rng(14);
  for (auto& m : msgs) {
    m.dst = rng.next_below(dest.size());
    m.value = 1;
  }
  auto res = two_stage_update<uint32_t>(
      chip, msgs, std::span(dest),
      [](uint32_t& slot, const uint32_t& v) {
        slot += v;  // exclusive ownership makes plain += safe
        return true;
      },
      128, 1, OcsParams{.buffer_bytes = 256});
  // Single CG: the whole pipeline is atomic-free; no uncached stores either.
  EXPECT_EQ(res.report.totals.atomic_ops, 0u);
  EXPECT_EQ(res.report.totals.gst_ops, 0u);
  uint64_t total = 0;
  for (uint32_t d : dest) total += d;
  EXPECT_EQ(total, msgs.size());
  EXPECT_EQ(res.applied, msgs.size());
}

TEST(TwoStage, EmptyInputsAreNoops) {
  chip::Chip chip(chip::Geometry::tiny());
  std::vector<uint64_t> dest(16, 7);
  std::vector<UpdateMsg<uint64_t>> none;
  auto res = two_stage_update<uint64_t>(
      chip, none, std::span(dest),
      [](uint64_t&, const uint64_t&) { return false; });
  EXPECT_EQ(res.applied, 0u);
  for (uint64_t d : dest) EXPECT_EQ(d, 7u);
}

}  // namespace
}  // namespace sunbfs::sort
