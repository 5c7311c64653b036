// Micro-benchmarks (google-benchmark) for the substrate kernels: PARADIS
// in-place radix sort vs std::sort, the wire encoder's block sort vs
// std::sort, R-MAT generation rate, CSR build rate, bit-vector scans.  These
// are engineering benchmarks, not paper exhibits.
#include <benchmark/benchmark.h>

#include "bench/common.hpp"

#include <algorithm>
#include <vector>

#include "graph/csr.hpp"
#include "graph/rmat.hpp"
#include "service/msbfs.hpp"
#include "sim/encoding.hpp"
#include "sort/paradis.hpp"
#include "support/bitvector.hpp"
#include "support/random.hpp"

using namespace sunbfs;

namespace {

std::vector<uint64_t> random_data(size_t n) {
  Xoshiro256StarStar rng(7);
  std::vector<uint64_t> v(n);
  for (auto& x : v) x = rng.next();
  return v;
}

void BM_ParadisSort(benchmark::State& state) {
  auto base = random_data(size_t(state.range(0)));
  ThreadPool pool(1);
  for (auto _ : state) {
    state.PauseTiming();
    auto v = base;
    state.ResumeTiming();
    sort::paradis_sort(std::span(v), [](uint64_t x) { return x; }, pool);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParadisSort)->Arg(1 << 14)->Arg(1 << 18);

void BM_StdSort(benchmark::State& state) {
  auto base = random_data(size_t(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    auto v = base;
    state.ResumeTiming();
    std::sort(v.begin(), v.end());
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StdSort)->Arg(1 << 14)->Arg(1 << 18);

// One MS-BFS destination block as a SCALE-16 2x2 serve sends it: 14-bit
// receiver-local destinations skewed toward hubs (long equal-dst runs),
// 14-bit sender-local sources, one query bit per message.
std::vector<service::MsbfsMsg> msbfs_block(size_t n) {
  Xoshiro256StarStar rng(11);
  std::vector<service::MsbfsMsg> v(n);
  for (auto& m : v) {
    const uint64_t x = rng.next_below(1 << 14);
    m.dst = uint32_t(x * x >> 14);
    m.src = uint32_t(rng.next_below(1 << 14));
    m.mask = uint64_t(1) << rng.next_below(64);
  }
  return v;
}

// Arg 1 selects the sort: 0 = std::sort(less), 1 = sim::sort_block (the
// radix block sort the encoder uses; same output order).
void BM_WireSort(benchmark::State& state) {
  using Msg = service::MsbfsMsg;
  const auto base = msbfs_block(size_t(state.range(0)));
  std::vector<Msg> scratch(base.size());
  for (auto _ : state) {
    state.PauseTiming();
    auto v = base;
    state.ResumeTiming();
    if (state.range(1) == 0)
      std::sort(v.begin(), v.end(), sim::WireFormat<Msg>::less);
    else
      sim::sort_block<Msg>(v, scratch);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel(state.range(1) == 0 ? "std::sort" : "sort_block");
}
BENCHMARK(BM_WireSort)->ArgsProduct({{1 << 14, 1 << 18}, {0, 1}});

void BM_RmatGenerate(benchmark::State& state) {
  graph::Graph500Config cfg;
  cfg.scale = int(state.range(0));
  for (auto _ : state) {
    auto edges = graph::generate_rmat_range(cfg, 0, 1 << 14);
    benchmark::DoNotOptimize(edges.data());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 14));
}
BENCHMARK(BM_RmatGenerate)->Arg(16)->Arg(24);

void BM_CsrBuild(benchmark::State& state) {
  graph::Graph500Config cfg;
  cfg.scale = 14;
  auto edges = graph::generate_rmat(cfg);
  for (auto _ : state) {
    auto csr = graph::Csr::from_undirected(cfg.num_vertices(), edges);
    benchmark::DoNotOptimize(csr.num_arcs());
  }
  state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_CsrBuild);

void BM_BitVectorScan(benchmark::State& state) {
  BitVector bv(1 << 20);
  Xoshiro256StarStar rng(3);
  for (int i = 0; i < (1 << 14); ++i) bv.set(rng.next_below(bv.size()));
  for (auto _ : state) {
    uint64_t sum = 0;
    bv.for_each_set([&](size_t i) { sum += i; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitVectorScan);

void BM_VertexScramble(benchmark::State& state) {
  graph::VertexScrambler s(30, 1);
  graph::Vertex v = 12345;
  for (auto _ : state) {
    v = s.scramble(v);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_VertexScramble);

}  // namespace

// Custom main instead of benchmark_main: google-benchmark's default main
// rejects unknown flags, so strip the observability flags (--metrics-out /
// --trace-out, handled by bench::init/finish) before Initialize sees them.
int main(int argc, char** argv) {
  sunbfs::bench::init(argc, argv, "bench_micro_kernels");
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0 ||
        std::strcmp(argv[i], "--trace-out") == 0) {
      ++i;  // skip the flag's value too
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  int pass_argc = int(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return sunbfs::bench::finish();
}
