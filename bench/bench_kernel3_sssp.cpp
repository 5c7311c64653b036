// Graph 500 kernel 3 (SSSP) companion bench.
//
// Not a paper exhibit — the paper measures BFS only — but §8 names SSSP
// among the algorithms the 1.5D techniques carry to, and Graph 500 defines
// SSSP as its second kernel.  Same pipeline as the BFS headline: generate,
// partition 1.5D, run the search keys, validate (reference-free structural
// rules), report harmonic-mean GTEPS.
#include "analytics/sssp_runner.hpp"
#include "bench/common.hpp"

using namespace sunbfs;

int main(int argc, char** argv) {
  bench::init(argc, argv, "bench_kernel3_sssp");
  bench::header("Graph 500 kernel 3", "SSSP over the 1.5D partition");
  bench::paper_line(
      "SS8: 'the push-pull selection ... works on many graph algorithms, "
      "including SSSP'");

  analytics::SsspRunnerConfig cfg;
  cfg.graph.scale = 13 + bench::scale_delta();
  cfg.graph.seed = 3;
  cfg.thresholds = {1024, 128};
  cfg.num_roots = 4;
  sim::Topology topo(sim::MeshShape{2, 2});

  auto result = analytics::run_graph500_sssp(topo, cfg);

  std::printf("SCALE %d, %d ranks, %d keys, weights [1, %llu], |EH| = %llu\n\n",
              cfg.graph.scale, topo.mesh().ranks(), cfg.num_roots,
              (unsigned long long)cfg.sssp.max_weight,
              (unsigned long long)result.num_eh);
  std::printf("%6s %14s %14s %12s %7s\n", "key", "root", "trav. edges",
              "modeled s", "valid");
  for (size_t i = 0; i < result.runs.size(); ++i) {
    const auto& r = result.runs[i];
    std::printf("%6zu %14lld %14llu %12.6f %7s\n", i, (long long)r.root,
                (unsigned long long)r.traversed_edges, r.modeled_s,
                r.valid ? "yes" : r.error.c_str());
  }
  std::printf("\nharmonic mean: %.3f GTEPS (modeled)\n",
              result.harmonic_gteps);
  std::printf("all runs validated: %s\n", result.all_valid ? "YES" : "NO");

  bench::shape_line(
      "the partition built for BFS serves SSSP unchanged; every run passes "
      "the reference-free distance validation");
  bench::report().gauge("kernel3.harmonic_gteps", result.harmonic_gteps);
  bench::report().info("kernel3.all_valid",
                       result.all_valid ? "true" : "false");
  return bench::finish(result.all_valid ? 0 : 1);
}
