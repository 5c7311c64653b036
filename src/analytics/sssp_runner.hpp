#pragma once

#include <string>
#include <vector>

#include "analytics/sssp.hpp"
#include "graph/gteps.hpp"
#include "graph/rmat.hpp"
#include "partition/classify.hpp"
#include "sim/runtime.hpp"

/// Graph 500 kernel 3 driver: SSSP over the same generated graph,
/// partitioning and machine as the BFS runner — the benchmark's second
/// kernel, which the paper's §8 names among the algorithms its techniques
/// carry to.  Search keys, timing and the harmonic-mean TEPS convention
/// match the BFS runner; validation uses the reference-free structural
/// rules of validate_sssp.
namespace sunbfs::analytics {

struct SsspRunnerConfig {
  graph::Graph500Config graph;
  partition::DegreeThresholds thresholds{2048, 128};
  SsspOptions sssp;
  int num_roots = 4;
  uint64_t root_seed = 7;
};

struct SsspRootRun {
  graph::Vertex root = 0;
  double modeled_s = 0;
  uint64_t traversed_edges = 0;
  bool valid = false;
  std::string error;
};

struct SsspRunnerResult {
  std::vector<SsspRootRun> runs;
  double harmonic_gteps = 0;
  bool all_valid = false;
  uint64_t num_eh = 0;
};

SsspRunnerResult run_graph500_sssp(const sim::Topology& topology,
                                   const SsspRunnerConfig& config);

}  // namespace sunbfs::analytics
