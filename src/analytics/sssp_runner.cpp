#include "analytics/sssp_runner.hpp"

#include "bfs/runner.hpp"
#include "partition/part15d.hpp"
#include "support/timer.hpp"

namespace sunbfs::analytics {

using graph::Vertex;

SsspRunnerResult run_graph500_sssp(const sim::Topology& topology,
                                   const SsspRunnerConfig& config) {
  const sim::MeshShape mesh = topology.mesh();
  const int nranks = mesh.ranks();
  const graph::Graph500Config& g = config.graph;
  partition::VertexSpace space{g.num_vertices(), nranks};

  SsspRunnerResult result;
  std::vector<Vertex> roots;
  std::vector<std::vector<Dist>> dists(size_t(config.num_roots));
  std::vector<std::vector<double>> cpu(size_t(config.num_roots),
                                       std::vector<double>(size_t(nranks), 0));
  std::vector<std::vector<double>> comm = cpu;
  uint64_t num_eh = 0;

  sim::run_spmd(topology, [&](sim::RankContext& ctx) {
    uint64_t m = g.num_edges();
    auto slice = graph::generate_rmat_range(
        g, m * uint64_t(ctx.rank) / uint64_t(nranks),
        m * uint64_t(ctx.rank + 1) / uint64_t(nranks));
    auto degrees = partition::compute_local_degrees(ctx, space, slice);
    auto part =
        partition::build_15d(ctx, space, slice, degrees, config.thresholds);
    if (ctx.rank == 0) num_eh = part.cls.num_eh();
    slice.clear();
    slice.shrink_to_fit();

    // Same deterministic root-selection protocol as the BFS runner.
    std::vector<Vertex> chosen = bfs::pick_search_keys(
        ctx, space, degrees, config.num_roots, config.root_seed ^ g.seed);
    if (ctx.rank == 0) roots = chosen;

    for (int i = 0; i < config.num_roots; ++i) {
      ctx.world.barrier();
      double comm0 = ctx.stats.total_modeled_s();
      ThreadCpuTimer timer;
      auto dist = sssp15d(ctx, part, chosen[size_t(i)], config.sssp);
      cpu[size_t(i)][size_t(ctx.rank)] = timer.seconds();
      comm[size_t(i)][size_t(ctx.rank)] =
          ctx.stats.total_modeled_s() - comm0;
      auto gathered = ctx.world.allgatherv(std::span<const Dist>(dist));
      if (ctx.rank == 0) dists[size_t(i)] = std::move(gathered);
    }
  });

  result.num_eh = num_eh;
  const std::vector<graph::Edge> all_edges = graph::generate_rmat(g);

  result.all_valid = true;
  std::vector<graph::BfsRunSample> samples;
  for (int i = 0; i < config.num_roots; ++i) {
    SsspRootRun run;
    run.root = roots[size_t(i)];
    double max_cpu = 0, max_comm = 0;
    for (int r = 0; r < nranks; ++r) {
      max_cpu = std::max(max_cpu, cpu[size_t(i)][size_t(r)]);
      max_comm = std::max(max_comm, comm[size_t(i)][size_t(r)]);
    }
    run.modeled_s = max_cpu + max_comm;
    auto v = validate_sssp(g.num_vertices(), all_edges, run.root,
                           dists[size_t(i)], config.sssp);
    run.valid = v.ok;
    run.error = v.error;
    run.traversed_edges = v.edges_in_component;
    if (!v.ok) result.all_valid = false;
    if (run.traversed_edges > 0 && run.modeled_s > 0)
      samples.push_back(
          graph::BfsRunSample{run.modeled_s, run.traversed_edges});
    result.runs.push_back(std::move(run));
  }
  if (!samples.empty())
    result.harmonic_gteps = graph::gteps(graph::harmonic_mean_teps(samples));
  return result;
}

}  // namespace sunbfs::analytics
