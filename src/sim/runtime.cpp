#include "sim/runtime.hpp"

#include <mutex>
#include <thread>

#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/log.hpp"

namespace sunbfs::sim {

SpmdReport run_spmd(const Topology& topology,
                    const std::function<void(RankContext&)>& body,
                    const SpmdOptions& options) {
  const MeshShape mesh = topology.mesh();
  const int nranks = mesh.ranks();
  SUNBFS_CHECK(nranks >= 1);

  // Shared collective state: one world group, one group per row and column.
  // Barrier waiters spin before parking only when every rank thread can
  // have a core of its own; oversubscribed, a spinner steals the core the
  // rank it waits for needs.
  const bool spin = nranks <= int(std::thread::hardware_concurrency());
  std::vector<int> world_ranks(nranks);
  for (int r = 0; r < nranks; ++r) world_ranks[r] = r;
  CommShared world_shared(world_ranks, &topology, spin);

  std::vector<std::unique_ptr<CommShared>> row_shared;
  for (int r = 0; r < mesh.rows; ++r) {
    std::vector<int> ranks(mesh.cols);
    for (int c = 0; c < mesh.cols; ++c) ranks[c] = mesh.rank_of(r, c);
    row_shared.push_back(
        std::make_unique<CommShared>(ranks, &topology, spin));
  }
  std::vector<std::unique_ptr<CommShared>> col_shared;
  for (int c = 0; c < mesh.cols; ++c) {
    std::vector<int> ranks(mesh.rows);
    for (int r = 0; r < mesh.rows; ++r) ranks[r] = mesh.rank_of(r, c);
    col_shared.push_back(
        std::make_unique<CommShared>(ranks, &topology, spin));
  }

  auto abort_all = [&] {
    world_shared.barrier.abort();
    for (auto& s : row_shared) s->barrier.abort();
    for (auto& s : col_shared) s->barrier.abort();
  };

  std::vector<RankContext> contexts(nranks);
  std::mutex err_mu;
  std::exception_ptr first_error;
  // Every rank's exception message (not just the first): multi-rank failures
  // must stay diagnosable.
  std::vector<std::string> rank_errors(static_cast<size_t>(nranks));
  std::vector<bool> rank_failed(size_t(nranks), false);

  auto rank_main = [&](int rank) {
    RankContext& ctx = contexts[rank];
    ctx.rank = rank;
    ctx.mesh = mesh;
    ctx.topology = &topology;
    ctx.faults.plan = options.faults;
    ctx.faults.policy = options.policy;
    ctx.faults.checksums = options.checksums_enabled();
    ctx.world = Comm(&world_shared, rank, &ctx.stats, &ctx.faults);
    ctx.row = Comm(row_shared[mesh.row_of(rank)].get(), mesh.col_of(rank),
                   &ctx.stats, &ctx.faults);
    ctx.col = Comm(col_shared[mesh.col_of(rank)].get(), mesh.row_of(rank),
                   &ctx.stats, &ctx.faults);
    // Bind this thread to rank `rank`'s trace buffer for the body's
    // lifetime.  Buffers are keyed by global rank, so sequential run_spmd
    // calls extend one per-rank timeline.
    obs::AttachThread trace_attach(rank);
    obs::Span span("spmd", "rank_body", rank);
    try {
      body(ctx);
    } catch (const AbortError&) {
      // Another rank failed first; just unwind.
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
        rank_errors[size_t(rank)] = e.what();
        rank_failed[size_t(rank)] = true;
      }
      abort_all();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
        rank_errors[size_t(rank)] = "unknown exception";
        rank_failed[size_t(rank)] = true;
      }
      abort_all();
    }
  };

  if (nranks == 1) {
    rank_main(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(nranks);
    for (int r = 0; r < nranks; ++r)
      threads.emplace_back(rank_main, r);
    for (auto& t : threads) t.join();
  }

  if (first_error && options.policy == FaultPolicy::Abort)
    std::rethrow_exception(first_error);

  SpmdReport report;
  report.per_rank.reserve(nranks);
  report.fault_per_rank.reserve(nranks);
  for (auto& ctx : contexts) {
    report.per_rank.push_back(ctx.stats);
    report.fault_per_rank.push_back(ctx.faults.stats);
  }
  for (int r = 0; r < nranks; ++r)
    if (rank_failed[size_t(r)]) {
      report.errors.push_back("rank " + std::to_string(r) + ": " +
                              rank_errors[size_t(r)]);
      log_debug("spmd: ", report.errors.back());
    }
  return report;
}

void SpmdReport::to_report(obs::Report& report) const {
  aggregate().to_report(report, "comm.");
  fault_totals().to_report(report, "fault.");
  report.add_counter("spmd.ranks", uint64_t(per_rank.size()));
  report.add_counter("spmd.rank_errors", uint64_t(errors.size()));
  report.gauge("spmd.modeled_comm_s", modeled_comm_s());
}

SpmdReport run_spmd(const Topology& topology,
                    const std::function<void(RankContext&)>& body) {
  return run_spmd(topology, body, SpmdOptions{});
}

SpmdReport run_spmd(MeshShape mesh,
                    const std::function<void(RankContext&)>& body) {
  Topology topology(mesh);
  return run_spmd(topology, body, SpmdOptions{});
}

}  // namespace sunbfs::sim
