#include "service/session.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "bfs/runner.hpp"
#include "bfs/workspace.hpp"
#include "mutate/apply.hpp"
#include "mutate/log.hpp"
#include "mutate/repair.hpp"
#include "partition/part15d.hpp"
#include "partition/part1d.hpp"
#include "support/check.hpp"
#include "support/log.hpp"

namespace sunbfs::service {

using graph::Vertex;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(p / 100.0 * double(samples.size()));
  size_t idx = rank < 1 ? 0 : size_t(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

void ServiceReport::to_report(obs::Report& report) const {
  report.add_counter("service.submitted", submitted);
  report.add_counter("service.accepted", accepted);
  report.add_counter("service.rejected", rejected);
  report.add_counter("service.completed", completed);
  report.add_counter("service.expired_in_queue", expired_in_queue);
  report.add_counter("service.expired_late", expired_late);
  report.add_counter("service.batches", batches);
  // Degraded-mode counters (docs/OBSERVABILITY.md "service.fault.*").
  report.add_counter("service.fault.shed", shed);
  report.add_counter("service.fault.failed", failed);
  report.add_counter("service.fault.retried", retried);
  report.add_counter("service.fault.failed_batches", failed_batches);
  report.add_counter("service.fault.hedged_batches", hedged_batches);
  report.add_counter("service.fault.breaker_transitions", breaker_transitions);
  report.add_counter("service.staging_allocs_warmup", staging_allocs_warmup);
  report.add_counter("service.staging_allocs", staging_allocs_steady);
  // Distance-oracle counters (docs/OBSERVABILITY.md "service.cache.*").
  report.add_counter("service.cache.probes", cache.probes);
  report.add_counter("service.cache.hits", cache.hits);
  report.add_counter("service.cache.misses", cache.misses);
  report.add_counter("service.cache.expired", cache.expired);
  report.add_counter("service.cache.refreshes", cache.refreshes);
  report.add_counter("service.cache.sketch_answers", cache.sketch_answers);
  report.add_counter("service.cache.tree_hits", cache.tree_hits);
  report.gauge("service.cache.hit_rate", cache.hit_rate());
  // Streaming-mutation counters (docs/OBSERVABILITY.md "service.mutate.*").
  report.add_counter("service.mutate.batches", mutate.batches);
  report.add_counter("service.mutate.epoch", mutate.epoch);
  report.add_counter("service.mutate.inserted_arcs", mutate.inserted_arcs);
  report.add_counter("service.mutate.deleted_arcs", mutate.deleted_arcs);
  report.add_counter("service.mutate.delete_misses", mutate.delete_misses);
  report.add_counter("service.mutate.compactions", mutate.compactions);
  report.add_counter("service.mutate.repair_invalidated",
                     mutate.repair_invalidated);
  report.add_counter("service.mutate.repair_relaxations",
                     mutate.repair_relaxations);
  report.add_counter("service.mutate.repair_rounds", mutate.repair_rounds);
  report.add_counter("service.mutate.sketch_repairs", mutate.sketch_repairs);
  report.gauge("service.batch_occupancy", mean_batch_occupancy);
  report.gauge("service.makespan_s", makespan_s);
  report.gauge("service.qps", qps);
  report.gauge("service.latency_mean_s", latency_mean_s);
  report.gauge("service.latency_p50_s", latency_p50_s);
  report.gauge("service.latency_p95_s", latency_p95_s);
  report.gauge("service.latency_p99_s", latency_p99_s);
  spmd.to_report(report);
}

ServiceReport GraphSession::serve(const WorkloadConfig& workload,
                                  const BrokerConfig& broker_cfg) const {
  const int nranks = topology_.mesh().ranks();
  SUNBFS_CHECK(broker_cfg.batch_width >= 1 &&
               broker_cfg.batch_width <= kMaxBatchWidth);
  const graph::Graph500Config& g = config_.graph;
  partition::VertexSpace space{g.num_vertices(), nranks};

  SUNBFS_CHECK(config_.retry_budget >= 0);

  ServiceReport report;
  // Rank 0's copies of the (replicated) serving outcome.
  std::vector<QueryResult> results0;
  uint64_t submitted = 0, accepted = 0, rejected = 0, shed = 0;
  uint64_t expired_in_queue = 0, expired_late = 0, completed = 0, failed = 0;
  uint64_t retried = 0, batches = 0, failed_batches = 0, hedged_batches = 0;
  uint64_t breaker_transitions = 0, allocs_warm = 0, allocs_steady = 0;
  double occupancy_sum = 0, makespan = 0;
  oracle::CacheStats cache_stats;
  MutateStats mut_stats;

  sim::SpmdOptions spmd_opts;
  spmd_opts.policy = config_.fault_policy;
  spmd_opts.faults = config_.faults.empty() ? nullptr : &config_.faults;
  spmd_opts.checksums = config_.checksums;

  const auto body = [&](sim::RankContext& ctx) {
    // Faults stay disarmed outside engine executions: setup and the
    // service-level reductions are not the recoverable surface, and the
    // plan's call indices must count engine collectives alone.
    ctx.faults.armed = false;
    // ---- Setup: once per session, resident for the whole workload. ------
    bfs::BfsWorkspace ws(resolve_threads_per_rank(config_.threads_per_rank,
                                                  size_t(nranks)));
    uint64_t m = g.num_edges();
    auto slice = graph::generate_rmat_range(
        g, m * uint64_t(ctx.rank) / uint64_t(nranks),
        m * uint64_t(ctx.rank + 1) / uint64_t(nranks), &ws.pool());
    auto degrees = partition::compute_local_degrees(ctx, space, slice);
    partition::Part1d part1 = partition::build_1d(ctx, space, slice);
    std::optional<partition::Part15d> part15;
    if (workload.sssp_fraction > 0)
      part15 = partition::build_15d(ctx, space, slice, degrees,
                                    config_.thresholds);
    slice.clear();
    slice.shrink_to_fit();
    const uint64_t local_count = space.count(ctx.rank);

    std::vector<Vertex> roots = bfs::pick_search_keys(
        ctx, space, degrees, config_.root_pool, config_.root_seed ^ g.seed);

    // ---- Streaming mutations (src/mutate, "Mutations & epochs"). --------
    // The log is a replicated model of the full edge multiset: every rank
    // regenerates the whole edge list once and steps an identical seeded
    // generator, so batches need no communication to agree and each rank
    // filters a batch down to the arcs it stores (apply_batch_1d/15d).
    const MutationConfig& mcfg = config_.mutation;
    const bool mutating =
        mcfg.enabled && mcfg.every > 0 && mcfg.max_batches > 0;
    std::optional<mutate::MutationLog> mut_log;
    if (mutating) {
      auto full = graph::generate_rmat_range(g, 0, m, &ws.pool());
      mutate::MutationLogConfig lc;
      lc.seed = mcfg.seed;
      lc.inserts_per_batch = mcfg.inserts_per_batch;
      lc.deletes_per_batch = mcfg.deletes_per_batch;
      lc.phantom_fraction = mcfg.phantom_fraction;
      mut_log.emplace(lc, space.total, full);
    }
    // Worst-case arcs this rank can ever hold: the built partition plus
    // every insert of every batch landing here.  Staging pools primed with
    // this headroom stay alloc-free across the whole mutating run.
    const size_t insert_headroom =
        mutating ? 2 * size_t(mcfg.max_batches) *
                       size_t(std::max(0, mcfg.inserts_per_batch))
                 : 0;

    // ---- Distance-oracle cache (src/service/oracle/). -------------------
    // Landmarks pin the hot prefix of the root pool (under a zipfian
    // workload those ARE the hot roots and targets); their sketch is built
    // lazily on the first point-to-point probe and refreshed on lease
    // expiry.  The oracle is replicated on every rank: its inputs are the
    // virtual clock, the replicated query stream and depth rows allgathered
    // after each engine batch, so hit/miss decisions never diverge and the
    // SPMD collective order stays aligned.
    oracle::DistanceOracle cache(config_.cache, space.total);
    std::vector<Vertex> landmarks;
    if (config_.cache.enabled && config_.cache.landmarks > 0) {
      const size_t k = std::min({size_t(config_.cache.landmarks), roots.size(),
                                 size_t(kMaxBatchWidth)});
      landmarks.assign(roots.begin(), roots.begin() + ptrdiff_t(k));
    }
    // Resident scratch for the depth-row allgathers (reused across batches —
    // no steady-state growth).
    std::vector<int32_t> depth_gather;
    std::vector<size_t> depth_off;

    // Warm staging for the batched visits: one message per cross-rank
    // frontier edge, bounded by this rank's arc count.
    sim::ExchangeChannel<MsbfsMsg> staging;
    const sim::ExchangePlan msbfs_plan = sim::ExchangePlan::build(
        config_.msbfs.exchange.backend, ctx.nranks(), ctx.mesh);
    {
      const size_t nt = ws.pool().size();
      const size_t arcs = size_t(part1.adj.num_arcs()) + insert_headroom;
      staging.set_encoding(config_.msbfs.encoding);
      staging.prime(size_t(nranks), nt, arcs / nt + 64, arcs + 64, arcs + 64);
      staging.prime_staged(msbfs_plan, ctx.rank, nt, arcs / nt + 64,
                           arcs + 64);
    }
    // Resident repair channels + landmark tree state: the sketch's owned
    // parent/depth slices survive between batches so repair_bfs can patch
    // them instead of a full MS-BFS rebuild after every mutation.
    mutate::RepairChannels rchan;
    const bool repair_lm = mutating && config_.cache.enabled &&
                           mcfg.repair_sketch && config_.cache.landmarks > 0;
    if (mutating)
      rchan.prime(ctx, 1, size_t(part1.adj.num_arcs()) + insert_headroom,
                  config_.msbfs.encoding, config_.msbfs.exchange);
    std::vector<Vertex> lm_parent;
    std::vector<int32_t> lm_depth;
    bool lm_valid = false;
    MsbfsOptions mopts = config_.msbfs;
    mopts.threads_per_rank = config_.threads_per_rank;
    mopts.workspace = &ws;
    mopts.staging = &staging;
    // SSSP-root queries ride the session's one wire configuration too.
    analytics::SsspOptions sopts = config_.sssp;
    sopts.encoding = config_.msbfs.encoding;
    sopts.exchange = config_.msbfs.exchange;

    // ---- Deterministic discrete-event serving loop. ---------------------
    // Broker and workload are identical replicas on every rank; the virtual
    // clock advances only by replicated quantities, so no coordination
    // collectives are needed and the SPMD collective order stays aligned.
    WorkloadGen gen(workload, roots);
    QueryBroker broker(broker_cfg);
    std::vector<QueryResult> results;
    double now = 0;
    uint64_t n_sub = 0, n_acc = 0, n_rej = 0, n_expq = 0, n_explate = 0;
    uint64_t n_done = 0, n_failed = 0, n_retried = 0, n_batches = 0;
    uint64_t n_failed_batches = 0, n_hedged = 0;
    double occ_sum = 0;
    uint64_t warm_allocs = 0;
    bool warm_captured = false;
    // Graph epoch: bumped once per applied mutation batch, stamped on every
    // result (replicated — the id-driven trigger is a pure function of the
    // workload's query ids).
    uint64_t epoch = 0;
    uint64_t mut_applied = 0, n_sketch_repairs = 0;
    mutate::ApplyStats apply_total;
    mutate::RepairStats repair_total;
    // Batch service times feeding the hedge straggle cut (replicated: every
    // rank appends the same allreduced values).
    std::vector<double> service_hist;
    // Pending re-admissions after failed batches: (retry time, query).
    std::vector<std::pair<double, Query>> retryq;

    auto finish = [&](QueryResult r) {
      broker.on_outcome(r, now);
      gen.on_complete(r, now);
      results.push_back(std::move(r));
    };
    // Admit into the broker.  submit() returning false is either a terminal
    // refusal (queue full or shed) or a cache-served answer from the
    // oracle's probe step — the hit bypassed batch formation entirely.
    auto admit = [&](const Query& q) {
      QueryResult out;
      const uint64_t sheds0 = broker.shed_count();
      if (broker.submit(q, &out, now)) return true;
      out.epoch = epoch;
      if (out.cache_hit) {
        if (out.status == QueryStatus::Done)
          ++n_done;
        else
          ++n_explate;
      } else if (broker.shed_count() == sheds0) {
        ++n_rej;
      }
      finish(std::move(out));
      return false;
    };
    auto next_retry_s = [&]() {
      double t = kInf;
      for (const auto& e : retryq) t = std::min(t, e.first);
      return t;
    };
    auto note_allocs = [&]() {
      if (warm_captured) return;
      warm_captured = true;
      warm_allocs = ws.staging_allocs() + staging.allocs() + rchan.allocs();
    };

    // Cache-probe admission (docs/SERVICE.md "The distance oracle"): the
    // broker consults the oracle before shedding/queueing.  Every input is
    // replicated (virtual clock, replicated query stream, allgathered depth
    // rows), so all ranks reach the same hit/miss decision and — crucially —
    // enter the sketch-refresh collectives together.
    if (config_.cache.enabled) {
      broker.set_cache_probe([&](const Query& q, QueryResult* out) {
        if (q.kind == QueryKind::SsspRoot) return false;
        if (query_kind_point_to_point(q.kind) && !landmarks.empty() &&
            cache.sketch_due(now)) {
          // Lazy sketch (re)build: one bit-parallel MS-BFS over the pinned
          // landmarks plus one depth-row allgather, charged to the virtual
          // clock like a batch.  Cache maintenance is not part of the
          // recoverable engine surface, so the fault plan is parked for its
          // duration (msbfs's rank-failure schedule fires by level whenever
          // a plan is installed under Recover, independent of `armed`).
          const sim::FaultPlan* plan = ctx.faults.plan;
          ctx.faults.plan = nullptr;
          const double comm0 = ctx.stats.total_modeled_s();
          MsbfsOptions sopts = mopts;
          sopts.record_depths = true;
          MsbfsResult sk = msbfs_run(ctx, part1, landmarks, sopts);
          ctx.world.allgatherv_into(std::span<const int32_t>(sk.depth),
                                    depth_gather, &depth_off);
          now += ctx.world.allreduce_max(ctx.stats.total_modeled_s() - comm0 +
                                         sk.compute_model_s);
          ctx.faults.plan = plan;
          cache.install_sketch(landmarks,
                               oracle::assemble_depth_rows(
                                   space, int(landmarks.size()), depth_gather,
                                   depth_off),
                               now);
          if (repair_lm) {
            // Keep the owned parent/depth slices resident: mutation batches
            // repair them in place (repair_bfs) instead of rebuilding.
            lm_parent = std::move(sk.parent);
            lm_depth = std::move(sk.depth);
            lm_valid = true;
          }
        }
        const oracle::DistanceOracle::Answer ans = cache.probe(q, now);
        if (!ans.hit) return false;
        QueryResult r;
        r.id = q.id;
        r.kind = q.kind;
        r.root = q.root;
        r.target = q.target;
        r.arrival_s = q.arrival_s;
        r.deadline_s = q.deadline_s;
        r.start_s = now;
        // Hits bypass batch formation: charge only the modeled probe cost,
        // without advancing the global clock — probes are rank-local reads
        // of replicated state, not a synchronous batch.
        r.done_s = now + config_.cache.probe_cost_s;
        r.latency_s = r.done_s - q.arrival_s;
        r.traversed_edges = ans.traversed_edges;
        r.levels = ans.levels;
        r.distance = ans.distance;
        r.reachable = ans.reachable;
        r.cache_hit = true;
        r.epoch = epoch;
        r.retries = q.attempt;
        if (r.done_s > q.deadline_s) {
          r.status = QueryStatus::Expired;
          r.error =
              QueryExpired(q.id, q.arrival_s, q.deadline_s, r.done_s).what();
        } else {
          r.status = QueryStatus::Done;
        }
        *out = std::move(r);
        return true;
      });
    }

    // ---- One batch: sweep expiries, form, execute, finish.  Factored out
    // of the main loop so the pre-mutation drain below can run every queued
    // batch against its admission epoch before the graph changes.
    auto run_one_batch = [&]() {
      std::vector<QueryResult> swept;
      std::vector<Query> batch = broker.form_batch(now, &swept);
      for (QueryResult& e : swept) {
        e.epoch = epoch;
        ++n_expq;
        finish(std::move(e));
      }
      if (batch.empty()) return;

      // ---- Execute the batch against the resident graph. ----------------
      ++n_batches;
      occ_sum += double(batch.size());
      const double start = now;
      const int width = int(batch.size());
      const QueryKind bkind = batch.front().kind;
      std::vector<uint64_t> traversed(size_t(width), 0);
      std::vector<int> levels(size_t(width), 0);
      // Point-to-point answers: per-query distance, -1 unreached (the target
      // owner fills its slot, an allreduce-max replicates it).
      std::vector<int64_t> pdist(size_t(width), -1);

      // One full batch execution, faults armed around the engines only.
      // Returns the batch's replicated service time; throws
      // sim::FaultDetected when in-engine recovery is exhausted — the
      // give-up point is collectively agreed, so every rank throws together
      // and the SPMD collective order stays aligned.
      auto execute_batch = [&](std::vector<uint64_t>& trav,
                               std::vector<int>& lvls,
                               std::vector<int64_t>& pd) -> double {
        std::fill(trav.begin(), trav.end(), uint64_t(0));
        std::fill(lvls.begin(), lvls.end(), 0);
        std::fill(pd.begin(), pd.end(), int64_t(-1));
        double local_cost = 0;
        const double comm0 = ctx.stats.total_modeled_s();
        // Injected straggler delays and recovery backoff are deterministic
        // (plan- and retry-schedule-driven) but do not enter the modeled
        // network clock, so charge them into the batch cost explicitly —
        // the slowest rank gates a synchronous batch.
        const double fault0 =
            ctx.faults.stats.straggler_delay_s + ctx.faults.stats.backoff_s;
        (void)ctx.faults.take_pending();  // each attempt starts clean
        ctx.faults.armed = true;
        // Local depth rows (query-major) when the oracle or a point-to-point
        // batch needs them; stays empty otherwise.
        std::vector<int32_t> batch_depth;
        try {
          if (bkind != QueryKind::SsspRoot) {
            std::vector<Vertex> broots(batch.size());
            for (int i = 0; i < width; ++i)
              broots[size_t(i)] = batch[size_t(i)].root;
            MsbfsOptions bopts = mopts;
            bopts.record_depths =
                config_.cache.enabled || query_kind_point_to_point(bkind);
            MsbfsResult r = msbfs_run(ctx, part1, broots, bopts);
            local_cost += r.compute_model_s;
            lvls = r.levels;
            batch_depth = std::move(r.depth);
            // Degree-sum TEPS numerator per query (as in the Graph 500
            // runner: each in-component edge contributes twice).  Point
            // results report 0 traversed edges, but cached trees keep the
            // engine-grade value so a later BFS hit answers bit-identically.
            for (int q = 0; q < width; ++q) {
              uint64_t sum = 0;
              const Vertex* parent = r.parent.data() + size_t(q) * local_count;
              for (uint64_t l = 0; l < local_count; ++l)
                if (parent[l] != graph::kNoVertex) sum += degrees[l];
              trav[size_t(q)] = sum;
            }
          } else {
            // SSSP-root queries share the batch's admission/deadline
            // machinery but execute sequentially (no bit-parallel SSSP
            // engine yet).
            for (int i = 0; i < width; ++i) {
              auto dist = analytics::sssp15d(ctx, *part15,
                                             batch[size_t(i)].root, sopts);
              uint64_t sum = 0;
              for (uint64_t l = 0; l < dist.size(); ++l)
                if (dist[l] != analytics::kInfDist) sum += degrees[l];
              trav[size_t(i)] = sum;
            }
          }
        } catch (...) {
          ctx.faults.armed = false;
          throw;
        }
        ctx.faults.armed = false;
        const double comm_delta = ctx.stats.total_modeled_s() - comm0;
        const double fault_delta = ctx.faults.stats.straggler_delay_s +
                                   ctx.faults.stats.backoff_s - fault0;
        // Service-level reductions run disarmed: they are bookkeeping, not
        // part of the recoverable engine surface.
        ctx.world.allreduce_inplace(
            std::span<uint64_t>(trav),
            [](uint64_t a, uint64_t b) { return a + b; });
        for (uint64_t& t : trav) t /= 2;
        if (query_kind_point_to_point(bkind)) {
          for (int i = 0; i < width; ++i) {
            const Vertex t = batch[size_t(i)].target;
            if (space.owner(t) == ctx.rank) {
              const int32_t d =
                  batch_depth[size_t(i) * local_count +
                              size_t(space.to_local(ctx.rank, t))];
              pd[size_t(i)] = int64_t(d);
            }
          }
          ctx.world.allreduce_inplace(
              std::span<int64_t>(pd),
              [](int64_t a, int64_t b) { return a > b ? a : b; });
        }
        if (config_.cache.enabled && bkind != QueryKind::SsspRoot) {
          // Feed the oracle: allgather the batch's depth rows and cache each
          // root's exact tree, leased from the batch's start time.  Runs on
          // the successful path only (a throw above skips it), so cached
          // trees are always engine-grade.
          ctx.world.allgatherv_into(std::span<const int32_t>(batch_depth),
                                    depth_gather, &depth_off);
          std::vector<int32_t> rows = oracle::assemble_depth_rows(
              space, width, depth_gather, depth_off);
          for (int i = 0; i < width; ++i) {
            oracle::CachedTree tree;
            tree.depth.assign(
                rows.begin() + ptrdiff_t(size_t(i) * space.total),
                rows.begin() + ptrdiff_t(size_t(i + 1) * space.total));
            tree.traversed_edges = trav[size_t(i)];
            tree.levels = lvls[size_t(i)];
            cache.insert_tree(batch[size_t(i)].root, std::move(tree), now);
          }
        }
        double cost = local_cost;
        if (bkind == QueryKind::SsspRoot)
          for (uint64_t t : trav)
            cost += double(t) * config_.sssp_seconds_per_edge /
                    (double(nranks) * double(ws.pool().size()));
        // Batch service time on the virtual clock: slowest rank's modeled
        // network seconds plus its deterministic compute model and fault
        // delays.  allreduce_max both replicates the clock and models the
        // synchronous batch.
        return ctx.world.allreduce_max(comm_delta + fault_delta + cost);
      };

      double service_s = 0;
      bool batch_failed = false;
      const double comm_before = ctx.stats.total_modeled_s();
      const double fault_before =
          ctx.faults.stats.straggler_delay_s + ctx.faults.stats.backoff_s;
      try {
        service_s = execute_batch(traversed, levels, pdist);
      } catch (const sim::FaultDetected&) {
        batch_failed = true;
        // The doomed batch still burned virtual time: charge the slowest
        // rank's modeled network seconds plus its deterministic fault
        // delays (its compute never completed).
        service_s = ctx.world.allreduce_max(
            ctx.stats.total_modeled_s() - comm_before +
            ctx.faults.stats.straggler_delay_s + ctx.faults.stats.backoff_s -
            fault_before);
      }
      note_allocs();

      if (batch_failed) {
        ++n_failed_batches;
        now = start + service_s;
        for (const Query& q : batch) {
          const double backoff = std::min(
              config_.retry_backoff_cap_s,
              config_.retry_backoff_s *
                  double(uint64_t(1) << std::min(q.attempt, 20)));
          const double retry_at = now + backoff;
          if (q.attempt < config_.retry_budget && retry_at < q.deadline_s) {
            Query rq = q;
            ++rq.attempt;
            ++n_retried;
            retryq.emplace_back(retry_at, rq);
            log_debug(QueryRetried(q.id, q.arrival_s, q.deadline_s, rq.attempt,
                                   retry_at)
                          .what());
          } else {
            ++n_failed;
            QueryResult fr =
                make_failed(q, now, "batch exhausted in-engine fault recovery");
            fr.epoch = epoch;
            finish(std::move(fr));
          }
        }
        return;
      }

      // Hedge: re-execute a batch straggling past the latency-quantile cut
      // and charge min(first, cut + second).  The engines are deterministic,
      // so results are bit-identical — the hedge only wins time when the
      // straggle came from injected faults the replay does not hit again.
      bool hedged = false;
      if (config_.hedge.enabled &&
          int(service_hist.size()) >= std::max(1, config_.hedge.min_samples)) {
        const double cut = config_.hedge.factor *
                           percentile(service_hist, config_.hedge.quantile);
        if (service_s > cut) {
          hedged = true;
          ++n_hedged;
          std::vector<uint64_t> trav2(size_t(width), 0);
          std::vector<int> lvls2(size_t(width), 0);
          std::vector<int64_t> pd2(size_t(width), -1);
          try {
            const double second_s = execute_batch(trav2, lvls2, pd2);
            service_s = std::min(service_s, cut + second_s);
          } catch (const sim::FaultDetected&) {
            // The hedge replica died too; the first result stands.
          }
        }
      }
      service_hist.push_back(service_s);
      now = start + service_s;

      for (int i = 0; i < width; ++i) {
        const Query& q = batch[size_t(i)];
        QueryResult r;
        r.id = q.id;
        r.kind = q.kind;
        r.root = q.root;
        r.target = q.target;
        r.arrival_s = q.arrival_s;
        r.deadline_s = q.deadline_s;
        r.start_s = start;
        r.done_s = now;
        r.latency_s = now - q.arrival_s;
        // Point-to-point results carry no per-tree scalars (the bit-identity
        // convention cache-served answers follow too — see QueryResult).
        const bool point = query_kind_point_to_point(q.kind);
        r.traversed_edges = point ? 0 : traversed[size_t(i)];
        r.levels = point ? 0 : levels[size_t(i)];
        if (q.kind == QueryKind::Distance) {
          r.distance = pdist[size_t(i)];
          r.reachable = r.distance >= 0;
        } else if (q.kind == QueryKind::Reachable) {
          r.reachable = pdist[size_t(i)] >= 0;
        }
        r.epoch = epoch;
        r.retries = q.attempt;
        r.hedged = hedged;
        if (now > q.deadline_s) {
          r.status = QueryStatus::Expired;
          r.error = QueryExpired(q.id, q.arrival_s, q.deadline_s, now).what();
          ++n_explate;
        } else {
          r.status = QueryStatus::Done;
          ++n_done;
        }
        finish(std::move(r));
      }
    };

    // ---- Mutation trigger ("Mutations & epochs"). -----------------------
    // Id-driven: batch k applies immediately before the first query with
    // id >= k * every is admitted.  Ids come from the replicated workload
    // generator, so every rank fires at the same point in the stream and a
    // query's epoch is independent of the virtual clock — cache-on and
    // cache-off runs see identical epochs per query id.
    auto maybe_mutate = [&](uint64_t next_id) {
      if (!mutating) return;
      while (mut_applied < mcfg.max_batches &&
             next_id >= (mut_applied + 1) * mcfg.every) {
        // Drain: every queued query executes against its admission epoch
        // before the graph changes (the read-consistency contract).
        while (!broker.empty()) run_one_batch();
        const mutate::MutationBatch& mb = mut_log->generate_next();
        // Ingest + repair are not the recoverable engine surface; park the
        // fault plan for their collectives, like the sketch-refresh path.
        const sim::FaultPlan* plan = ctx.faults.plan;
        ctx.faults.plan = nullptr;
        const double comm0 = ctx.stats.total_modeled_s();
        double local_cost =
            double(mb.inserts.size() + mb.deletes.size()) * mcfg.seconds_per_op;
        mutate::ApplyStats as =
            mutate::apply_batch_1d(ctx.rank, part1, mb, &degrees);
        if (part15)
          as.merge(mutate::apply_batch_15d(ctx.mesh, ctx.rank, *part15, mb));
        apply_total.merge(as);
        ++mut_applied;
        epoch = mut_applied;
        // The bump invalidates every cached artifact: stale-epoch trees
        // self-evict on their next probe (the lease path) and the sketch
        // stops answering immediately.
        cache.bump_epoch();
        bool repaired = false;
        if (repair_lm && lm_valid) {
          // Incremental landmark repair: only invalidated vertices re-enter
          // the frontier, and the repaired rows bit-match a full rebuild —
          // so the sketch can be reinstalled at the new epoch without an
          // MS-BFS sweep.
          mutate::RepairOptions ropts;
          ropts.channels = &rchan;
          ropts.sim_seconds_per_edge = config_.msbfs.sim_seconds_per_edge;
          for (size_t k = 0; k < landmarks.size(); ++k) {
            mutate::RepairStats rs = mutate::repair_bfs(
                ctx, part1, mb, landmarks[k],
                std::span<Vertex>(lm_parent.data() + k * local_count,
                                  local_count),
                std::span<int32_t>(lm_depth.data() + k * local_count,
                                   local_count),
                ropts);
            local_cost += rs.compute_model_s;
            repair_total.merge(rs);
          }
          ctx.world.allgatherv_into(std::span<const int32_t>(lm_depth),
                                    depth_gather, &depth_off);
          repaired = true;
          ++n_sketch_repairs;
        }
        now += ctx.world.allreduce_max(ctx.stats.total_modeled_s() - comm0 +
                                       local_cost);
        ctx.faults.plan = plan;
        if (repaired)
          cache.install_sketch(landmarks,
                               oracle::assemble_depth_rows(
                                   space, int(landmarks.size()), depth_gather,
                                   depth_off),
                               now);
        log_debug(MutationApplied(epoch, mb.inserts.size(), mb.deletes.size(),
                                  mb.delete_misses, now)
                      .what());
      }
    };

    for (;;) {
      if (!broker.batch_ready(now)) {
        double t = std::min({gen.next_arrival_s(), broker.next_close_s(),
                             next_retry_s()});
        if (t == kInf) break;  // drained: no arrivals, retries or queue
        now = std::max(now, t);
      }
      // Due re-admissions first (they carry the oldest arrivals), in
      // (retry time, id) order so every rank replays them identically...
      if (!retryq.empty()) {
        std::sort(retryq.begin(), retryq.end(),
                  [](const std::pair<double, Query>& a,
                     const std::pair<double, Query>& b) {
                    return a.first != b.first ? a.first < b.first
                                              : a.second.id < b.second.id;
                  });
        size_t due = 0;
        while (due < retryq.size() && retryq[due].first <= now) ++due;
        for (size_t i = 0; i < due; ++i) admit(retryq[i].second);
        retryq.erase(retryq.begin(), retryq.begin() + ptrdiff_t(due));
      }
      // ...then fresh arrivals, each crossing the mutation trigger first.
      for (Query& q : gen.pop_ready(now)) {
        maybe_mutate(q.id);
        ++n_sub;
        if (admit(q)) ++n_acc;
      }
      if (!broker.batch_ready(now)) continue;
      run_one_batch();
    }

    // Steady-state allocation proof: the resident pools must stop growing
    // after the first executed batch, faults or not (the chaos suite gates
    // the BFS-workload steady count at zero).
    const uint64_t total_allocs =
        ws.staging_allocs() + staging.allocs() + rchan.allocs();
    const uint64_t warm = warm_captured ? warm_allocs : total_allocs;
    const uint64_t warm_total = ctx.world.allreduce_sum(warm);
    const uint64_t steady_total = ctx.world.allreduce_sum(total_allocs - warm);

    // Mutation telemetry: arc counts are per-rank (each rank patches only
    // its own rows), so the global counters need a sum; batch counts,
    // rounds and tombstone misses are replicated.  Collective — gated on
    // the replicated config so mutation-off runs keep their exact historic
    // collective sequence.
    MutateStats mstats;
    if (mutating) {
      mstats.batches = mut_applied;
      mstats.epoch = epoch;
      mstats.inserted_arcs = ctx.world.allreduce_sum(apply_total.inserted_arcs);
      mstats.deleted_arcs = ctx.world.allreduce_sum(apply_total.deleted_arcs);
      mstats.compactions = ctx.world.allreduce_sum(apply_total.compactions);
      for (uint64_t i = 0; i < mut_applied; ++i)
        mstats.delete_misses += mut_log->batch(size_t(i)).delete_misses;
      mstats.repair_invalidated =
          ctx.world.allreduce_sum(repair_total.invalidated);
      mstats.repair_relaxations =
          ctx.world.allreduce_sum(repair_total.relaxations);
      mstats.repair_rounds = uint64_t(repair_total.cascade_rounds) +
                             uint64_t(repair_total.repair_rounds);
      mstats.sketch_repairs = n_sketch_repairs;
    }

    if (ctx.rank == 0) {
      results0 = std::move(results);
      submitted = n_sub;
      accepted = n_acc;
      rejected = n_rej;
      shed = broker.shed_count();
      expired_in_queue = n_expq;
      expired_late = n_explate;
      completed = n_done;
      failed = n_failed;
      retried = n_retried;
      batches = n_batches;
      failed_batches = n_failed_batches;
      hedged_batches = n_hedged;
      breaker_transitions = broker.breaker_transitions();
      allocs_warm = warm_total;
      allocs_steady = steady_total;
      occupancy_sum = occ_sum;
      makespan = now;
      cache_stats = cache.stats();
      mut_stats = mstats;
    }
  };
  report.spmd = sim::run_spmd(topology_, body, spmd_opts);

  report.results = std::move(results0);
  report.submitted = submitted;
  report.accepted = accepted;
  report.rejected = rejected;
  report.shed = shed;
  report.completed = completed;
  report.expired_in_queue = expired_in_queue;
  report.expired_late = expired_late;
  report.failed = failed;
  report.retried = retried;
  report.batches = batches;
  report.failed_batches = failed_batches;
  report.hedged_batches = hedged_batches;
  report.breaker_transitions = breaker_transitions;
  report.staging_allocs_warmup = allocs_warm;
  report.staging_allocs_steady = allocs_steady;
  report.cache = cache_stats;
  report.mutate = mut_stats;
  report.mean_batch_occupancy =
      batches > 0 ? occupancy_sum / double(batches) : 0;
  report.makespan_s = makespan;
  report.qps = makespan > 0 ? double(completed) / makespan : 0;
  std::vector<double> lat;
  lat.reserve(report.results.size());
  double lat_sum = 0;
  for (const QueryResult& r : report.results)
    if (r.ok()) {
      lat.push_back(r.latency_s);
      lat_sum += r.latency_s;
    }
  report.latency_mean_s = lat.empty() ? 0 : lat_sum / double(lat.size());
  report.latency_p50_s = percentile(lat, 50);
  report.latency_p95_s = percentile(lat, 95);
  report.latency_p99_s = percentile(lat, 99);
  return report;
}

}  // namespace sunbfs::service
