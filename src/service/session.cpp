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

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The resident graph: generated and partitioned once per session, then
// read (and, under mutations, patched in place) by every query.
struct ResidentGraph {
  std::vector<uint64_t> degrees;
  partition::Part1d part1;
  /// 1.5D partition for SSSP-root queries (built only when the mix has any).
  std::optional<partition::Part15d> part15;
  /// Root pool the load generator draws from (degree >= 1 search keys).
  std::vector<Vertex> roots;
};

ResidentGraph load_graph(sim::RankContext& ctx, const ServiceConfig& config,
                         const WorkloadConfig& workload,
                         const partition::VertexSpace& space,
                         ThreadPool& pool) {
  const graph::Graph500Config& g = config.graph;
  const uint64_t m = g.num_edges();
  const auto nranks = uint64_t(ctx.nranks());
  const auto slice = graph::generate_rmat_range(
      g, m * uint64_t(ctx.rank) / nranks, m * uint64_t(ctx.rank + 1) / nranks,
      &pool);
  ResidentGraph rg;
  rg.degrees = partition::compute_local_degrees(ctx, space, slice);
  rg.part1 = partition::build_1d(ctx, space, slice);
  if (workload.sssp_fraction > 0)
    rg.part15 = partition::build_15d(ctx, space, slice, rg.degrees,
                                     config.thresholds, &pool);
  rg.roots = bfs::pick_search_keys(ctx, space, rg.degrees, config.root_pool,
                                   config.root_seed ^ g.seed);
  return rg;
}

// One rank's deterministic discrete-event serving loop.  Broker and
// workload are identical replicas on every rank and the virtual clock
// advances only by replicated quantities, so the loop needs no
// coordination collectives and the SPMD collective order stays aligned.
// Its four steps: broker_step (due retries, then fresh admissions),
// run_batch (form and execute one batch), feed_cache (install an executed
// batch's trees in the oracle) and apply_mutations (id-driven mutation
// batches).  Every rank counts into its own report_; serve() keeps rank 0's.
class ServeLoop {
 public:
  ServeLoop(sim::RankContext& ctx, const ServiceConfig& config,
            const WorkloadConfig& workload, const BrokerConfig& broker);
  // The broker's cache probe holds `this`.
  ServeLoop(const ServeLoop&) = delete;
  ServeLoop& operator=(const ServeLoop&) = delete;

  /// Serve the whole workload, then close the report (collective).
  void run();
  ServiceReport& report() { return report_; }

 private:
  /// One executed batch, replicated on every rank.
  struct BatchOutput {
    double service_s = 0;             ///< virtual service time
    std::vector<uint64_t> traversed;  ///< degree-sum TEPS numerator (halved)
    std::vector<int> levels;
    std::vector<int64_t> distance;    ///< target hop distance, -1 unreached
    /// Local depth rows (query-major) when the oracle or a point-to-point
    /// batch needs them; empty otherwise.
    std::vector<int32_t> depth;
  };
  /// Modeled network seconds and injected fault delay spent so far.
  struct Spend {
    double comm = 0, fault = 0;
  };

  // The four steps.
  void broker_step();
  void run_batch();
  void feed_cache(const std::vector<Query>& batch, const BatchOutput& out);
  void apply_mutations(uint64_t next_id);

  bool admit(const Query& q);
  bool probe_cache(const Query& q, QueryResult* out);
  void refresh_sketch();
  BatchOutput execute(const std::vector<Query>& batch);
  void retry_or_fail(const std::vector<Query>& batch);
  void finish(QueryResult r);
  void close_report();

  Spend spend() const;
  double spent_since(const Spend& start) const;
  template <class LocalCost>
  void charge_unfaulted(LocalCost&& body);
  std::vector<int32_t> gather_depth_rows(std::span<const int32_t> local,
                                         int width);
  double next_retry_s() const;
  uint64_t allocs() const {
    return ws_.staging_allocs() + staging_.allocs() + rchan_.allocs();
  }

  sim::RankContext& ctx_;
  const ServiceConfig& config_;
  const partition::VertexSpace space_;
  const uint64_t local_count_;
  const bool mutating_;
  /// Landmark trees are repaired in place after mutations, not rebuilt.
  const bool repair_lm_;
  bfs::BfsWorkspace ws_;
  ResidentGraph g_;
  /// Replicated model of the full edge multiset (mutating runs only).
  std::optional<mutate::MutationLog> mut_log_;
  oracle::DistanceOracle cache_;
  std::vector<Vertex> landmarks_;
  // Resident scratch for the depth-row allgathers.
  std::vector<int32_t> depth_gather_;
  std::vector<size_t> depth_off_;
  sim::ExchangeChannel<MsbfsMsg> staging_;
  mutate::RepairChannels rchan_;
  /// The sketch's owned parent/depth slices, kept for repair_bfs.
  bool lm_valid_ = false;
  std::vector<Vertex> lm_parent_;
  std::vector<int32_t> lm_depth_;
  MsbfsOptions mopts_;
  analytics::SsspOptions sopts_;
  WorkloadGen gen_;
  QueryBroker broker_;
  ServiceReport report_;
  double now_ = 0;
  /// Staging-pool growths up to the end of the first completed MS-BFS
  /// batch (the first to reach every pool the steady state uses).
  std::optional<uint64_t> warm_allocs_;
  mutate::ApplyStats apply_total_;
  mutate::RepairStats repair_total_;
  /// Batch service times feeding the hedge straggle cut (replicated).
  std::vector<double> service_hist_;
  /// Pending re-admissions after failed batches: (retry time, query).
  std::vector<std::pair<double, Query>> retryq_;
};

ServeLoop::ServeLoop(sim::RankContext& ctx, const ServiceConfig& config,
                     const WorkloadConfig& workload,
                     const BrokerConfig& broker)
    : ctx_(ctx),
      config_(config),
      space_{config.graph.num_vertices(), ctx.nranks()},
      local_count_(space_.count(ctx.rank)),
      mutating_(config.mutation.enabled && config.mutation.every > 0 &&
                config.mutation.max_batches > 0),
      repair_lm_(mutating_ && config.cache.enabled &&
                 config.cache.landmarks > 0),
      ws_(resolve_threads_per_rank(config.threads_per_rank,
                                   size_t(ctx.nranks()))),
      g_(load_graph(ctx, config, workload, space_, ws_.pool())),
      cache_(config.cache, space_.total),
      gen_(workload, g_.roots),
      broker_(broker) {
  // ---- Streaming mutations (src/mutate, "Mutations & epochs"). ----------
  // The log is a replicated model of the full edge multiset: every rank
  // regenerates the whole edge list once and steps an identical seeded
  // generator, so batches need no communication to agree and each rank
  // filters a batch down to the arcs it stores (apply_batch_1d/15d).
  const MutationConfig& mcfg = config.mutation;
  if (mutating_) {
    mutate::MutationLogConfig lc;
    lc.seed = mcfg.seed;
    lc.inserts_per_batch = mcfg.inserts_per_batch;
    lc.deletes_per_batch = mcfg.deletes_per_batch;
    lc.phantom_fraction = mcfg.phantom_fraction;
    mut_log_.emplace(lc, space_.total,
                     graph::generate_rmat_range(config.graph, 0,
                                                config.graph.num_edges(),
                                                &ws_.pool()));
  }
  // Worst-case arcs this rank can ever hold: the built partition plus
  // every insert of every batch landing here.  Staging pools primed with
  // this headroom stay alloc-free across the whole mutating run.
  const size_t arcs =
      size_t(g_.part1.adj.num_arcs()) +
      (mutating_ ? 2 * size_t(mcfg.max_batches) *
                       size_t(std::max(0, mcfg.inserts_per_batch))
                 : 0);

  // ---- Distance-oracle cache (src/service/oracle/). ---------------------
  // Landmarks pin the hot prefix of the root pool (under a zipfian
  // workload those ARE the hot roots and targets); their sketch is built
  // lazily on the first point-to-point probe and refreshed on lease
  // expiry.  The oracle is replicated on every rank: its inputs are the
  // virtual clock, the replicated query stream and depth rows allgathered
  // after each engine batch, so hit/miss decisions never diverge.
  if (config.cache.enabled && config.cache.landmarks > 0) {
    const size_t k = std::min({size_t(config.cache.landmarks),
                               g_.roots.size(), size_t(kMaxBatchWidth)});
    landmarks_.assign(g_.roots.begin(), g_.roots.begin() + ptrdiff_t(k));
  }

  // Warm staging for the batched visits: one message per cross-rank
  // frontier edge, bounded by this rank's arc count.
  const size_t nt = ws_.pool().size();
  staging_.set_encoding(config.msbfs.encoding);
  staging_.prime(size_t(ctx.nranks()), nt, arcs / nt + 64, arcs + 64,
                 arcs + 64);
  staging_.prime_staged(
      sim::ExchangePlan::build(config.msbfs.exchange.backend, ctx.nranks(),
                               ctx.mesh),
      ctx.rank, nt, arcs / nt + 64, arcs + 64);
  // Resident repair channels: mutation batches patch the landmark trees
  // through them instead of a full MS-BFS rebuild.
  if (mutating_)
    rchan_.prime(ctx, 1, arcs, config.msbfs.encoding, config.msbfs.exchange);
  mopts_ = config.msbfs;
  mopts_.threads_per_rank = config.threads_per_rank;
  mopts_.workspace = &ws_;
  mopts_.staging = &staging_;
  // SSSP-root queries ride the session's one wire configuration too.
  sopts_ = config.sssp;
  sopts_.encoding = config.msbfs.encoding;
  sopts_.exchange = config.msbfs.exchange;

  // Cache-probe admission (docs/SERVICE.md "The distance oracle"): the
  // broker consults the oracle before shedding/queueing.  Every input is
  // replicated, so all ranks reach the same hit/miss decision and enter
  // the sketch-refresh collectives together.
  if (config.cache.enabled)
    broker_.set_cache_probe([this](const Query& q, QueryResult* out) {
      return probe_cache(q, out);
    });
}

void ServeLoop::run() {
  for (;;) {
    if (!broker_.batch_ready(now_)) {
      const double t = std::min(
          {gen_.next_arrival_s(), broker_.next_close_s(), next_retry_s()});
      if (t == kInf) break;  // drained: no arrivals, retries or queue
      now_ = std::max(now_, t);
    }
    broker_step();
    if (broker_.batch_ready(now_)) run_batch();
  }
  close_report();
}

// ---- Step 1: the broker step. --------------------------------------------
void ServeLoop::broker_step() {
  // Due re-admissions first (they carry the oldest arrivals), in
  // (retry time, id) order so every rank replays them identically...
  if (!retryq_.empty()) {
    std::sort(retryq_.begin(), retryq_.end(),
              [](const std::pair<double, Query>& a,
                 const std::pair<double, Query>& b) {
                return a.first != b.first ? a.first < b.first
                                          : a.second.id < b.second.id;
              });
    size_t due = 0;
    while (due < retryq_.size() && retryq_[due].first <= now_) ++due;
    for (size_t i = 0; i < due; ++i) admit(retryq_[i].second);
    retryq_.erase(retryq_.begin(), retryq_.begin() + ptrdiff_t(due));
  }
  // ...then fresh arrivals, each crossing the mutation trigger first.
  for (const Query& q : gen_.pop_ready(now_)) {
    apply_mutations(q.id);
    ++report_.submitted;
    if (admit(q)) ++report_.accepted;
  }
}

// Admit into the broker.  submit() returning false is either a terminal
// refusal (queue full or shed, both counted by the broker) or a
// cache-served answer from the oracle's probe step.
bool ServeLoop::admit(const Query& q) {
  QueryResult out;
  if (broker_.submit(q, &out, now_)) return true;
  if (out.cache_hit) ++(out.ok() ? report_.completed : report_.expired_late);
  finish(std::move(out));
  return false;
}

bool ServeLoop::probe_cache(const Query& q, QueryResult* out) {
  if (q.kind == QueryKind::SsspRoot) return false;
  if (query_kind_point_to_point(q.kind) && !landmarks_.empty() &&
      cache_.sketch_due(now_))
    refresh_sketch();
  const oracle::DistanceOracle::Answer ans = cache_.probe(q, now_);
  if (!ans.hit) return false;
  // Hits bypass batch formation: charge only the modeled probe cost,
  // without advancing the global clock — probes are rank-local reads of
  // replicated state, not a synchronous batch.
  *out = make_served(q, now_, now_ + config_.cache.probe_cost_s);
  out->traversed_edges = ans.traversed_edges;
  out->levels = ans.levels;
  out->distance = ans.distance;
  out->reachable = ans.reachable;
  out->cache_hit = true;
  return true;
}

// Lazy sketch (re)build: one bit-parallel MS-BFS over the pinned landmarks
// plus one depth-row allgather, charged to the virtual clock like a batch.
void ServeLoop::refresh_sketch() {
  MsbfsResult sk;
  std::vector<int32_t> rows;
  charge_unfaulted([&] {
    MsbfsOptions opts = mopts_;
    opts.record_depths = true;
    sk = msbfs_run(ctx_, g_.part1, landmarks_, opts);
    rows = gather_depth_rows(sk.depth, int(landmarks_.size()));
    return sk.compute_model_s;
  });
  cache_.install_sketch(landmarks_, std::move(rows), now_);
  if (repair_lm_) {
    // Keep the owned parent/depth slices resident: mutation batches
    // repair them in place (repair_bfs) instead of rebuilding.
    lm_parent_ = std::move(sk.parent);
    lm_depth_ = std::move(sk.depth);
    lm_valid_ = true;
  }
}

// ---- Step 2: batch execution. --------------------------------------------
// Sweep expiries, form one batch, execute it and finish its queries.  Also
// called by the pre-mutation drain, so every queued batch runs against its
// admission epoch before the graph changes.
void ServeLoop::run_batch() {
  std::vector<QueryResult> swept;
  const std::vector<Query> batch = broker_.form_batch(now_, &swept);
  for (QueryResult& e : swept) {
    ++report_.expired_in_queue;
    finish(std::move(e));
  }
  if (batch.empty()) return;

  ++report_.batches;
  report_.mean_batch_occupancy += double(batch.size());  // summed until close
  const double start = now_;
  const Spend spend0 = spend();
  std::optional<BatchOutput> out;
  try {
    out = execute(batch);
  } catch (const sim::FaultDetected&) {
    // In-engine recovery exhausted on every rank together; charged below.
  }
  if (!out) {
    // The doomed batch still burned virtual time: charge the slowest
    // rank's modeled network seconds plus its deterministic fault delays
    // (its compute never completed).
    now_ = start + ctx_.world.allreduce_max(spent_since(spend0));
    ++report_.failed_batches;
    retry_or_fail(batch);
    return;
  }

  // Hedge: re-execute a batch straggling past the latency-quantile cut and
  // charge min(first, cut + second).  The engines are deterministic, so
  // results are bit-identical — the hedge only wins time when the straggle
  // came from injected faults the replay does not hit again.
  bool hedged = false;
  if (config_.hedge.enabled &&
      int(service_hist_.size()) >= std::max(1, config_.hedge.min_samples)) {
    const double cut = config_.hedge.factor *
                       percentile(service_hist_, config_.hedge.quantile);
    if (out->service_s > cut) {
      hedged = true;
      ++report_.hedged_batches;
      try {
        out->service_s =
            std::min(out->service_s, cut + execute(batch).service_s);
      } catch (const sim::FaultDetected&) {
        // The hedge replica died too; the first result stands.
      }
    }
  }
  const bool msbfs = batch.front().kind != QueryKind::SsspRoot;
  if (config_.cache.enabled && msbfs) feed_cache(batch, *out);
  if (!warm_allocs_ && msbfs) warm_allocs_ = allocs();
  service_hist_.push_back(out->service_s);
  now_ = start + out->service_s;

  for (size_t i = 0; i < batch.size(); ++i) {
    const Query& q = batch[i];
    QueryResult r = make_served(q, start, now_);
    // Point-to-point results carry no per-tree scalars (the bit-identity
    // convention cache-served answers follow too — see QueryResult).
    const bool point = query_kind_point_to_point(q.kind);
    r.traversed_edges = point ? 0 : out->traversed[i];
    r.levels = point ? 0 : out->levels[i];
    if (q.kind == QueryKind::Distance) {
      r.distance = out->distance[i];
      r.reachable = r.distance >= 0;
    } else if (q.kind == QueryKind::Reachable) {
      r.reachable = out->distance[i] >= 0;
    }
    r.hedged = hedged;
    ++(r.ok() ? report_.completed : report_.expired_late);
    finish(std::move(r));
  }
}

// One full batch execution, faults armed around the engines only.  Throws
// sim::FaultDetected when in-engine recovery is exhausted — the give-up
// point is collectively agreed, so every rank throws together and the SPMD
// collective order stays aligned.
ServeLoop::BatchOutput ServeLoop::execute(const std::vector<Query>& batch) {
  const size_t width = batch.size();
  const QueryKind kind = batch.front().kind;
  BatchOutput out{0, std::vector<uint64_t>(width, 0),
                  std::vector<int>(width, 0), std::vector<int64_t>(width, -1),
                  {}};
  double cost = 0;
  const Spend spend0 = spend();
  (void)ctx_.faults.take_pending();  // each attempt starts clean
  ctx_.faults.armed = true;
  try {
    if (kind != QueryKind::SsspRoot) {
      std::vector<Vertex> roots(width);
      for (size_t i = 0; i < width; ++i) roots[i] = batch[i].root;
      MsbfsOptions opts = mopts_;
      opts.record_depths =
          config_.cache.enabled || query_kind_point_to_point(kind);
      MsbfsResult r = msbfs_run(ctx_, g_.part1, roots, opts);
      cost += r.compute_model_s;
      out.levels = std::move(r.levels);
      out.depth = std::move(r.depth);
      // Degree-sum TEPS numerator per query (as in the Graph 500 runner:
      // each in-component edge contributes twice).  Point results report 0
      // traversed edges, but cached trees keep the engine-grade value so a
      // later BFS hit answers bit-identically.
      for (size_t q = 0; q < width; ++q) {
        const Vertex* parent = r.parent.data() + q * local_count_;
        for (uint64_t l = 0; l < local_count_; ++l)
          if (parent[l] != graph::kNoVertex) out.traversed[q] += g_.degrees[l];
      }
    } else {
      // SSSP-root queries share the batch's admission/deadline machinery
      // but execute sequentially (no bit-parallel SSSP engine yet).
      for (size_t i = 0; i < width; ++i) {
        const auto dist =
            analytics::sssp15d(ctx_, *g_.part15, batch[i].root, sopts_);
        for (uint64_t l = 0; l < dist.size(); ++l)
          if (dist[l] != analytics::kInfDist) out.traversed[i] += g_.degrees[l];
      }
    }
  } catch (...) {
    ctx_.faults.armed = false;
    throw;
  }
  ctx_.faults.armed = false;
  const double engine_s = spent_since(spend0);
  // Service-level reductions run disarmed: they are bookkeeping, not part
  // of the recoverable engine surface.
  ctx_.world.allreduce_inplace(std::span<uint64_t>(out.traversed),
                               [](uint64_t a, uint64_t b) { return a + b; });
  for (uint64_t& t : out.traversed) t /= 2;
  if (query_kind_point_to_point(kind)) {
    // The target's owner fills its slot; an allreduce-max replicates it.
    for (size_t i = 0; i < width; ++i) {
      const Vertex t = batch[i].target;
      if (space_.owner(t) == ctx_.rank) {
        const size_t l = size_t(space_.to_local(ctx_.rank, t));
        out.distance[i] = int64_t(out.depth[i * local_count_ + l]);
      }
    }
    ctx_.world.allreduce_inplace(
        std::span<int64_t>(out.distance),
        [](int64_t a, int64_t b) { return a > b ? a : b; });
  }
  if (kind == QueryKind::SsspRoot)
    for (uint64_t t : out.traversed)
      cost += double(t) * config_.sssp_seconds_per_edge /
              (double(ctx_.nranks()) * double(ws_.pool().size()));
  // Batch service time on the virtual clock: slowest rank's modeled
  // network seconds plus its deterministic compute model and fault delays.
  // allreduce_max both replicates the clock and models the synchronous
  // batch.
  out.service_s = ctx_.world.allreduce_max(engine_s + cost);
  return out;
}

// A batch that exhausted in-engine recovery: re-admit each query after a
// capped exponential backoff while its retry budget and deadline allow,
// else fail it for good.
void ServeLoop::retry_or_fail(const std::vector<Query>& batch) {
  for (const Query& q : batch) {
    const double backoff =
        std::min(config_.retry_backoff_cap_s,
                 config_.retry_backoff_s *
                     double(uint64_t(1) << std::min(q.attempt, 20)));
    const double retry_at = now_ + backoff;
    if (q.attempt < config_.retry_budget && retry_at < q.deadline_s) {
      Query rq = q;
      ++rq.attempt;
      ++report_.retried;
      retryq_.emplace_back(retry_at, rq);
      log_debug(
          QueryRetried(q.id, q.arrival_s, q.deadline_s, rq.attempt, retry_at)
              .what());
    } else {
      ++report_.failed;
      finish(make_failed(q, now_, "batch exhausted in-engine fault recovery"));
    }
  }
}

// ---- Step 3: the cache feed. ---------------------------------------------
// Allgather the batch's depth rows and cache each root's exact tree, leased
// from the batch's start.  Runs once per completed batch, after any hedge,
// so cached trees are always engine-grade.
void ServeLoop::feed_cache(const std::vector<Query>& batch,
                           const BatchOutput& out) {
  const std::vector<int32_t> rows =
      gather_depth_rows(out.depth, int(batch.size()));
  for (size_t i = 0; i < batch.size(); ++i) {
    oracle::CachedTree tree;
    tree.depth.assign(rows.begin() + ptrdiff_t(i * space_.total),
                      rows.begin() + ptrdiff_t((i + 1) * space_.total));
    tree.traversed_edges = out.traversed[i];
    tree.levels = out.levels[i];
    cache_.insert_tree(batch[i].root, std::move(tree), now_);
  }
}

// ---- Step 4: mutation apply ("Mutations & epochs"). ----------------------
// Id-driven: batch k applies immediately before the first query with
// id >= k * every is admitted.  Ids come from the replicated workload
// generator, so every rank fires at the same point in the stream and a
// query's epoch is independent of the virtual clock — cache-on and
// cache-off runs see identical epochs per query id.
void ServeLoop::apply_mutations(uint64_t next_id) {
  const MutationConfig& mcfg = config_.mutation;
  MutateStats& ms = report_.mutate;
  while (mutating_ && ms.batches < mcfg.max_batches &&
         next_id >= (ms.batches + 1) * mcfg.every) {
    // Drain: every queued query executes against its admission epoch
    // before the graph changes (the read-consistency contract).
    while (!broker_.empty()) run_batch();
    const mutate::MutationBatch& mb = mut_log_->generate_next();
    mutate::ApplyStats as =
        mutate::apply_batch_1d(ctx_.rank, g_.part1, mb, &g_.degrees);
    if (g_.part15)
      as.merge(mutate::apply_batch_15d(ctx_.mesh, ctx_.rank, *g_.part15, mb));
    apply_total_.merge(as);
    ms.epoch = ++ms.batches;
    ms.delete_misses += mb.delete_misses;
    // The bump invalidates every cached artifact: stale-epoch trees
    // self-evict on their next probe (the lease path) and the sketch stops
    // answering immediately.
    cache_.bump_epoch();
    // Incremental landmark repair: only invalidated vertices re-enter the
    // frontier, and the repaired rows bit-match a full rebuild — so the
    // sketch is reinstalled at the new epoch without an MS-BFS sweep.
    const bool repair = repair_lm_ && lm_valid_;
    std::vector<int32_t> rows;
    charge_unfaulted([&] {
      double cost =
          double(mb.inserts.size() + mb.deletes.size()) * mcfg.seconds_per_op;
      if (!repair) return cost;
      mutate::RepairOptions ropts;
      ropts.channels = &rchan_;
      ropts.sim_seconds_per_edge = config_.msbfs.sim_seconds_per_edge;
      for (size_t k = 0; k < landmarks_.size(); ++k) {
        mutate::RepairStats rs = mutate::repair_bfs(
            ctx_, g_.part1, mb, landmarks_[k],
            std::span<Vertex>(lm_parent_.data() + k * local_count_,
                              local_count_),
            std::span<int32_t>(lm_depth_.data() + k * local_count_,
                               local_count_),
            ropts);
        cost += rs.compute_model_s;
        repair_total_.merge(rs);
      }
      rows = gather_depth_rows(lm_depth_, int(landmarks_.size()));
      return cost;
    });
    if (repair) {
      ++ms.sketch_repairs;
      cache_.install_sketch(landmarks_, std::move(rows), now_);
    }
    log_debug(MutationApplied(ms.epoch, mb.inserts.size(), mb.deletes.size(),
                              mb.delete_misses, now_)
                  .what());
  }
}

// Record a terminal result at the current epoch and feed it back to the
// breaker and the closed-loop generator.
void ServeLoop::finish(QueryResult r) {
  r.epoch = report_.mutate.epoch;
  broker_.on_outcome(r, now_);
  gen_.on_complete(r, now_);
  report_.results.push_back(std::move(r));
}

void ServeLoop::close_report() {
  // Steady-state allocation proof: the resident pools must stop growing
  // after the first completed MS-BFS batch, faults or not (the chaos suite
  // gates the BFS-workload steady count at zero).
  const uint64_t total = allocs();
  const uint64_t warm = warm_allocs_.value_or(total);
  report_.staging_allocs_warmup = ctx_.world.allreduce_sum(warm);
  report_.staging_allocs_steady = ctx_.world.allreduce_sum(total - warm);
  // Mutation telemetry: arc counts are per-rank (each rank patches only its
  // own rows), so the global counters need a sum; batch counts, rounds and
  // tombstone misses are replicated.  Collective — gated on the replicated
  // config so mutation-off runs keep their exact collective sequence.
  if (mutating_) {
    MutateStats& ms = report_.mutate;
    ms.inserted_arcs = ctx_.world.allreduce_sum(apply_total_.inserted_arcs);
    ms.deleted_arcs = ctx_.world.allreduce_sum(apply_total_.deleted_arcs);
    ms.compactions = ctx_.world.allreduce_sum(apply_total_.compactions);
    ms.repair_invalidated = ctx_.world.allreduce_sum(repair_total_.invalidated);
    ms.repair_relaxations = ctx_.world.allreduce_sum(repair_total_.relaxations);
    ms.repair_rounds = uint64_t(repair_total_.cascade_rounds) +
                       uint64_t(repair_total_.repair_rounds);
  }
  ServiceReport& r = report_;
  r.rejected = broker_.reject_count();
  r.shed = broker_.shed_count();
  r.breaker_transitions = broker_.breaker_transitions();
  r.cache = cache_.stats();
  r.mean_batch_occupancy =
      r.batches > 0 ? r.mean_batch_occupancy / double(r.batches) : 0;
  r.makespan_s = now_;
  r.qps = now_ > 0 ? double(r.completed) / now_ : 0;
  std::vector<double> lat;
  lat.reserve(r.results.size());
  double lat_sum = 0;
  for (const QueryResult& q : r.results)
    if (q.ok()) {
      lat.push_back(q.latency_s);
      lat_sum += q.latency_s;
    }
  r.latency_mean_s = lat.empty() ? 0 : lat_sum / double(lat.size());
  r.latency_p50_s = percentile(lat, 50);
  r.latency_p95_s = percentile(lat, 95);
  r.latency_p99_s = percentile(lat, 99);
}

// Injected straggler delays and recovery backoff are deterministic (plan-
// and retry-schedule-driven) but do not enter the modeled network clock, so
// batches charge them explicitly — the slowest rank gates a synchronous
// batch.
ServeLoop::Spend ServeLoop::spend() const {
  return {ctx_.stats.total_modeled_s(),
          ctx_.faults.stats.straggler_delay_s + ctx_.faults.stats.backoff_s};
}

double ServeLoop::spent_since(const Spend& start) const {
  const Spend now = spend();
  return (now.comm - start.comm) + (now.fault - start.fault);
}

// Run `body` outside the recoverable engine surface and charge the slowest
// rank's modeled network seconds plus the local cost `body` returns to the
// virtual clock.  The fault plan is parked meanwhile: msbfs's rank-failure
// schedule fires by level whenever a plan is installed under Recover,
// independent of `armed`.
template <class LocalCost>
void ServeLoop::charge_unfaulted(LocalCost&& body) {
  const sim::FaultPlan* plan = ctx_.faults.plan;
  ctx_.faults.plan = nullptr;
  const double comm0 = ctx_.stats.total_modeled_s();
  const double local = body();
  now_ += ctx_.world.allreduce_max(ctx_.stats.total_modeled_s() - comm0 +
                                   local);
  ctx_.faults.plan = plan;
}

// Allgather every rank's query-major depth slices and assemble `width`
// full-length rows (replicated on every rank).
std::vector<int32_t> ServeLoop::gather_depth_rows(
    std::span<const int32_t> local, int width) {
  ctx_.world.allgatherv_into(local, depth_gather_, &depth_off_);
  return oracle::assemble_depth_rows(space_, width, depth_gather_, depth_off_);
}

double ServeLoop::next_retry_s() const {
  double t = kInf;
  for (const auto& e : retryq_) t = std::min(t, e.first);
  return t;
}

}  // namespace

ServiceReport GraphSession::serve(const WorkloadConfig& workload,
                                  const BrokerConfig& broker) const {
  SUNBFS_CHECK(broker.batch_width >= 1 &&
               broker.batch_width <= kMaxBatchWidth);
  SUNBFS_CHECK(config_.retry_budget >= 0);
  sim::SpmdOptions opts;
  opts.policy = config_.fault_policy;
  opts.faults = config_.faults.empty() ? nullptr : &config_.faults;
  opts.checksums = config_.checksums;
  ServiceReport report;
  sim::SpmdReport spmd = sim::run_spmd(
      topology_,
      [&](sim::RankContext& ctx) {
        // Faults stay disarmed outside engine executions: setup and the
        // service-level reductions are not the recoverable surface, and the
        // plan's call indices must count engine collectives alone.
        ctx.faults.armed = false;
        ServeLoop loop(ctx, config_, workload, broker);
        loop.run();
        if (ctx.rank == 0) report = std::move(loop.report());
      },
      opts);
  report.spmd = std::move(spmd);
  return report;
}

}  // namespace sunbfs::service
