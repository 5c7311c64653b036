// Graph query service tests (ctest -L service): the batched multi-root BFS
// engine must be bit-identical to sequential single-root runs while issuing
// strictly fewer data collectives, and the broker/session layer must handle
// deadlines, admission control and replay deterministically.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "analytics/sssp.hpp"
#include "bfs/runner.hpp"
#include "bfs/workspace.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "partition/part1d.hpp"
#include "service/broker.hpp"
#include "service/msbfs.hpp"
#include "service/session.hpp"
#include "service/workload.hpp"
#include "sim/runtime.hpp"

namespace sunbfs::service {
namespace {

using graph::Graph500Config;
using graph::Vertex;
using graph::kNoVertex;

std::vector<graph::Edge> slice_of(const Graph500Config& cfg, int rank,
                                  int nranks) {
  uint64_t m = cfg.num_edges();
  return graph::generate_rmat_range(cfg, m * uint64_t(rank) / uint64_t(nranks),
                                    m * uint64_t(rank + 1) / uint64_t(nranks));
}

Query bfs_query(uint64_t id, Vertex root, double arrival_s,
                double deadline_s = kNoDeadline) {
  Query q;
  q.id = id;
  q.root = root;
  q.arrival_s = arrival_s;
  q.deadline_s = deadline_s;
  return q;
}

// ------------------------------------------------------- MS-BFS engine

// One SPMD session: run a full-width batch and then the same roots one by
// one through the same engine, comparing parents bit-for-bit and counting
// the data collectives (alltoallv + allgather) each strategy issued.
void run_batch_vs_sequential(int threads) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 3;
  const sim::MeshShape mesh{2, 2};
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};

  uint64_t mismatched_words = 0;   // parent slots differing batch vs seq
  uint64_t mismatched_levels = 0;  // per-query level count differences
  uint64_t batch_data_colls = 0, seq_data_colls = 0;
  std::vector<Vertex> roots;
  // Global parent arrays of a few batch queries for host validation.
  std::vector<std::pair<Vertex, std::vector<Vertex>>> sampled;

  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto degrees = partition::compute_local_degrees(ctx, space, slice);
    auto part = partition::build_1d(ctx, space, slice);
    auto keys = bfs::pick_search_keys(ctx, space, degrees, kMaxBatchWidth, 5);
    if (ctx.rank == 0) roots = keys;
    const uint64_t local = space.count(ctx.rank);

    bfs::BfsWorkspace ws{size_t(threads)};
    MsbfsOptions opts;
    opts.workspace = &ws;

    auto data_calls = [&] {
      return ctx.stats.entry(sim::CollectiveType::Alltoallv).calls +
             ctx.stats.entry(sim::CollectiveType::Allgather).calls;
    };

    uint64_t c0 = data_calls();
    MsbfsResult batch = msbfs_run(ctx, part, keys, opts);
    uint64_t batch_calls = data_calls() - c0;

    c0 = data_calls();
    std::vector<MsbfsResult> seq(keys.size());
    for (size_t q = 0; q < keys.size(); ++q)
      seq[q] = msbfs_run(ctx, part, std::span<const Vertex>(&keys[q], 1),
                         opts);
    uint64_t seq_calls = data_calls() - c0;

    uint64_t bad_words = 0, bad_levels = 0;
    for (size_t q = 0; q < keys.size(); ++q) {
      if (batch.levels[q] != seq[q].levels[0]) ++bad_levels;
      for (uint64_t l = 0; l < local; ++l)
        if (batch.parent[q * local + l] != seq[q].parent[l]) ++bad_words;
    }
    bad_words = ctx.world.allreduce_sum(bad_words);
    bad_levels = ctx.world.allreduce_sum(bad_levels);

    for (size_t q : {size_t(0), keys.size() / 2, keys.size() - 1}) {
      auto global = ctx.world.allgatherv(std::span<const Vertex>(
          batch.parent.data() + q * local, local));
      if (ctx.rank == 0) sampled.emplace_back(keys[q], std::move(global));
    }
    if (ctx.rank == 0) {
      mismatched_words = bad_words;
      mismatched_levels = bad_levels;
      batch_data_colls = batch_calls;
      seq_data_colls = seq_calls;
    }
  });

  EXPECT_EQ(mismatched_words, 0u)
      << "batch parents differ from sequential at " << threads << " threads";
  EXPECT_EQ(mismatched_levels, 0u);
  // The whole point of batching: one alltoallv/allgather per level for all
  // 64 queries instead of one per level per query.
  EXPECT_LT(batch_data_colls, seq_data_colls)
      << "batch " << batch_data_colls << " vs sequential " << seq_data_colls;
  EXPECT_GT(batch_data_colls, 0u);

  auto edges = graph::generate_rmat(cfg);
  for (const auto& [root, parent] : sampled) {
    auto v = graph::validate_bfs(cfg.num_vertices(), edges, root, parent);
    EXPECT_TRUE(v.ok) << "root " << root << ": " << v.error;
  }
}

TEST(Msbfs, BatchMatchesSequentialSingleThread) {
  run_batch_vs_sequential(/*threads=*/1);
}

TEST(Msbfs, BatchMatchesSequentialFourThreads) {
  run_batch_vs_sequential(/*threads=*/4);
}

// The batch result must not depend on batch composition: the same root
// produces the same parents whether it rides in bit 0 of a full batch or
// alone (already covered above), and independently of its lane.
TEST(Msbfs, LaneIndependence) {
  Graph500Config cfg;
  cfg.scale = 9;
  cfg.seed = 7;
  const sim::MeshShape mesh{2, 2};
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};

  uint64_t mismatches = ~0ull;
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto degrees = partition::compute_local_degrees(ctx, space, slice);
    auto part = partition::build_1d(ctx, space, slice);
    auto keys = bfs::pick_search_keys(ctx, space, degrees, 8, 11);
    const uint64_t local = space.count(ctx.rank);

    MsbfsResult fwd = msbfs_run(ctx, part, keys);
    std::vector<Vertex> rev(keys.rbegin(), keys.rend());
    MsbfsResult bwd = msbfs_run(ctx, part, rev);

    uint64_t bad = 0;
    for (size_t q = 0; q < keys.size(); ++q) {
      size_t r = keys.size() - 1 - q;
      for (uint64_t l = 0; l < local; ++l)
        if (fwd.parent[q * local + l] != bwd.parent[r * local + l]) ++bad;
    }
    bad = ctx.world.allreduce_sum(bad);
    if (ctx.rank == 0) mismatches = bad;
  });
  EXPECT_EQ(mismatches, 0u);
}

// ------------------------------------------------------------- broker

TEST(Broker, ClosesOnWidth) {
  BrokerConfig cfg;
  cfg.batch_width = 4;
  cfg.batch_age_s = 1.0;
  QueryBroker broker(cfg);
  for (uint64_t i = 0; i < 4; ++i)
    ASSERT_TRUE(broker.submit(bfs_query(i, Vertex(i), 0.0)));
  EXPECT_TRUE(broker.batch_ready(0.0));
  std::vector<QueryResult> expired;
  auto batch = broker.form_batch(0.0, &expired);
  ASSERT_EQ(batch.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(batch[i].id, i);  // FIFO
  EXPECT_TRUE(expired.empty());
  EXPECT_TRUE(broker.empty());
}

TEST(Broker, ClosesOnAgeTimeout) {
  BrokerConfig cfg;
  cfg.batch_width = 64;
  cfg.batch_age_s = 0.005;
  QueryBroker broker(cfg);
  ASSERT_TRUE(broker.submit(bfs_query(0, 1, /*arrival=*/0.010)));
  EXPECT_FALSE(broker.batch_ready(0.012));
  EXPECT_DOUBLE_EQ(broker.next_close_s(), 0.015);
  EXPECT_TRUE(broker.batch_ready(0.015));
  std::vector<QueryResult> expired;
  auto batch = broker.form_batch(0.015, &expired);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_TRUE(expired.empty());
}

TEST(Broker, RejectsOverCapacityWithTypedError) {
  BrokerConfig cfg;
  cfg.queue_capacity = 2;
  QueryBroker broker(cfg);
  ASSERT_TRUE(broker.submit(bfs_query(0, 1, 0.0)));
  ASSERT_TRUE(broker.submit(bfs_query(1, 2, 0.0)));
  QueryResult rejection;
  EXPECT_FALSE(broker.submit(bfs_query(2, 3, 0.0), &rejection));
  EXPECT_EQ(rejection.status, QueryStatus::Rejected);
  EXPECT_EQ(rejection.id, 2u);
  EXPECT_NE(rejection.error.find("QueryRejected"), std::string::npos)
      << rejection.error;
  EXPECT_NE(rejection.error.find("capacity 2"), std::string::npos)
      << rejection.error;
  EXPECT_EQ(broker.depth(), 2u);  // the queue itself is untouched
  EXPECT_EQ(broker.reject_count(), 1u);
  EXPECT_EQ(broker.shed_count(), 0u);  // a refusal is not a shed
}

TEST(Broker, SweepsExpiredWithTypedError) {
  BrokerConfig cfg;
  cfg.batch_width = 64;
  cfg.batch_age_s = 0.005;
  QueryBroker broker(cfg);
  ASSERT_TRUE(broker.submit(bfs_query(0, 1, 0.0, /*deadline=*/0.001)));
  ASSERT_TRUE(broker.submit(bfs_query(1, 2, 0.0)));
  EXPECT_TRUE(broker.batch_ready(0.002));  // an expiry needs sweeping
  std::vector<QueryResult> expired;
  auto batch = broker.form_batch(0.002, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 0u);
  EXPECT_EQ(expired[0].status, QueryStatus::Expired);
  EXPECT_NE(expired[0].error.find("QueryExpired"), std::string::npos)
      << expired[0].error;
  ASSERT_EQ(batch.size(), 1u);  // the neighbour survives the sweep
  EXPECT_EQ(batch[0].id, 1u);
}

TEST(Broker, BatchesAreKindHomogeneous) {
  BrokerConfig cfg;
  cfg.batch_width = 64;
  QueryBroker broker(cfg);
  Query sssp = bfs_query(1, 2, 0.0);
  sssp.kind = QueryKind::SsspRoot;
  ASSERT_TRUE(broker.submit(bfs_query(0, 1, 0.0)));
  ASSERT_TRUE(broker.submit(sssp));
  ASSERT_TRUE(broker.submit(bfs_query(2, 3, 0.0)));
  std::vector<QueryResult> expired;
  auto batch = broker.form_batch(10.0, &expired);
  ASSERT_EQ(batch.size(), 2u);  // both BFS queries, not the SSSP one
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(batch[1].id, 2u);
  ASSERT_EQ(broker.depth(), 1u);
  auto next = broker.form_batch(10.0, &expired);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].kind, QueryKind::SsspRoot);
}

// ------------------------------------------------------ overload breaker

BrokerConfig breaker_config() {
  BrokerConfig cfg;
  cfg.batch_width = 64;
  cfg.queue_capacity = 10;
  cfg.shed.enabled = true;
  cfg.shed.queue_highwater = 0.5;  // occupancy trip at depth 5
  cfg.shed.window = 4;
  cfg.shed.min_samples = 2;
  cfg.shed.probe_after_s = 0.01;
  cfg.shed.probe_admit_every = 4;
  return cfg;
}

Query sheddable(uint64_t id, double arrival_s) {
  Query q = bfs_query(id, Vertex(id + 1), arrival_s);
  q.priority = 0;
  return q;
}

QueryResult outcome(QueryStatus status, double deadline_s) {
  QueryResult r;
  r.status = status;
  r.deadline_s = deadline_s;
  return r;
}

TEST(Breaker, OccupancyTripShedsOnlyLowPriority) {
  QueryBroker broker(breaker_config());
  for (uint64_t i = 0; i < 5; ++i)
    ASSERT_TRUE(broker.submit(bfs_query(i, Vertex(i + 1), 0.0), nullptr, 0.0));
  EXPECT_EQ(broker.breaker(), BreakerState::Shedding);  // depth 5 = highwater
  EXPECT_EQ(broker.breaker_transitions(), 1u);

  QueryResult rejection;
  EXPECT_FALSE(broker.submit(sheddable(5, 0.0), &rejection, 0.0));
  EXPECT_EQ(rejection.status, QueryStatus::Rejected);
  EXPECT_NE(rejection.error.find("QueryShed"), std::string::npos)
      << rejection.error;
  EXPECT_EQ(broker.shed_count(), 1u);
  EXPECT_EQ(broker.depth(), 5u);

  // Default-priority queries ride through an open breaker untouched.
  EXPECT_TRUE(broker.submit(bfs_query(6, 7, 0.0), nullptr, 0.0));
  EXPECT_EQ(broker.depth(), 6u);
}

TEST(Breaker, MissRateOpensBreaker) {
  QueryBroker broker(breaker_config());
  EXPECT_EQ(broker.breaker(), BreakerState::Closed);
  // One miss is below min_samples; the second opens (rate 1 >= 0.5).
  broker.on_outcome(outcome(QueryStatus::Expired, 0.001), 0.002);
  EXPECT_EQ(broker.breaker(), BreakerState::Closed);
  broker.on_outcome(outcome(QueryStatus::Expired, 0.001), 0.003);
  EXPECT_EQ(broker.breaker(), BreakerState::Shedding);
  // Rejections and deadline-free completions are not overload signals.
  broker.on_outcome(outcome(QueryStatus::Rejected, kNoDeadline), 0.004);
  EXPECT_EQ(broker.breaker_transitions(), 1u);
}

TEST(Breaker, ProbingAdmitsTrickleThenHealthyWindowCloses) {
  QueryBroker broker(breaker_config());
  for (uint64_t i = 0; i < 5; ++i)
    ASSERT_TRUE(broker.submit(bfs_query(i, Vertex(i + 1), 0.0), nullptr, 0.0));
  ASSERT_EQ(broker.breaker(), BreakerState::Shedding);

  // Past the probe timer, the first sheddable submission flips the breaker
  // to Probing and is itself the probe (1 admitted in every 4).
  EXPECT_TRUE(broker.submit(sheddable(10, 0.02), nullptr, 0.02));
  EXPECT_EQ(broker.breaker(), BreakerState::Probing);
  EXPECT_TRUE(broker.submit(bfs_query(11, 12, 0.02), nullptr, 0.02));
  for (uint64_t i = 0; i < 3; ++i)
    EXPECT_FALSE(broker.submit(sheddable(12 + i, 0.02), nullptr, 0.02));
  EXPECT_TRUE(broker.submit(sheddable(15, 0.02), nullptr, 0.02));
  EXPECT_EQ(broker.shed_count(), 3u);

  // A healthy outcome window closes the breaker again.
  broker.on_outcome(outcome(QueryStatus::Done, 0.5), 0.03);
  broker.on_outcome(outcome(QueryStatus::Done, 0.5), 0.03);
  EXPECT_EQ(broker.breaker(), BreakerState::Closed);
  EXPECT_EQ(broker.breaker_transitions(), 3u);  // shed -> probe -> closed
}

TEST(Breaker, ProbeMissReopensImmediately) {
  QueryBroker broker(breaker_config());
  for (uint64_t i = 0; i < 5; ++i)
    ASSERT_TRUE(broker.submit(bfs_query(i, Vertex(i + 1), 0.0), nullptr, 0.0));
  EXPECT_TRUE(broker.submit(sheddable(10, 0.02), nullptr, 0.02));
  ASSERT_EQ(broker.breaker(), BreakerState::Probing);
  broker.on_outcome(outcome(QueryStatus::Expired, 0.001), 0.03);
  EXPECT_EQ(broker.breaker(), BreakerState::Shedding);
}

TEST(Breaker, FailedResultCarriesAttemptsAndTimestamps) {
  Query q = bfs_query(9, 4, /*arrival=*/0.001, /*deadline=*/0.010);
  q.attempt = 2;
  QueryResult r = make_failed(q, 0.006, "batch exhausted recovery");
  EXPECT_EQ(r.status, QueryStatus::Failed);
  EXPECT_EQ(r.id, 9u);
  EXPECT_EQ(r.retries, 2);
  EXPECT_EQ(r.deadline_s, 0.010);
  EXPECT_DOUBLE_EQ(r.latency_s, 0.005);
  EXPECT_NE(r.error.find("QueryFailed"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("3 attempt(s)"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("batch exhausted recovery"), std::string::npos);
}

// ------------------------------------------------------------ session

ServiceConfig small_service(int scale = 9) {
  ServiceConfig cfg;
  cfg.graph.scale = scale;
  cfg.graph.seed = 3;
  cfg.threads_per_rank = 2;
  cfg.root_pool = 16;
  return cfg;
}

TEST(Session, DeadlineExpiryDoesNotCorruptNeighbours) {
  GraphSession session(sim::Topology(sim::MeshShape{2, 2}), small_service());
  WorkloadConfig wl;
  wl.seed = 5;
  wl.num_queries = 16;
  wl.rate_qps = 2000;
  wl.expire_every = 4;  // every 4th query arrives already expired
  ServiceReport report = session.serve(wl, BrokerConfig{});
  ASSERT_TRUE(report.spmd.ok());

  uint64_t expired = 0, done = 0;
  for (const auto& r : report.results) {
    if (r.status == QueryStatus::Expired) {
      ++expired;
      EXPECT_EQ((r.id + 1) % 4, 0u) << "unexpected expiry of query " << r.id;
      EXPECT_NE(r.error.find("QueryExpired"), std::string::npos) << r.error;
      EXPECT_EQ(r.traversed_edges, 0u);
    } else {
      ++done;
      EXPECT_EQ(r.status, QueryStatus::Done);
      EXPECT_GT(r.traversed_edges, 0u) << "query " << r.id;
      EXPECT_GT(r.levels, 0);
      EXPECT_GE(r.latency_s, 0.0);
    }
  }
  EXPECT_EQ(expired, 4u);
  EXPECT_EQ(done, 12u);
  EXPECT_EQ(report.expired_total(), 4u);
  EXPECT_EQ(report.completed, 12u);
  EXPECT_EQ(report.rejected, 0u);
}

TEST(Session, AdmissionRejectsOverCapacity) {
  GraphSession session(sim::Topology(sim::MeshShape{2, 2}), small_service());
  WorkloadConfig wl;
  wl.seed = 9;
  wl.num_queries = 32;
  wl.rate_qps = 1e9;  // everything arrives at once
  BrokerConfig broker;
  broker.queue_capacity = 4;
  broker.batch_width = 4;
  ServiceReport report = session.serve(wl, broker);
  ASSERT_TRUE(report.spmd.ok());

  EXPECT_GT(report.rejected, 0u);
  EXPECT_GT(report.completed, 0u);
  EXPECT_EQ(report.rejected + report.completed + report.expired_total(),
            report.submitted);
  for (const auto& r : report.results) {
    if (r.status != QueryStatus::Rejected) continue;
    EXPECT_NE(r.error.find("QueryRejected"), std::string::npos) << r.error;
    EXPECT_EQ(r.traversed_edges, 0u);
  }
}

void expect_identical_reports(const ServiceReport& a, const ServiceReport& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    const auto& x = a.results[i];
    const auto& y = b.results[i];
    EXPECT_EQ(x.id, y.id) << "result " << i;
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.status, y.status);
    EXPECT_EQ(x.root, y.root);
    EXPECT_EQ(x.arrival_s, y.arrival_s);
    EXPECT_EQ(x.start_s, y.start_s);
    EXPECT_EQ(x.done_s, y.done_s);
    EXPECT_EQ(x.latency_s, y.latency_s);
    EXPECT_EQ(x.traversed_edges, y.traversed_edges);
    EXPECT_EQ(x.levels, y.levels);
  }
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.qps, b.qps);
  EXPECT_EQ(a.latency_mean_s, b.latency_mean_s);
  EXPECT_EQ(a.latency_p50_s, b.latency_p50_s);
  EXPECT_EQ(a.latency_p95_s, b.latency_p95_s);
  EXPECT_EQ(a.latency_p99_s, b.latency_p99_s);
}

TEST(Session, DeterministicReplayOpenLoop) {
  GraphSession session(sim::Topology(sim::MeshShape{2, 2}), small_service());
  WorkloadConfig wl;
  wl.seed = 21;
  wl.num_queries = 24;
  wl.rate_qps = 5000;
  ServiceReport first = session.serve(wl, BrokerConfig{});
  ServiceReport second = session.serve(wl, BrokerConfig{});
  ASSERT_TRUE(first.spmd.ok());
  ASSERT_TRUE(second.spmd.ok());
  EXPECT_GT(first.completed, 0u);
  expect_identical_reports(first, second);
}

TEST(Session, DeterministicReplayClosedLoopMixed) {
  GraphSession session(sim::Topology(sim::MeshShape{2, 2}), small_service());
  WorkloadConfig wl;
  wl.mode = ArrivalMode::Closed;
  wl.seed = 33;
  wl.num_queries = 20;
  wl.users = 4;
  wl.think_s = 1e-4;
  wl.sssp_fraction = 0.3;
  ServiceReport first = session.serve(wl, BrokerConfig{});
  ServiceReport second = session.serve(wl, BrokerConfig{});
  ASSERT_TRUE(first.spmd.ok());
  ASSERT_TRUE(second.spmd.ok());
  EXPECT_GT(first.completed, 0u);
  uint64_t sssp = 0;
  for (const auto& r : first.results)
    if (r.kind == QueryKind::SsspRoot) ++sssp;
  EXPECT_GT(sssp, 0u);  // the mix actually exercised the SSSP path
  expect_identical_reports(first, second);
}

// SSSP-root queries run under the session's one wire configuration.  Under
// a mixed workload, every completed SSSP answer's traversed_edges equals the
// degree-sum (halved) of reference_sssp's reached set, for direct and
// butterfly; an SSSP-only workload proves the backend reaches the SSSP
// exchange (butterfly's staged hops add alltoallv calls).
TEST(Session, SsspAnswersMatchReferenceUnderEveryExchange) {
  const ServiceConfig base = small_service();
  const auto edges = graph::generate_rmat(base.graph);
  auto alltoallv_calls = [](const ServiceReport& rep) {
    uint64_t calls = 0;
    for (const auto& rank : rep.spmd.per_rank)
      calls += rank.entry(sim::CollectiveType::Alltoallv).calls;
    return calls;
  };
  uint64_t sssp_only_calls[2] = {0, 0};
  int b = 0;
  for (sim::ExchangeBackend backend :
       {sim::ExchangeBackend::Direct, sim::ExchangeBackend::Butterfly}) {
    SCOPED_TRACE(sim::exchange_backend_name(backend));
    ServiceConfig cfg = base;
    cfg.msbfs.exchange.backend = backend;
    GraphSession session(sim::Topology(sim::MeshShape{2, 2}), cfg);
    WorkloadConfig wl;
    wl.mode = ArrivalMode::Closed;
    wl.seed = 33;
    wl.num_queries = 20;
    wl.users = 4;
    wl.think_s = 1e-4;
    wl.sssp_fraction = 0.4;
    ServiceReport report = session.serve(wl, BrokerConfig{});
    ASSERT_TRUE(report.spmd.ok());
    uint64_t checked = 0;
    for (const auto& r : report.results) {
      if (r.kind != QueryKind::SsspRoot || r.status != QueryStatus::Done)
        continue;
      const auto dist = analytics::reference_sssp(cfg.graph.num_vertices(),
                                                  edges, r.root, cfg.sssp);
      uint64_t degree_sum = 0;
      for (const graph::Edge& e : edges)
        degree_sum += uint64_t(dist[size_t(e.u)] < analytics::kInfDist) +
                      uint64_t(dist[size_t(e.v)] < analytics::kInfDist);
      EXPECT_EQ(r.traversed_edges, degree_sum / 2) << "query " << r.id;
      ++checked;
    }
    EXPECT_GT(checked, 0u);

    wl.sssp_fraction = 1.0;
    wl.num_queries = 4;
    ServiceReport sssp_only = session.serve(wl, BrokerConfig{});
    ASSERT_TRUE(sssp_only.spmd.ok());
    sssp_only_calls[b++] = alltoallv_calls(sssp_only);
  }
  EXPECT_GT(sssp_only_calls[1], sssp_only_calls[0]);
}

// Golden serving runs: every ServiceReport counter, the headline virtual
// latencies (hexfloat, exact) and an FNV-1a hash over each result's
// (id, status, epoch, distance, reachable, traversed_edges, levels,
// start_s, done_s), pinned for three fixed configurations.  The virtual
// clock is a pure function of (config, seeds, threads_per_rank), so any
// change to collective order, clock charging or result building in the
// serve loop shows up as a literal diff here.  small_service() pins
// threads_per_rank, which the compute model divides by.
std::string golden_line(const ServiceReport& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  auto bits = [](double d) {
    uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
  };
  for (const QueryResult& q : r.results) {
    mix(q.id);
    mix(uint64_t(q.status));
    mix(q.epoch);
    mix(uint64_t(q.distance));
    mix(uint64_t(q.reachable));
    mix(q.traversed_edges);
    mix(uint64_t(int64_t(q.levels)));
    mix(bits(q.start_s));
    mix(bits(q.done_s));
  }
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "sub=%llu acc=%llu rej=%llu shed=%llu done=%llu expq=%llu explate=%llu "
      "failed=%llu retried=%llu batches=%llu fbatches=%llu hedged=%llu "
      "breaker=%llu warm=%llu steady=%llu | cache %llu/%llu/%llu/%llu/%llu/"
      "%llu/%llu | mutate %llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu | "
      "occ=%a p50=%a p99=%a makespan=%a | n=%zu hash=%016llx",
      (unsigned long long)r.submitted, (unsigned long long)r.accepted,
      (unsigned long long)r.rejected, (unsigned long long)r.shed,
      (unsigned long long)r.completed, (unsigned long long)r.expired_in_queue,
      (unsigned long long)r.expired_late, (unsigned long long)r.failed,
      (unsigned long long)r.retried, (unsigned long long)r.batches,
      (unsigned long long)r.failed_batches,
      (unsigned long long)r.hedged_batches,
      (unsigned long long)r.breaker_transitions,
      (unsigned long long)r.staging_allocs_warmup,
      (unsigned long long)r.staging_allocs_steady,
      (unsigned long long)r.cache.probes, (unsigned long long)r.cache.hits,
      (unsigned long long)r.cache.misses, (unsigned long long)r.cache.expired,
      (unsigned long long)r.cache.refreshes,
      (unsigned long long)r.cache.sketch_answers,
      (unsigned long long)r.cache.tree_hits,
      (unsigned long long)r.mutate.batches, (unsigned long long)r.mutate.epoch,
      (unsigned long long)r.mutate.inserted_arcs,
      (unsigned long long)r.mutate.deleted_arcs,
      (unsigned long long)r.mutate.delete_misses,
      (unsigned long long)r.mutate.compactions,
      (unsigned long long)r.mutate.repair_invalidated,
      (unsigned long long)r.mutate.repair_relaxations,
      (unsigned long long)r.mutate.repair_rounds,
      (unsigned long long)r.mutate.sketch_repairs, r.mean_batch_occupancy,
      r.latency_p50_s, r.latency_p99_s, r.makespan_s, r.results.size(),
      (unsigned long long)h);
  return buf;
}

TEST(Session, GoldenReportCacheAndMutationsOnZipfianMix) {
  ServiceConfig cfg = small_service();
  cfg.cache.enabled = true;
  cfg.cache.landmarks = 8;
  cfg.mutation.enabled = true;
  cfg.mutation.every = 8;
  cfg.mutation.max_batches = 4;
  cfg.mutation.inserts_per_batch = 4;
  cfg.mutation.deletes_per_batch = 4;
  GraphSession session(sim::Topology(sim::MeshShape{2, 2}), cfg);
  WorkloadConfig wl;
  wl.seed = 41;
  wl.num_queries = 48;
  wl.rate_qps = 2000;
  wl.root_dist = RootDist::Zipfian;
  wl.distance_fraction = 0.3;
  wl.reachable_fraction = 0.15;
  ServiceReport report = session.serve(wl, BrokerConfig{});
  ASSERT_TRUE(report.spmd.ok());
  EXPECT_EQ(golden_line(report),
            "sub=48 acc=22 rej=0 shed=0 done=48 expq=0 explate=0 "
            "failed=0 retried=0 batches=6 fbatches=0 hedged=0 breaker=0 "
            "warm=296 steady=0 | cache 48/26/22/14/5/18/8 | mutate "
            "4/4/32/32/4/4/15/129/104/4 | occ=0x1.d555555555555p+1 "
            "p50=0x1.0a15ae70df14p-13 p99=0x1.4e62e9fb200d4p-8 "
            "makespan=0x1.a45bddb3bc26p-6 | n=48 hash=6719a965c3316973");
}

TEST(Session, GoldenReportFaultsShedHedgeRetry) {
  ServiceConfig cfg = small_service();
  cfg.faults = sim::FaultPlan::random(7, 4, 2, 4, 2);  // --faults 3
  cfg.faults.add_straggler(1, sim::CollectiveType::Allreduce, 120, 0.01);
  cfg.msbfs.recovery.max_retries = 1;
  cfg.retry_budget = 2;
  cfg.hedge.enabled = true;
  cfg.hedge.min_samples = 2;
  cfg.hedge.factor = 1.5;
  GraphSession session(sim::Topology(sim::MeshShape{2, 2}), cfg);
  WorkloadConfig wl;
  wl.seed = 17;
  wl.num_queries = 64;
  wl.rate_qps = 20000;
  wl.deadline_s = 0.008;
  BrokerConfig broker;
  broker.batch_width = 4;
  broker.queue_capacity = 24;
  broker.shed.enabled = true;
  broker.shed.queue_highwater = 0.5;
  ServiceReport report = session.serve(wl, broker);
  ASSERT_TRUE(report.spmd.ok());
  EXPECT_EQ(golden_line(report),
            "sub=64 acc=29 rej=5 shed=32 done=16 expq=7 explate=4 "
            "failed=0 retried=8 batches=7 fbatches=2 hedged=1 breaker=1 "
            "warm=104 steady=0 | cache 0/0/0/0/0/0/0 | mutate "
            "0/0/0/0/0/0/0/0/0/0 | occ=0x1p+2 p50=0x1.92c1deb3c7514p-8 "
            "p99=0x1.d7809d6cf07b2p-8 makespan=0x1.9101eb4df3c9cp-7 | "
            "n=64 hash=befbdd95dc2423fe");
}

TEST(Session, GoldenReportSsspRootMix) {
  ServiceConfig cfg = small_service();
  GraphSession session(sim::Topology(sim::MeshShape{2, 2}), cfg);
  WorkloadConfig wl;
  wl.mode = ArrivalMode::Closed;
  wl.seed = 33;
  wl.num_queries = 24;
  wl.users = 4;
  wl.sssp_fraction = 0.3;
  wl.distance_fraction = 0.2;
  ServiceReport report = session.serve(wl, BrokerConfig{});
  ASSERT_TRUE(report.spmd.ok());
  EXPECT_EQ(golden_line(report),
            "sub=24 acc=24 rej=0 shed=0 done=24 expq=0 explate=0 "
            "failed=0 retried=0 batches=14 fbatches=0 hedged=0 "
            "breaker=0 warm=104 steady=0 | cache 0/0/0/0/0/0/0 | mutate "
            "0/0/0/0/0/0/0/0/0/0 | occ=0x1.b6db6db6db6dbp+0 "
            "p50=0x1.56d1509dafdc6p-8 p99=0x1.7303ad8888abp-8 "
            "makespan=0x1.07333a1eb2ee5p-5 | n=24 hash=80d3c95e30dc7b19");
}

// ---------------------------------------------------- zipfian workload

// The zipfian sampler is part of the replay contract: one uniform draw per
// sample inverted through a precomputed CDF.  Pin the exact (kind, root,
// target) stream for a fixed seed so any accidental change to the draw
// order or the CDF construction shows up as a literal diff.
TEST(Workload, ZipfianPinnedSequenceForFixedSeed) {
  WorkloadConfig wl;
  wl.seed = 77;
  wl.num_queries = 12;
  wl.rate_qps = 1e6;
  wl.root_dist = RootDist::Zipfian;
  wl.zipf_theta = 0.99;
  wl.distance_fraction = 0.25;
  std::vector<Vertex> pool(8);
  for (size_t i = 0; i < pool.size(); ++i) pool[i] = Vertex(100 + 10 * i);
  WorkloadGen gen(wl, pool);
  auto queries = gen.pop_ready(1e9);
  ASSERT_EQ(queries.size(), 12u);
  std::vector<Vertex> roots, targets;
  std::vector<QueryKind> kinds;
  for (const Query& q : queries) {
    kinds.push_back(q.kind);
    roots.push_back(q.root);
    targets.push_back(q.target);
  }
  const std::vector<QueryKind> want_kinds = {
      QueryKind::Distance, QueryKind::Distance, QueryKind::Bfs,
      QueryKind::Bfs,      QueryKind::Bfs,      QueryKind::Bfs,
      QueryKind::Distance, QueryKind::Distance, QueryKind::Bfs,
      QueryKind::Distance, QueryKind::Bfs,      QueryKind::Bfs};
  const std::vector<Vertex> want_roots = {120, 100, 170, 100, 100, 100,
                                          120, 160, 170, 160, 120, 120};
  const std::vector<Vertex> want_targets = {
      170, 120, kNoVertex, kNoVertex, kNoVertex, kNoVertex,
      130, 120, kNoVertex, 100,       kNoVertex, kNoVertex};
  EXPECT_EQ(kinds, want_kinds);
  EXPECT_EQ(roots, want_roots);
  EXPECT_EQ(targets, want_targets);
}

// Zipf skew sanity: with theta ~= 1 the hottest pool index must dominate a
// uniform share, and two generators from the same seed must agree draw for
// draw (the replay property the pinned test above freezes one instance of).
TEST(Workload, ZipfianSkewAndReplay) {
  WorkloadConfig wl;
  wl.seed = 99;
  wl.num_queries = 400;
  wl.rate_qps = 1e6;
  wl.root_dist = RootDist::Zipfian;
  wl.zipf_theta = 0.99;
  std::vector<Vertex> pool(16);
  for (size_t i = 0; i < pool.size(); ++i) pool[i] = Vertex(i);
  WorkloadGen a(wl, pool);
  WorkloadGen b(wl, pool);
  auto qa = a.pop_ready(1e9);
  auto qb = b.pop_ready(1e9);
  ASSERT_EQ(qa.size(), 400u);
  ASSERT_EQ(qa.size(), qb.size());
  uint64_t hottest = 0;
  for (size_t i = 0; i < qa.size(); ++i) {
    EXPECT_EQ(qa[i].root, qb[i].root) << "draw " << i;
    EXPECT_EQ(qa[i].arrival_s, qb[i].arrival_s) << "draw " << i;
    if (qa[i].root == pool[0]) ++hottest;
  }
  // Uniform share would be 1/16 = 25 of 400; zipf(0.99) over 16 gives the
  // top rank ~30%.  Gate well below that to stay robust across seeds.
  EXPECT_GT(hottest, 60u);
}

TEST(Percentile, NearestRank) {
  std::vector<double> s{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(percentile(s, 50), 2);
  EXPECT_DOUBLE_EQ(percentile(s, 100), 4);
  EXPECT_DOUBLE_EQ(percentile(s, 0), 1);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
}

}  // namespace
}  // namespace sunbfs::service
