// The per-query adjacency memo under NetworkExpansion (AdjacencyMemo in
// core/query_context.h): a memo-served list is exactly the list the CCAM
// file holds, no entry outlives the query that made it, a fetch that
// failed or was cancelled leaves no entry behind, and a query run without
// a context still shares one memo between its search and its oracle.
//
// check.sh runs this binary on the file backend too, under every
// sanitizer, so ASan sees the adjacency views into the memo arena against
// a real index file.

#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/distance_oracle.h"
#include "core/div_search.h"
#include "core/euclidean_baseline.h"
#include "core/network_expansion.h"
#include "core/query.h"
#include "core/query_context.h"
#include "core/ranked_search.h"
#include "core/sk_search.h"
#include "datagen/network_generator.h"
#include "datagen/presets.h"
#include "datagen/workload.h"
#include "graph/ccam.h"
#include "gtest/gtest.h"
#include "harness/database.h"
#include "index/inverted_rtree.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injector.h"
#include "tests/storage_test_util.h"

namespace dsks {
namespace {

DatasetConfig MemoConfig() {
  DatasetConfig config = ScalePreset(PresetSYN(), 0.2);
  config.objects.keywords_per_object = 6;
  return config;
}

Workload MemoWorkload(const Database& db, size_t num_queries) {
  WorkloadConfig wc;
  wc.num_queries = num_queries;
  wc.num_keywords = 2;
  wc.seed = 43;
  Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);
  for (WorkloadQuery& wq : wl.queries) {
    DSKS_CHECK(NormalizeSkQuery(&wq.sk).ok());
  }
  return wl;
}

/// A CCAM file over a generated network on the env-selected backend, read
/// through a pool that holds all of it.
struct CcamFixture {
  std::unique_ptr<RoadNetwork> net;
  testing::TestDisk disk{"memo_ccam"};
  CcamFile file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<CcamGraph> graph;
  QueryEdgeInfo qe;  // the middle of edge 0

  CcamFixture() {
    NetworkGenConfig nc;
    nc.num_nodes = 400;
    nc.seed = 7;
    net = GenerateRoadNetwork(nc);
    file = CcamFileBuilder::Build(*net, disk.get());
    pool = std::make_unique<BufferPool>(disk.get(), disk->num_pages());
    graph = std::make_unique<CcamGraph>(&file, pool.get());
    const Edge& e = net->edge(0);
    qe = MakeQueryEdgeInfo(*net, NetworkLocation{0, e.length / 2.0});
  }

  uint64_t accesses() const { return pool->stats_snapshot().accesses(); }
  uint64_t reads() { return disk->stats_snapshot().reads; }
};

/// True iff `got` is `want` element for element, weights bit for bit.
bool SameAdjacency(std::span<const AdjacentEdge> got,
                   const std::vector<AdjacentEdge>& want) {
  if (got.size() != want.size()) {
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].neighbor != want[i].neighbor || got[i].edge != want[i].edge ||
        std::memcmp(&got[i].weight, &want[i].weight, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Seeds `x` at the fixture's query point and settles up to `limit` nodes,
/// relaxing each one's adjacency after checking it against GetAdjacency
/// (the check's own pool access included). Returns the settle order; stops
/// early when the expansion does.
std::vector<NodeId> SettleChecked(const CcamFixture& fx, NetworkExpansion* x,
                                  size_t limit = SIZE_MAX) {
  std::vector<NodeId> order;
  std::vector<AdjacentEdge> want;
  x->Seed(fx.qe.n1, fx.qe.n2, fx.qe.weight, fx.qe.w1);
  NodeId v;
  double d;
  while (order.size() < limit && x->Settle(&v, &d)) {
    order.push_back(v);
    if (x->status().ok()) {
      EXPECT_TRUE(fx.graph->GetAdjacency(v, &want).ok());
      EXPECT_TRUE(SameAdjacency(x->adjacency(), want)) << "node " << v;
    } else {
      EXPECT_TRUE(x->adjacency().empty()) << "node " << v;
    }
    for (const AdjacentEdge& adj : x->adjacency()) {
      x->Relax(adj.neighbor, d + adj.weight);
    }
  }
  return order;
}

TEST(AdjacencyMemoTest, ServedListsEqualTheCcamFileBitForBit) {
  CcamFixture fx;
  // A full expansion fills the memo; a second one on the same context, as
  // a later pass of the same query would, is served from it entirely.
  QueryContext ctx;
  NetworkExpansion first(fx.graph.get(), 1e18, &ctx.sk_search.expansion,
                         &ctx);
  const std::vector<NodeId> order = SettleChecked(fx, &first);
  ASSERT_TRUE(first.status().ok()) << first.status().ToString();
  EXPECT_EQ(order.size(), fx.net->num_nodes());
  for (const NodeId v : order) {
    EXPECT_TRUE(ctx.adjacency_memo.slice.Contains(v)) << "node " << v;
  }

  const uint64_t accesses = fx.accesses();
  NetworkExpansion second(fx.graph.get(), 1e18, &ctx.oracle.field, &ctx);
  EXPECT_EQ(SettleChecked(fx, &second), order);
  // Only the check's own GetAdjacency calls touched the pool.
  EXPECT_EQ(fx.accesses() - accesses, order.size());
}

/// A settle whose fetch fails leaves no memo entry; the next expansion on
/// the same context reads that page again and gets the full list.
TEST(AdjacencyMemoTest, FailedFetchLeavesNoEntry) {
  CcamFixture fx;
  QueryContext probe;
  NetworkExpansion dry(fx.graph.get(), 1e18, &probe.sk_search.expansion,
                       &probe);
  const std::vector<NodeId> order = SettleChecked(fx, &dry);
  // The victim is the first settle that needs its page: no earlier node
  // shares it.
  size_t victim = 5;
  auto shares_earlier_page = [&](size_t i) {
    for (size_t j = 0; j < i; ++j) {
      if (fx.file.PageOfNode(order[j]) == fx.file.PageOfNode(order[i])) {
        return true;
      }
    }
    return false;
  };
  while (victim < order.size() && shares_earlier_page(victim)) {
    ++victim;
  }
  ASSERT_LT(victim, order.size());
  const NodeId node = order[victim];

  ASSERT_TRUE(fx.pool->Clear().ok());
  fx.disk->fault_injector()->FailPageReads(fx.file.PageOfNode(node), 1);
  QueryContext ctx;
  NetworkExpansion x(fx.graph.get(), 1e18, &ctx.sk_search.expansion, &ctx);
  const std::vector<NodeId> got = SettleChecked(fx, &x);
  ASSERT_TRUE(x.status().IsIOError()) << x.status().ToString();
  ASSERT_EQ(got.size(), victim + 1);
  EXPECT_EQ(got.back(), node);
  EXPECT_FALSE(ctx.adjacency_memo.slice.Contains(node));
  for (size_t i = 0; i < victim; ++i) {
    EXPECT_TRUE(ctx.adjacency_memo.slice.Contains(order[i]));
  }

  // Up to the victim, only the victim's page is not resident: the one disk
  // read is the refetch the failed settle left to do.
  const uint64_t reads = fx.reads();
  NetworkExpansion again(fx.graph.get(), 1e18, &ctx.oracle.field, &ctx);
  const std::vector<NodeId> redo = SettleChecked(fx, &again, victim + 1);
  ASSERT_TRUE(again.status().ok()) << again.status().ToString();
  EXPECT_EQ(redo.back(), node);
  EXPECT_EQ(fx.reads() - reads, 1u);
  EXPECT_TRUE(ctx.adjacency_memo.slice.Contains(node));
}

/// The settle that finds the deadline expired fetches nothing and leaves no
/// memo entry; once the deadline is lifted the next expansion on the same
/// context fetches that node and no other.
TEST(AdjacencyMemoTest, CancelledSettleLeavesNoEntry) {
  CcamFixture fx;
  QueryContext ctx;
  ctx.deadline_steady_ns = DeadlineFromNowMillis(-1.0);
  NetworkExpansion x(fx.graph.get(), 1e18, &ctx.sk_search.expansion, &ctx);
  const std::vector<NodeId> order = SettleChecked(fx, &x);
  ASSERT_TRUE(x.status().IsCancelled()) << x.status().ToString();
  ASSERT_EQ(order.size(), NetworkExpansion::kPollInterval);
  const NodeId cancelled = order.back();
  EXPECT_FALSE(ctx.adjacency_memo.slice.Contains(cancelled));

  ctx.deadline_steady_ns = 0;
  const uint64_t accesses = fx.accesses();
  NetworkExpansion again(fx.graph.get(), 1e18, &ctx.oracle.field, &ctx);
  EXPECT_EQ(SettleChecked(fx, &again, order.size()), order);
  ASSERT_TRUE(again.status().ok()) << again.status().ToString();
  // One fetch for the cancelled node plus the check's own reads; the
  // memoized nodes cost nothing.
  EXPECT_EQ(fx.accesses() - accesses, 1 + order.size());
  EXPECT_TRUE(ctx.adjacency_memo.slice.Contains(cancelled));
}

/// True iff the two answers are the same objects at the same distances,
/// bit for bit, with the same objective and oracle work.
bool SameAnswer(const DivSearchOutput& a, const DivSearchOutput& b) {
  if (a.selected.size() != b.selected.size() ||
      std::memcmp(&a.objective, &b.objective, sizeof(double)) != 0 ||
      a.stats.candidates != b.stats.candidates ||
      a.stats.distance_fields != b.stats.distance_fields ||
      a.stats.oracle_pairs != b.stats.oracle_pairs ||
      a.stats.oracle_pairs_shared != b.stats.oracle_pairs_shared) {
    return false;
  }
  for (size_t i = 0; i < a.selected.size(); ++i) {
    if (a.selected[i].id != b.selected[i].id ||
        std::memcmp(&a.selected[i].dist, &b.selected[i].dist,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Database::RunDivQuery without a context runs the whole query on one
/// context of its own, so the oracle's shared pass and fields read the
/// adjacency the SK search already decoded, as they do on the caller's
/// context: the same answer and the same pool accesses, query by query.
TEST(AdjacencyMemoTest, ContextLessDivQueryReadsLikeOneWithAContext) {
  testing::BackendDatabase bdb(MemoConfig(), "memo_no_context");
  Database& db = *bdb;
  db.BuildIndex(IndexOptions{});
  db.PrepareForQueries(1.0);
  const Workload wl = MemoWorkload(db, 8);

  uint64_t shared_passes = 0;
  for (const WorkloadQuery& wq : wl.queries) {
    for (const bool com : {false, true}) {
      DivQuery dq;
      dq.sk = wq.sk;
      dq.k = 6;
      dq.lambda = 0.8;
      db.ResetCounters();
      DivSearchOutput without;
      ASSERT_TRUE(
          db.RunDivQuery(dq, wq.edge, com, &without, /*ctx=*/nullptr).ok());
      const uint64_t accesses_without = db.pool()->stats_snapshot().accesses();

      db.ResetCounters();
      QueryContext ctx;
      DivSearchOutput with;
      ASSERT_TRUE(db.RunDivQuery(dq, wq.edge, com, &with, &ctx).ok());
      const uint64_t accesses_with = db.pool()->stats_snapshot().accesses();

      EXPECT_TRUE(SameAnswer(without, with)) << (com ? "COM" : "SEQ");
      EXPECT_EQ(accesses_without, accesses_with) << (com ? "COM" : "SEQ");
      shared_passes += with.stats.oracle_shared_expansions;
    }
  }
  // Without a shared pass the oracle re-reads nothing the search decoded,
  // and the test could not tell one context from two.
  EXPECT_GT(shared_passes, 0u);
}

enum class Kind { kSk, kRanked, kEuclidean, kDivCom, kStandaloneOracle };

struct IsolationRow {
  const char* name;
  Kind kind;
};

void PrintTo(const IsolationRow& row, std::ostream* os) { *os << row.name; }

class AdjacencyMemoIsolationTest
    : public ::testing::TestWithParam<IsolationRow> {};

/// Runs one div-COM query for `wq` on `ctx`: the query that touches the
/// most adjacency, so the one most likely to leak memo entries.
void RunDivCom(Database* db, const WorkloadQuery& wq, QueryContext* ctx) {
  DivQuery dq;
  dq.sk = wq.sk;
  dq.k = 6;
  dq.lambda = 0.8;
  IncrementalSkSearch search(&db->ccam_graph(), db->index(), dq.sk, wq.edge,
                             ctx);
  PairwiseDistanceOracle oracle(&db->ccam_graph(), 2.0 * dq.sk.delta_max,
                                OracleStrategy::kSharedExpansion, ctx);
  oracle.SetQueryEdge(wq.edge);
  ASSERT_TRUE(DiversifiedSearchCOM(&search, dq, &oracle).status.ok());
}

/// Runs one query of `kind` for `wq` on `ctx`. `sources` are the SK
/// results the standalone oracle measures pairwise distances between.
void RunKind(Database* db, Kind kind, const WorkloadQuery& wq,
             const std::vector<SkResult>& sources, QueryContext* ctx) {
  const CcamGraph* graph = &db->ccam_graph();
  switch (kind) {
    case Kind::kSk: {
      IncrementalSkSearch search(graph, db->index(), wq.sk, wq.edge, ctx);
      SkResult r;
      while (search.Next(&r)) {
      }
      ASSERT_TRUE(search.status().ok());
      return;
    }
    case Kind::kRanked: {
      RankedQuery rq;
      rq.sk = wq.sk;
      rq.k = 8;
      rq.alpha = 0.0;  // never stops early: a full expansion
      std::vector<RankedResult> out;
      ASSERT_TRUE(RankedSkSearch(graph, db->index(), rq, wq.edge, &out,
                                 /*stats=*/nullptr, ctx)
                      .ok());
      return;
    }
    case Kind::kEuclidean: {
      std::vector<SkResult> out;
      ASSERT_TRUE(EuclideanFilterRefine(
                      graph, db->network(),
                      static_cast<InvertedRTreeIndex*>(db->index()), wq.sk,
                      wq.edge, &out, /*stats=*/nullptr, ctx)
                      .ok());
      return;
    }
    case Kind::kDivCom:
      RunDivCom(db, wq, ctx);
      return;
    case Kind::kStandaloneOracle: {
      PairwiseDistanceOracle oracle(graph, 2.0 * wq.sk.delta_max,
                                    OracleStrategy::kPerObjectDijkstra, ctx);
      for (size_t i = 0; i < sources.size(); ++i) {
        for (size_t j = i + 1; j < sources.size(); ++j) {
          oracle.Distance(sources[i], sources[j]);
        }
      }
      ASSERT_TRUE(oracle.status().ok());
      return;
    }
  }
}

/// Every query kind starts its own memo: run right after a div-COM query
/// at the same location (which decoded most of the nodes it will need), it
/// charges the pool exactly what it charges on a fresh context.
TEST_P(AdjacencyMemoIsolationTest, ChargesWhatAFreshContextCharges) {
  const IsolationRow& row = GetParam();
  testing::BackendDatabase bdb(MemoConfig(), "memo_isolation");
  Database& db = *bdb;
  IndexOptions opts;
  opts.kind = row.kind == Kind::kEuclidean ? IndexKind::kIR : IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries(1.0);  // resident: every access is a hit once warm
  const Workload wl = MemoWorkload(db, 8);

  QueryContext reused;
  uint64_t charged = 0;
  for (const WorkloadQuery& wq : wl.queries) {
    std::vector<SkResult> sources;
    if (row.kind == Kind::kStandaloneOracle) {
      QueryContext own;
      IncrementalSkSearch search(&db.ccam_graph(), db.index(), wq.sk,
                                 wq.edge, &own);
      SkResult r;
      while (sources.size() < 6 && search.Next(&r)) {
        sources.push_back(r);
      }
    }
    auto run_counted = [&](QueryContext* ctx) {
      RunKind(&db, row.kind, wq, sources, ctx);
      return db.pool()->stats_snapshot();
    };
    // Warm the pool so the two measured runs see the same residency.
    {
      QueryContext warm;
      RunDivCom(&db, wq, &warm);
      RunKind(&db, row.kind, wq, sources, &warm);
    }
    ASSERT_FALSE(::testing::Test::HasFatalFailure());

    db.ResetCounters();
    QueryContext fresh;
    const BufferPoolStatsSnapshot want = run_counted(&fresh);

    RunDivCom(&db, wq, &reused);
    db.ResetCounters();
    const BufferPoolStatsSnapshot got = run_counted(&reused);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());

    EXPECT_EQ(got.hits, want.hits) << row.name;
    EXPECT_EQ(got.misses, want.misses) << row.name;
    charged += want.accesses();
  }
  EXPECT_GT(charged, 0u) << "the queries read nothing; the test shows nothing";
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AdjacencyMemoIsolationTest,
    ::testing::Values(IsolationRow{"Sk", Kind::kSk},
                      IsolationRow{"Ranked", Kind::kRanked},
                      IsolationRow{"Euclidean", Kind::kEuclidean},
                      IsolationRow{"DivCom", Kind::kDivCom},
                      IsolationRow{"StandaloneOracle",
                                   Kind::kStandaloneOracle}),
    [](const ::testing::TestParamInfo<IsolationRow>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dsks
