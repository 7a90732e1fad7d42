// Golden deterministic counters. For every query kind, with speculative
// prefetch on and off, the exact totals over a seeded workload: a hash of
// the results (ids plus bit-exact distances, scores or objectives), the
// search's settle and edge counts, the oracle's fields and pairs, and the
// buffer-pool and disk counters. A refactor of the search, oracle, index or
// storage layers that moves one page access or one settle fails here.
//
// The constants hold on both storage backends (DSKS_TEST_BACKEND=file runs
// the same binary on a real index file). When a change is meant to move
// them, the failure message prints each row's new values.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "core/distance_oracle.h"
#include "core/div_search.h"
#include "core/euclidean_baseline.h"
#include "core/query.h"
#include "core/query_context.h"
#include "core/ranked_search.h"
#include "core/sk_search.h"
#include "datagen/presets.h"
#include "datagen/workload.h"
#include "gtest/gtest.h"
#include "harness/database.h"
#include "index/inverted_rtree.h"
#include "tests/storage_test_util.h"

namespace dsks {
namespace {

/// FNV-1a over 64-bit words; doubles enter by bit pattern.
class ResultHash {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void Add(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

struct Counters {
  uint64_t result_hash = 0;
  uint64_t nodes_settled = 0;
  uint64_t edges_processed = 0;
  uint64_t oracle_fields = 0;
  uint64_t oracle_pairs = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t disk_reads = 0;
  uint64_t prefetch_issued = 0;
};

std::string Describe(const Counters& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{0x%016llXULL, %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
                "%llu}",
                static_cast<unsigned long long>(c.result_hash),
                static_cast<unsigned long long>(c.nodes_settled),
                static_cast<unsigned long long>(c.edges_processed),
                static_cast<unsigned long long>(c.oracle_fields),
                static_cast<unsigned long long>(c.oracle_pairs),
                static_cast<unsigned long long>(c.pool_hits),
                static_cast<unsigned long long>(c.pool_misses),
                static_cast<unsigned long long>(c.disk_reads),
                static_cast<unsigned long long>(c.prefetch_issued));
  return buf;
}

enum class Kind {
  kSk,
  kKnn,
  kRanked,
  kRankedWide,  // α = 0 at 4·δmax: a full expansion past the prefetch point
  kDivSeqShared,
  kDivComShared,
  kDivSeqPerObject,
  kDivComPerObject,
  kEuclideanWide,  // filter-and-refine at 4·δmax over the IR index
};

struct GoldenRow {
  const char* name;
  Kind kind;
  Counters prefetch_on;
  Counters prefetch_off;
};

/// gtest would print a row as its raw bytes, the address of `name` among
/// them, and ctest puts that text into each test's name; the row's name is
/// the same on every build.
void PrintTo(const GoldenRow& row, std::ostream* os) { *os << row.name; }

// Columns: result hash, nodes settled, edges processed, oracle fields,
// oracle pairs, pool hits, pool misses, disk reads, prefetch issued. Only
// the wide rows settle past the expansion's first frontier prefetch in
// the ranked search and the Euclidean refine, so only their prefetch-on
// I/O shows it.
const GoldenRow kGolden[] = {
    {"Sk",
     Kind::kSk,
     {0x7CCB51C0AC6261AEULL, 211, 388, 0, 0, 1731, 45, 436, 391},
     {0x7CCB51C0AC6261AEULL, 211, 388, 0, 0, 1881, 435, 435, 0}},
    {"Knn",
     Kind::kKnn,
     {0x869848AA9AF56915ULL, 109, 199, 0, 0, 722, 34, 211, 177},
     {0x869848AA9AF56915ULL, 109, 199, 0, 0, 780, 210, 210, 0}},
    {"Ranked",
     Kind::kRanked,
     {0x966BC17D7D0958A6ULL, 63, 0, 0, 0, 734, 235, 235, 0},
     {0x966BC17D7D0958A6ULL, 63, 0, 0, 0, 734, 235, 235, 0}},
    {"RankedWide",
     Kind::kRankedWide,
     {0xE69D711AACBB3A4CULL, 2933, 0, 0, 0, 26010, 2058, 2091, 33},
     {0xE69D711AACBB3A4CULL, 2933, 0, 0, 0, 25985, 2083, 2083, 0}},
    {"DivSeqShared",
     Kind::kDivSeqShared,
     {0x8BBF3F7715F351E4ULL, 211, 388, 27, 159, 3573, 58, 455, 397},
     {0x8BBF3F7715F351E4ULL, 211, 388, 27, 159, 3717, 454, 454, 0}},
    {"DivComShared",
     Kind::kDivComShared,
     {0x1D86A78BC3650594ULL, 148, 270, 29, 253, 2974, 52, 311, 259},
     {0x1D86A78BC3650594ULL, 148, 270, 29, 253, 3043, 311, 311, 0}},
    {"DivSeqPerObject",
     Kind::kDivSeqPerObject,
     {0x8BBF3F7715F351E4ULL, 211, 388, 55, 159, 4213, 58, 455, 397},
     {0x8BBF3F7715F351E4ULL, 211, 388, 55, 159, 4357, 454, 454, 0}},
    {"DivComPerObject",
     Kind::kDivComPerObject,
     {0x1D86A78BC3650594ULL, 148, 270, 195, 253, 10470, 52, 311, 259},
     {0x1D86A78BC3650594ULL, 148, 270, 195, 253, 10539, 311, 311, 0}},
    {"EuclideanWide",
     Kind::kEuclideanWide,
     {0x63DBD6787CAAED33ULL, 2933, 0, 0, 0, 14901, 2925, 2952, 27},
     {0x63DBD6787CAAED33ULL, 2933, 0, 0, 0, 14874, 2952, 2952, 0}},
};

constexpr size_t kKnnK = 5;
constexpr size_t kRankedK = 8;
constexpr size_t kDivK = 6;
constexpr double kWideFactor = 4.0;

/// Runs one query of `kind` and adds its results and search counters.
void RunOne(Database* db, Kind kind, const WorkloadQuery& wq,
            QueryContext* ctx, ResultHash* hash, Counters* c) {
  SkQuery sk = wq.sk;
  ASSERT_TRUE(NormalizeSkQuery(&sk).ok());
  const CcamGraph* graph = &db->ccam_graph();
  switch (kind) {
    case Kind::kSk:
    case Kind::kKnn: {
      // kNN is BooleanKnnSearch's loop, kept here for the search's stats.
      IncrementalSkSearch search(graph, db->index(), sk, wq.edge, ctx);
      SkResult r;
      size_t n = 0;
      while ((kind == Kind::kSk || n < kKnnK) && search.Next(&r)) {
        hash->Add(uint64_t{r.id});
        hash->Add(r.dist);
        ++n;
      }
      ASSERT_TRUE(search.status().ok());
      c->nodes_settled += search.stats().nodes_settled;
      c->edges_processed += search.stats().edges_processed;
      return;
    }
    case Kind::kRanked:
    case Kind::kRankedWide: {
      RankedQuery rq;
      rq.sk = sk;
      rq.k = kRankedK;
      rq.alpha = 0.5;
      if (kind == Kind::kRankedWide) {
        rq.alpha = 0.0;
        rq.sk.delta_max *= kWideFactor;
      }
      std::vector<RankedResult> out;
      RankedSearchStats stats;
      ASSERT_TRUE(
          RankedSkSearch(graph, db->index(), rq, wq.edge, &out, &stats, ctx)
              .ok());
      for (const RankedResult& r : out) {
        hash->Add(uint64_t{r.id});
        hash->Add(r.dist);
        hash->Add(r.score);
      }
      c->nodes_settled += stats.nodes_settled;
      return;
    }
    case Kind::kDivSeqShared:
    case Kind::kDivComShared:
    case Kind::kDivSeqPerObject:
    case Kind::kDivComPerObject: {
      DivQuery dq;
      dq.sk = sk;
      dq.k = kDivK;
      dq.lambda = 0.8;
      const bool com =
          kind == Kind::kDivComShared || kind == Kind::kDivComPerObject;
      const OracleStrategy strategy =
          kind == Kind::kDivSeqShared || kind == Kind::kDivComShared
              ? OracleStrategy::kSharedExpansion
              : OracleStrategy::kPerObjectDijkstra;
      IncrementalSkSearch search(graph, db->index(), dq.sk, wq.edge, ctx);
      PairwiseDistanceOracle oracle(graph, 2.0 * dq.sk.delta_max, strategy,
                                    ctx);
      oracle.SetQueryEdge(wq.edge);
      const DivSearchOutput out =
          com ? DiversifiedSearchCOM(&search, dq, &oracle)
              : DiversifiedSearchSEQ(&search, dq, &oracle);
      ASSERT_TRUE(out.status.ok());
      for (const SkResult& r : out.selected) {
        hash->Add(uint64_t{r.id});
      }
      hash->Add(out.objective);
      c->nodes_settled += search.stats().nodes_settled;
      c->edges_processed += search.stats().edges_processed;
      c->oracle_fields += out.stats.distance_fields;
      c->oracle_pairs += out.stats.oracle_pairs;
      return;
    }
    case Kind::kEuclideanWide: {
      sk.delta_max *= kWideFactor;
      auto* ir = static_cast<InvertedRTreeIndex*>(db->index());
      std::vector<SkResult> out;
      EuclideanBaselineStats stats;
      ASSERT_TRUE(EuclideanFilterRefine(graph, db->network(), ir, sk,
                                        wq.edge, &out, &stats, ctx)
                      .ok());
      for (const SkResult& r : out) {
        hash->Add(uint64_t{r.id});
        hash->Add(r.dist);
      }
      c->nodes_settled += stats.nodes_settled;
      return;
    }
  }
}

class GoldenCountersTest : public ::testing::TestWithParam<GoldenRow> {};

TEST_P(GoldenCountersTest, MatchesRecordedCounters) {
  const GoldenRow& row = GetParam();
  DatasetConfig config = ScalePreset(PresetSYN(), 0.2);
  config.objects.keywords_per_object = 6;
  testing::BackendDatabase bdb(config, "golden");
  Database& db = *bdb;
  IndexOptions opts;
  opts.kind =
      row.kind == Kind::kEuclideanWide ? IndexKind::kIR : IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();
  WorkloadConfig wc;
  wc.num_queries = 16;
  wc.num_keywords = 2;
  wc.seed = 41;
  const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);

  QueryContext ctx;
  for (const bool prefetch : {true, false}) {
    SCOPED_TRACE(prefetch ? "prefetch on" : "prefetch off");
    db.SetPrefetchEnabled(prefetch);
    ASSERT_TRUE(db.pool()->Clear().ok());  // every kind starts cold
    db.ResetCounters();

    ResultHash hash;
    Counters got;
    for (const WorkloadQuery& wq : wl.queries) {
      RunOne(&db, row.kind, wq, &ctx, &hash, &got);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
    got.result_hash = hash.value();
    const BufferPoolStatsSnapshot pool = db.pool()->stats_snapshot();
    got.pool_hits = pool.hits;
    got.pool_misses = pool.misses;
    got.disk_reads = db.IoCount();
    got.prefetch_issued = pool.prefetch_issued;

    const Counters& want = prefetch ? row.prefetch_on : row.prefetch_off;
    const std::string note = std::string(row.name) +
                             (prefetch ? " prefetch_on " : " prefetch_off ") +
                             Describe(got);
    EXPECT_EQ(got.result_hash, want.result_hash) << note;
    EXPECT_EQ(got.nodes_settled, want.nodes_settled) << note;
    EXPECT_EQ(got.edges_processed, want.edges_processed) << note;
    EXPECT_EQ(got.oracle_fields, want.oracle_fields) << note;
    EXPECT_EQ(got.oracle_pairs, want.oracle_pairs) << note;
    EXPECT_EQ(got.pool_hits, want.pool_hits) << note;
    EXPECT_EQ(got.pool_misses, want.pool_misses) << note;
    EXPECT_EQ(got.disk_reads, want.disk_reads) << note;
    EXPECT_EQ(got.prefetch_issued, want.prefetch_issued) << note;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, GoldenCountersTest, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenRow>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dsks
