// Golden deterministic counters. For every query kind, the exact totals
// over a seeded workload on a cold pool: a hash of the results (ids plus
// bit-exact distances, scores or objectives), the search's settle and
// edge counts, the oracle's fields and pairs, and the buffer-pool and
// disk counters. A refactor of the search, oracle, index or storage
// layers that moves one page access or one settle fails here. A second
// suite pins, per index kind, a hash of the built disk image.
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
};

std::string Describe(const Counters& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{0x%016llXULL, %llu, %llu, %llu, %llu, %llu, %llu, %llu}",
                static_cast<unsigned long long>(c.result_hash),
                static_cast<unsigned long long>(c.nodes_settled),
                static_cast<unsigned long long>(c.edges_processed),
                static_cast<unsigned long long>(c.oracle_fields),
                static_cast<unsigned long long>(c.oracle_pairs),
                static_cast<unsigned long long>(c.pool_hits),
                static_cast<unsigned long long>(c.pool_misses),
                static_cast<unsigned long long>(c.disk_reads));
  return buf;
}

enum class Kind {
  kSk,
  kKnn,
  kRanked,
  kRankedWide,  // α = 0 at 4·δmax: a full expansion
  kDivSeqShared,
  kDivComShared,
  kDivSeqPerObject,
  kDivComPerObject,
  kEuclideanWide,  // filter-and-refine at 4·δmax over the IR index
};

struct GoldenRow {
  const char* name;
  Kind kind;
  Counters want;
};

/// gtest would print a row as its raw bytes, the address of `name` among
/// them, and ctest puts that text into each test's name; the row's name is
/// the same on every build.
void PrintTo(const GoldenRow& row, std::ostream* os) { *os << row.name; }

// Columns: result hash, nodes settled, edges processed, oracle fields,
// oracle pairs, pool hits, pool misses, disk reads. Every page read is a
// demand miss, so the last two columns are equal. In the Div rows the
// oracle's expansions read adjacency through the query's memo, so a node
// INE (or an earlier field) already decoded costs no pool access; a memo
// hit also skips the LRU touch, which is why DivComPerObject misses one
// page more than it would without it.
const GoldenRow kGolden[] = {
    {"Sk", Kind::kSk, {0x7CCB51C0AC6261AEULL, 211, 388, 0, 0, 1341, 435, 435}},
    {"Knn", Kind::kKnn, {0x869848AA9AF56915ULL, 109, 199, 0, 0, 546, 210, 210}},
    {"Ranked",
     Kind::kRanked,
     {0x966BC17D7D0958A6ULL, 63, 0, 0, 0, 501, 235, 235}},
    {"RankedWide",
     Kind::kRankedWide,
     {0xE69D711AACBB3A4CULL, 2933, 0, 0, 0, 19501, 2083, 2083}},
    {"DivSeqShared",
     Kind::kDivSeqShared,
     {0x8BBF3F7715F351E4ULL, 211, 388, 27, 159, 1863, 454, 454}},
    {"DivComShared",
     Kind::kDivComShared,
     {0x1D86A78BC3650594ULL, 148, 270, 29, 253, 1370, 311, 311}},
    {"DivSeqPerObject",
     Kind::kDivSeqPerObject,
     {0x8BBF3F7715F351E4ULL, 211, 388, 55, 159, 1869, 454, 454}},
    {"DivComPerObject",
     Kind::kDivComPerObject,
     {0x1D86A78BC3650594ULL, 148, 270, 195, 253, 1613, 312, 312}},
    {"EuclideanWide",
     Kind::kEuclideanWide,
     {0x63DBD6787CAAED33ULL, 2933, 0, 0, 0, 14874, 2952, 2952}},
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

/// The dataset both golden suites build.
DatasetConfig GoldenConfig() {
  DatasetConfig config = ScalePreset(PresetSYN(), 0.2);
  config.objects.keywords_per_object = 6;
  return config;
}

TEST_P(GoldenCountersTest, MatchesRecordedCounters) {
  const GoldenRow& row = GetParam();
  testing::BackendDatabase bdb(GoldenConfig(), "golden");
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

  // Every kind starts cold.
  ASSERT_TRUE(db.pool()->Clear().ok());
  db.ResetCounters();
  QueryContext ctx;
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

  const Counters& want = row.want;
  const std::string note = std::string(row.name) + " " + Describe(got);
  EXPECT_EQ(got.result_hash, want.result_hash) << note;
  EXPECT_EQ(got.nodes_settled, want.nodes_settled) << note;
  EXPECT_EQ(got.edges_processed, want.edges_processed) << note;
  EXPECT_EQ(got.oracle_fields, want.oracle_fields) << note;
  EXPECT_EQ(got.oracle_pairs, want.oracle_pairs) << note;
  EXPECT_EQ(got.pool_hits, want.pool_hits) << note;
  EXPECT_EQ(got.pool_misses, want.pool_misses) << note;
  EXPECT_EQ(got.disk_reads, want.disk_reads) << note;
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, GoldenCountersTest, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenRow>& info) {
      return std::string(info.param.name);
    });

// Golden index images: per index kind, a hash of every page of the disk
// (CCAM file plus index) read back through DiskManager::ReadPage once the
// build is flushed. A change to a builder's page layout, allocation order
// or page count fails here.
struct ImageRow {
  const char* name;
  IndexKind kind;
  uint64_t image_hash;
};

void PrintTo(const ImageRow& row, std::ostream* os) { *os << row.name; }

constexpr uint64_t kIrImage = 0x1ECEEDC7E3C510ABULL;
// IF, SIF, SIF-P and SIF-G write identical files: the signatures,
// partitions and pair lists that tell them apart live in memory.
constexpr uint64_t kInvertedFileImage = 0x80222FA2E8902029ULL;

const ImageRow kImages[] = {
    {"IR", IndexKind::kIR, kIrImage},
    {"IF", IndexKind::kIF, kInvertedFileImage},
    {"SIF", IndexKind::kSIF, kInvertedFileImage},
    {"SIFP", IndexKind::kSIFP, kInvertedFileImage},
    {"SIFG", IndexKind::kSIFG, kInvertedFileImage},
};

class GoldenIndexImageTest : public ::testing::TestWithParam<ImageRow> {};

TEST_P(GoldenIndexImageTest, PagesMatchRecordedHash) {
  const ImageRow& row = GetParam();
  testing::BackendDatabase bdb(GoldenConfig(), "image");
  Database& db = *bdb;
  IndexOptions opts;
  opts.kind = row.kind;
  db.BuildIndex(opts);
  db.PrepareForQueries();

  DiskManager* disk = db.disk();
  ResultHash hash;
  hash.Add(uint64_t{disk->num_pages()});
  std::vector<char> page(kPageSize);
  for (PageId id = 0; id < disk->num_pages(); ++id) {
    ASSERT_TRUE(disk->ReadPage(id, page.data()).ok()) << "page " << id;
    for (size_t off = 0; off < kPageSize; off += sizeof(uint64_t)) {
      uint64_t word;
      std::memcpy(&word, page.data() + off, sizeof(word));
      hash.Add(word);
    }
  }
  char got[32];
  std::snprintf(got, sizeof(got), "0x%016llXULL",
                static_cast<unsigned long long>(hash.value()));
  EXPECT_EQ(hash.value(), row.image_hash)
      << row.name << " image over " << disk->num_pages() << " pages: " << got;
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, GoldenIndexImageTest, ::testing::ValuesIn(kImages),
    [](const ::testing::TestParamInfo<ImageRow>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dsks
