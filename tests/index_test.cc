#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "index/inverted_file.h"
#include "index/inverted_rtree.h"
#include "index/kd_edge_order.h"
#include "index/query_log.h"
#include "index/sif.h"
#include "index/sif_group.h"
#include "index/sif_partitioned.h"
#include "index/signature.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "tests/test_util.h"

namespace dsks {
namespace {

using ::dsks::testing::MakeRandomDataset;
using ::dsks::testing::TestDataset;

/// Ground truth for LoadObjects: scan the edge, apply the AND constraint.
std::vector<LoadedObject> ReferenceLoadObjects(const ObjectSet& objects,
                                               EdgeId edge,
                                               std::span<const TermId> terms) {
  const RoadNetwork& net = objects.network();
  std::vector<LoadedObject> out;
  uint16_t pos = 0;  // rank along the edge
  for (ObjectId id : objects.ObjectsOnEdge(edge)) {
    if (objects.ObjectHasAllTerms(id, terms)) {
      out.push_back(LoadedObject{
          id, pos, net.WeightFromN1(edge, objects.object(id).offset)});
    }
    ++pos;
  }
  return out;
}

void ExpectSameLoad(const std::vector<LoadedObject>& got,
                    const std::vector<LoadedObject>& want, EdgeId edge,
                    const std::string& name) {
  ASSERT_EQ(got.size(), want.size()) << name << " edge " << edge;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << name << " edge " << edge;
    EXPECT_EQ(got[i].pos, want[i].pos) << name << " edge " << edge;
    EXPECT_NEAR(got[i].w1, want[i].w1, 1e-9) << name << " edge " << edge;
  }
}

struct IndexSweepParam {
  uint64_t seed;
  size_t vocab;
  size_t keywords;
  size_t query_terms;
};

class IndexEquivalenceTest
    : public ::testing::TestWithParam<IndexSweepParam> {};

/// The central index property: IR, IF, SIF, SIF-P and SIF-G all implement
/// Algorithm 2 — on any edge and any keyword set they must return exactly
/// the objects the direct scan returns. That includes keyword sets with a
/// term just past the vocabulary, which no object carries.
TEST_P(IndexEquivalenceTest, AllIndexesMatchReferenceScan) {
  const IndexSweepParam p = GetParam();
  TestDataset data =
      MakeRandomDataset(p.seed, 120, 500, p.vocab, p.keywords, 1.0);
  const size_t vocab = p.vocab;

  DiskManager disk;
  BufferPool pool(&disk, 1u << 16);

  std::vector<std::unique_ptr<ObjectIndex>> indexes;
  indexes.push_back(
      std::make_unique<InvertedRTreeIndex>(&pool, *data.objects, vocab));
  indexes.push_back(
      std::make_unique<InvertedFileIndex>(&pool, *data.objects, vocab));
  // Force signatures for (almost) every term so the test exercises them.
  indexes.push_back(
      std::make_unique<SifIndex>(&pool, *data.objects, vocab, 1));
  SifPConfig sifp;
  sifp.max_cuts = 3;
  sifp.heavy_edge_fraction = 0.5;
  sifp.log_provider = MakeQueryLogProvider(QueryLogMode::kFrequency, {},
                                           p.query_terms, 6, p.seed);
  indexes.push_back(std::make_unique<SifPartitionedIndex>(
      &pool, *data.objects, vocab, sifp, 1));
  indexes.push_back(std::make_unique<SifGroupIndex>(&pool, *data.objects,
                                                    vocab, 10, 1));

  Random rng(p.seed ^ 0xD00D);
  std::vector<LoadedObject> got;
  for (int round = 0; round < 400; ++round) {
    const EdgeId edge =
        static_cast<EdgeId>(rng.Uniform(data.network->num_edges()));
    // Every fourth round may draw unknown terms vocab .. vocab + 2.
    const size_t term_space = round % 4 == 3 ? vocab + 3 : vocab;
    std::vector<TermId> terms;
    while (terms.size() < p.query_terms) {
      const TermId t = static_cast<TermId>(rng.Uniform(term_space));
      if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
        terms.push_back(t);
      }
    }
    std::sort(terms.begin(), terms.end());
    const auto want = ReferenceLoadObjects(*data.objects, edge, terms);
    for (auto& index : indexes) {
      index->LoadObjects(edge, terms, &got);
      ExpectSameLoad(got, want, edge, index->name());
    }
  }
}

/// The IF build cuts one keyword-major posting array into (keyword, edge)
/// runs. Keyword 0's last run and keyword 1's first run lie on the same
/// edge, so they sit back to back in that array: they must stay two runs,
/// each found under its own keyword.
TEST(InvertedFileIndexTest, RunsSplitAtKeywordBoundaryOnOneEdge) {
  NetworkGenConfig nc;
  nc.num_nodes = 40;
  nc.seed = 12;
  const auto net = GenerateRoadNetwork(nc);
  ASSERT_GE(net->num_edges(), 3u);
  constexpr EdgeId kShared = 1;
  ObjectSet objects(net.get());
  auto add = [&](EdgeId e, double fraction, std::vector<TermId> terms) {
    ObjectId id;
    ASSERT_TRUE(objects
                    .Add(e, net->edge(e).length * fraction, std::move(terms),
                         &id)
                    .ok());
  };
  add(0, 0.5, {0});
  add(kShared, 0.2, {0});
  add(kShared, 0.4, {0, 1});
  add(kShared, 0.6, {1});
  add(kShared, 0.8, {1, 2});
  add(2, 0.5, {1});
  objects.Finalize();

  DiskManager disk;
  BufferPool pool(&disk, 256);
  InvertedFileIndex iff(&pool, objects, 3);
  SifIndex sif(&pool, objects, 3, 1);
  EXPECT_EQ(iff.PostingCount(0), 3u);
  EXPECT_EQ(iff.PostingCount(1), 4u);
  EXPECT_EQ(iff.PostingCount(2), 1u);
  const std::vector<std::vector<TermId>> queries = {
      {0}, {1}, {2}, {0, 1}, {1, 2}};
  std::vector<LoadedObject> got;
  for (const std::vector<TermId>& terms : queries) {
    for (EdgeId e = 0; e < net->num_edges(); ++e) {
      const auto want = ReferenceLoadObjects(objects, e, terms);
      for (ObjectIndex* index : {static_cast<ObjectIndex*>(&iff),
                                 static_cast<ObjectIndex*>(&sif)}) {
        ASSERT_TRUE(index->LoadObjects(e, terms, &got).ok());
        ExpectSameLoad(got, want, e, index->name());
      }
    }
  }
}

/// SIF must never load fewer objects than reality (no false negatives) and
/// must skip at least as many edges as IF (which skips none).
TEST_P(IndexEquivalenceTest, SignatureSkipsOnlyEmptyEdges) {
  const IndexSweepParam p = GetParam();
  TestDataset data =
      MakeRandomDataset(p.seed, 100, 400, p.vocab, p.keywords, 1.0);
  DiskManager disk;
  BufferPool pool(&disk, 1u << 16);
  SifIndex sif(&pool, *data.objects, p.vocab, 1);

  Random rng(p.seed);
  std::vector<LoadedObject> got;
  for (int round = 0; round < 300; ++round) {
    const EdgeId edge =
        static_cast<EdgeId>(rng.Uniform(data.network->num_edges()));
    std::vector<TermId> terms{static_cast<TermId>(rng.Uniform(p.vocab))};
    const uint64_t skipped_before = sif.stats().edges_skipped_by_signature;
    sif.LoadObjects(edge, terms, &got);
    const bool skipped =
        sif.stats().edges_skipped_by_signature > skipped_before;
    const auto want = ReferenceLoadObjects(*data.objects, edge, terms);
    if (skipped) {
      EXPECT_TRUE(want.empty()) << "signature skipped a non-empty edge";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndexEquivalenceTest,
    ::testing::Values(IndexSweepParam{101, 20, 4, 2},
                      IndexSweepParam{102, 50, 6, 3},
                      IndexSweepParam{103, 12, 3, 1},
                      IndexSweepParam{104, 200, 8, 3},
                      IndexSweepParam{105, 30, 5, 4}));

TEST(SifIndexTest, FewerFalseHitObjectsThanIF) {
  TestDataset data = MakeRandomDataset(777, 150, 800, 40, 5, 1.1);
  DiskManager disk;
  BufferPool pool(&disk, 1u << 16);
  InvertedFileIndex iff(&pool, *data.objects, 40);
  SifIndex sif(&pool, *data.objects, 40, 1);

  Random rng(888);
  std::vector<LoadedObject> out;
  for (int round = 0; round < 500; ++round) {
    const EdgeId edge =
        static_cast<EdgeId>(rng.Uniform(data.network->num_edges()));
    std::vector<TermId> terms;
    while (terms.size() < 3) {
      const TermId t = static_cast<TermId>(rng.Uniform(40));
      if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
        terms.push_back(t);
      }
    }
    std::sort(terms.begin(), terms.end());
    iff.LoadObjects(edge, terms, &out);
    sif.LoadObjects(edge, terms, &out);
  }
  EXPECT_LE(sif.stats().false_hit_objects, iff.stats().false_hit_objects);
  EXPECT_GT(sif.stats().edges_skipped_by_signature, 0u);
  EXPECT_EQ(iff.stats().edges_skipped_by_signature, 0u);
}

TEST(SignatureFileTest, ExactForSignedTermsPassThroughForSmall) {
  TestDataset data = MakeRandomDataset(999, 80, 300, 25, 4, 1.2);
  DiskManager disk;
  BufferPool pool(&disk, 1u << 16);
  // Threshold high enough that some terms stay unsigned. The signature is
  // read off the IF build's posting runs; the truth below comes from the
  // objects themselves.
  SifIndex sif(&pool, *data.objects, 25, 40);
  const SignatureFile& sig = sif.signature();
  size_t signed_terms = 0;

  // Ground truth presence.
  std::vector<std::vector<bool>> present(
      25, std::vector<bool>(data.network->num_edges(), false));
  for (const auto& obj : data.objects->objects()) {
    for (TermId t : obj.terms) {
      present[t][obj.edge] = true;
    }
  }
  for (TermId t = 0; t < 25; ++t) {
    for (EdgeId e = 0; e < data.network->num_edges(); ++e) {
      if (sig.HasSignature(t)) {
        EXPECT_EQ(sig.Test(e, t), present[t][e])
            << "term " << t << " edge " << e;
      } else {
        EXPECT_TRUE(sig.Test(e, t));  // pass-through, never a false negative
      }
    }
    EXPECT_EQ(sig.HasSignature(t), sif.PostingCount(t) >= 40) << "term " << t;
    signed_terms += sig.HasSignature(t) ? 1 : 0;
  }
  EXPECT_GT(signed_terms, 0u);
  EXPECT_LT(signed_terms, 25u);
  EXPECT_GT(sig.SizeBytes(), 0u);
}

TEST(KdEdgeOrderTest, PositionsAreAPermutation) {
  TestDataset data = MakeRandomDataset(31, 200, 50, 10, 3);
  KdEdgeOrder order(*data.network);
  const size_t m = data.network->num_edges();
  std::vector<bool> seen(m, false);
  for (EdgeId e = 0; e < m; ++e) {
    const uint32_t pos = order.PositionOf(e);
    ASSERT_LT(pos, m);
    EXPECT_FALSE(seen[pos]);
    seen[pos] = true;
    EXPECT_EQ(order.EdgeAt(pos), e);
  }
}

TEST(KdEdgeOrderTest, CompactedTrieSizeBounds) {
  TestDataset data = MakeRandomDataset(32, 300, 50, 10, 3);
  KdEdgeOrder order(*data.network);
  const auto m = static_cast<uint32_t>(data.network->num_edges());

  // Uniform bitmaps compact to a single node.
  EXPECT_EQ(order.CompactedTrieNodes({}), 1u);
  std::vector<uint32_t> all(m);
  for (uint32_t i = 0; i < m; ++i) all[i] = i;
  EXPECT_EQ(order.CompactedTrieNodes(all), 1u);

  // A contiguous half compacts much better than a scattered set of the
  // same cardinality.
  std::vector<uint32_t> half(all.begin(), all.begin() + m / 2);
  std::vector<uint32_t> scattered;
  for (uint32_t i = 0; i < m; i += 2) scattered.push_back(i);
  EXPECT_LT(order.CompactedTrieNodes(half),
            order.CompactedTrieNodes(scattered));
  // Never more nodes than a full binary trie over m leaves.
  EXPECT_LE(order.CompactedTrieNodes(scattered), 4 * uint64_t{m});
}

TEST(SifGroupIndexTest, PairListsDetectMissingConjunctions) {
  TestDataset data = MakeRandomDataset(444, 100, 400, 15, 4, 1.2);
  DiskManager disk;
  BufferPool pool(&disk, 1u << 16);
  SifGroupIndex sifg(&pool, *data.objects, 15, 8, 1);
  SifIndex sif(&pool, *data.objects, 15, 1);
  EXPECT_GT(sifg.num_indexed_pairs(), 0u);
  EXPECT_GT(sifg.pair_list_bytes(), 0u);
  EXPECT_GT(sifg.SizeBytes(), sif.SizeBytes());

  Random rng(445);
  std::vector<LoadedObject> out;
  for (int round = 0; round < 400; ++round) {
    const EdgeId edge =
        static_cast<EdgeId>(rng.Uniform(data.network->num_edges()));
    std::vector<TermId> terms{static_cast<TermId>(rng.Uniform(15)),
                              static_cast<TermId>(rng.Uniform(15))};
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    sifg.LoadObjects(edge, terms, &out);
    const auto want = ReferenceLoadObjects(*data.objects, edge, terms);
    ExpectSameLoad(out, want, edge, "SIF-G");
  }
  // The pair lists must have pruned at least some probes beyond SIF.
  EXPECT_GT(sifg.stats().edges_skipped_by_signature, 0u);
}

TEST(IndexSizeTest, SifAddsOnlySmallSummaryOverIF) {
  TestDataset data = MakeRandomDataset(555, 150, 1000, 60, 6, 1.1);
  DiskManager disk;
  BufferPool pool(&disk, 1u << 16);
  InvertedFileIndex iff(&pool, *data.objects, 60);
  SifIndex sif(&pool, *data.objects, 60, 1);
  // Fig. 6(c): signatures are compact relative to the inverted file.
  EXPECT_GT(sif.SizeBytes(), iff.SizeBytes());
  EXPECT_LT(static_cast<double>(sif.SizeBytes() - iff.SizeBytes()),
            0.5 * static_cast<double>(iff.SizeBytes()));
}

}  // namespace
}  // namespace dsks
