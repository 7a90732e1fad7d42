#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/distance_oracle.h"
#include "core/div_search.h"
#include "core/sk_search.h"
#include "datagen/workload.h"
#include "graph/ccam.h"
#include "graph/dijkstra.h"
#include "gtest/gtest.h"
#include "index/sif.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "tests/test_util.h"

namespace dsks {
namespace {

using ::dsks::testing::MakeRandomDataset;
using ::dsks::testing::TestDataset;

struct DivFixture {
  TestDataset data;
  DiskManager disk;
  std::unique_ptr<BufferPool> pool;
  CcamFile ccam;
  std::unique_ptr<CcamGraph> graph;
  std::unique_ptr<SifIndex> index;

  explicit DivFixture(uint64_t seed, size_t nodes = 150, size_t objects = 500,
                      size_t vocab = 20, size_t keywords = 4) {
    data = MakeRandomDataset(seed, nodes, objects, vocab, keywords, 1.0);
    pool = std::make_unique<BufferPool>(&disk, 1u << 15);
    ccam = CcamFileBuilder::Build(*data.network, &disk);
    graph = std::make_unique<CcamGraph>(&ccam, pool.get());
    index = std::make_unique<SifIndex>(pool.get(), *data.objects, vocab, 1);
  }

  DivSearchOutput Run(
      const DivQuery& q, bool com,
      OracleStrategy strategy = OracleStrategy::kSharedExpansion) {
    const QueryEdgeInfo info = MakeQueryEdgeInfo(*data.network, q.sk.loc);
    IncrementalSkSearch search(graph.get(), index.get(), q.sk, info);
    PairwiseDistanceOracle oracle(graph.get(), 2.0 * q.sk.delta_max, strategy);
    oracle.SetQueryEdge(info);
    return com ? DiversifiedSearchCOM(&search, q, &oracle)
               : DiversifiedSearchSEQ(&search, q, &oracle);
  }
};

std::vector<ObjectId> SortedIds(const std::vector<SkResult>& v) {
  std::vector<ObjectId> ids;
  ids.reserve(v.size());
  for (const auto& r : v) ids.push_back(r.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

struct DivSweep {
  uint64_t seed;
  size_t k;
  double lambda;
  double delta_max;
  TermId term;
};

class ComSeqEquivalenceTest : public ::testing::TestWithParam<DivSweep> {};

/// The headline correctness property of §4: COM (incremental + early
/// termination) must return exactly the objects SEQ's full greedy returns,
/// with the same objective value.
TEST_P(ComSeqEquivalenceTest, ComEqualsSeq) {
  const DivSweep p = GetParam();
  DivFixture fx(p.seed);
  Random rng(p.seed ^ 0x777);

  for (int round = 0; round < 6; ++round) {
    DivQuery q;
    q.sk.loc = testing::LocationOfObject(*fx.data.objects,
                                         rng.Uniform(500));
    q.sk.terms = {p.term};
    q.sk.delta_max = p.delta_max;
    q.k = p.k;
    q.lambda = p.lambda;

    const DivSearchOutput seq = fx.Run(q, /*com=*/false);
    const DivSearchOutput com = fx.Run(q, /*com=*/true);

    EXPECT_EQ(SortedIds(com.selected), SortedIds(seq.selected))
        << "seed " << p.seed << " round " << round;
    EXPECT_NEAR(com.objective, seq.objective, 1e-9);
    // COM never pulls more candidates than SEQ retrieves.
    EXPECT_LE(com.stats.candidates, seq.stats.candidates);
    // λ < 0.5: θ_T never drops below the unseen-pair bound, so COM never
    // stops early (DESIGN.md "Why COM keeps every seen object").
    if (p.lambda < 0.5) {
      EXPECT_FALSE(com.stats.early_terminated);
      EXPECT_EQ(com.stats.candidates, seq.stats.candidates);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ComSeqEquivalenceTest,
    ::testing::Values(DivSweep{61, 4, 0.8, 1200.0, 0},
                      DivSweep{62, 6, 0.5, 1500.0, 1},
                      DivSweep{63, 10, 0.9, 2000.0, 0},
                      DivSweep{64, 2, 0.7, 900.0, 2},
                      DivSweep{65, 8, 0.6, 2500.0, 0},
                      DivSweep{66, 10, 0.8, 4000.0, 1},
                      // Odd k: the extra object of Algorithm 1 line 5.
                      DivSweep{67, 5, 0.8, 1500.0, 0},
                      DivSweep{68, 7, 0.6, 2500.0, 1},
                      DivSweep{69, 3, 0.9, 1200.0, 0},
                      // λ = 0.5: every pair whose shortest path runs
                      // through q ties at θ = 0.5, so the last bit of
                      // each distance decides the greedy order.
                      DivSweep{70, 9, 0.5, 4000.0, 2},
                      DivSweep{71, 6, 0.5, 4000.0, 1},
                      DivSweep{72, 4, 0.5, 2500.0, 0},
                      DivSweep{74, 11, 0.5, 4000.0, 0},
                      // λ < 0.5: COM reads every candidate.
                      DivSweep{75, 6, 0.3, 2500.0, 0},
                      DivSweep{76, 5, 0.1, 1500.0, 1}));

TEST(DivSearchTest, FewerCandidatesThanKReturnsAll) {
  DivFixture fx(71);
  DivQuery q;
  q.sk.loc = testing::LocationOfObject(*fx.data.objects, 0);
  q.sk.terms = {17, 18};  // rare tail conjunction
  q.sk.delta_max = 200.0;
  q.k = 10;
  q.lambda = 0.8;
  const auto seq = fx.Run(q, false);
  const auto com = fx.Run(q, true);
  EXPECT_EQ(SortedIds(com.selected), SortedIds(seq.selected));
  EXPECT_LE(com.selected.size(), q.k);
}

TEST(DivSearchTest, KOneReturnsNearestObject) {
  DivFixture fx(72);
  DivQuery q;
  q.sk.loc = testing::LocationOfObject(*fx.data.objects, 5);
  q.sk.terms = {0};
  q.sk.delta_max = 2000.0;
  q.k = 1;
  q.lambda = 0.8;
  const auto com = fx.Run(q, true);
  ASSERT_EQ(com.selected.size(), 1u);
  const auto seq = fx.Run(q, false);
  ASSERT_EQ(seq.selected.size(), 1u);
  EXPECT_EQ(com.selected[0].id, seq.selected[0].id);
  EXPECT_TRUE(com.stats.early_terminated);
}

TEST(DivSearchTest, EarlyTerminationSavesCandidates) {
  // Large range + relevance-heavy lambda: COM should terminate the
  // expansion well before SEQ exhausts it on at least some queries.
  DivFixture fx(73, 200, 900, 15, 4);
  Random rng(99);
  uint64_t seq_total = 0;
  uint64_t com_total = 0;
  bool terminated_once = false;
  for (int round = 0; round < 8; ++round) {
    DivQuery q;
    q.sk.loc = testing::LocationOfObject(*fx.data.objects, rng.Uniform(900));
    q.sk.terms = {0};
    q.sk.delta_max = 5000.0;
    q.k = 4;
    q.lambda = 0.9;
    const auto seq = fx.Run(q, false);
    const auto com = fx.Run(q, true);
    EXPECT_EQ(SortedIds(com.selected), SortedIds(seq.selected));
    seq_total += seq.stats.candidates;
    com_total += com.stats.candidates;
    terminated_once = terminated_once || com.stats.early_terminated;
  }
  EXPECT_TRUE(terminated_once);
  EXPECT_LT(com_total, seq_total);
}

TEST(DivSearchTest, SelectionRespectsKeywordConstraint) {
  DivFixture fx(74);
  DivQuery q;
  q.sk.loc = testing::LocationOfObject(*fx.data.objects, 11);
  q.sk.terms = {0, 1};
  q.sk.delta_max = 3000.0;
  q.k = 6;
  q.lambda = 0.7;
  for (bool com : {false, true}) {
    const auto out = fx.Run(q, com);
    for (const SkResult& r : out.selected) {
      EXPECT_TRUE(fx.data.objects->ObjectHasAllTerms(r.id, q.sk.terms));
      EXPECT_LE(r.dist, q.sk.delta_max + 1e-9);
    }
  }
}

TEST(DivSearchTest, ObjectiveRespondsToLambda) {
  // λ = 1 maximizes closeness: the selected set must be the k nearest.
  DivFixture fx(75);
  DivQuery q;
  q.sk.loc = testing::LocationOfObject(*fx.data.objects, 21);
  q.sk.terms = {0};
  q.sk.delta_max = 2500.0;
  q.k = 4;
  q.lambda = 1.0;
  const auto out = fx.Run(q, false);
  ASSERT_EQ(out.selected.size(), 4u);

  // Gather all candidates to find the true 4 nearest.
  SkQuery plain = q.sk;
  const QueryEdgeInfo info = MakeQueryEdgeInfo(*fx.data.network, plain.loc);
  IncrementalSkSearch search(fx.graph.get(), fx.index.get(), plain, info);
  std::vector<SkResult> all;
  SkResult r;
  while (search.Next(&r)) all.push_back(r);
  ASSERT_GE(all.size(), 4u);
  // With λ=1, θ(u,v) depends only on the two relevances, so greedy pair
  // selection picks the closest available objects.
  double worst_selected = 0.0;
  for (const auto& s : out.selected) {
    worst_selected = std::max(worst_selected, s.dist);
  }
  std::sort(all.begin(), all.end(),
            [](const SkResult& a, const SkResult& b) {
              return a.dist < b.dist;
            });
  EXPECT_NEAR(worst_selected, all[3].dist, 1e-9);
}

TEST(DivSearchTest, CoLocatedObjectsAndTiedDistances) {
  // Objects stacked at identical positions create exact distance ties;
  // the deterministic total order must keep COM == SEQ.
  RoadNetwork net;
  net.AddNode({0, 0});
  net.AddNode({100, 0});
  net.AddNode({200, 0});
  net.AddNode({100, 100});
  EdgeId e01;
  EdgeId e12;
  EdgeId e13;
  ASSERT_TRUE(net.AddEdge(0, 1, -1, &e01).ok());
  ASSERT_TRUE(net.AddEdge(1, 2, -1, &e12).ok());
  ASSERT_TRUE(net.AddEdge(1, 3, -1, &e13).ok());
  net.Finalize();

  ObjectSet objects(&net);
  ObjectId id;
  for (int copy = 0; copy < 3; ++copy) {
    ASSERT_TRUE(objects.Add(e01, 50.0, {1}, &id).ok());  // triple stack
    ASSERT_TRUE(objects.Add(e12, 30.0, {1}, &id).ok());  // another stack
  }
  ASSERT_TRUE(objects.Add(e13, 80.0, {1}, &id).ok());
  objects.Finalize();

  DiskManager disk;
  BufferPool pool(&disk, 512);
  const CcamFile ccam = CcamFileBuilder::Build(net, &disk);
  CcamGraph graph(&ccam, &pool);
  SifIndex index(&pool, objects, 4, 1);

  DivQuery dq;
  dq.sk.loc = NetworkLocation{e01, 10.0};
  dq.sk.terms = {1};
  dq.sk.delta_max = 400.0;
  dq.k = 4;
  dq.lambda = 0.6;
  const QueryEdgeInfo qe = MakeQueryEdgeInfo(net, dq.sk.loc);

  auto run = [&](bool com) {
    IncrementalSkSearch search(&graph, &index, dq.sk, qe);
    PairwiseDistanceOracle oracle(&graph, 2.0 * dq.sk.delta_max);
    return com ? DiversifiedSearchCOM(&search, dq, &oracle)
               : DiversifiedSearchSEQ(&search, dq, &oracle);
  };
  const auto seq = run(false);
  const auto com = run(true);
  EXPECT_EQ(SortedIds(com.selected), SortedIds(seq.selected));
  EXPECT_NEAR(com.objective, seq.objective, 1e-9);
  EXPECT_EQ(seq.selected.size(), 4u);
}

TEST(PairwiseDistanceOracleTest, MatchesExactDistances) {
  DivFixture fx(76);
  const RoadNetwork& net = *fx.data.network;
  // Gather a handful of results around a query.
  DivQuery q;
  q.sk.loc = testing::LocationOfObject(*fx.data.objects, 2);
  q.sk.terms = {0};
  q.sk.delta_max = 1500.0;
  const QueryEdgeInfo info = MakeQueryEdgeInfo(net, q.sk.loc);
  IncrementalSkSearch search(fx.graph.get(), fx.index.get(), q.sk, info);
  std::vector<SkResult> results;
  SkResult r;
  while (search.Next(&r) && results.size() < 12) results.push_back(r);
  ASSERT_GE(results.size(), 2u);

  const QueryEdgeInfo qe = info;
  for (const OracleStrategy strategy :
       {OracleStrategy::kPerObjectDijkstra, OracleStrategy::kSharedExpansion}) {
    PairwiseDistanceOracle oracle(fx.graph.get(), 2.0 * q.sk.delta_max,
                                  strategy);
    oracle.SetQueryEdge(qe);
    for (size_t i = 0; i < results.size(); ++i) {
      for (size_t j = 0; j < results.size(); ++j) {
        const auto& a = fx.data.objects->object(results[i].id);
        const auto& b = fx.data.objects->object(results[j].id);
        const double want = ExactNetworkDistance(
            net, NetworkLocation{a.edge, a.offset},
            NetworkLocation{b.edge, b.offset});
        const double got = oracle.Distance(results[i], results[j]);
        ASSERT_NEAR(got, want, 1e-9) << i << "," << j;
      }
    }
    // Distances are evaluated from the canonical (smaller (dist, id)) side,
    // so the farthest result never needs its own field; the shared strategy
    // certifies some sources from the query expansion and needs even fewer.
    if (strategy == OracleStrategy::kPerObjectDijkstra) {
      EXPECT_EQ(oracle.fields_computed(), results.size() - 1);
    } else {
      EXPECT_LE(oracle.fields_computed(), results.size() - 1);
      EXPECT_GT(oracle.stats().pairs_shared_exact, 0u);
    }
  }
}

TEST(PairwiseDistanceOracleTest, FieldsAndPairDistancesAreCached) {
  DivFixture fx(77);
  DivQuery q;
  q.sk.loc = testing::LocationOfObject(*fx.data.objects, 1);
  q.sk.terms = {0};
  q.sk.delta_max = 1000.0;
  const QueryEdgeInfo info = MakeQueryEdgeInfo(*fx.data.network, q.sk.loc);
  IncrementalSkSearch search(fx.graph.get(), fx.index.get(), q.sk, info);
  SkResult a;
  SkResult b;
  SkResult c;
  ASSERT_TRUE(search.Next(&a));
  ASSERT_TRUE(search.Next(&b));
  ASSERT_TRUE(search.Next(&c));
  PairwiseDistanceOracle oracle(fx.graph.get(), 2000.0,
                                OracleStrategy::kPerObjectDijkstra);
  const double d1 = oracle.Distance(a, b);
  EXPECT_EQ(oracle.fields_computed(), 1u);
  // The pair is memoized, in either direction.
  EXPECT_EQ(oracle.Distance(b, a), d1);
  EXPECT_EQ(oracle.fields_computed(), 1u);
  // Distance is evaluated from the canonical side's field — the smaller
  // (dist, id), which is `a` since the search emitted it first — so a new
  // pair with `a` reuses the cached field.
  ASSERT_TRUE(a.dist < c.dist || (a.dist == c.dist && a.id < c.id));
  oracle.Distance(a, c);
  EXPECT_EQ(oracle.fields_computed(), 1u);
}

/// Ground-truth pairwise distance from a Floyd-Warshall node matrix:
/// Equation 1 over the four endpoint combinations, the same-edge direct
/// path, capped at `radius` like the oracle.
double FwPairDistance(const std::vector<std::vector<double>>& fw,
                      const SkResult& a, const SkResult& b, double radius) {
  double best = radius;
  if (a.edge == b.edge) {
    best = std::min(best, std::abs(a.w1 - b.w1));
  }
  const NodeId an[2] = {a.n1, a.n2};
  const double ao[2] = {a.w1, a.edge_weight - a.w1};
  const NodeId bn[2] = {b.n1, b.n2};
  const double bo[2] = {b.w1, b.edge_weight - b.w1};
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      best = std::min(best, fw[an[i]][bn[j]] + ao[i] + bo[j]);
    }
  }
  return best;
}

/// The shared-expansion oracle must agree with the per-object oracle (and
/// with Floyd-Warshall ground truth) on every pair, across random networks
/// and query placements.
TEST(SharedExpansionOracleTest, MatchesPerObjectOracleAndFloydWarshall) {
  for (const uint64_t seed : {101u, 102u, 103u}) {
    DivFixture fx(seed);
    const std::vector<std::vector<double>> fw = FloydWarshall(*fx.data.network);
    Random rng(seed ^ 0x5EED);
    for (int round = 0; round < 3; ++round) {
      DivQuery q;
      q.sk.loc = testing::LocationOfObject(*fx.data.objects, rng.Uniform(500));
      q.sk.terms = {static_cast<TermId>(round % 3)};
      q.sk.delta_max = 1200.0 + 400.0 * round;
      const double radius = 2.0 * q.sk.delta_max;
      const QueryEdgeInfo info = MakeQueryEdgeInfo(*fx.data.network, q.sk.loc);
      IncrementalSkSearch search(fx.graph.get(), fx.index.get(), q.sk, info);
      std::vector<SkResult> results;
      SkResult r;
      while (search.Next(&r) && results.size() < 15) results.push_back(r);
      if (results.size() < 2) continue;

      PairwiseDistanceOracle shared(fx.graph.get(), radius,
                                    OracleStrategy::kSharedExpansion);
      shared.SetQueryEdge(info);
      PairwiseDistanceOracle per_object(fx.graph.get(), radius,
                                        OracleStrategy::kPerObjectDijkstra);
      for (size_t i = 0; i < results.size(); ++i) {
        for (size_t j = 0; j < results.size(); ++j) {
          const double want = FwPairDistance(fw, results[i], results[j],
                                             radius);
          const double got_shared = shared.Distance(results[i], results[j]);
          const double got_per_object =
              per_object.Distance(results[i], results[j]);
          ASSERT_NEAR(got_shared, want, 1e-9)
              << "seed " << seed << " round " << round << " pair " << i << ","
              << j;
          ASSERT_NEAR(got_shared, got_per_object, 1e-9);
          // The θ-bound skips rely on this bit for bit.
          EXPECT_GE(shared.DistanceUpperBound(results[i], results[j]),
                    got_shared);
          EXPECT_GE(per_object.DistanceUpperBound(results[i], results[j]),
                    got_per_object);
        }
      }
      // The whole point of the shared pass: fewer per-object expansions.
      EXPECT_LE(shared.fields_computed(), per_object.fields_computed());
    }
  }
}

/// Acceptance property: swapping the oracle strategy changes *nothing*
/// about the diversification answer — SEQ and COM select identical object
/// sets under either strategy, on randomized instances.
TEST(SharedExpansionOracleTest, BitIdenticalDiversificationAcrossStrategies) {
  uint64_t fields_shared = 0;
  uint64_t fields_per_object = 0;
  for (const uint64_t seed : {111u, 112u, 113u, 114u}) {
    DivFixture fx(seed);
    Random rng(seed ^ 0xD1F);
    for (int round = 0; round < 4; ++round) {
      DivQuery q;
      q.sk.loc = testing::LocationOfObject(*fx.data.objects, rng.Uniform(500));
      q.sk.terms = {static_cast<TermId>(round % 3)};
      q.sk.delta_max = 1000.0 + 500.0 * (round % 3);
      q.k = 4 + 2 * (round % 3);
      q.lambda = 0.6 + 0.1 * round;

      for (const bool com : {false, true}) {
        const DivSearchOutput s =
            fx.Run(q, com, OracleStrategy::kSharedExpansion);
        const DivSearchOutput p =
            fx.Run(q, com, OracleStrategy::kPerObjectDijkstra);
        EXPECT_EQ(SortedIds(s.selected), SortedIds(p.selected))
            << "seed " << seed << " round " << round << " com " << com;
        EXPECT_NEAR(s.objective, p.objective, 1e-9);
        fields_shared += s.stats.distance_fields;
        fields_per_object += p.stats.distance_fields;
      }
    }
  }
  // Across the whole sweep the shared strategy must do strictly less
  // per-object Dijkstra work (the acceptance bar is >= 2x; asserting < 1x
  // keeps the test robust to topology while the bench records the ratio).
  EXPECT_LT(fields_shared, fields_per_object);
}

}  // namespace
}  // namespace dsks
