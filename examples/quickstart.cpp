// Quickstart: build a small road network by hand (in the spirit of the
// paper's running example, Fig. 2), place a few spatio-textual objects,
// index them, and run one boolean SK query and one diversified query.
//
//   n3 --- n4 --- n5        edge lengths 10 (horizontal) / 10 (vertical)
//   |      |      |         objects are placed on edges with keywords
//   n0 --- n1 --- n2        like "pizza", "lobster", "pancake".
#include <cstdio>
#include <memory>

#include "core/distance_oracle.h"
#include "core/div_search.h"
#include "core/query_context.h"
#include "core/sk_search.h"
#include "datagen/workload.h"
#include "graph/ccam.h"
#include "graph/object_set.h"
#include "graph/road_network.h"
#include "index/sif.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "text/vocabulary.h"

using namespace dsks;  // NOLINT

int main() {
  // 1. The road network G = (V, E, W).
  RoadNetwork net;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      net.AddNode(Point{10.0 * c, 10.0 * r});
    }
  }
  EdgeId e_bottom_left;   // n0-n1
  EdgeId e_bottom_right;  // n1-n2
  EdgeId e_top_left;      // n3-n4
  EdgeId e_vertical;      // n1-n4
  EdgeId e;
  net.AddEdge(0, 1, -1, &e_bottom_left);
  net.AddEdge(1, 2, -1, &e_bottom_right);
  net.AddEdge(3, 4, -1, &e_top_left);
  net.AddEdge(4, 5, -1, &e);
  net.AddEdge(0, 3, -1, &e);
  net.AddEdge(1, 4, -1, &e_vertical);
  net.AddEdge(2, 5, -1, &e);
  net.Finalize();

  // 2. Spatio-textual objects with human-readable keywords.
  Vocabulary vocab;
  const TermId lobster = vocab.Intern("lobster");
  const TermId pancake = vocab.Intern("pancake");
  const TermId pizza = vocab.Intern("pizza");
  const TermId coffee = vocab.Intern("coffee");

  ObjectSet objects(&net);
  ObjectId id;
  objects.Add(e_bottom_left, 2.0, {lobster, pancake}, &id);   // o0
  objects.Add(e_bottom_left, 8.0, {lobster, pancake, pizza}, &id);  // o1
  objects.Add(e_bottom_right, 5.0, {pizza, coffee}, &id);     // o2
  objects.Add(e_top_left, 4.0, {lobster, pancake}, &id);      // o3
  objects.Add(e_vertical, 5.0, {coffee}, &id);                // o4
  objects.Finalize();

  // 3. Disk-resident structures: CCAM file + signature-based inverted
  //    file, all behind one buffer pool.
  DiskManager disk;
  BufferPool pool(&disk, 128);
  const CcamFile ccam = CcamFileBuilder::Build(net, &disk);
  CcamGraph graph(&ccam, &pool);
  SifIndex index(&pool, objects, vocab.size(), /*min_postings=*/1);

  // 4. A boolean SK query: everything serving lobster AND pancake within
  //    network distance 30 of a point on edge n0-n1.
  SkQuery query;
  query.loc = NetworkLocation{e_bottom_left, 1.0};
  query.terms = {lobster, pancake};
  std::sort(query.terms.begin(), query.terms.end());
  query.delta_max = 30.0;
  const QueryEdgeInfo qe = MakeQueryEdgeInfo(net, query.loc);

  // Every search keeps its state in a QueryContext; a program reuses one
  // across its queries, one query at a time.
  QueryContext ctx;
  std::printf("SK query: {lobster, pancake}, delta_max=30\n");
  {
    IncrementalSkSearch search(&graph, &index, query, qe, &ctx);
    SkResult r;
    while (search.Next(&r)) {
      std::printf("  object o%u at network distance %.1f\n", r.id, r.dist);
    }
  }

  // 5. The diversified variant: k=2 restaurants, trading closeness
  //    against spatial spread (Definition 2).
  DivQuery dq;
  dq.sk = query;
  dq.k = 2;
  dq.lambda = 0.3;  // favour spatial spread over closeness
  // The SK search and the distance oracle share the query's context.
  IncrementalSkSearch search(&graph, &index, dq.sk, qe, &ctx);
  PairwiseDistanceOracle oracle(&graph, 2.0 * dq.sk.delta_max,
                                OracleStrategy::kSharedExpansion, &ctx);
  const DivSearchOutput out = DiversifiedSearchCOM(&search, dq, &oracle);

  std::printf("Diversified (k=2, lambda=%.1f): f(S)=%.4f\n", dq.lambda,
              out.objective);
  for (const SkResult& s : out.selected) {
    std::printf("  object o%u (distance %.1f)\n", s.id, s.dist);
  }
  std::printf(
      "Note how the result spreads across the network instead of taking\n"
      "the two nearest co-located objects.\n");
  return 0;
}
