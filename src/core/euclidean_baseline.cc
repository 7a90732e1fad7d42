#include "core/euclidean_baseline.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/macros.h"
#include "core/network_expansion.h"

namespace dsks {

Status EuclideanFilterRefine(const CcamGraph* graph, const RoadNetwork& net,
                             InvertedRTreeIndex* index, const SkQuery& query,
                             const QueryEdgeInfo& query_edge,
                             std::vector<SkResult>* out,
                             EuclideanBaselineStats* stats,
                             QueryContext* ctx) {
  out->clear();
  DSKS_DCHECK_MSG(ctx != nullptr, "EuclideanFilterRefine needs a context");
  // Runs to completion on the SK search's expansion scratch.
  DSKS_DCHECK_MSG(!ctx->sk_search_in_use,
                  "QueryContext serves one SK search at a time");
  EuclideanBaselineStats local;
  Status status;

  // Filter: Euclidean circle around the query point.
  const Point q_point = net.PointOnEdge(
      query.loc.edge,
      query.loc.offset);
  std::vector<ObjectId> candidates;
  status = index->EuclideanCandidates(q_point, query.delta_max, query.terms,
                                      &candidates);
  local.euclidean_candidates = candidates.size();
  if (!status.ok()) {
    candidates.clear();
  }

  std::vector<SkResult> results;
  if (!candidates.empty()) {
    // Refine: one bounded expansion from the query over the CCAM file.
    NetworkExpansion expansion(graph, query.delta_max,
                               &ctx->sk_search.expansion, ctx);
    ctx->adjacency_memo.Reset();  // this query's lists only
    expansion.Seed(query_edge.n1, query_edge.n2, query_edge.weight,
                   query_edge.w1);
    NodeId v;
    double d;
    while (expansion.Settle(&v, &d)) {
      for (const AdjacentEdge& adj : expansion.adjacency()) {
        expansion.Relax(adj.neighbor, d + adj.weight);
      }
    }
    local.nodes_settled = expansion.settles();
    status = expansion.status();

    for (ObjectId id : candidates) {
      if (!status.ok()) {
        break;
      }
      ObjectFile::Record rec;
      status = index->GetRecord(id, &rec);  // I/O
      if (!status.ok()) {
        break;
      }
      const Edge& e = net.edge(rec.edge);
      // Unsettled endpoints read as kInfDistance and drop out of the min.
      double best =
          std::min(expansion.SettledDistance(e.n1) + rec.w1,
                   expansion.SettledDistance(e.n2) + (e.weight - rec.w1));
      if (rec.edge == query.loc.edge) {
        best = std::min(best, std::abs(rec.w1 - query_edge.w1));
      }
      if (best <= query.delta_max) {
        SkResult r;
        r.id = id;
        r.edge = rec.edge;
        r.n1 = e.n1;
        r.n2 = e.n2;
        r.w1 = rec.w1;
        r.edge_weight = e.weight;
        r.dist = best;
        results.push_back(r);
        ++local.verified;
      }
    }
  }
  if (stats != nullptr) {
    *stats = local;
  }
  DSKS_RETURN_IF_ERROR(status);
  std::sort(results.begin(), results.end(),
            [](const SkResult& a, const SkResult& b) {
              return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
            });
  *out = std::move(results);
  return Status::Ok();
}

}  // namespace dsks
