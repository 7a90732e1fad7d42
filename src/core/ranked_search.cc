#include "core/ranked_search.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/flat_containers.h"
#include "common/macros.h"
#include "core/network_expansion.h"
#include "obs/trace.h"

namespace dsks {

Status BooleanKnnSearch(const CcamGraph* graph, ObjectIndex* index,
                        const SkQuery& query,
                        const QueryEdgeInfo& query_edge, size_t k,
                        std::vector<SkResult>* out, QueryContext* ctx) {
  out->clear();
  IncrementalSkSearch search(graph, index, query, query_edge, ctx);
  SkResult r;
  while (out->size() < k && search.Next(&r)) {
    out->push_back(r);
  }
  return search.status();
}

namespace {

struct PendingObject {
  double best = kInfDistance;
  uint32_t matched = 0;
  bool scored = false;
};

}  // namespace

Status RankedSkSearch(const CcamGraph* graph, ObjectIndex* index,
                      const RankedQuery& query,
                      const QueryEdgeInfo& query_edge,
                      std::vector<RankedResult>* out,
                      RankedSearchStats* stats, QueryContext* ctx) {
  out->clear();
  const double delta_max = query.sk.delta_max;
  const double alpha = query.alpha;
  const auto num_terms = static_cast<double>(query.sk.terms.size());
  DSKS_CHECK_MSG(!query.sk.terms.empty(), "ranked query needs keywords");
  DSKS_CHECK_MSG(query.k > 0, "ranked query needs k > 0");
  std::unique_ptr<QueryContext> owned_ctx;
  ctx = ContextOrOwned(ctx, &owned_ctx);
  // Runs to completion on the SK search's expansion scratch.
  DSKS_DCHECK_MSG(!ctx->sk_search_in_use,
                  "QueryContext serves one SK search at a time");

  RankedSearchStats local_stats;
  Status status;  // sticky: the first storage error stops the expansion
  NetworkExpansion expansion(graph, delta_max, &ctx->sk_search.expansion,
                             ctx);
  FlatHashMap<EdgeId, std::vector<ObjectIndex::LoadedObjectUnion>> loaded;
  FlatHashMap<ObjectId, PendingObject> pending;
  // Keyed by best-known network distance.
  ReusableMinHeap<std::pair<double, uint32_t>> object_heap;

  // Top-k kept as a max-heap over scores (worst on top).
  auto better = [](const RankedResult& a, const RankedResult& b) {
    return a.score != b.score ? a.score < b.score : a.id < b.id;
  };
  std::vector<RankedResult> topk;  // heap via std::push_heap with `better`

  auto update_object = [&](const ObjectIndex::LoadedObjectUnion& o,
                           double dist) {
    PendingObject& po = *pending.try_emplace(o.id).first;
    po.matched = o.matched;
    if (dist < po.best) {
      DSKS_CHECK(!po.scored);
      po.best = dist;
      object_heap.push({dist, o.id});
    }
  };
  auto score_object = [&](ObjectId id, const PendingObject& po) {
    if (po.best > delta_max) {
      return;
    }
    ++local_stats.objects_scored;
    RankedResult r;
    r.id = id;
    r.dist = po.best;
    r.matched = po.matched;
    r.score = alpha * (po.best / delta_max) +
              (1.0 - alpha) *
                  (1.0 - static_cast<double>(po.matched) / num_terms);
    if (topk.size() < query.k) {
      topk.push_back(r);
      std::push_heap(topk.begin(), topk.end(), better);
    } else if (better(r, topk.front())) {
      std::pop_heap(topk.begin(), topk.end(), better);
      topk.back() = r;
      std::push_heap(topk.begin(), topk.end(), better);
    }
  };
  // The objects of edge `e`, loaded on first touch (nullptr on error).
  auto objects_of = [&](EdgeId e)
      -> const std::vector<ObjectIndex::LoadedObjectUnion>* {
    auto [objs, fresh] = loaded.try_emplace(e);
    if (fresh) {
      obs::ScopedSpan span(ctx->trace, obs::Phase::kKeywordLookup);
      status = index->LoadObjectsUnion(e, query.sk.terms, objs);
    }
    return status.ok() ? objs : nullptr;
  };

  // Seed from the query edge; its objects are reachable along the edge.
  // The search starts the query on `ctx`: the previous query's adjacency
  // memo goes first.
  ctx->adjacency_memo.Reset();
  expansion.Seed(query_edge.n1, query_edge.n2, query_edge.weight,
                 query_edge.w1);
  if (const auto* objs = objects_of(query_edge.edge)) {
    for (const auto& o : *objs) {
      update_object(o, std::abs(o.w1 - query_edge.w1));
    }
  }

  auto flush_objects = [&](double delta_t) {
    while (!object_heap.empty()) {
      const auto [d, id] = object_heap.top();
      if (d > delta_t) {
        break;
      }
      object_heap.pop();
      PendingObject& po = pending.at(id);
      if (po.scored || d != po.best) {
        continue;
      }
      po.scored = true;
      score_object(id, po);
    }
  };

  while (status.ok()) {
    const double delta_t = expansion.Frontier();
    flush_objects(delta_t);

    // Threshold termination: no unfinalized object can have distance
    // below δT, hence no score below α·δT/δmax.
    if (topk.size() == query.k &&
        alpha * (delta_t / delta_max) > topk.front().score) {
      local_stats.early_terminated = true;
      break;
    }
    if (delta_t == kInfDistance) {
      break;  // expansion exhausted; all objects flushed
    }

    obs::ScopedSpan span(ctx->trace, obs::Phase::kNetworkExpansion);
    NodeId v;
    double d;
    expansion.Settle(&v, &d);
    status = expansion.status();
    for (const AdjacentEdge& adj : expansion.adjacency()) {
      expansion.Relax(adj.neighbor, d + adj.weight);
      const auto* objs = objects_of(adj.edge);
      if (objs == nullptr) {
        break;
      }
      const bool v_is_n1 = v < adj.neighbor;
      for (const auto& o : *objs) {
        update_object(o, d + (v_is_n1 ? o.w1 : adj.weight - o.w1));
      }
    }
  }
  local_stats.nodes_settled = expansion.settles();

  if (stats != nullptr) {
    *stats = local_stats;
  }
  DSKS_RETURN_IF_ERROR(status);
  std::sort(topk.begin(), topk.end(), better);
  *out = std::move(topk);
  return Status::Ok();
}

}  // namespace dsks
