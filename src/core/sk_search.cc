#include "core/sk_search.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "obs/trace.h"

namespace dsks {

IncrementalSkSearch::IncrementalSkSearch(const CcamGraph* graph,
                                         ObjectIndex* index,
                                         const SkQuery& query,
                                         const QueryEdgeInfo& query_edge,
                                         QueryContext* ctx)
    : index_(index),
      delta_max_(query.delta_max),
      terms_(query.terms),
      ctx_(ctx),
      s_(&ctx_->sk_search),
      expansion_(graph, query.delta_max, &s_->expansion, ctx_) {
  DSKS_DCHECK_MSG(ctx_ != nullptr, "IncrementalSkSearch needs a context");
  DSKS_CHECK_MSG(!terms_.empty(), "SK query needs at least one keyword");
  DSKS_CHECK_MSG(delta_max_ > 0.0, "delta_max must be positive");
  DSKS_CHECK(std::is_sorted(terms_.begin(), terms_.end()));
  DSKS_CHECK_MSG(query_edge.n1 < query_edge.n2,
                 "query edge endpoints must be (reference, far) ordered");
  DSKS_DCHECK_MSG(!ctx_->sk_search_in_use,
                  "QueryContext serves one SK search at a time");
  ctx_->sk_search_in_use = true;

  // Reset-not-free: clears that keep all capacity from the previous query
  // on this context. The search starts the query, so it also forgets the
  // previous query's adjacency memo.
  s_->object_heap.clear();
  s_->edge_slot.clear();
  s_->edge_pool_used = 0;
  s_->object_state.clear();
  ctx_->adjacency_memo.Reset();
  expansion_.Seed(query_edge.n1, query_edge.n2, query_edge.weight,
                  query_edge.w1);

  // Objects on the query's own edge are reachable directly along the edge
  // (δ(q,p) = w(q,p) when both lie on the same edge, §2.1); paths through
  // the endpoints are applied when those endpoints settle.
  const uint32_t slot = AllocEdgeSlot();
  std::vector<LoadedObject>& objects = s_->edge_pool[slot];
  {
    obs::ScopedSpan span(ctx_->trace, obs::Phase::kKeywordLookup);
    status_ = index_->LoadObjects(query_edge.edge, terms_, &objects);
  }
  if (!status_.ok()) {
    objects.clear();
    return;
  }
  s_->edge_slot.try_emplace(query_edge.edge, slot);
  for (const LoadedObject& o : objects) {
    UpdateObject(o, query_edge.edge, query_edge.n1, query_edge.n2,
                 query_edge.weight, std::abs(o.w1 - query_edge.w1));
  }
}

IncrementalSkSearch::~IncrementalSkSearch() {
  ctx_->sk_search_in_use = false;
}

uint32_t IncrementalSkSearch::AllocEdgeSlot() {
  if (s_->edge_pool_used == s_->edge_pool.size()) {
    s_->edge_pool.emplace_back();
  }
  s_->edge_pool[s_->edge_pool_used].clear();  // keeps the vector's capacity
  return static_cast<uint32_t>(s_->edge_pool_used++);
}

void IncrementalSkSearch::UpdateObject(const LoadedObject& o, EdgeId e,
                                       NodeId n1, NodeId n2, double w,
                                       double dist) {
  auto [st, inserted] = s_->object_state.try_emplace(o.id);
  if (inserted) {
    st->best = dist;
    st->edge = e;
    st->n1 = n1;
    st->n2 = n2;
    st->w1 = o.w1;
    st->edge_weight = w;
    s_->object_heap.push({dist, o.id});
    return;
  }
  if (dist < st->best) {
    DSKS_CHECK_MSG(!st->emitted, "emitted object distance improved");
    st->best = dist;
    s_->object_heap.push({dist, o.id});
  }
}

void IncrementalSkSearch::ProcessEdge(EdgeId e, double w, NodeId v, NodeId nb,
                                      double d) {
  const uint32_t* found = s_->edge_slot.find(e);
  uint32_t slot;
  if (found == nullptr) {
    ++stats_.edges_processed;
    slot = AllocEdgeSlot();
    std::vector<LoadedObject>& objects = s_->edge_pool[slot];
    // The index loads straight into the pooled vector — no intermediate
    // scratch copy.
    {
      obs::ScopedSpan span(ctx_->trace, obs::Phase::kKeywordLookup);
      status_ = index_->LoadObjects(e, terms_, &objects);
    }
    if (!status_.ok()) {
      objects.clear();
      return;
    }
    s_->edge_slot.try_emplace(e, slot);
  } else {
    slot = *found;
  }
  // v was just settled at distance d; the cost from v to an object at
  // offset w1 (from the reference node n1 = min endpoint id) is w1 if v is
  // n1, else w - w1.
  const bool v_is_n1 = v < nb;
  const NodeId n1 = std::min(v, nb);
  const NodeId n2 = std::max(v, nb);
  const std::vector<LoadedObject>& objects = s_->edge_pool[slot];
  for (const LoadedObject& o : objects) {
    const double via_v = d + (v_is_n1 ? o.w1 : w - o.w1);
    UpdateObject(o, e, n1, n2, w, via_v);
  }
}

bool IncrementalSkSearch::ExpandOneNode() {
  if (!status_.ok()) {
    return false;
  }
  obs::ScopedSpan span(ctx_->trace, obs::Phase::kNetworkExpansion);
  NodeId v;
  double d;
  if (!expansion_.Settle(&v, &d)) {
    return false;  // exhausted
  }
  if (!expansion_.status().ok()) {
    status_ = expansion_.status();
    return false;
  }
  for (const AdjacentEdge& adj : expansion_.adjacency()) {
    expansion_.Relax(adj.neighbor, d + adj.weight);
    ProcessEdge(adj.edge, adj.weight, v, adj.neighbor, d);
    if (!status_.ok()) {
      return false;
    }
  }
  return true;
}

bool IncrementalSkSearch::Next(SkResult* out) {
  if (terminated_ || !status_.ok()) {
    return false;
  }
  // One poll per pulled result catches deadlines that expire between
  // settle batches (or before the first one on a tiny expansion).
  if (ctx_->DeadlineExceeded()) {
    status_ = Status::Cancelled("query deadline exceeded");
    return false;
  }
  while (true) {
    const double delta_t = expansion_.Frontier();
    if (PopFinalizedWithin(delta_t, out)) {
      return true;
    }
    if (delta_t == kInfDistance) {
      return false;  // nothing settleable left and all objects flushed
    }
    if (!ExpandOneNode()) {
      return false;  // storage error or cancellation; see status()
    }
  }
}

}  // namespace dsks
