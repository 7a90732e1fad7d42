#include "core/distance_oracle.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "obs/trace.h"

namespace dsks {

namespace {

/// Certification margin. The shared-field lower bounds are computed in
/// floating point and can overshoot the true bound by a few ulps; requiring
/// the exact candidate to win by this margin keeps "certified" honest.
/// Pairs inside the margin simply take the fallback field — correctness is
/// unaffected, only the sharing rate.
constexpr double kCertSlack = 1e-9;

}  // namespace

PairwiseDistanceOracle::PairwiseDistanceOracle(const CcamGraph* graph,
                                               double radius,
                                               OracleStrategy strategy,
                                               QueryContext* ctx)
    : graph_(graph),
      radius_(radius),
      strategy_(strategy),
      ctx_(ContextOrOwned(ctx, &owned_ctx_)),
      o_(&ctx_->oracle),
      shared_(graph, radius, &o_->shared, ctx_),
      field_(graph, radius, &o_->field, ctx_) {
  DSKS_DCHECK_MSG(!ctx_->oracle_in_use,
                  "QueryContext serves one oracle at a time");
  ctx_->oracle_in_use = true;
  // An oracle next to a live SK search shares that query's adjacency memo;
  // a standalone one starts a query of its own.
  if (!ctx_->sk_search_in_use) {
    ctx_->adjacency_memo.Reset();
  }
  // Recycle every pooled field from the previous query on this context.
  o_->field_index.clear();
  o_->pair_cache.clear();
}

PairwiseDistanceOracle::~PairwiseDistanceOracle() {
  ctx_->oracle_in_use = false;
}

void PairwiseDistanceOracle::SetQueryEdge(const QueryEdgeInfo& query_edge) {
  query_edge_ = query_edge;
  has_query_edge_ = true;
  shared_ready_ = false;
}

PairwiseDistanceOracle::FieldMap& PairwiseDistanceOracle::FieldOf(
    const SkResult& a) {
  if (const uint32_t* idx = o_->field_index.find(a.id)) {
    return o_->field_pool[*idx];
  }
  obs::ScopedSpan span(ctx_->trace, obs::Phase::kOracleFieldDijkstra);
  ++stats_.fields_computed;
  // Fields live until the query ends, so the next free slot is the count.
  const auto idx = static_cast<uint32_t>(o_->field_index.size());
  if (idx == o_->field_pool.size()) {
    o_->field_pool.emplace_back();
  }
  o_->field_index.try_emplace(a.id, idx);
  FieldMap& field = o_->field_pool[idx];
  field.clear();

  field_.Seed(a.n1, a.n2, a.edge_weight, a.w1);
  NodeId v;
  double d;
  while (field_.Settle(&v, &d)) {
    field.try_emplace(v, d);
    for (const AdjacentEdge& adj : field_.adjacency()) {
      field_.Relax(adj.neighbor, d + adj.weight);
    }
  }
  // A cancelled or failed expansion leaves a partial field: distances only
  // fall back to the radius cap, never wrong, and the sticky status tells
  // the caller.
  if (status_.ok()) {
    status_ = field_.status();
  }
  return field;
}

void PairwiseDistanceOracle::BuildSharedField() {
  obs::ScopedSpan span(ctx_->trace, obs::Phase::kOracleSharedExpansion);
  const size_t n = graph_->num_nodes();
  o_->pending_edge.EnsureSize(n);
  o_->pending_parent.EnsureSize(n);
  o_->parent_edge.EnsureSize(n);
  o_->local_index.EnsureSize(n);
  o_->pending_edge.Reset();
  o_->pending_parent.Reset();
  o_->parent_edge.Reset();
  o_->local_index.Reset();
  o_->order.clear();
  o_->parent_local.clear();

  // Seeds replicate the SK search's exactly, so every settled distance
  // here is bit-identical to the distance the search computed for the same
  // node (Dijkstra's settled values are independent of tie order: an
  // equal-distance relaxation is never a strict improvement). Seeds have
  // no pending edge or parent: they are the roots of the tree.
  shared_.Seed(query_edge_.n1, query_edge_.n2, query_edge_.weight,
               query_edge_.w1);
  NodeId v;
  double d;
  while (shared_.Settle(&v, &d)) {
    const auto local = static_cast<uint32_t>(o_->order.size());
    o_->local_index.Set(v, local);
    o_->order.push_back(v);
    const EdgeId* via_edge = o_->pending_edge.Find(v);
    o_->parent_edge.Set(v, via_edge == nullptr ? kInvalidEdgeId : *via_edge);
    const NodeId* parent = o_->pending_parent.Find(v);
    o_->parent_local.push_back(
        parent == nullptr ? UINT32_MAX : o_->local_index.Get(*parent));
    for (const AdjacentEdge& adj : shared_.adjacency()) {
      if (shared_.Relax(adj.neighbor, d + adj.weight)) {
        o_->pending_edge.Set(adj.neighbor, adj.edge);
        o_->pending_parent.Set(adj.neighbor, v);
      }
    }
  }
  // A cancelled or failed pass leaves a partial shared field: fewer pairs
  // certify, none wrongly.
  if (status_.ok()) {
    status_ = shared_.status();
  }
  ++stats_.shared_expansions;

  // Subtree (Euler) intervals over the shortest-path forest, so "is node x
  // below a's edge" is two comparisons. Children CSR first (parents settle
  // before their children, so parent_local[i] < i always).
  const auto m = static_cast<uint32_t>(o_->order.size());
  o_->child_head.assign(m + 1, 0);
  for (uint32_t i = 0; i < m; ++i) {
    if (o_->parent_local[i] != UINT32_MAX) {
      ++o_->child_head[o_->parent_local[i] + 1];
    }
  }
  for (uint32_t i = 0; i < m; ++i) {
    o_->child_head[i + 1] += o_->child_head[i];
  }
  o_->child_cursor.assign(o_->child_head.begin(), o_->child_head.end());
  o_->child_list.resize(o_->child_head[m]);
  for (uint32_t i = 0; i < m; ++i) {
    if (o_->parent_local[i] != UINT32_MAX) {
      o_->child_list[o_->child_cursor[o_->parent_local[i]]++] = i;
    }
  }
  o_->tin.resize(m);
  o_->tout.resize(m);
  o_->dfs_stack.clear();
  uint32_t t = 0;
  for (uint32_t root = 0; root < m; ++root) {
    if (o_->parent_local[root] != UINT32_MAX) {
      continue;  // only the (up to two) seed nodes are roots
    }
    o_->tin[root] = t++;
    o_->dfs_stack.push_back({root, o_->child_head[root]});
    while (!o_->dfs_stack.empty()) {
      auto& [v, cursor] = o_->dfs_stack.back();
      if (cursor < o_->child_head[v + 1]) {
        const uint32_t c = o_->child_list[cursor++];
        o_->tin[c] = t++;
        o_->dfs_stack.push_back({c, o_->child_head[c]});
      } else {
        o_->tout[v] = t++;
        o_->dfs_stack.pop_back();
      }
    }
  }
  shared_ready_ = true;
}

bool PairwiseDistanceOracle::TrySharedExact(const SkResult& a,
                                            const SkResult& b, double* best) {
  if (!shared_ready_) {
    if (!has_query_edge_) {
      return false;
    }
    BuildSharedField();
  }
  const double da = a.dist;

  // Locate the SPT subtree(s) hanging below a: every shortest path from q
  // into such a subtree passes over a, so for any node x in it
  // δ(a,x) = δ(q,x) − δ(q,a) (triangle lower bound meets the explicit
  // tree-path upper bound; see DESIGN.md). Two cases:
  //  * a on an ordinary edge: the endpoint r settled *through* a's edge,
  //    provided a's emitted distance is exactly "other endpoint + offset".
  //  * a on the query's own edge: each endpoint whose settled distance is
  //    the direct along-edge path AND with a lying between q and it —
  //    then q reaches that whole side over a. At δ(q,a) = 0 both sides
  //    qualify and every settled node is certified.
  uint32_t roots[2] = {UINT32_MAX, UINT32_MAX};
  // Unsettled nodes read as kInfDistance, which equals no finite value.
  if (a.edge == query_edge_.edge) {
    if (a.w1 <= query_edge_.w1 &&
        shared_.SettledDistance(a.n1) == query_edge_.w1 &&
        da == query_edge_.w1 - a.w1) {
      roots[0] = o_->local_index.Get(a.n1);
    }
    if (a.w1 >= query_edge_.w1 &&
        shared_.SettledDistance(a.n2) ==
            query_edge_.weight - query_edge_.w1 &&
        da == a.w1 - query_edge_.w1) {
      roots[1] = o_->local_index.Get(a.n2);
    }
  } else {
    // parent_edge is set exactly for the settled nodes.
    const EdgeId* via1 = o_->parent_edge.Find(a.n1);
    const EdgeId* via2 = o_->parent_edge.Find(a.n2);
    NodeId r = kInvalidNodeId;
    NodeId other = kInvalidNodeId;
    double off_other = 0.0;
    if (via1 != nullptr && *via1 == a.edge) {
      r = a.n1;
      other = a.n2;
      off_other = a.edge_weight - a.w1;
    } else if (via2 != nullptr && *via2 == a.edge) {
      r = a.n2;
      other = a.n1;
      off_other = a.w1;
    }
    if (r != kInvalidNodeId &&
        shared_.SettledDistance(other) + off_other == da) {
      roots[0] = o_->local_index.Get(r);
    }
  }

  double exact = *best;  // the cap and the two paths known without a field
  double lb = kInfDistance;
  auto probe = [&](NodeId n, double off) {
    const double dqn = shared_.SettledDistance(n);
    if (dqn != kInfDistance) {
      const uint32_t n_local = o_->local_index.Get(n);
      if ((roots[0] != UINT32_MAX && IsAncestor(roots[0], n_local)) ||
          (roots[1] != UINT32_MAX && IsAncestor(roots[1], n_local))) {
        exact = std::min(exact, (dqn - da) + off);
      } else {
        // δ(a,n) >= |δ(q,n) − δ(q,a)| by the triangle inequality.
        lb = std::min(lb, std::abs(dqn - da) + off);
      }
    } else {
      // n was not settled within the shared radius: δ(q,n) > radius.
      lb = std::min(lb, std::max(0.0, radius_ - da) + off);
    }
  };
  probe(b.n1, b.w1);
  probe(b.n2, b.edge_weight - b.w1);

  if (exact <= lb - kCertSlack) {
    *best = exact;
    return true;
  }
  return false;
}

double PairwiseDistanceOracle::Distance(const SkResult& a_in,
                                        const SkResult& b_in) {
  if (a_in.id == b_in.id) {
    return 0.0;
  }
  // Evaluate from the canonical side — the object with the smaller
  // (dist, id) — so that δ(a,b) is bit-identical to δ(b,a) and a pure
  // function of the pair: the two directions sum the same edge weights in
  // different orders and can disagree in the last ulp, which would let
  // near-tied greedy choices diverge between SEQ and COM.
  const bool swap =
      a_in.dist != b_in.dist ? a_in.dist > b_in.dist : a_in.id > b_in.id;
  const SkResult& a = swap ? b_in : a_in;
  const SkResult& b = swap ? a_in : b_in;

  const uint64_t key = (static_cast<uint64_t>(a.id) << 32) | b.id;
  if (const double* cached = o_->pair_cache.find(key)) {
    return *cached;
  }
  ++stats_.pairs_evaluated;

  // The walk through q is a path too. Starting from it keeps Distance()
  // at or below DistanceUpperBound() bit for bit: the expansions reach the
  // same path by summing its edge weights in another order, which can
  // land one ulp above δ(q,a) + δ(q,b).
  double best = std::min(radius_, a.dist + b.dist);
  if (a.edge == b.edge) {
    best = std::min(best, std::abs(a.w1 - b.w1));
  }
  if (strategy_ == OracleStrategy::kSharedExpansion &&
      TrySharedExact(a, b, &best)) {
    ++stats_.pairs_shared_exact;
    o_->pair_cache.try_emplace(key, best);
    return best;
  }
  const FieldMap& field = FieldOf(a);
  if (const double* d = field.find(b.n1)) {
    best = std::min(best, *d + b.w1);
  }
  if (const double* d = field.find(b.n2)) {
    best = std::min(best, *d + (b.edge_weight - b.w1));
  }
  o_->pair_cache.try_emplace(key, best);
  return best;
}

double PairwiseDistanceOracle::DistanceUpperBound(const SkResult& a,
                                                 const SkResult& b) const {
  if (a.id == b.id) {
    return 0.0;
  }
  // δ(a,b) ≤ δ(q,a) + δ(q,b) (a walk through the query location), and
  // Distance() never returns more than the radius cap. Distance() starts
  // its own minimization from these same candidates, so ub >= exact holds
  // bit for bit.
  double ub = std::min(radius_, a.dist + b.dist);
  if (a.edge == b.edge) {
    ub = std::min(ub, std::abs(a.w1 - b.w1));
  }
  return ub;
}

void PairwiseDistanceOracle::EnsureField(const SkResult& a) {
  if (strategy_ == OracleStrategy::kPerObjectDijkstra) {
    FieldOf(a);
  }
}

}  // namespace dsks
