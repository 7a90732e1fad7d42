#ifndef DSKS_CORE_SK_SEARCH_H_
#define DSKS_CORE_SK_SEARCH_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "core/network_expansion.h"
#include "core/query.h"
#include "core/query_context.h"
#include "graph/ccam.h"
#include "graph/types.h"
#include "index/object_index.h"

namespace dsks {

/// Where the query point sits on the network: the endpoints and weight of
/// its edge plus the cost from the reference node n1 to the query point.
/// Clients know the query's edge (e.g. by snapping through the network
/// R-tree), so this is cheap to provide.
struct QueryEdgeInfo {
  NodeId n1 = kInvalidNodeId;
  NodeId n2 = kInvalidNodeId;
  EdgeId edge = kInvalidEdgeId;
  double weight = 0.0;
  /// w(n1, q).
  double w1 = 0.0;
};

/// Algorithm 3: incremental network expansion (INE) integrated with
/// Dijkstra's algorithm, pulling spatio-textual objects from an
/// ObjectIndex in non-decreasing order of network distance from the query.
///
/// The search is pull-based: each Next() call returns the next closest
/// object satisfying the keyword constraint within δmax, expanding the
/// network only as far as needed. This is what lets the diversified search
/// (Algorithm 6) terminate the expansion early once its pruning bound
/// fires.
///
/// All graph traversal goes through the CCAM file (one NetworkExpansion)
/// and all object loading through the index, so every page touched is
/// accounted in the buffer pool / disk statistics.
///
/// All mutable search state lives in the caller's QueryContext
/// (SkSearchScratch and the adjacency memo). With a long-lived context (one
/// per thread) steady-state searches do near-zero heap allocation.
class IncrementalSkSearch {
 public:
  struct Stats {
    uint64_t nodes_settled = 0;
    uint64_t edges_processed = 0;
    uint64_t objects_emitted = 0;
  };

  IncrementalSkSearch(const CcamGraph* graph, ObjectIndex* index,
                      const SkQuery& query, const QueryEdgeInfo& query_edge,
                      QueryContext* ctx);
  ~IncrementalSkSearch();

  IncrementalSkSearch(const IncrementalSkSearch&) = delete;
  IncrementalSkSearch& operator=(const IncrementalSkSearch&) = delete;

  /// Produces the next object in non-decreasing δ(q, o), with
  /// δ(q, o) <= δmax. Returns false when the search is exhausted, was
  /// terminated, or hit a storage error — callers distinguish the last
  /// case by checking status() after the final Next() (sticky-status
  /// iterator pattern). One deadline poll, then PopFinalized() and
  /// ExpandOneNode() in turn until an object is final.
  bool Next(SkResult* out);

  /// The two steps of Next(), for a caller that decides between them
  /// itself (the ranked search tests its threshold before each settle).
  ///
  /// Emits the closest object whose distance is final — at most
  /// Frontier(), so no unsettled node can improve it — skipping final
  /// objects beyond δmax. Never expands; false when no object is final.
  bool PopFinalized(SkResult* out) {
    return PopFinalizedWithin(expansion_.Frontier(), out);
  }

  /// δT: the distance of the node ExpandOneNode() settles next, a lower
  /// bound on the distance of every object not yet emitted; kInfDistance
  /// once the expansion is exhausted.
  double Frontier() { return expansion_.Frontier(); }

  /// Settles one node and applies the objects of its adjacent edges.
  /// Returns false when the expansion is exhausted, and on a storage error
  /// or cancellation (see status()).
  bool ExpandOneNode();

  /// Stops the search early: subsequent Next() calls return false and no
  /// further I/O happens. Used by COM's early termination (Algorithm 6).
  void Terminate() { terminated_ = true; }

  /// First storage error encountered (OK while the search is healthy).
  /// Results already emitted are correct; the search stops at the error.
  const Status& status() const { return status_; }

  Stats stats() const {
    Stats s = stats_;
    s.nodes_settled = expansion_.settles();
    return s;
  }

  /// The query's trace sink (null when tracing is off). Exposed so callers
  /// driving the search (e.g. the diversified search) can record their own
  /// phases into the same trace.
  obs::QueryTrace* trace() const { return ctx_->trace; }

 private:
  /// Applies distance `dist` to object `o` on edge `e` = (`n1`, `n2`)
  /// (weight `w`).
  void UpdateObject(const LoadedObject& o, EdgeId e, NodeId n1, NodeId n2,
                    double w, double dist);

  /// Loads (or re-uses) the objects of edge `e` and applies the paths
  /// through endpoint `v`, just settled at distance `d` (`nb` is the other
  /// endpoint).
  void ProcessEdge(EdgeId e, double w, NodeId v, NodeId nb, double d);

  /// Grabs a recycled edge slot from the scratch pool.
  uint32_t AllocEdgeSlot();

  /// PopFinalized() against the frontier `delta_t`, already evaluated.
  /// Defined below, in the header, so that Next() can inline it: called
  /// out of line once per turn, Next() lost 15 of 20 pinned
  /// BM_SkSearchQuery pairs against the inlined loop.
  bool PopFinalizedWithin(double delta_t, SkResult* out);

  ObjectIndex* index_;
  const double delta_max_;
  std::vector<TermId> terms_;

  QueryContext* ctx_;
  SkSearchScratch* s_;  // = &ctx_->sk_search
  NetworkExpansion expansion_;

  bool terminated_ = false;
  Status status_;
  Stats stats_;
};

inline bool IncrementalSkSearch::PopFinalizedWithin(double delta_t,
                                                    SkResult* out) {
  while (!s_->object_heap.empty()) {
    const auto [d, id] = s_->object_heap.top();
    SkObjectState* st = s_->object_state.find(id);
    DSKS_DCHECK(st != nullptr);
    if (st->emitted || d != st->best) {
      s_->object_heap.pop();  // stale or duplicate entry
      continue;
    }
    if (d > delta_t) {
      return false;  // might still improve through an unsettled node
    }
    s_->object_heap.pop();
    st->emitted = true;
    if (d > delta_max_) {
      continue;  // final but outside the search range
    }
    ++stats_.objects_emitted;
    out->id = id;
    out->edge = st->edge;
    out->n1 = st->n1;
    out->n2 = st->n2;
    out->w1 = st->w1;
    out->edge_weight = st->edge_weight;
    out->dist = d;
    return true;
  }
  return false;
}

}  // namespace dsks

#endif  // DSKS_CORE_SK_SEARCH_H_
