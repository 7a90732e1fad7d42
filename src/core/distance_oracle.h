#ifndef DSKS_CORE_DISTANCE_ORACLE_H_
#define DSKS_CORE_DISTANCE_ORACLE_H_

#include <cstdint>

#include "common/flat_containers.h"
#include "common/status.h"
#include "core/network_expansion.h"
#include "core/query.h"
#include "core/query_context.h"
#include "core/sk_search.h"
#include "graph/ccam.h"
#include "graph/types.h"

namespace dsks {

/// How the oracle obtains pairwise distances.
enum class OracleStrategy {
  /// One radius-bounded Dijkstra from the *query* location builds a shared
  /// node->distance field once; pairwise probes are answered from it as
  /// offset-corrected views whenever the shortest-path tree certifies the
  /// value exact (see DESIGN.md), and only uncertifiable sources fall back
  /// to a per-object bounded Dijkstra.
  kSharedExpansion,
  /// One bounded Dijkstra per source object (the original scheme). Kept as
  /// the reference for equivalence tests and before/after benchmarks.
  kPerObjectDijkstra,
};

/// Counters of one oracle instance (one diversified query).
struct OracleStats {
  /// Per-object bounded Dijkstra expansions (eager or fallback). This is
  /// the paper's expensive operation; the shared strategy exists to shrink
  /// it.
  uint64_t fields_computed = 0;
  /// Shared expansions run (0 or 1 per query).
  uint64_t shared_expansions = 0;
  /// Distinct pairs whose distance was actually computed (memoized
  /// Distance() hits are not re-counted).
  uint64_t pairs_evaluated = 0;
  /// Pairs answered exactly from the shared field, no per-object work.
  uint64_t pairs_shared_exact = 0;
};

/// Computes pairwise network distances between SK results, the expensive
/// ingredient of the diversification objective ("the pairwise network
/// distance computation on road networks is cost expensive", §1).
///
/// Under kPerObjectDijkstra each source object runs one bounded Dijkstra
/// over the CCAM file (radius = 2·δmax, an upper bound on the distance
/// between any two objects in the query range) and caches the resulting
/// distance field; a pairwise distance is then two hash lookups plus
/// Equation 1. Under kSharedExpansion (Database's default) most pairs are
/// instead answered from a single expansion shared across all objects —
/// call SetQueryEdge() with the query's edge to enable it. The traversal
/// I/O is charged to the buffer pool like any other access either way.
///
/// δ(a,b) is always evaluated from the canonical side — the object with the
/// smaller (dist, id) — so that it is bit-identical to δ(b,a) and
/// independent of evaluation history; near-tied greedy choices therefore
/// cannot diverge between SEQ and COM.
class PairwiseDistanceOracle {
 public:
  /// `radius` bounds each expansion; pass 2·δmax. All state lives in
  /// `ctx`: next to a live SK search on the same context (a diversified
  /// query), the oracle shares that query's adjacency memo.
  PairwiseDistanceOracle(const CcamGraph* graph, double radius,
                         OracleStrategy strategy, QueryContext* ctx);
  ~PairwiseDistanceOracle();

  PairwiseDistanceOracle(const PairwiseDistanceOracle&) = delete;
  PairwiseDistanceOracle& operator=(const PairwiseDistanceOracle&) = delete;

  /// Tells the oracle where the query sits, enabling the shared expansion
  /// (its seeds must match the SK search's so that settled distances agree
  /// bit-for-bit). Without it kSharedExpansion degrades gracefully to lazy
  /// per-object fields.
  void SetQueryEdge(const QueryEdgeInfo& query_edge);

  /// δ(a, b), exact whenever it does not exceed the radius; otherwise the
  /// radius itself is returned (the largest value the objective can see).
  /// Memoized per pair for the lifetime of the query.
  double Distance(const SkResult& a, const SkResult& b);

  /// Cheap upper bound on Distance(a, b): the path through the query
  /// (δ(q,a) + δ(q,b)), the same-edge direct path, and the radius cap.
  /// Callers use it to skip exact evaluations that cannot beat a running
  /// maximum — the Objective's θ is monotone in the pairwise distance, so
  /// θ(ub) bounds θ(exact) from above. Pure function of the pair; computes
  /// nothing and never triggers a field.
  double DistanceUpperBound(const SkResult& a, const SkResult& b) const;

  /// kPerObjectDijkstra: computes (or re-uses) the distance field of `a`
  /// eagerly, so the cost lands on the arriving object (COM calls it on
  /// arrival). kSharedExpansion: no-op — fields are built lazily only for
  /// sources the shared pass cannot certify.
  void EnsureField(const SkResult& a);

  /// First storage error hit by any expansion (OK while healthy). On error
  /// expansions stop early, so Distance() degrades to its radius-capped
  /// upper bound; callers must check this before trusting the objective.
  const Status& status() const { return status_; }

  uint64_t fields_computed() const { return stats_.fields_computed; }
  const OracleStats& stats() const { return stats_; }
  OracleStrategy strategy() const { return strategy_; }

 private:
  using FieldMap = FlatHashMap<NodeId, double>;

  /// Bounded per-object Dijkstra into a pooled field map.
  FieldMap& FieldOf(const SkResult& a);

  /// Runs the shared expansion and labels the shortest-path forest's
  /// subtrees for certification.
  void BuildSharedField();

  /// Attempts to answer δ(a,b) (a canonical) exactly from the shared
  /// field. `best` holds the candidates that need no field (radius cap,
  /// the walk through q and the same-edge direct path) on entry and the
  /// answer on a true return.
  bool TrySharedExact(const SkResult& a, const SkResult& b, double* best);

  /// True iff local settle index `anc` is an ancestor of `node` in the
  /// shared shortest-path tree (inclusive).
  bool IsAncestor(uint32_t anc, uint32_t node) const {
    return o_->slot[anc] <= o_->slot[node] &&
           o_->slot[node] < o_->slot[anc] + o_->subtree_size[anc];
  }

  const CcamGraph* graph_;
  const double radius_;
  const OracleStrategy strategy_;

  QueryContext* ctx_;
  OracleScratch* o_;  // = &ctx_->oracle
  NetworkExpansion shared_;  // over o_->shared; read by every later probe
  NetworkExpansion field_;   // over o_->field; one per-object field at a time

  QueryEdgeInfo query_edge_;
  bool has_query_edge_ = false;
  bool shared_ready_ = false;

  Status status_;
  OracleStats stats_;
};

}  // namespace dsks

#endif  // DSKS_CORE_DISTANCE_ORACLE_H_
