#ifndef DSKS_CORE_QUERY_H_
#define DSKS_CORE_QUERY_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "graph/dijkstra.h"
#include "graph/types.h"

namespace dsks {

/// A boolean spatial keyword query on a road network (Definition 1): find
/// the objects within network distance `delta_max` of `loc` that contain
/// every keyword in `terms`.
struct SkQuery {
  NetworkLocation loc;
  /// Sorted, distinct query keywords (q.T).
  std::vector<TermId> terms;
  /// Maximal network distance δmax of the search.
  double delta_max = 0.0;
};

/// A diversified spatial keyword query (Definition 2): among the SK query
/// results, pick `k` objects maximizing the bi-criteria objective f(S)
/// with relevance weight `lambda`.
struct DivQuery {
  SkQuery sk;
  size_t k = 10;
  double lambda = 0.8;
};

/// Validates and canonicalizes a client-supplied SK query in place: terms
/// are sorted and deduplicated; empty terms, a non-positive or non-finite
/// delta_max, a negative offset, or an invalid edge id yield
/// InvalidArgument. The search constructors CHECK these invariants, so
/// every API boundary (Database, CLI) must funnel untrusted queries
/// through here first. Edge-id range checks against a concrete network
/// are the boundary's own job (it knows the network; this function
/// doesn't).
Status NormalizeSkQuery(SkQuery* query);

/// The largest k a diversified query may ask for. Above it the pairwise
/// work grows as k² (EvaluateObjective alone holds a k × k matrix) for
/// answers no client reads: the query service lists at most 1024 objects
/// by default, and the paper and every in-tree caller use k <= 20.
inline constexpr size_t kMaxDivK = 1024;

/// NormalizeSkQuery plus the diversified knobs: k in [1, kMaxDivK] and
/// lambda in [0, 1].
Status NormalizeDivQuery(DivQuery* query);

/// An object produced by the SK search, with everything downstream
/// consumers need: its network distance from the query and its position on
/// its edge (for pairwise network-distance computation).
struct SkResult {
  ObjectId id = kInvalidObjectId;
  EdgeId edge = kInvalidEdgeId;
  /// Endpoints of the object's edge; n1 is the reference node (n1 < n2).
  NodeId n1 = kInvalidNodeId;
  NodeId n2 = kInvalidNodeId;
  /// Cost from the edge's reference node n1 to the object.
  double w1 = 0.0;
  /// Total cost w(n1, n2) of the object's edge.
  double edge_weight = 0.0;
  /// δ(q, o).
  double dist = 0.0;
};

}  // namespace dsks

#endif  // DSKS_CORE_QUERY_H_
