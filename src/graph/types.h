#ifndef DSKS_GRAPH_TYPES_H_
#define DSKS_GRAPH_TYPES_H_

#include <cstdint>
#include <span>

#include "spatial/point.h"

namespace dsks {

using NodeId = uint32_t;
using EdgeId = uint32_t;
using ObjectId = uint32_t;
using TermId = uint32_t;

inline constexpr NodeId kInvalidNodeId = UINT32_MAX;
inline constexpr EdgeId kInvalidEdgeId = UINT32_MAX;
inline constexpr ObjectId kInvalidObjectId = UINT32_MAX;
inline constexpr TermId kInvalidTermId = UINT32_MAX;

/// A road intersection.
struct Node {
  Point loc;
};

/// A bi-directional road segment between two intersections. Following the
/// paper (§2.1), the end-node with the smaller id (`n1`) is the *reference
/// node* of the edge; object offsets are measured from it. `weight` is the
/// traversal cost (distance or travel time) and `length` the geometric
/// length; the cost of a prefix of the edge is proportional to its length.
struct Edge {
  NodeId n1 = kInvalidNodeId;
  NodeId n2 = kInvalidNodeId;
  double weight = 0.0;
  double length = 0.0;
};

/// A spatio-textual object: a location on some edge plus a set of keywords
/// (term ids into a Vocabulary), kept sorted for O(log n) membership tests.
/// `terms` views the owning ObjectSet's flat term array.
struct SpatioTextualObject {
  ObjectId id = kInvalidObjectId;
  EdgeId edge = kInvalidEdgeId;
  /// Geometric distance from the reference node n1 along the edge,
  /// in [0, edge.length].
  double offset = 0.0;
  Point loc;
  std::span<const TermId> terms;
};

/// One entry of a node's adjacency list.
struct AdjacentEdge {
  NodeId neighbor = kInvalidNodeId;
  EdgeId edge = kInvalidEdgeId;
  double weight = 0.0;
};

}  // namespace dsks

#endif  // DSKS_GRAPH_TYPES_H_
