#ifndef DSKS_GRAPH_OBJECT_SET_H_
#define DSKS_GRAPH_OBJECT_SET_H_

#include <initializer_list>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/road_network.h"
#include "graph/types.h"

namespace dsks {

/// The collection of spatio-textual objects lying on a road network's
/// edges. This is the ground-truth object store that every index (IR, IF,
/// SIF, SIF-P, SIF-G) is built from and that reference implementations in
/// tests scan directly.
///
/// Usage: Add() objects, then Finalize() to build the per-edge lists (each
/// sorted by offset along the edge, matching the visiting order used by the
/// partitioning technique of §3.3).
///
/// Every object's term ids live in one flat array, object after object, and
/// each object's `terms` span views its slice. The array only moves inside
/// ReallocateTerms(), which re-points every span, so a span stays valid
/// across Add, Reserve, Finalize and a move of the set.
class ObjectSet {
 public:
  explicit ObjectSet(const RoadNetwork* network) : network_(network) {}

  ObjectSet(const ObjectSet&) = delete;
  ObjectSet& operator=(const ObjectSet&) = delete;
  ObjectSet(ObjectSet&&) = default;
  ObjectSet& operator=(ObjectSet&&) = default;

  /// Adds an object lying on `edge` at geometric offset `offset` from the
  /// reference node. Its keywords are `terms`, stored sorted and
  /// deduplicated; `terms` must not view this set's own term array. The
  /// object's location is derived from the edge geometry.
  Status Add(EdgeId edge, double offset, std::span<const TermId> terms,
             ObjectId* out_id);
  Status Add(EdgeId edge, double offset, std::initializer_list<TermId> terms,
             ObjectId* out_id) {
    return Add(edge, offset,
               std::span<const TermId>(terms.begin(), terms.size()), out_id);
  }

  /// Room for `num_objects` objects holding `num_terms` term ids in all, so
  /// that Add reallocates neither array until they are exceeded.
  void Reserve(size_t num_objects, size_t num_terms);

  /// Builds the per-edge lists, trims both arrays to their size and
  /// returns the freed heap to the system (ReturnFreedHeap).
  void Finalize();
  bool finalized() const { return finalized_; }

  size_t size() const { return objects_.size(); }
  const SpatioTextualObject& object(ObjectId id) const { return objects_[id]; }
  const std::vector<SpatioTextualObject>& objects() const { return objects_; }

  /// Objects on `edge`, ordered by offset from the reference node.
  std::span<const ObjectId> ObjectsOnEdge(EdgeId edge) const;

  /// Every object, edge by edge in id order: ObjectsOnEdge(0), then
  /// ObjectsOnEdge(1), and so on, in one span.
  std::span<const ObjectId> ObjectsInEdgeOrder() const {
    return edge_objects_;
  }

  /// True iff object `id` contains term `t` (binary search over its sorted
  /// term list).
  bool ObjectHasTerm(ObjectId id, TermId t) const;

  /// True iff object `id` contains every term in `terms` (the boolean AND
  /// keyword constraint of Definition 1).
  bool ObjectHasAllTerms(ObjectId id, std::span<const TermId> terms) const;

  /// Total number of (object, term) pairs; the inverted-file posting count.
  uint64_t TotalTermOccurrences() const { return terms_.size(); }

  const RoadNetwork& network() const { return *network_; }

 private:
  /// Moves the term array into a buffer of `capacity` ids and re-points
  /// every object's span at its slice there.
  void ReallocateTerms(size_t capacity);

  const RoadNetwork* network_;
  std::vector<SpatioTextualObject> objects_;
  /// Every object's sorted term ids, object after object.
  std::vector<TermId> terms_;
  /// CSR: ids of objects on each edge, sorted by offset.
  std::vector<ObjectId> edge_objects_;
  std::vector<uint32_t> edge_offsets_;
  bool finalized_ = false;
};

}  // namespace dsks

#endif  // DSKS_GRAPH_OBJECT_SET_H_
