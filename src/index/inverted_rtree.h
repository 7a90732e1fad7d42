#ifndef DSKS_INDEX_INVERTED_RTREE_H_
#define DSKS_INDEX_INVERTED_RTREE_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/object_set.h"
#include "index/object_file.h"
#include "index/object_index.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"

namespace dsks {

/// IR — the inverted R-tree baseline (§5, [23]): one R-tree per keyword
/// over the locations of the objects containing it, plus an object file
/// for verification. It is "a natural extension of the spatial object
/// indexing method in [16]" and the slowest method in Fig. 6 because its
/// construction is independent of the road network: probing an edge
/// requires a Euclidean range search per keyword and then a record fetch
/// per surviving candidate to check that the object actually lies on the
/// probed edge.
class InvertedRTreeIndex : public ObjectIndex {
 public:
  InvertedRTreeIndex(BufferPool* pool, const ObjectSet& objects,
                     size_t vocab_size);

  Status LoadObjects(EdgeId edge, std::span<const TermId> terms,
                     std::vector<LoadedObject>* out) override;

  uint64_t SizeBytes() const override;

  std::string name() const override { return "IR"; }

  /// Euclidean candidate retrieval for the filter-and-refine baseline
  /// (core/euclidean_baseline.h): ids of objects within Euclidean
  /// distance `radius` of `center` containing every term, sorted by id.
  Status EuclideanCandidates(const Point& center, double radius,
                             std::span<const TermId> terms,
                             std::vector<ObjectId>* out);

  /// Object record lookup (charged as I/O), for candidate verification.
  Status GetRecord(ObjectId id, ObjectFile::Record* out) const {
    return object_file_->Get(id, out);
  }

 private:
  /// Keyword `t`'s R-tree; null when no object carries `t`, including
  /// every term outside the vocabulary.
  const RTree* TermTree(TermId t) const {
    return t < term_trees_.size() ? term_trees_[t].get() : nullptr;
  }

  BufferPool* pool_;
  const ObjectSet* objects_meta_;  // for edge MBRs only
  std::vector<std::unique_ptr<RTree>> term_trees_;
  std::unique_ptr<ObjectFile> object_file_;
  uint64_t rtree_pages_ = 0;
};

}  // namespace dsks

#endif  // DSKS_INDEX_INVERTED_RTREE_H_
