#include "graph/object_set.h"

#include <algorithm>
#include <utility>

#include "common/heap.h"
#include "common/macros.h"

namespace dsks {

Status ObjectSet::Add(EdgeId edge, double offset,
                      std::span<const TermId> terms, ObjectId* out_id) {
  DSKS_CHECK_MSG(!finalized_, "Add after Finalize");
  if (edge >= network_->num_edges()) {
    return Status::InvalidArgument("object on unknown edge");
  }
  const Edge& e = network_->edge(edge);
  if (offset < 0.0 || offset > e.length) {
    return Status::InvalidArgument("object offset outside edge");
  }
  if (terms.empty()) {
    return Status::InvalidArgument("object must have at least one keyword");
  }
  const size_t begin = terms_.size();
  if (begin + terms.size() > terms_.capacity()) {
    ReallocateTerms(std::max(begin + terms.size(), 2 * terms_.capacity()));
  }
  terms_.insert(terms_.end(), terms.begin(), terms.end());
  std::sort(terms_.begin() + begin, terms_.end());
  terms_.erase(std::unique(terms_.begin() + begin, terms_.end()),
               terms_.end());

  SpatioTextualObject obj;
  obj.id = static_cast<ObjectId>(objects_.size());
  obj.edge = edge;
  obj.offset = offset;
  obj.loc = network_->PointOnEdge(edge, offset);
  obj.terms = std::span<const TermId>(terms_).subspan(begin);
  objects_.push_back(obj);
  if (out_id != nullptr) {
    *out_id = obj.id;
  }
  return Status::Ok();
}

void ObjectSet::Reserve(size_t num_objects, size_t num_terms) {
  DSKS_CHECK_MSG(!finalized_, "Reserve after Finalize");
  objects_.reserve(num_objects);
  if (num_terms > terms_.capacity()) {
    ReallocateTerms(num_terms);
  }
}

void ObjectSet::ReallocateTerms(size_t capacity) {
  std::vector<TermId> moved;
  moved.reserve(capacity);
  moved.assign(terms_.begin(), terms_.end());
  for (SpatioTextualObject& obj : objects_) {
    obj.terms = std::span<const TermId>(moved).subspan(
        static_cast<size_t>(obj.terms.data() - terms_.data()),
        obj.terms.size());
  }
  terms_ = std::move(moved);
}

void ObjectSet::Finalize() {
  DSKS_CHECK_MSG(!finalized_, "Finalize called twice");
  objects_.shrink_to_fit();
  if (terms_.capacity() > terms_.size()) {
    ReallocateTerms(terms_.size());
  }
  const size_t num_edges = network_->num_edges();
  std::vector<uint32_t> counts(num_edges + 1, 0);
  for (const auto& obj : objects_) {
    ++counts[obj.edge];
  }
  edge_offsets_.assign(num_edges + 1, 0);
  for (size_t e = 0; e < num_edges; ++e) {
    edge_offsets_[e + 1] = edge_offsets_[e] + counts[e];
  }
  // Within each edge, order by offset from the reference node (the
  // "visiting order along the edge" of §3.3), ties by id: sorted as
  // (offset, id) pairs, so the sort reads no object.
  std::vector<std::pair<double, ObjectId>> by_offset(objects_.size());
  std::vector<uint32_t> cursor(edge_offsets_.begin(), edge_offsets_.end() - 1);
  for (const auto& obj : objects_) {
    by_offset[cursor[obj.edge]++] = {obj.offset, obj.id};
  }
  edge_objects_.resize(objects_.size());
  for (size_t e = 0; e < num_edges; ++e) {
    std::sort(by_offset.begin() + edge_offsets_[e],
              by_offset.begin() + edge_offsets_[e + 1]);
  }
  for (size_t i = 0; i < by_offset.size(); ++i) {
    edge_objects_[i] = by_offset[i].second;
  }
  finalized_ = true;
  // The sort pairs and the term array's spare capacity (a Reserve bound,
  // or growth by doubling) are far more than the set keeps; without this,
  // glibc keeps them resident until something else trims.
  by_offset = std::vector<std::pair<double, ObjectId>>();
  ReturnFreedHeap();
}

std::span<const ObjectId> ObjectSet::ObjectsOnEdge(EdgeId edge) const {
  DSKS_CHECK_MSG(finalized_, "ObjectsOnEdge before Finalize");
  DSKS_CHECK(edge < network_->num_edges());
  return {edge_objects_.data() + edge_offsets_[edge],
          edge_objects_.data() + edge_offsets_[edge + 1]};
}

bool ObjectSet::ObjectHasTerm(ObjectId id, TermId t) const {
  const std::span<const TermId> terms = objects_[id].terms;
  return std::binary_search(terms.begin(), terms.end(), t);
}

bool ObjectSet::ObjectHasAllTerms(ObjectId id,
                                  std::span<const TermId> terms) const {
  for (TermId t : terms) {
    if (!ObjectHasTerm(id, t)) {
      return false;
    }
  }
  return true;
}

}  // namespace dsks
