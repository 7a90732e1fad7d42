#include "index/inverted_rtree.h"

#include <algorithm>

#include "common/macros.h"

namespace dsks {

InvertedRTreeIndex::InvertedRTreeIndex(BufferPool* pool,
                                       const ObjectSet& objects,
                                       size_t vocab_size)
    : pool_(pool), objects_meta_(&objects) {
  // Group object points by keyword, then bulk load one R-tree per keyword.
  // Each keyword's list is sized exactly from a counting pass.
  std::vector<size_t> term_count(vocab_size, 0);
  for (const auto& obj : objects.objects()) {
    for (TermId t : obj.terms) {
      ++term_count[t];
    }
  }
  std::vector<std::vector<RTree::Entry>> per_term(vocab_size);
  for (TermId t = 0; t < vocab_size; ++t) {
    per_term[t].reserve(term_count[t]);
  }
  for (const auto& obj : objects.objects()) {
    for (TermId t : obj.terms) {
      per_term[t].push_back(RTree::Entry{Mbr::FromPoint(obj.loc), obj.id});
    }
  }
  term_trees_.resize(vocab_size);
  for (TermId t = 0; t < vocab_size; ++t) {
    if (per_term[t].empty()) {
      continue;
    }
    term_trees_[t] =
        std::make_unique<RTree>(RTree::BulkLoad(pool_, std::move(per_term[t])));
    rtree_pages_ += term_trees_[t]->num_pages();
  }
  object_file_ = std::make_unique<ObjectFile>(pool_, objects);
}

Status InvertedRTreeIndex::LoadObjects(EdgeId edge,
                                       std::span<const TermId> terms,
                                       std::vector<LoadedObject>* out) {
  out->clear();
  DSKS_CHECK_MSG(!terms.empty(), "query must have at least one keyword");
  ++stats_.edges_probed;

  const Mbr edge_mbr = objects_meta_->network().EdgeMbr(edge);
  uint64_t loaded_here = 0;

  // Range-search each keyword's tree with the edge MBR and intersect the
  // candidate object ids.
  std::vector<ObjectId> candidates;
  bool first = true;
  for (TermId t : terms) {
    if (TermTree(t) == nullptr) {
      candidates.clear();
      break;
    }
    std::vector<ObjectId> found;
    DSKS_RETURN_IF_ERROR(TermTree(t)->RangeSearch(
        edge_mbr, [&found](const Mbr&, uint64_t id) {
          found.push_back(static_cast<ObjectId>(id));
          return true;
        }));
    std::sort(found.begin(), found.end());
    if (first) {
      candidates = std::move(found);
      first = false;
    } else {
      std::vector<ObjectId> merged;
      std::set_intersection(candidates.begin(), candidates.end(),
                            found.begin(), found.end(),
                            std::back_inserter(merged));
      candidates = std::move(merged);
    }
    if (candidates.empty()) {
      break;
    }
  }

  // Verify each surviving candidate against the object file: it must lie
  // on the probed edge (MBR hits from other edges are IR's false hits).
  for (ObjectId id : candidates) {
    ObjectFile::Record rec;
    DSKS_RETURN_IF_ERROR(object_file_->Get(id, &rec));
    ++loaded_here;
    if (rec.edge == edge) {
      out->push_back(LoadedObject{id, rec.pos, rec.w1});
    }
  }
  std::sort(out->begin(), out->end(),
            [](const LoadedObject& a, const LoadedObject& b) {
              return a.pos < b.pos;
            });

  stats_.objects_loaded += loaded_here;
  if (out->empty()) {
    if (loaded_here > 0) {
      ++stats_.false_hits;
      stats_.false_hit_objects += loaded_here;
    }
    return Status::Ok();
  }
  stats_.objects_returned += out->size();
  return Status::Ok();
}

Status InvertedRTreeIndex::EuclideanCandidates(const Point& center,
                                               double radius,
                                               std::span<const TermId> terms,
                                               std::vector<ObjectId>* out) {
  out->clear();
  DSKS_CHECK_MSG(!terms.empty(), "query must have at least one keyword");
  const Mbr box = Mbr::FromPoints({center.x - radius, center.y - radius},
                                  {center.x + radius, center.y + radius});
  bool first = true;
  for (TermId t : terms) {
    if (TermTree(t) == nullptr) {
      out->clear();
      return Status::Ok();
    }
    std::vector<ObjectId> found;
    DSKS_RETURN_IF_ERROR(TermTree(t)->RangeSearch(
        box, [&found, &center, radius](const Mbr& mbr, uint64_t id) {
          if (mbr.MinDistance(center) <= radius) {
            found.push_back(static_cast<ObjectId>(id));
          }
          return true;
        }));
    std::sort(found.begin(), found.end());
    if (first) {
      *out = std::move(found);
      first = false;
    } else {
      std::vector<ObjectId> merged;
      std::set_intersection(out->begin(), out->end(), found.begin(),
                            found.end(), std::back_inserter(merged));
      *out = std::move(merged);
    }
    if (out->empty()) {
      return Status::Ok();
    }
  }
  return Status::Ok();
}

uint64_t InvertedRTreeIndex::SizeBytes() const {
  return (rtree_pages_ + object_file_->num_pages()) * kPageSize;
}

}  // namespace dsks
