#include "index/signature.h"

#include <algorithm>

namespace dsks {

SignatureFile::SignatureFile(const ObjectSet& objects,
                             const KdEdgeOrder& order, size_t vocab_size,
                             size_t min_postings)
    : order_(&order) {
  const RoadNetwork& net = objects.network();
  std::vector<uint64_t> posting_count(vocab_size, 0);
  for (const auto& obj : objects.objects()) {
    for (TermId t : obj.terms) {
      ++posting_count[t];
    }
  }

  positions_.assign(vocab_size, {});
  for (EdgeId e = 0; e < net.num_edges(); ++e) {
    const uint32_t pos = order.PositionOf(e);
    for (ObjectId id : objects.ObjectsOnEdge(e)) {
      for (TermId t : objects.object(id).terms) {
        if (posting_count[t] >= min_postings) {
          positions_[t].push_back(pos);
        }
      }
    }
  }
  for (TermId t = 0; t < vocab_size; ++t) {
    auto& v = positions_[t];
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    if (!v.empty()) {
      size_bytes_ = size_bytes_ + (order.CompactedTrieNodes(v) + 7) / 8;
    }
  }
}

bool SignatureFile::Test(EdgeId e, TermId t) const {
  if (t >= positions_.size()) {
    return false;
  }
  const auto& v = positions_[t];
  if (v.empty()) {
    return true;  // no signature built for this keyword
  }
  return std::binary_search(v.begin(), v.end(), order_->PositionOf(e));
}

}  // namespace dsks
