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

  // Each signed keyword's edges, each once: edges are walked in id order,
  // so a keyword's repeats on one edge are consecutive. One pass counts
  // them per keyword, and the prefix sums cut one array into the
  // keywords' lists; a second pass fills it.
  std::vector<EdgeId> last_edge(vocab_size, kInvalidEdgeId);
  auto for_each_signed_edge = [&](auto&& fn) {
    for (EdgeId e = 0; e < net.num_edges(); ++e) {
      for (ObjectId id : objects.ObjectsOnEdge(e)) {
        for (TermId t : objects.object(id).terms) {
          if (posting_count[t] >= min_postings && last_edge[t] != e) {
            last_edge[t] = e;
            fn(t, e);
          }
        }
      }
    }
  };
  offsets_.assign(vocab_size + 1, 0);
  for_each_signed_edge([&](TermId t, EdgeId) { ++offsets_[t + 1]; });
  for (TermId t = 0; t < vocab_size; ++t) {
    offsets_[t + 1] += offsets_[t];
  }
  positions_.resize(offsets_[vocab_size]);
  std::vector<size_t> next(offsets_.begin(), offsets_.end() - 1);
  std::fill(last_edge.begin(), last_edge.end(), kInvalidEdgeId);
  for_each_signed_edge([&](TermId t, EdgeId e) {
    positions_[next[t]++] = order.PositionOf(e);
  });
  for (TermId t = 0; t < vocab_size; ++t) {
    std::sort(positions_.begin() + offsets_[t],
              positions_.begin() + offsets_[t + 1]);
    if (HasSignature(t)) {
      size_bytes_ += (order.CompactedTrieNodes(PositionsOf(t)) + 7) / 8;
    }
  }
}

bool SignatureFile::Test(EdgeId e, TermId t) const {
  if (t >= offsets_.size() - 1) {
    return false;
  }
  const std::span<const uint32_t> v = PositionsOf(t);
  if (v.empty()) {
    return true;  // no signature built for this keyword
  }
  return std::binary_search(v.begin(), v.end(), order_->PositionOf(e));
}

}  // namespace dsks
