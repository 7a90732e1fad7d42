#include "index/signature.h"

#include <algorithm>

#include "common/macros.h"

namespace dsks {

SignatureFile::SignatureFile(std::span<const EdgeId> run_edges,
                             std::span<const size_t> run_offsets,
                             std::span<const uint64_t> posting_count,
                             const KdEdgeOrder& order, size_t min_postings)
    : order_(&order) {
  const size_t vocab_size = posting_count.size();
  DSKS_CHECK(run_offsets.size() == vocab_size + 1);
  // Each signed keyword's list is its run edges' KD positions, sorted; an
  // unsigned keyword's list is empty.
  auto is_signed = [&](TermId t) { return posting_count[t] >= min_postings; };
  offsets_.assign(vocab_size + 1, 0);
  for (TermId t = 0; t < vocab_size; ++t) {
    offsets_[t + 1] =
        offsets_[t] +
        (is_signed(t) ? run_offsets[t + 1] - run_offsets[t] : size_t{0});
  }
  positions_.resize(offsets_[vocab_size]);
  for (TermId t = 0; t < vocab_size; ++t) {
    if (!is_signed(t)) {
      continue;
    }
    auto out = positions_.begin() + offsets_[t];
    for (size_t run = run_offsets[t]; run < run_offsets[t + 1]; ++run) {
      *out++ = order.PositionOf(run_edges[run]);
    }
    std::sort(positions_.begin() + offsets_[t], out);
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
