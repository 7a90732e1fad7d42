#ifndef DSKS_INDEX_SIF_GROUP_H_
#define DSKS_INDEX_SIF_GROUP_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "index/sif.h"

namespace dsks {

/// SIF-G, the group-based alternative evaluated in Fig. 9: on top of SIF,
/// every pair of the top-x most frequent keywords acts as a combined term
/// whose "inverted list" keeps only the edges carrying an object that
/// contains *both* keywords. A query containing such a pair can skip any
/// edge absent from the pair's list.
///
/// The pair lists are much larger than SIF-P's signatures (the paper
/// grants SIF-G 10x the space and it still loses), which this class's
/// SizeBytes() makes visible.
class SifGroupIndex : public SifIndex {
 public:
  /// `num_frequent_terms`: x, the number of top-frequency keywords whose
  /// pairwise combinations are indexed.
  SifGroupIndex(BufferPool* pool, const ObjectSet& objects, size_t vocab_size,
                size_t num_frequent_terms,
                size_t min_postings = PostingFile::EntriesPerPage());

  std::string name() const override { return "SIF-G"; }

  /// Bytes occupied by the pairwise inverted lists alone.
  uint64_t pair_list_bytes() const { return pair_bytes_; }

  /// Size the pair lists *would* take for a given x, without building the
  /// index. Used by the Fig. 9 harness to pick x for a space budget.
  static uint64_t EstimatePairListBytes(const ObjectSet& objects,
                                        size_t vocab_size,
                                        size_t num_frequent_terms);

  size_t num_indexed_pairs() const { return pair_edges_.size(); }

 protected:
  bool CheckSignature(EdgeId edge, std::span<const TermId> terms,
                      std::vector<PosRange>* ranges) override;

  uint64_t SummarySizeBytes() const override {
    return SifIndex::SummarySizeBytes() + pair_bytes_;
  }

 private:
  static uint64_t PairKey(TermId a, TermId b) {
    return (static_cast<uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
  }

  /// Terms in the frequent set (sorted for binary search).
  std::vector<TermId> frequent_terms_;
  /// pair key -> sorted edge ids containing an object with both terms.
  std::unordered_map<uint64_t, std::vector<EdgeId>> pair_edges_;
  uint64_t pair_bytes_ = 0;
};

}  // namespace dsks

#endif  // DSKS_INDEX_SIF_GROUP_H_
