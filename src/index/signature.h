#ifndef DSKS_INDEX_SIGNATURE_H_
#define DSKS_INDEX_SIGNATURE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"
#include "index/kd_edge_order.h"

namespace dsks {

/// The in-memory signature file of §3.1: for each keyword t, the set of
/// edges that carry at least one object containing t (I(e,t) = 1). The
/// signature test lets the SK search skip an edge — with zero I/O — as
/// soon as one query keyword's bit is 0.
///
/// Each keyword's bit vector is stored as the sorted list of KD positions
/// of its 1-edges (an exact, lossless encoding); SizeBytes() reports the
/// size of the equivalent compacted KD-trie, which is what the paper's
/// index-size figures measure.
///
/// Following the paper, no signature is built for a keyword whose whole
/// inverted file fits into one data page (`min_postings`); Test() returns
/// true for such keywords.
class SignatureFile {
 public:
  /// Keyword t's edges, each once, are run_edges[run_offsets[t]] ..
  /// run_edges[run_offsets[t + 1] - 1]: the IF build's posting runs
  /// (InvertedFileIndex::RunEdges). `posting_count[t]` is keyword t's
  /// total postings; its size is the vocabulary's. `min_postings`:
  /// keywords with fewer total postings than this get no signature
  /// (pass-through). The paper's rule corresponds to the posting capacity
  /// of one page.
  SignatureFile(std::span<const EdgeId> run_edges,
                std::span<const size_t> run_offsets,
                std::span<const uint64_t> posting_count,
                const KdEdgeOrder& order, size_t min_postings);

  /// I(e, t): true if edge `e` may contain an object with keyword `t`
  /// (exact for signed keywords, always true for unsigned ones). A term
  /// outside the vocabulary is carried by no object: false on every edge.
  bool Test(EdgeId e, TermId t) const;

  /// True if keyword `t` has a signature (its bit vector is materialized).
  bool HasSignature(TermId t) const { return !PositionsOf(t).empty(); }

  /// Compacted signature size over all keywords (one bit per trie node).
  uint64_t SizeBytes() const { return size_bytes_; }

  const KdEdgeOrder& order() const { return *order_; }

 private:
  /// Keyword `t`'s slice of positions_; `t` must be in the vocabulary.
  std::span<const uint32_t> PositionsOf(TermId t) const {
    return std::span<const uint32_t>(positions_)
        .subspan(offsets_[t], offsets_[t + 1] - offsets_[t]);
  }

  const KdEdgeOrder* order_;
  /// Keyword after keyword, the sorted KD positions of the edges that carry
  /// the keyword, each edge once; keyword t's list is the slice
  /// [offsets_[t], offsets_[t + 1]), empty for keywords below
  /// `min_postings` (treated as all-ones).
  std::vector<uint32_t> positions_;
  std::vector<size_t> offsets_;  // vocab_size + 1 entries
  uint64_t size_bytes_ = 0;
};

}  // namespace dsks

#endif  // DSKS_INDEX_SIGNATURE_H_
