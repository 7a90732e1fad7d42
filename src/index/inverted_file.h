#ifndef DSKS_INDEX_INVERTED_FILE_H_
#define DSKS_INDEX_INVERTED_FILE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "btree/bplus_tree.h"
#include "graph/object_set.h"
#include "index/object_index.h"
#include "index/posting_file.h"
#include "storage/buffer_pool.h"

namespace dsks {

/// The IF index of §3.1: for each keyword, the objects containing it are
/// kept with their edges in a B+tree whose key is the Z-order code of the
/// edge's center point (disambiguated by edge id in the low 32 bits);
/// leaf values locate posting runs in a shared PostingFile.
///
/// LoadObjects (Algorithm 2) fetches each query keyword's posting run for
/// the edge and intersects them; it stops as soon as an intermediate
/// intersection is empty. Subclasses (SIF/SIF-P/SIF-G) override
/// CheckSignature to skip edges — or restrict position ranges — before any
/// I/O happens.
class InvertedFileIndex : public ObjectIndex {
 public:
  InvertedFileIndex(BufferPool* pool, const ObjectSet& objects,
                    size_t vocab_size)
      : InvertedFileIndex(pool, objects, vocab_size, nullptr) {}

  Status LoadObjects(EdgeId edge, std::span<const TermId> terms,
                     std::vector<LoadedObject>* out) override;

  uint64_t SizeBytes() const override;

  std::string name() const override { return "IF"; }

  /// B+tree key of an edge: Z-order code of its center in the high 32
  /// bits, edge id in the low 32 bits.
  static uint64_t EdgeKey(uint64_t zcode, EdgeId edge) {
    return (zcode << 32) | edge;
  }

  /// Total postings of keyword `t` (for the one-page signature rule and
  /// SIF-G's frequent-term selection).
  uint64_t PostingCount(TermId t) const { return posting_count_[t]; }

  /// Bytes of the in-memory summaries (signatures, partitions, pair
  /// lists) on top of the disk-resident inverted file. The space axis of
  /// the Fig. 9 comparison.
  uint64_t InMemorySummaryBytes() const { return SummarySizeBytes(); }

  size_t vocab_size() const { return posting_count_.size(); }

 protected:
  /// The edges of the build's posting runs (a run is one keyword's
  /// postings on one edge), keyword after keyword: keyword t's runs lie on
  /// edges[offsets[t]] .. edges[offsets[t + 1] - 1] in increasing edge id,
  /// each edge once. So they are exactly §3.1's edges with I(e, t) = 1.
  struct RunEdges {
    std::vector<EdgeId> edges;
    std::vector<size_t> offsets;  // vocab_size + 1 entries
  };

  /// Builds the index; with `run_edges`, the build's run edges move there
  /// instead of being freed (SIF reads its signature off them).
  InvertedFileIndex(BufferPool* pool, const ObjectSet& objects,
                    size_t vocab_size, RunEdges* run_edges);

  /// Every keyword's posting count, indexed by term id.
  std::span<const uint64_t> posting_counts() const { return posting_count_; }

  /// A contiguous run of object positions on an edge that survived the
  /// signature tests; objects outside every range are not reported.
  struct PosRange {
    uint16_t start = 0;
    uint16_t end = 0;  // exclusive
  };

  /// Signature hook, evaluated before any I/O. Returns false to skip the
  /// edge entirely. If it returns true and fills `ranges`, only postings
  /// whose position lies in one of the ranges count as loaded (SIF-P's
  /// virtual edges); an empty `ranges` means the whole edge.
  virtual bool CheckSignature(EdgeId edge, std::span<const TermId> terms,
                              std::vector<PosRange>* ranges) {
    (void)edge;
    (void)terms;
    (void)ranges;
    return true;
  }

  /// Sizes of in-memory summaries added by subclasses.
  virtual uint64_t SummarySizeBytes() const { return 0; }

  BufferPool* pool_;

 private:
  /// Fetches the posting run of (term, edge); `*loc` is nullopt if absent,
  /// including for a term outside the vocabulary. Counts one probe I/O
  /// path through the B+tree.
  Status FindRun(TermId t, EdgeId edge,
                 std::optional<PostingFile::Locator>* loc) const;

  std::unique_ptr<PostingFile> postings_;
  /// Per-keyword B+tree roots (kInvalidPageId when the keyword is unused).
  std::vector<PageId> term_roots_;
  std::vector<uint64_t> posting_count_;
  /// Z-order code (32-bit) of each edge's center, precomputed.
  std::vector<uint64_t> edge_zcode_;
  uint64_t btree_pages_ = 0;
  uint64_t directory_bytes_ = 0;
};

}  // namespace dsks

#endif  // DSKS_INDEX_INVERTED_FILE_H_
