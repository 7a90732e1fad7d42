#ifndef DSKS_INDEX_SIF_H_
#define DSKS_INDEX_SIF_H_

#include <memory>
#include <string>

#include "index/inverted_file.h"
#include "index/kd_edge_order.h"
#include "index/posting_file.h"
#include "index/signature.h"

namespace dsks {

/// SIF — the signature-based inverted file of §3.1: IF plus an in-memory
/// per-keyword edge signature. An edge is skipped with zero I/O as soon as
/// one query keyword's signature bit is 0, which removes most of IF's
/// false hits under AND semantics.
class SifIndex : public InvertedFileIndex {
 public:
  /// `min_postings`: keywords whose inverted file fits below this posting
  /// count get no signature (the paper's one-page rule by default).
  SifIndex(BufferPool* pool, const ObjectSet& objects, size_t vocab_size,
           size_t min_postings = PostingFile::EntriesPerPage());

  std::string name() const override { return "SIF"; }

  const SignatureFile& signature() const { return *signature_; }
  const KdEdgeOrder& kd_order() const { return *kd_order_; }

 protected:
  bool CheckSignature(EdgeId edge, std::span<const TermId> terms,
                      std::vector<PosRange>* ranges) override;

  uint64_t SummarySizeBytes() const override {
    return signature_->SizeBytes();
  }

 private:
  /// Builds the IF into `runs`, then the signature from those run edges;
  /// the public constructor passes a temporary, freed once this returns.
  SifIndex(BufferPool* pool, const ObjectSet& objects, size_t vocab_size,
           size_t min_postings, RunEdges&& runs);

  std::unique_ptr<KdEdgeOrder> kd_order_;
  std::unique_ptr<SignatureFile> signature_;
};

}  // namespace dsks

#endif  // DSKS_INDEX_SIF_H_
