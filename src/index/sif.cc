#include "index/sif.h"

namespace dsks {

SifIndex::SifIndex(BufferPool* pool, const ObjectSet& objects,
                   size_t vocab_size, size_t min_postings)
    : SifIndex(pool, objects, vocab_size, min_postings, RunEdges()) {}

SifIndex::SifIndex(BufferPool* pool, const ObjectSet& objects,
                   size_t vocab_size, size_t min_postings, RunEdges&& runs)
    : InvertedFileIndex(pool, objects, vocab_size, &runs),
      kd_order_(std::make_unique<KdEdgeOrder>(objects.network())),
      signature_(std::make_unique<SignatureFile>(
          runs.edges, runs.offsets, posting_counts(), *kd_order_,
          min_postings)) {}

bool SifIndex::CheckSignature(EdgeId edge, std::span<const TermId> terms,
                              std::vector<PosRange>* ranges) {
  (void)ranges;
  for (TermId t : terms) {
    if (!signature_->Test(edge, t)) {
      return false;
    }
  }
  return true;
}

}  // namespace dsks
