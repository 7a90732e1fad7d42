#ifndef DSKS_INDEX_SIF_PARTITIONED_H_
#define DSKS_INDEX_SIF_PARTITIONED_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "index/partition.h"
#include "index/sif.h"

namespace dsks {

/// Configuration of the SIF-P partitioning pass.
struct SifPConfig {
  /// Maximum cuts per partitioned edge (3 in the paper's default setup).
  size_t max_cuts = 3;

  /// Only the edges whose object count ranks in this top fraction are
  /// partitioned (top 10% in §5).
  double heavy_edge_fraction = 0.10;

  /// Produces the training query log for one edge, given the sorted term
  /// sets of the edge's objects in visiting order. Implementations cover
  /// the paper's SIF-P-Real / SIF-P-Freq / SIF-P-Rand variants (Fig. 10);
  /// see index/query_log.h.
  std::function<std::vector<LogQuery>(
      EdgeId, std::span<const std::vector<TermId>>)>
      log_provider;
};

/// SIF-P (§3.3): SIF enhanced by splitting the object sequence of heavy
/// edges into virtual edges with their own signatures, trained against a
/// query log to minimize the false-hit cost ξ(Q, P).
class SifPartitionedIndex : public SifIndex {
 public:
  SifPartitionedIndex(BufferPool* pool, const ObjectSet& objects,
                      size_t vocab_size, const SifPConfig& config,
                      size_t min_postings = PostingFile::EntriesPerPage());

  std::string name() const override { return "SIF-P"; }

  size_t num_partitioned_edges() const { return partitions_.size(); }

  /// Milliseconds spent computing partitions (reported by the Fig. 6(b)
  /// construction-time comparison).
  double partition_build_millis() const { return partition_build_millis_; }

 protected:
  bool CheckSignature(EdgeId edge, std::span<const TermId> terms,
                      std::vector<PosRange>* ranges) override;

  uint64_t SummarySizeBytes() const override;

 private:
  struct PartitionedEdge {
    EdgePartition partition;
    /// Number of objects on the edge.
    uint16_t num_objects = 0;
    /// Sorted union of terms per virtual edge.
    std::vector<std::vector<TermId>> ve_terms;
  };

  std::unordered_map<EdgeId, PartitionedEdge> partitions_;
  uint64_t partition_bytes_ = 0;
  double partition_build_millis_ = 0.0;
};

}  // namespace dsks

#endif  // DSKS_INDEX_SIF_PARTITIONED_H_
