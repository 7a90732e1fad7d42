#ifndef DSKS_GRAPH_CCAM_H_
#define DSKS_GRAPH_CCAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/road_network.h"
#include "graph/types.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace dsks {

/// Disk-resident road network in the style of the connectivity-clustered
/// access method (CCAM, §2.2): nodes are ordered by the Z-order code of
/// their locations and their adjacency lists are packed into 4 KiB pages in
/// that order, so that a network expansion touching spatially close nodes
/// exhibits page-access locality. (The paper additionally refines groups by
/// recursive two-way partitioning; Z-order packing preserves the property
/// the experiments depend on — locality of adjacent lists — and keeps the
/// build deterministic.)
///
/// Build once with CcamFileBuilder, then read through CcamGraph which
/// charges every adjacency-list load to the shared buffer pool.
class CcamFile {
 public:
  CcamFile() = default;

  CcamFile(const CcamFile&) = delete;
  CcamFile& operator=(const CcamFile&) = delete;
  CcamFile(CcamFile&&) = default;
  CcamFile& operator=(CcamFile&&) = default;

  /// Page holding node `id`'s adjacency list.
  PageId PageOfNode(NodeId id) const { return node_page_[id]; }

  /// Byte offset of node `id`'s record within its page.
  uint16_t OffsetOfNode(NodeId id) const { return node_offset_[id]; }

  size_t num_pages() const { return num_pages_; }
  size_t num_nodes() const { return node_page_.size(); }
  uint64_t size_bytes() const { return uint64_t{num_pages_} * kPageSize; }

 private:
  friend class CcamFileBuilder;

  /// node id -> page containing its adjacency record. The directory is an
  /// in-memory array (4 bytes/node), the usual arrangement for CCAM.
  std::vector<PageId> node_page_;
  /// node id -> byte offset of its record in that page, recorded at build
  /// time next to the page directory so that a lookup needs no scan over
  /// the page's other records (the page itself is still fetched through
  /// the buffer pool — the I/O cost model is unchanged).
  std::vector<uint16_t> node_offset_;
  size_t num_pages_ = 0;
};

/// Node-to-page placement policy for the CCAM file.
enum class CcamPlacement {
  /// Pack adjacency lists in Z-order of the node locations (default).
  kZOrder,
  /// Z-order packing followed by connectivity refinement passes that move
  /// nodes toward the page holding most of their neighbours — the spirit
  /// of CCAM's two-way partitioning [18].
  kZOrderRefined,
  /// Random packing; the ablation baseline showing what the clustering
  /// buys.
  kRandom,
};

/// Serializes a RoadNetwork into CCAM pages on a DiskManager.
class CcamFileBuilder {
 public:
  /// Packs all adjacency lists. The builder writes pages directly through
  /// the disk manager (construction I/O is not part of query measurements).
  static CcamFile Build(const RoadNetwork& net, DiskManager* disk,
                        CcamPlacement placement = CcamPlacement::kZOrder);
};

/// Fraction of edges whose two endpoints live on the same CCAM page — the
/// locality metric the placement policies optimize (akin to CCAM's
/// connectivity residue ratio).
double CcamConnectivityRatio(const RoadNetwork& net, const CcamFile& file);

/// Query-time view of a CCAM file: adjacency lists are fetched through the
/// buffer pool, so each cold access costs one page read (the C_G term of
/// the cost model in §3.2).
class CcamGraph {
 public:
  CcamGraph(const CcamFile* file, BufferPool* pool)
      : file_(file), pool_(pool) {}

  /// Appends node `id`'s adjacency list to `out` (cleared first).
  /// Propagates disk errors (IOError/Corruption) from the page fetch and
  /// reports a malformed node record as Corruption; `out` is empty on a
  /// non-OK return.
  Status GetAdjacency(NodeId id, std::vector<AdjacentEdge>* out) const;

  /// Best-effort readahead of the CCAM pages holding these nodes'
  /// adjacency records. NetworkExpansion calls this with a sample of its
  /// frontier so Dijkstra's next settlements find their pages resident.
  /// Purely speculative: failures are dropped by the pool and never reach
  /// a query, and results are bit-identical with or without it.
  void PrefetchNodes(std::span<const NodeId> nodes) const;

  size_t num_nodes() const { return file_->num_nodes(); }

 private:
  const CcamFile* file_;
  BufferPool* pool_;
};

}  // namespace dsks

#endif  // DSKS_GRAPH_CCAM_H_
