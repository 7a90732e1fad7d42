#ifndef DSKS_INDEX_POSTING_FILE_H_
#define DSKS_INDEX_POSTING_FILE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/types.h"
#include "storage/buffer_pool.h"

namespace dsks {

/// Storage for inverted-file posting runs, written once by the constructor
/// and read-only after that. A *run* is the list of postings of one
/// (keyword, edge) pair: every object on that edge that contains the
/// keyword, ordered by position along the edge. The per-keyword B+trees
/// (§3.1) map edges to run locators in this file.
///
/// Runs are packed back to back; a run may span consecutive pages.
class PostingFile {
 public:
  /// One posting: the object, its rank along the edge (the visiting order
  /// used by the §3.3 partitioning), and its cost offset w(n1, o) from the
  /// edge's reference node. w(n2, o) is edge_weight - w1.
  struct Entry {
    ObjectId object = kInvalidObjectId;
    uint16_t pos = 0;
    double w1 = 0.0;
  };

  /// Opaque run locator: packs (first page, first slot, entry count).
  using Locator = uint64_t;

  /// Writes every run of `runs` (each 1 to 65535 entries) and stores
  /// their locators, in order, in `*locators`. Each page is composed in
  /// memory and written once, straight to `pool->disk()`; a failed write
  /// CHECK-fails (a build runs on a fault-free disk by contract). A run
  /// that does not fit the rest of the current page starts on a fresh one,
  /// and its pages are allocated back to back, so no other allocation on
  /// the disk may interleave with this call.
  PostingFile(BufferPool* pool, std::span<const std::span<const Entry>> runs,
              std::vector<Locator>* locators);

  PostingFile(const PostingFile&) = delete;
  PostingFile& operator=(const PostingFile&) = delete;
  PostingFile(PostingFile&&) = default;

  /// Reads a whole run into `out` (cleared first). On a disk error `out`
  /// holds the entries read so far; discard it.
  Status ReadRun(Locator locator, std::vector<Entry>* out) const;

  /// Best-effort speculative read of several runs' pages as one batched
  /// request, so subsequent ReadRun calls hit the pool instead of paying
  /// one blocking miss per run. A run's page extent is fully determined by
  /// its locator, so no I/O is needed to plan the batch. Failures are
  /// dropped (never surfaced); the later ReadRun reports them.
  void PrefetchRuns(std::span<const Locator> locators) const;

  /// Number of entries in a run without reading it.
  static uint32_t RunLength(Locator locator);

  uint64_t num_pages() const { return num_pages_; }
  uint64_t num_entries() const { return num_entries_; }

  /// Entries that fit on one 4 KiB page.
  static size_t EntriesPerPage();

 private:
  BufferPool* pool_;
  uint64_t num_pages_ = 0;
  uint64_t num_entries_ = 0;
};

}  // namespace dsks

#endif  // DSKS_INDEX_POSTING_FILE_H_
