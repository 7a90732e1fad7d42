#ifndef DSKS_STORAGE_FILE_DISK_BACKEND_H_
#define DSKS_STORAGE_FILE_DISK_BACKEND_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/disk_backend.h"

namespace dsks {

/// Pages in one real file, accessed with pread/pwrite at page-id ×
/// kPageSize offsets. Checksums are persisted in a `<path>.crc` sidecar:
/// a fixed header carrying the page-allocation watermark followed by one
/// CRC32C per page. Flush() rewrites the sidecar, trims the data file to
/// the watermark, and fsyncs both — an index is durable (and reopenable
/// with OpenExisting) only after a Flush; the destructor deliberately
/// closes without flushing so a crash between write and flush leaves the
/// stale sidecar that checksum verification then catches.
///
/// O_DIRECT is best effort: if open(2) rejects the flag (tmpfs), the
/// backend silently falls back to buffered I/O. When active, transfers go
/// through a per-thread page-aligned bounce buffer so callers keep using
/// ordinary heap frames.
///
/// errno mapping (the PR-4 contract): pread/pwrite failure → IOError;
/// a short read inside the allocated range (torn/truncated file) →
/// Corruption. Reads of pages past the physical end but inside the
/// watermark return zeros, matching ZeroPageCrc for never-written pages.
///
/// Thread safety: the checksum array and watermark are mutex-guarded;
/// pread/pwrite themselves are atomic at the syscall level and the buffer
/// pool never issues concurrent same-page read/write, so file I/O runs
/// outside the mutex.
class FileDiskBackend : public DiskBackend {
 public:
  /// Creates (truncates) `options.path` and its sidecar. Any error is
  /// returned, not thrown; `*out` is set only on Ok.
  static Status Create(const DiskOptions& options,
                       std::unique_ptr<FileDiskBackend>* out);

  /// Opens an existing index file pair written by a prior Flush(). Fails
  /// with Corruption when the sidecar is missing, malformed (short header
  /// or wrong magic), or holds fewer checksum entries than its header's
  /// page count — checked against the sidecar's size before anything is
  /// sized from that count. The data file's size is not checked: a page
  /// past its physical end reads back as zeros, and its checksum then
  /// reports the damage on the first read.
  static Status Open(const DiskOptions& options,
                     std::unique_ptr<FileDiskBackend>* out);

  ~FileDiskBackend() override;

  FileDiskBackend(const FileDiskBackend&) = delete;
  FileDiskBackend& operator=(const FileDiskBackend&) = delete;

  PageId AllocatePage() override;
  /// Requests whose page ids form contiguous ascending runs are merged
  /// into single preadv calls (scattering straight into the callers'
  /// buffers, or through one aligned run buffer under O_DIRECT); a run of
  /// one page is a plain PreadPage. Any page a vectored call could not
  /// fully serve falls back to PreadPage, so a page's status does not
  /// depend on its batch mates.
  void ReadPages(std::span<PageReadRequest> batch) override;
  Status WritePage(PageId id, const char* in, uint32_t crc) override;
  Status TruncatePages(size_t new_num_pages) override;
  Status Flush() override;
  void CorruptStoredPage(PageId id, uint32_t bit_index) override;
  size_t num_pages() const override;

  const std::string& path() const { return path_; }
  /// Whether O_DIRECT actually took (false after the tmpfs fallback).
  bool o_direct_active() const { return o_direct_; }

  /// CRC sidecar entries rewritten by all Flush() calls so far. A flush
  /// after writing W pages rewrites O(W) entries, not O(all pages); the
  /// flush-cost regression test pins this down.
  uint64_t crc_entries_rewritten() const;

 private:
  FileDiskBackend(std::string path, int data_fd, int crc_fd, bool o_direct);

  /// Raw positioned I/O with EINTR/partial-transfer loops. Short reads
  /// inside [0, physical size) become Corruption; reads past the physical
  /// end zero-fill (unwritten allocated pages).
  Status PreadPage(PageId id, char* out);
  Status PwritePage(PageId id, const char* in);

  /// Reads `n` physically contiguous pages (run[0].id .. run[0].id+n-1)
  /// with one vectored call, falling back to PreadPage for any page the
  /// vectored call did not fully deliver. Fills each request's status.
  void ReadContiguousRun(PageReadRequest* run, size_t n);

  const std::string path_;
  const std::string crc_path_;
  int data_fd_;
  int crc_fd_;
  bool o_direct_;

  mutable std::mutex mutex_;
  /// In-memory copy of the sidecar CRCs; Flush() persists the entries
  /// dirtied since the last flush (plus the header).
  std::vector<uint32_t> checksums_;
  /// Per-entry dirty bits for the sidecar: set by AllocatePage/WritePage/
  /// TruncatePages, cleared by a successful Flush. `dirty_crc_count_`
  /// caches the number of set bits so Flush can skip a full scan when the
  /// sidecar is clean.
  std::vector<bool> crc_dirty_;
  size_t dirty_crc_count_ = 0;
  /// Cumulative sidecar entries rewritten by Flush (see accessor).
  uint64_t crc_entries_rewritten_ = 0;
  /// Pages the data file is physically sized for; grown in chunks so
  /// AllocatePage is O(1) amortised (ftruncate'd zeros read back as the
  /// zero page, matching the checksum recorded at allocation).
  size_t physical_pages_ = 0;
};

}  // namespace dsks

#endif  // DSKS_STORAGE_FILE_DISK_BACKEND_H_
