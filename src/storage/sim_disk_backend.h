#ifndef DSKS_STORAGE_SIM_DISK_BACKEND_H_
#define DSKS_STORAGE_SIM_DISK_BACKEND_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/disk_backend.h"

namespace dsks {

/// In-memory simulation of a disk: a flat, growable array of 4 KiB pages
/// addressed by PageId. Each page image is its own heap block, so its
/// address is stable while the array grows, and a read with no `out`
/// borrows it instead of copying it: a buffer pool over this disk holds
/// each resident page once. A miss still costs in proportion to I/O
/// volume: DiskManager verifies every byte it reads against the page's
/// checksum, and the simulated latency is charged per read.
///
/// The simulated per-read latency knobs live here because they model a
/// device this backend replaces; the file backend has a real device and
/// the knobs are documented no-ops there (see DiskManager).
///
/// Thread safety: the page directory is guarded by a mutex; the 4 KiB copy
/// (and the simulated latency wait) happens outside it, so reads of
/// distinct pages proceed in parallel. A lent page is only ever read.
class SimDiskBackend : public DiskBackend {
 public:
  SimDiskBackend() = default;

  PageId AllocatePage() override;
  /// The simulated latency is charged once for the whole batch — the
  /// model of a single vectored device request — then the pages are
  /// resolved under the mutex and copied (or lent) outside it, without
  /// allocating.
  void ReadPages(std::span<PageReadRequest> batch) override;
  bool lends_pages() const override { return true; }
  Status WritePage(PageId id, const char* in, uint32_t crc) override;
  Status TruncatePages(size_t new_num_pages) override;
  Status Flush() override { return Status::Ok(); }
  void CorruptStoredPage(PageId id, uint32_t bit_index) override;
  size_t num_pages() const override;

  /// Simulated read latency in microseconds, charged once per ReadPages
  /// call (a single-page read is a batch of one). A call reads the knob
  /// when it starts, so a change affects only reads that start after it.
  void set_read_delay_us(double us) {
    read_delay_us_.store(us, std::memory_order_relaxed);
  }
  double read_delay_us() const {
    return read_delay_us_.load(std::memory_order_relaxed);
  }

  /// How the simulated latency passes: busy-wait (precise,
  /// scheduler-independent) or sleep (frees the core like a real blocking
  /// read, used by the concurrent harness).
  void set_read_delay_yields(bool yields) {
    read_delay_yields_.store(yields, std::memory_order_relaxed);
  }
  bool read_delay_yields() const {
    return read_delay_yields_.load(std::memory_order_relaxed);
  }

 private:
  /// Waits out one simulated device round trip (nothing when the delay is
  /// 0), spinning or sleeping per read_delay_yields.
  void WaitReadDelay() const;

  mutable std::mutex mutex_;
  /// The unique_ptr array may reallocate on growth, but the page blocks
  /// themselves are stable, so a pointer resolved under the mutex stays
  /// valid for the out-of-lock copy and for as long as it is lent (pages
  /// are only freed by TruncatePages, whose caller guarantees that nothing
  /// reads the dropped range any more).
  std::vector<std::unique_ptr<char[]>> pages_;
  /// CRC32C of each page image, kept out-of-line so page layout (and thus
  /// every on-disk structure) is unchanged by checksumming.
  std::vector<uint32_t> checksums_;
  std::atomic<double> read_delay_us_{0.0};
  std::atomic<bool> read_delay_yields_{false};
};

}  // namespace dsks

#endif  // DSKS_STORAGE_SIM_DISK_BACKEND_H_
