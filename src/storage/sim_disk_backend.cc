#include "storage/sim_disk_backend.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/macros.h"

namespace dsks {

namespace {

void SpinForMicros(double us) {
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::nanoseconds(
                                    static_cast<int64_t>(us * 1000.0));
  while (std::chrono::steady_clock::now() < deadline) {
    // busy wait: simulated device latency
  }
}

}  // namespace

PageId SimDiskBackend::AllocatePage() {
  auto page = std::make_unique<char[]>(kPageSize);
  std::memset(page.get(), 0, kPageSize);
  const uint32_t zero_crc = ZeroPageCrc();
  std::lock_guard<std::mutex> lock(mutex_);
  pages_.push_back(std::move(page));
  checksums_.push_back(zero_crc);
  return static_cast<PageId>(pages_.size() - 1);
}

void SimDiskBackend::WaitReadDelay() const {
  const double delay = read_delay_us_.load(std::memory_order_relaxed);
  if (delay <= 0.0) {
    return;
  }
  if (read_delay_yields_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(delay));
  } else {
    SpinForMicros(delay);
  }
}

void SimDiskBackend::ReadPages(std::span<PageReadRequest> batch) {
  if (batch.empty()) {
    return;
  }
  // One simulated device round trip for the whole batch: this latency
  // discount is exactly what batched I/O buys on a real disk.
  WaitReadDelay();
  // Page blocks are resolved under the mutex (pages_ may reallocate) and
  // copied outside it, so concurrent reads overlap; a request without an
  // `out` borrows the block itself. Resolving a fixed-size chunk at a time
  // keeps every read allocation-free.
  constexpr size_t kChunk = 16;
  const char* srcs[kChunk];
  for (size_t begin = 0; begin < batch.size(); begin += kChunk) {
    const std::span<PageReadRequest> chunk =
        batch.subspan(begin, std::min(kChunk, batch.size() - begin));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (size_t i = 0; i < chunk.size(); ++i) {
        DSKS_CHECK_MSG(chunk[i].id < pages_.size(),
                       "read of unallocated page");
        srcs[i] = pages_[chunk[i].id].get();
        chunk[i].expected_crc = checksums_[chunk[i].id];
      }
    }
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (chunk[i].out == nullptr) {
        chunk[i].data = srcs[i];
      } else {
        std::memcpy(chunk[i].out, srcs[i], kPageSize);
        chunk[i].data = chunk[i].out;
      }
      chunk[i].status = Status::Ok();
    }
  }
}

Status SimDiskBackend::WritePage(PageId id, const char* in, uint32_t crc) {
  char* dst;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DSKS_CHECK_MSG(id < pages_.size(), "write of unallocated page");
    dst = pages_[id].get();
    checksums_[id] = crc;
  }
  std::memcpy(dst, in, kPageSize);
  return Status::Ok();
}

Status SimDiskBackend::TruncatePages(size_t new_num_pages) {
  std::lock_guard<std::mutex> lock(mutex_);
  DSKS_CHECK_MSG(new_num_pages <= pages_.size(),
                 "truncate beyond the allocation watermark");
  pages_.resize(new_num_pages);
  checksums_.resize(new_num_pages);
  return Status::Ok();
}

void SimDiskBackend::CorruptStoredPage(PageId id, uint32_t bit_index) {
  std::lock_guard<std::mutex> lock(mutex_);
  DSKS_CHECK_MSG(id < pages_.size(), "corrupt of unallocated page");
  DSKS_CHECK_MSG(bit_index < kPageSize * 8, "bit index out of page");
  pages_[id][bit_index / 8] ^= static_cast<char>(1u << (bit_index % 8));
}

size_t SimDiskBackend::num_pages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pages_.size();
}

}  // namespace dsks
