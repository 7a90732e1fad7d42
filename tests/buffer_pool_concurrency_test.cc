// Multi-threaded stress tests for the latched buffer pool. Run under
// -DDSKS_SANITIZE=thread (tools/check.sh) to prove the absence of data
// races; the assertions here additionally pin down the logical invariants
// (correct contents under eviction pressure, one read per miss, overflow
// draining).
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage_test_util.h"

namespace dsks {
namespace {

/// Checks that `data` holds page `id` as FillPages wrote it on a fresh
/// disk.
void ExpectFilled(PageId id, const char* data) {
  for (size_t i = 0; i < 64; ++i) {
    ASSERT_EQ(data[i], dsks::testing::FillByte(id))
        << "page " << id << " offset " << i;
  }
}

// N threads x M iterations of Fetch/verify/Unpin over a pool much smaller
// than the page set, so evictions and re-reads happen constantly.
TEST(BufferPoolConcurrencyTest, RandomFetchUnpinStress) {
  dsks::testing::TestDisk disk;
  constexpr size_t kSeedPages = 64;
  constexpr size_t kThreads = 8;
  constexpr size_t kIters = 2000;
  dsks::testing::FillPages(disk.get(), kSeedPages);
  BufferPool pool(disk.get(), 8);

  std::atomic<uint64_t> verified{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &verified, t] {
      Random rng(1234 + t);
      for (size_t i = 0; i < kIters; ++i) {
        const auto id = static_cast<PageId>(rng.Uniform(kSeedPages));
        const char* data = dsks::testing::MustFetch(&pool, id);
        ExpectFilled(id, data);
        pool.UnpinPage(id, false);
        verified.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(verified.load(), kThreads * kIters);

  // Stats are relaxed counters but must still balance: every miss did
  // exactly one disk read, and the pool wrote nothing back.
  EXPECT_EQ(pool.stats().misses.load(), disk->stats().reads.load());
  EXPECT_EQ(disk->stats().writes.load(), kSeedPages);
}

// All threads pin simultaneously so the pinned set exceeds capacity: every
// fetch must succeed (overflow frames), and the pool must drain back to
// its target once the pins are released.
TEST(BufferPoolConcurrencyTest, ConcurrentPinOverflowDrains) {
  dsks::testing::TestDisk disk;
  constexpr size_t kThreads = 8;
  constexpr size_t kCapacity = 4;
  dsks::testing::FillPages(disk.get(), kThreads);
  BufferPool pool(disk.get(), kCapacity);

  std::atomic<size_t> pinned{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &pinned, t] {
      const auto id = static_cast<PageId>(t);
      const char* data = dsks::testing::MustFetch(&pool, id);
      ASSERT_NE(data, nullptr);
      pinned.fetch_add(1);
      // Hold the pin until every thread has one, forcing > capacity pins.
      while (pinned.load() < kThreads) {
        std::this_thread::yield();
      }
      // Every pinned frame still holds its own page.
      ExpectFilled(id, data);
      pool.UnpinPage(id, false);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_LE(pool.num_frames_in_use(), kCapacity);
}

// Concurrent misses on the same cold page: exactly one thread performs the
// disk read (the others wait on the in-flight frame), and all observe the
// same contents.
TEST(BufferPoolConcurrencyTest, ConcurrentMissesOnSamePageReadOnce) {
  dsks::testing::TestDisk disk;
  const PageId page = dsks::testing::FillPages(disk.get(), 1);

  BufferPool pool(disk.get(), 4);
  constexpr size_t kThreads = 8;
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &ready, page] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
        std::this_thread::yield();
      }
      const char* data = dsks::testing::MustFetch(&pool, page);
      ExpectFilled(page, data);
      pool.UnpinPage(page, false);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // The page stayed resident throughout, so it was read exactly once.
  EXPECT_EQ(disk->stats().reads.load(), 1u);
  EXPECT_EQ(pool.stats().misses.load(), 1u);
  EXPECT_EQ(pool.stats().hits.load(), kThreads - 1);
}

// FetchPages reaching a page that another thread is reading must wait for
// that read, and must not sleep through its wakeup when the read completes
// while FetchPages has the latch released for a read of its own. A lost
// wakeup hangs here; the suite's ctest TIMEOUT turns that into a failure.
// Second round: the other thread's read fails, so FetchPages must read the
// page itself.
TEST(BufferPoolConcurrencyTest, FetchPagesWaitsForAnotherThreadsRead) {
  for (const bool fail_other_read : {false, true}) {
    SCOPED_TRACE(fail_other_read ? "other read faults" : "other read ok");
    // The sim backend: its delay knobs are no-ops on the file backend.
    DiskManager disk;
    const PageId p = dsks::testing::FillPages(&disk, 2);
    const PageId q = p + 1;
    if (fail_other_read) {
      disk.fault_injector()->FailPageReads(p, 1);
    }
    disk.set_read_delay_yields(true);
    disk.set_read_delay_us(100e3);
    BufferPool pool(&disk, 4);

    Status other_status;
    std::thread other([&pool, &other_status, p] {
      char* data = nullptr;
      other_status = pool.FetchPage(p, &data);
      if (other_status.ok()) {
        pool.UnpinPage(p, /*dirty=*/false);
      }
    });
    // p's miss is counted when its frame is claimed, just before its read
    // starts.
    while (pool.stats().misses.load() < 1) {
      std::this_thread::yield();
    }
    // Each read takes its delay when it starts, so the read of q below
    // outlasts the other thread's read of p: p is published (or dropped)
    // while FetchPages has the latch released.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    disk.set_read_delay_us(400e3);
    const PageId ids[] = {q, p};
    char* outs[] = {nullptr, nullptr};
    const Status status = pool.FetchPages(ids, outs);
    other.join();
    ASSERT_TRUE(status.ok()) << status.ToString();
    ExpectFilled(q, outs[0]);
    ExpectFilled(p, outs[1]);
    pool.UnpinPage(q, /*dirty=*/false);
    pool.UnpinPage(p, /*dirty=*/false);
    EXPECT_EQ(disk.stats().reads.load(), 2u);
    if (fail_other_read) {
      EXPECT_TRUE(other_status.IsIOError()) << other_status.ToString();
      EXPECT_EQ(disk.stats().read_faults.load(), 1u);
    } else {
      EXPECT_TRUE(other_status.ok()) << other_status.ToString();
      EXPECT_EQ(disk.stats().read_faults.load(), 0u);
    }
  }
}

}  // namespace
}  // namespace dsks
