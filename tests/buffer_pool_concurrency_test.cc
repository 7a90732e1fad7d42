// Multi-threaded stress tests for the latched buffer pool. Run under
// -DDSKS_SANITIZE=thread (tools/check.sh) to prove the absence of data
// races; the assertions here additionally pin down the logical invariants
// (no lost writes, correct contents under eviction pressure, overflow
// draining).
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage_test_util.h"

namespace dsks {
namespace {

/// Deterministic byte pattern for page `id`.
char PatternByte(PageId id, size_t offset) {
  return static_cast<char>((id * 131 + offset * 7 + 3) & 0xFF);
}

void FillPattern(PageId id, char* data) {
  for (size_t i = 0; i < 64; ++i) {
    data[i] = PatternByte(id, i);
  }
}

void ExpectPattern(PageId id, const char* data) {
  for (size_t i = 0; i < 64; ++i) {
    ASSERT_EQ(data[i], PatternByte(id, i)) << "page " << id << " offset " << i;
  }
}

// N threads x M iterations of Fetch(read-only verify)/Unpin over a pool
// much smaller than the page set, so evictions and re-reads happen
// constantly. Writers only touch pages they created themselves (the pool
// latches its metadata, not page contents — see the header).
TEST(BufferPoolConcurrencyTest, RandomFetchUnpinNewStress) {
  dsks::testing::TestDisk disk;
  constexpr size_t kSeedPages = 64;
  constexpr size_t kThreads = 8;
  constexpr size_t kIters = 2000;

  std::vector<PageId> seeded(kSeedPages);
  BufferPool pool(disk.get(), 8);
  for (size_t i = 0; i < kSeedPages; ++i) {
    char* data = pool.NewPage(&seeded[i]);
    FillPattern(seeded[i], data);
    pool.UnpinPage(seeded[i], /*dirty=*/true);
  }
  pool.FlushAll();
  pool.Clear();

  std::atomic<uint64_t> verified{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &disk, &seeded, &verified, t] {
      Random rng(1234 + t);
      std::vector<PageId> mine;
      for (size_t i = 0; i < kIters; ++i) {
        const uint64_t dice = rng.Uniform(10);
        if (dice < 8) {
          // Read-only fetch of a shared seeded page; verify its pattern.
          const PageId id = seeded[rng.Uniform(kSeedPages)];
          const char* data = dsks::testing::MustFetch(&pool, id);
          ExpectPattern(id, data);
          pool.UnpinPage(id, false);
          verified.fetch_add(1, std::memory_order_relaxed);
        } else if (dice == 8 || mine.empty()) {
          // Create a private page and stamp it (single writer per page).
          PageId id;
          char* data = pool.NewPage(&id);
          FillPattern(id, data);
          pool.UnpinPage(id, /*dirty=*/true);
          mine.push_back(id);
        } else {
          // Re-fetch one of our own pages and verify it round-tripped
          // through eviction/write-back.
          const PageId id = mine[rng.Uniform(mine.size())];
          const char* data = dsks::testing::MustFetch(&pool, id);
          ExpectPattern(id, data);
          pool.UnpinPage(id, false);
          verified.fetch_add(1, std::memory_order_relaxed);
        }
      }
      (void)disk;
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_GT(verified.load(), 0u);

  // Stats are relaxed counters but must still balance: every miss did
  // exactly one disk read (checked before the verification reads below).
  EXPECT_EQ(pool.stats().misses.load(), disk->stats().reads.load());

  // Every page — seeded or thread-created — must carry its pattern after a
  // final flush, proving no write-back was lost under concurrency.
  pool.FlushAll();
  char out[kPageSize];
  for (PageId id = 0; id < disk->num_pages(); ++id) {
    disk->ReadPage(id, out);
    ExpectPattern(id, out);
  }
}

// All threads pin simultaneously so the pinned set exceeds capacity: every
// fetch must succeed (overflow frames), and the pool must drain back to
// its target once the pins are released.
TEST(BufferPoolConcurrencyTest, ConcurrentPinOverflowDrains) {
  dsks::testing::TestDisk disk;
  constexpr size_t kThreads = 8;
  constexpr size_t kCapacity = 4;
  std::vector<PageId> pages(kThreads);
  for (PageId& p : pages) p = disk->AllocatePage();
  BufferPool pool(disk.get(), kCapacity);

  std::atomic<size_t> pinned{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &pages, &pinned, t] {
      char* data = dsks::testing::MustFetch(&pool, pages[t]);
      ASSERT_NE(data, nullptr);
      pinned.fetch_add(1);
      // Hold the pin until every thread has one, forcing > capacity pins.
      while (pinned.load() < kThreads) {
        std::this_thread::yield();
      }
      data[0] = static_cast<char>(t);
      pool.UnpinPage(pages[t], /*dirty=*/true);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_LE(pool.num_frames_in_use(), kCapacity);
  pool.FlushAll();
  char out[kPageSize];
  for (size_t t = 0; t < kThreads; ++t) {
    disk->ReadPage(pages[t], out);
    EXPECT_EQ(out[0], static_cast<char>(t));
  }
}

// Concurrent misses on the same cold page: exactly one thread performs the
// disk read (the others wait on the in-flight frame), and all observe the
// same contents.
TEST(BufferPoolConcurrencyTest, ConcurrentMissesOnSamePageReadOnce) {
  dsks::testing::TestDisk disk;
  const PageId page = disk->AllocatePage();
  {
    BufferPool seeder(disk.get(), 2);
    char* data = dsks::testing::MustFetch(&seeder, page);
    FillPattern(page, data);
    seeder.UnpinPage(page, /*dirty=*/true);
    seeder.FlushAll();
  }
  disk->mutable_stats()->Reset();

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
      ExpectPattern(page, data);
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
    const PageId p = disk.AllocatePage();
    const PageId q = disk.AllocatePage();
    char buf[kPageSize] = {0};
    for (const PageId id : {p, q}) {
      FillPattern(id, buf);
      ASSERT_TRUE(disk.WritePage(id, buf).ok());
    }
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
    ExpectPattern(q, outs[0]);
    ExpectPattern(p, outs[1]);
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
