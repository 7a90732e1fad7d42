#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage_test_util.h"

namespace dsks {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad k");
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
}

TEST(DiskManagerTest, AllocateReadWriteRoundTrip) {
  dsks::testing::TestDisk disk;
  const PageId a = disk->AllocatePage();
  const PageId b = disk->AllocatePage();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(disk->num_pages(), 2u);
  EXPECT_EQ(disk->size_bytes(), 2 * kPageSize);

  char buf[kPageSize];
  std::memset(buf, 0xAB, kPageSize);
  disk->WritePage(b, buf);
  char out[kPageSize];
  disk->ReadPage(b, out);
  EXPECT_EQ(std::memcmp(buf, out, kPageSize), 0);

  // Fresh pages are zeroed.
  disk->ReadPage(a, out);
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(out[i], 0) << "at offset " << i;
  }
  EXPECT_EQ(disk->stats().reads, 2u);
  EXPECT_EQ(disk->stats().writes, 1u);
  EXPECT_EQ(disk->stats().allocations, 2u);
}

TEST(BufferPoolTest, HitAndMissAccounting) {
  dsks::testing::TestDisk disk;
  const PageId p = disk->AllocatePage();
  BufferPool pool(disk.get(), 4);

  char* data = dsks::testing::MustFetch(&pool, p);
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(pool.stats().misses, 1u);
  pool.UnpinPage(p, false);

  dsks::testing::MustFetch(&pool, p);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
  pool.UnpinPage(p, false);
  EXPECT_DOUBLE_EQ(pool.stats().hit_rate(), 0.5);
}

TEST(BufferPoolTest, StatsSnapshotAndReset) {
  dsks::testing::TestDisk disk;
  const PageId p = disk->AllocatePage();
  BufferPool pool(disk.get(), 4);
  dsks::testing::MustFetch(&pool, p);
  pool.UnpinPage(p, false);
  dsks::testing::MustFetch(&pool, p);
  pool.UnpinPage(p, false);

  // One plain-struct read of all counters together.
  const BufferPoolStatsSnapshot s = pool.stats_snapshot();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.accesses(), 2u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);

  const DiskStatsSnapshot d = disk->stats_snapshot();
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.allocations, 1u);

  // Reset zeroes the counters so the next phase measures a pure delta.
  pool.ResetStats();
  disk->ResetStats();
  EXPECT_EQ(pool.stats_snapshot().accesses(), 0u);
  EXPECT_DOUBLE_EQ(pool.stats_snapshot().hit_rate(), 0.0);
  EXPECT_EQ(disk->stats_snapshot().reads, 0u);
  dsks::testing::MustFetch(&pool, p);
  pool.UnpinPage(p, false);
  EXPECT_EQ(pool.stats_snapshot().hits, 1u);
  EXPECT_EQ(pool.stats_snapshot().misses, 0u);
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  dsks::testing::TestDisk disk;
  PageId pages[3];
  for (PageId& p : pages) p = disk->AllocatePage();
  BufferPool pool(disk.get(), 2);

  dsks::testing::MustFetch(&pool, pages[0]);
  pool.UnpinPage(pages[0], false);
  dsks::testing::MustFetch(&pool, pages[1]);
  pool.UnpinPage(pages[1], false);
  // Touch page 0 so page 1 becomes the LRU victim.
  dsks::testing::MustFetch(&pool, pages[0]);
  pool.UnpinPage(pages[0], false);

  dsks::testing::MustFetch(&pool, pages[2]);  // evicts pages[1]
  pool.UnpinPage(pages[2], false);
  EXPECT_EQ(pool.stats().evictions, 1u);

  // pages[0] must still be cached, pages[1] must not.
  const uint64_t misses_before = pool.stats().misses;
  dsks::testing::MustFetch(&pool, pages[0]);
  pool.UnpinPage(pages[0], false);
  EXPECT_EQ(pool.stats().misses, misses_before);
  dsks::testing::MustFetch(&pool, pages[1]);
  pool.UnpinPage(pages[1], false);
  EXPECT_EQ(pool.stats().misses, misses_before + 1);
}

TEST(BufferPoolTest, PinnedPagesSurviveEvictionPressure) {
  dsks::testing::TestDisk disk;
  const PageId first = dsks::testing::FillPages(disk.get(), 4);
  BufferPool pool(disk.get(), 2);

  const char* pinned = dsks::testing::MustFetch(&pool, first);
  // Cycle other pages through the remaining frame.
  for (int round = 0; round < 3; ++round) {
    for (PageId i = 1; i < 4; ++i) {
      dsks::testing::MustFetch(&pool, first + i);
      pool.UnpinPage(first + i, false);
    }
  }
  // The pinned frame was never evicted: the pointer still shows its page.
  EXPECT_EQ(pinned[1], dsks::testing::FillByte(0));
  EXPECT_EQ(pool.stats().misses, 1u + 3 * 3);
  pool.UnpinPage(first, false);
}

TEST(BufferPoolTest, SetCapacityEvictsDown) {
  dsks::testing::TestDisk disk;
  const PageId first = dsks::testing::FillPages(disk.get(), 8);
  BufferPool pool(disk.get(), 8);
  for (PageId id = first; id < first + 8; ++id) {
    dsks::testing::MustFetch(&pool, id);
    pool.UnpinPage(id, false);
  }
  EXPECT_EQ(pool.num_frames_in_use(), 8u);
  pool.SetCapacity(2);
  EXPECT_LE(pool.num_frames_in_use(), 2u);
  EXPECT_EQ(pool.stats().evictions, 6u);
}

TEST(BufferPoolTest, ClearDropsEveryFrame) {
  dsks::testing::TestDisk disk;
  const PageId first = dsks::testing::FillPages(disk.get(), 3);
  BufferPool pool(disk.get(), 4);
  for (PageId id = first; id < first + 3; ++id) {
    dsks::testing::MustFetch(&pool, id);
    pool.UnpinPage(id, false);
  }
  EXPECT_TRUE(pool.Clear().ok());
  EXPECT_EQ(pool.num_frames_in_use(), 0u);
  // The cache is cold again: the next fetch reads the page back, intact.
  const char* data = dsks::testing::MustFetch(&pool, first + 2);
  EXPECT_EQ(data[0], dsks::testing::FillByte(2));
  pool.UnpinPage(first + 2, false);
  EXPECT_EQ(pool.stats().misses, 4u);
  EXPECT_EQ(disk->stats().writes, 3u) << "Clear writes nothing";
}

// Regression: fetching capacity+1 pages with every frame pinned used to
// CHECK-fail ("buffer pool exhausted"); the pool now over-allocates
// temporary frames and trims back as pins drain. The 64-page input makes
// the frame array grow many times while earlier pins are held.
TEST(BufferPoolTest, AllPinnedOverflowsInsteadOfAborting) {
  constexpr size_t kCapacity = 2;
  for (const size_t pinned : {kCapacity + 1, size_t{64}}) {
    SCOPED_TRACE(::testing::Message() << pinned << " pages pinned");
    dsks::testing::TestDisk disk;
    // One page more than is ever pinned, for the miss after the unpins.
    const PageId first = dsks::testing::FillPages(disk.get(), pinned + 1);
    BufferPool pool(disk.get(), kCapacity);

    std::vector<const char*> data(pinned);
    for (size_t i = 0; i < pinned; ++i) {
      data[i] = dsks::testing::MustFetch(&pool, first + i);
      ASSERT_NE(data[i], nullptr);
    }
    // Every page is pinned at once: the pool ran over its target instead
    // of aborting, and every earlier pointer still shows its own page.
    EXPECT_EQ(pool.num_frames_in_use(), pinned);
    EXPECT_EQ(std::set<const char*>(data.begin(), data.end()).size(), pinned);
    for (size_t i = 0; i < pinned; ++i) {
      EXPECT_EQ(data[i][0], dsks::testing::FillByte(i)) << "page " << i;
      EXPECT_EQ(data[i][kPageSize - 1], dsks::testing::FillByte(i))
          << "page " << i;
    }
    for (size_t i = 0; i < pinned; ++i) {
      pool.UnpinPage(first + i, false);
    }
    // Unpinning drained the overflow back to the capacity target.
    EXPECT_LE(pool.num_frames_in_use(), pool.capacity());

    // One more miss makes no new buffer and shows its own page: on a
    // copying disk it reuses a freed frame's buffer, and on a lending disk
    // no frame owns one.
    const uint64_t frame_bytes = pool.frame_bytes();
    const char* again = dsks::testing::MustFetch(&pool, first + pinned);
    EXPECT_EQ(pool.frame_bytes(), frame_bytes);
    if (disk->lends_pages()) {
      EXPECT_EQ(frame_bytes, 0u);
    } else {
      EXPECT_NE(std::find(data.begin(), data.end(), again), data.end());
    }
    EXPECT_EQ(again[0], dsks::testing::FillByte(pinned));
    EXPECT_EQ(again[kPageSize - 1], dsks::testing::FillByte(pinned));
    pool.UnpinPage(first + pinned, false);
    EXPECT_LE(pool.num_frames_in_use(), pool.capacity());
  }
}

// A lending disk's pages are held once: a pool holding every page owns no
// page buffer, and a second pool over the same disk hands out the same
// address for a page. The sim disk lends whatever DSKS_TEST_BACKEND says.
TEST(BufferPoolTest, ResidentPagesOfALendingDiskAreHeldOnce) {
  DiskManager disk(DiskOptions{});
  ASSERT_TRUE(disk.lends_pages());
  constexpr size_t kPages = 16;
  const PageId first = dsks::testing::FillPages(&disk, kPages);
  BufferPool pool(&disk, kPages);
  for (size_t i = 0; i < kPages; ++i) {
    const char* data = dsks::testing::MustFetch(&pool, first + i);
    EXPECT_EQ(data[0], dsks::testing::FillByte(i));
    EXPECT_EQ(data[kPageSize - 1], dsks::testing::FillByte(i));
    pool.UnpinPage(first + i, false);
  }
  EXPECT_EQ(pool.num_frames_in_use(), kPages);
  EXPECT_EQ(pool.frame_bytes(), 0u);

  BufferPool other(&disk, 1);
  const char* resident = dsks::testing::MustFetch(&pool, first + 3);
  const char* lent_again = dsks::testing::MustFetch(&other, first + 3);
  EXPECT_EQ(resident, lent_again);
  EXPECT_EQ(pool.stats_snapshot().hits, 1u);
  EXPECT_EQ(other.stats_snapshot().misses, 1u);
  EXPECT_EQ(other.frame_bytes(), 0u);
  pool.UnpinPage(first + 3, false);
  other.UnpinPage(first + 3, false);
}

// Regression: shrinking below the pinned set used to CHECK-fail; the
// shrink is now deferred and completes as pins drain.
TEST(BufferPoolTest, SetCapacityBelowPinnedSetDefersShrink) {
  dsks::testing::TestDisk disk;
  PageId pages[3];
  for (PageId& p : pages) p = disk->AllocatePage();
  BufferPool pool(disk.get(), 4);

  for (PageId p : pages) {
    dsks::testing::MustFetch(&pool, p);  // pinned
  }
  pool.SetCapacity(1);  // survives: 3 pages are pinned
  EXPECT_EQ(pool.capacity(), 1u);
  EXPECT_EQ(pool.num_frames_in_use(), 3u);

  pool.UnpinPage(pages[0], false);
  EXPECT_EQ(pool.num_frames_in_use(), 2u);  // one evicted, two still pinned
  pool.UnpinPage(pages[1], false);
  pool.UnpinPage(pages[2], false);
  EXPECT_LE(pool.num_frames_in_use(), 1u);
}

TEST(BufferPoolDeathTest, DoubleUnpinIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  dsks::testing::TestDisk disk;
  const PageId a = disk->AllocatePage();
  BufferPool pool(disk.get(), 2);
  dsks::testing::MustFetch(&pool, a);
  pool.UnpinPage(a, false);
  EXPECT_DEATH(pool.UnpinPage(a, false), "unpin of unpinned page");
}

// The pool is a read cache: nothing may hand a page back to it dirty.
TEST(BufferPoolDeathTest, DirtyUnpinIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  dsks::testing::TestDisk disk;
  const PageId a = disk->AllocatePage();
  BufferPool pool(disk.get(), 2);
  dsks::testing::MustFetch(&pool, a);
  EXPECT_DEATH(pool.UnpinPage(a, /*dirty=*/true), "read-only");
  pool.UnpinPage(a, false);
}

TEST(DiskManagerDeathTest, ReadOfUnallocatedPageIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  dsks::testing::TestDisk disk;
  char buf[kPageSize];
  EXPECT_DEATH(disk->ReadPage(7, buf), "unallocated");
}

TEST(PageGuardTest, ReleasesOnDestruction) {
  dsks::testing::TestDisk disk;
  const PageId a = dsks::testing::FillPages(disk.get(), 2);
  const PageId b = a + 1;
  BufferPool pool(disk.get(), 1);
  {
    PageGuard guard;
    ASSERT_TRUE(PageGuard::Fetch(&pool, a, &guard).ok());
    ASSERT_TRUE(guard.valid());
    EXPECT_EQ(guard.data()[3], dsks::testing::FillByte(0));
  }
  // The pin is gone: the single frame is reused instead of overflowing.
  PageGuard other;
  ASSERT_TRUE(PageGuard::Fetch(&pool, b, &other).ok());
  EXPECT_TRUE(other.valid());
  EXPECT_EQ(pool.num_frames_in_use(), 1u);
  EXPECT_EQ(pool.stats().evictions, 1u);
}

TEST(PageGuardTest, MoveTransfersOwnership) {
  dsks::testing::TestDisk disk;
  const PageId a = disk->AllocatePage();
  BufferPool pool(disk.get(), 2);
  PageGuard g1;
  ASSERT_TRUE(PageGuard::Fetch(&pool, a, &g1).ok());
  PageGuard g2 = std::move(g1);
  EXPECT_FALSE(g1.valid());  // NOLINT(bugprone-use-after-move): intended
  EXPECT_TRUE(g2.valid());
  EXPECT_EQ(g2.id(), a);
}

}  // namespace
}  // namespace dsks
