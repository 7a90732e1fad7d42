// Batched I/O: the DiskManager batch read must be observationally
// identical to a sequential ReadPage loop, seeded faults and corruption
// included; FetchPages must pin every page, be all-or-nothing, and stay
// correct under concurrent fetches with eviction pressure. Runs against
// the env-selected backend (DSKS_TEST_BACKEND), so check.sh drills both
// sim and file.
#include <atomic>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "common/status.h"
#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"
#include "storage_test_util.h"

namespace dsks {
namespace {

// --- DiskManager batch reads ----------------------------------------------

/// The per-page read policy under seeded random faults and corruption: a
/// batch must draw exactly the decisions a page-by-page loop draws, so two
/// fresh disks with the same injector config end with the same per-page
/// status codes, the same bytes, and the same DiskStats.
void ExpectSeededBatchMatchesPageByPage() {
  testing::TestDisk batched("batchseed_b");
  testing::TestDisk looped("batchseed_l");
  constexpr size_t kPages = 64;
  FaultInjector::Config cfg;
  cfg.read_fault_p = 0.2;
  cfg.corrupt_read_p = 0.2;
  cfg.seed = 4711;
  for (DiskManager* disk : {batched.get(), looped.get()}) {
    testing::FillPages(disk, kPages);
    disk->ResetStats();
    disk->fault_injector()->Configure(cfg);
  }

  // Every page once, as an ascending run then a descending one.
  std::vector<char> batch_buf(kPages * kPageSize);
  std::vector<PageReadRequest> reqs(kPages);
  for (size_t i = 0; i < kPages; ++i) {
    const size_t page = i < kPages / 2 ? i : kPages * 3 / 2 - 1 - i;
    reqs[i].id = static_cast<PageId>(page);
    reqs[i].out = batch_buf.data() + i * kPageSize;
  }
  batched->ReadPages(std::span<PageReadRequest>(reqs));

  std::vector<char> single(kPageSize);
  size_t faults = 0;
  size_t corrupt = 0;
  for (const PageReadRequest& r : reqs) {
    const Status s = looped->ReadPage(r.id, single.data());
    ASSERT_EQ(r.status.code(), s.code()) << "page " << r.id;
    faults += s.IsIOError() ? 1 : 0;
    corrupt += s.IsCorruption() ? 1 : 0;
    if (!s.IsIOError()) {
      EXPECT_EQ(std::memcmp(r.out, single.data(), kPageSize), 0)
          << "page " << r.id;
    }
  }
  EXPECT_GT(faults, 0u) << "p=0.2 over 64 reads must draw some faults";
  EXPECT_GT(corrupt, 0u) << "p=0.2 over 64 reads must flip some bits";

  const DiskStatsSnapshot b = batched->stats_snapshot();
  const DiskStatsSnapshot l = looped->stats_snapshot();
  EXPECT_EQ(b.reads, l.reads);
  EXPECT_EQ(b.writes, l.writes);
  EXPECT_EQ(b.allocations, l.allocations);
  EXPECT_EQ(b.read_faults, l.read_faults);
  EXPECT_EQ(b.write_faults, l.write_faults);
  EXPECT_EQ(b.corruptions_detected, l.corruptions_detected);
  EXPECT_EQ(b.read_faults, faults);
  EXPECT_EQ(b.corruptions_detected, corrupt);
}

TEST(BatchReadTest, BatchMatchesSequentialReads) {
  testing::TestDisk disk("batch");
  constexpr size_t kPages = 40;
  testing::FillPages(disk.get(), kPages);

  // A batch mixing contiguous runs, gaps and descending order: the run
  // coalescer must not assume sorted input.
  const PageId ids[] = {0, 1, 2, 3, 10, 11, 7, 39, 38, 20};
  constexpr size_t kBatch = sizeof(ids) / sizeof(ids[0]);
  std::vector<char> batch_buf(kBatch * kPageSize);
  std::vector<PageReadRequest> reqs(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    reqs[i].id = ids[i];
    reqs[i].out = batch_buf.data() + i * kPageSize;
  }
  disk->ReadPages(std::span<PageReadRequest>(reqs));

  std::vector<char> single(kPageSize);
  for (size_t i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(reqs[i].status.ok()) << "page " << ids[i];
    ASSERT_TRUE(disk->ReadPage(ids[i], single.data()).ok());
    EXPECT_EQ(std::memcmp(reqs[i].out, single.data(), kPageSize), 0)
        << "page " << ids[i];
  }
  EXPECT_EQ(disk->stats_snapshot().reads, kBatch + kBatch)
      << "each batched page accounts one read, like the sequential loop";

  ExpectSeededBatchMatchesPageByPage();
}

TEST(BatchReadTest, PerPageFaultsDoNotPoisonBatchMates) {
  testing::TestDisk disk("batchfault");
  constexpr size_t kPages = 8;
  testing::FillPages(disk.get(), kPages);

  disk->fault_injector()->FailPageReads(3, 1);
  std::vector<char> buf(kPages * kPageSize);
  std::vector<PageReadRequest> reqs(kPages);
  for (size_t i = 0; i < kPages; ++i) {
    reqs[i].id = static_cast<PageId>(i);
    reqs[i].out = buf.data() + i * kPageSize;
  }
  disk->ReadPages(std::span<PageReadRequest>(reqs));

  std::vector<char> single(kPageSize);
  for (size_t i = 0; i < kPages; ++i) {
    if (i == 3) {
      EXPECT_TRUE(reqs[i].status.IsIOError());
      continue;
    }
    ASSERT_TRUE(reqs[i].status.ok()) << "page " << i;
    ASSERT_TRUE(disk->ReadPage(reqs[i].id, single.data()).ok());
    EXPECT_EQ(std::memcmp(reqs[i].out, single.data(), kPageSize), 0);
  }
}

// --- FetchPages -----------------------------------------------------------

TEST(FetchPagesTest, PinsEveryPageAndReadsOnce) {
  testing::TestDisk disk("fetchpages");
  constexpr size_t kPages = 12;
  testing::FillPages(disk.get(), kPages);
  BufferPool pool(disk.get(), kPages + 4);

  PageId ids[kPages];
  char* outs[kPages];
  for (size_t i = 0; i < kPages; ++i) {
    ids[i] = static_cast<PageId>(i);
  }
  ASSERT_TRUE(pool.FetchPages(std::span<const PageId>(ids, kPages),
                              std::span<char*>(outs, kPages))
                  .ok());
  for (size_t i = 0; i < kPages; ++i) {
    ASSERT_NE(outs[i], nullptr);
    EXPECT_EQ(outs[i][0], static_cast<char>('A' + (i % 23)));
    pool.UnpinPage(ids[i], /*dirty=*/false);
  }
  const BufferPoolStatsSnapshot s = pool.stats_snapshot();
  EXPECT_EQ(s.misses, kPages);
  EXPECT_EQ(s.hits, 0u);
  ASSERT_TRUE(pool.Clear().ok()) << "nothing may remain pinned";
}

TEST(FetchPagesTest, FailureUnpinsEverything) {
  testing::TestDisk disk("fetchfail");
  constexpr size_t kPages = 6;
  testing::FillPages(disk.get(), kPages);
  BufferPool pool(disk.get(), kPages + 2);

  disk->fault_injector()->FailPageReads(4, 1);
  PageId ids[kPages];
  char* outs[kPages];
  for (size_t i = 0; i < kPages; ++i) {
    ids[i] = static_cast<PageId>(i);
  }
  const Status s = pool.FetchPages(std::span<const PageId>(ids, kPages),
                                   std::span<char*>(outs, kPages));
  EXPECT_TRUE(s.IsIOError());
  // All-or-nothing: Clear() CHECK-fails on any leaked pin, so passing here
  // proves the rollback released every page the call had pinned.
  ASSERT_TRUE(pool.Clear().ok());

  // The fault was consumed by the failed batch; a retry succeeds.
  ASSERT_TRUE(pool.FetchPages(std::span<const PageId>(ids, kPages),
                              std::span<char*>(outs, kPages))
                  .ok());
  for (size_t i = 0; i < kPages; ++i) {
    pool.UnpinPage(ids[i], /*dirty=*/false);
  }
}

// An 8-thread mix of FetchPages batches and single FetchPage calls over a
// pool much smaller than the page set, so nearly every batch claims,
// reads and evicts while other threads wait on its in-flight pages. Run
// under TSan by check.sh; the assertions here are liveness, the bytes
// every pin sees, and the pool's accounting at quiescence: every page
// read is a demand miss.
TEST(FetchPagesTest, ConcurrentFetchEvictionStress) {
  testing::TestDisk disk("fetchstress");
  constexpr size_t kPages = 64;
  testing::FillPages(disk.get(), kPages);
  disk->ResetStats();
  BufferPool pool(disk.get(), 8);  // heavy eviction pressure

  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  constexpr size_t kBatch = 4;
  std::atomic<uint32_t> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t rng = 0x9E3779B9u * static_cast<uint64_t>(t + 1);
      auto next = [&rng] {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<size_t>(rng >> 33);
      };
      for (int r = 0; r < kRounds; ++r) {
        if (t % 2 == 0) {
          // FetchPages wants distinct ids: a random start, then a stride.
          const size_t start = next() % kPages;
          const size_t stride = 1 + next() % (kPages / kBatch - 1);
          PageId ids[kBatch];
          char* outs[kBatch];
          for (size_t i = 0; i < kBatch; ++i) {
            ids[i] = static_cast<PageId>((start + i * stride) % kPages);
          }
          if (!pool.FetchPages(ids, outs).ok()) {
            errors.fetch_add(1);
            continue;
          }
          for (size_t i = 0; i < kBatch; ++i) {
            if (outs[i][0] != testing::FillByte(ids[i])) {
              errors.fetch_add(1);
            }
            pool.UnpinPage(ids[i], /*dirty=*/false);
          }
        } else {
          const PageId id = static_cast<PageId>(next() % kPages);
          char* data = nullptr;
          if (!pool.FetchPage(id, &data).ok()) {
            errors.fetch_add(1);
            continue;
          }
          if (data[0] != testing::FillByte(id)) {
            errors.fetch_add(1);
          }
          pool.UnpinPage(id, /*dirty=*/false);
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_LE(pool.num_frames_in_use(), pool.capacity());
  ASSERT_TRUE(pool.Clear().ok()) << "nothing may remain pinned";
  const BufferPoolStatsSnapshot s = pool.stats_snapshot();
  EXPECT_EQ(s.accesses(), (kThreads / 2) * kRounds * (kBatch + 1));
  EXPECT_EQ(s.misses, disk->stats_snapshot().reads);
  EXPECT_GT(s.evictions, 0u);
}

}  // namespace
}  // namespace dsks
