// Pins the storage hot path to zero heap allocations once warm: buffer-pool
// hits through FetchPage and PageGuard, misses that evict, a batched
// FetchPages, Prefetch of cold and of resident pages, and CCAM adjacency
// reads. This binary replaces the global operator new with one that counts
// every call; each test warms its path once (frames, page table and
// vectors reach their high-water mark), then asserts that repeating the
// path allocates nothing.
//
// The one exception is a failed read: its Status carries a heap-allocated
// message ("injected read fault on page N", an errno text). Failures are
// off the hot path; FailedReadAllocatesOnlyItsStatus shows that the failed
// frame itself goes back to the free list, so the retry allocates nothing.
//
// check.sh runs this binary on both disk backends under every sanitizer.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "datagen/network_generator.h"
#include "graph/ccam.h"
#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"
#include "storage_test_util.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dsks {
namespace {

using ::dsks::testing::FillByte;
using ::dsks::testing::FillPages;
using ::dsks::testing::TestDisk;

/// Heap allocations made while `fn` runs. `fn` must not call into gtest:
/// record results in locals and assert after.
template <typename Fn>
uint64_t AllocationsDuring(Fn&& fn) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Fetches and unpins `n` pages starting at `first`; true iff every fetch
/// succeeded and showed its own page (the i-th filled with FillByte(i)).
bool FetchUnpinEach(BufferPool* pool, PageId first, size_t n) {
  bool ok = true;
  for (size_t i = 0; i < n; ++i) {
    char* data = nullptr;
    const PageId id = first + static_cast<PageId>(i);
    if (!pool->FetchPage(id, &data).ok()) {
      return false;
    }
    ok &= data[0] == FillByte(id - first) &&
          data[kPageSize - 1] == FillByte(id - first);
    pool->UnpinPage(id, /*dirty=*/false);
  }
  return ok;
}

// Without this, a counter that failed to replace operator new would pass
// every test below.
TEST(AllocFreeTest, CounterSeesHeapAllocations) {
  volatile size_t n = 100;
  std::vector<char>* escaped = nullptr;
  const uint64_t count =
      AllocationsDuring([&] { escaped = new std::vector<char>(n); });
  EXPECT_EQ(escaped->size(), 100u);
  delete escaped;
  EXPECT_EQ(count, 2u);  // the vector object and its buffer
}

TEST(AllocFreeTest, PoolHitsAllocateNothing) {
  TestDisk disk;
  constexpr size_t kPages = 64;
  const PageId first = FillPages(disk.get(), kPages);
  BufferPool pool(disk.get(), kPages);
  ASSERT_TRUE(FetchUnpinEach(&pool, first, kPages));  // warm: all misses

  bool ok = true;
  const uint64_t allocations = AllocationsDuring([&] {
    for (int round = 0; round < 4; ++round) {
      ok &= FetchUnpinEach(&pool, first, kPages);
      for (PageId id = first; id < first + kPages; ++id) {
        PageGuard guard;
        ok &= PageGuard::Fetch(&pool, id, &guard).ok() &&
              guard.data()[0] == FillByte(id - first);
      }
    }
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(pool.stats().misses, kPages);
  EXPECT_EQ(pool.stats().hits, 4 * 2 * kPages);
}

TEST(AllocFreeTest, MissesThatEvictAllocateNothing) {
  TestDisk disk;
  constexpr size_t kPages = 32;
  constexpr size_t kFrames = 8;  // every fetch of the cycle misses
  const PageId first = FillPages(disk.get(), kPages);
  BufferPool pool(disk.get(), kFrames);
  ASSERT_TRUE(FetchUnpinEach(&pool, first, kPages));
  pool.ResetStats();

  bool ok = true;
  const uint64_t allocations = AllocationsDuring([&] {
    for (int round = 0; round < 3; ++round) {
      ok &= FetchUnpinEach(&pool, first, kPages);
    }
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(pool.stats().misses, 3 * kPages);
  EXPECT_EQ(pool.stats().evictions, 3 * kPages);
  EXPECT_EQ(pool.num_frames_in_use(), kFrames);
}

TEST(AllocFreeTest, BatchedMissesAllocateNothing) {
  TestDisk disk;
  constexpr size_t kBatch = 16;
  constexpr size_t kPages = 4 * kBatch;
  const PageId first = FillPages(disk.get(), kPages);
  BufferPool pool(disk.get(), kBatch);  // each batch evicts the last one
  PageId ids[kBatch];
  char* outs[kBatch];
  auto fetch_cycle = [&] {
    bool ok = true;
    for (size_t b = 0; b < kPages / kBatch; ++b) {
      for (size_t i = 0; i < kBatch; ++i) {
        ids[i] = first + static_cast<PageId>(b * kBatch + i);
      }
      if (!pool.FetchPages(ids, outs).ok()) {
        return false;
      }
      for (size_t i = 0; i < kBatch; ++i) {
        ok &= outs[i][0] == FillByte(ids[i] - first);
        pool.UnpinPage(ids[i], /*dirty=*/false);
      }
    }
    return ok;
  };
  ASSERT_TRUE(fetch_cycle());
  pool.ResetStats();

  bool ok = true;
  const uint64_t allocations = AllocationsDuring([&] {
    for (int round = 0; round < 2; ++round) {
      ok &= fetch_cycle();
    }
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(pool.stats().misses, 2 * kPages);
  EXPECT_EQ(pool.stats().hits, 0u);
}

TEST(AllocFreeTest, PrefetchAllocatesNothing) {
  TestDisk disk;
  constexpr size_t kGroup = 32;
  constexpr size_t kGroups = 4;
  const PageId first = FillPages(disk.get(), kGroups * kGroup);
  BufferPool pool(disk.get(), kGroup);  // each group evicts the last one
  PageId groups[kGroups][kGroup];
  for (size_t g = 0; g < kGroups; ++g) {
    for (size_t i = 0; i < kGroup; ++i) {
      groups[g][i] = first + static_cast<PageId>(g * kGroup + i);
    }
  }
  for (const auto& group : groups) {
    pool.Prefetch(group);
  }
  pool.ResetStats();

  const uint64_t cold = AllocationsDuring([&] {
    for (const auto& group : groups) {
      pool.Prefetch(group);
    }
  });
  EXPECT_EQ(cold, 0u);
  EXPECT_EQ(pool.stats().prefetch_issued, kGroups * kGroup);
  EXPECT_EQ(pool.stats().prefetch_dropped, 0u);

  // The last group is resident now: a no-op, and no allocation either.
  const uint64_t resident =
      AllocationsDuring([&] { pool.Prefetch(groups[kGroups - 1]); });
  EXPECT_EQ(resident, 0u);
  EXPECT_EQ(pool.stats().prefetch_issued, kGroups * kGroup);
  const PageId last = groups[kGroups - 1][kGroup - 1];
  char* data = nullptr;
  ASSERT_TRUE(pool.FetchPage(last, &data).ok());
  EXPECT_EQ(data[0], FillByte(last - first));
  pool.UnpinPage(last, /*dirty=*/false);
  EXPECT_EQ(pool.stats().prefetch_hits, 1u);
}

TEST(AllocFreeTest, CcamAdjacencyAllocatesNothing) {
  NetworkGenConfig nc;
  nc.num_nodes = 400;
  nc.seed = 5;
  const auto net = GenerateRoadNetwork(nc);
  TestDisk disk;
  const CcamFile file = CcamFileBuilder::Build(*net, disk.get());
  const size_t ccam_pages = disk->num_pages();
  ASSERT_GT(ccam_pages, 4u);
  std::vector<AdjacentEdge> adj;
  auto read_all = [&](const CcamGraph& graph) {
    bool ok = true;
    for (NodeId v = 0; v < net->num_nodes(); ++v) {
      ok &= graph.GetAdjacency(v, &adj).ok() &&
            adj.size() == net->Neighbors(v).size();
    }
    return ok;
  };

  // A pool that holds the whole file: every read is a hit once warm.
  BufferPool resident_pool(disk.get(), ccam_pages);
  const CcamGraph resident(&file, &resident_pool);
  ASSERT_TRUE(read_all(resident));
  bool ok = true;
  EXPECT_EQ(AllocationsDuring([&] { ok = read_all(resident); }), 0u);
  EXPECT_TRUE(ok);

  // A pool a quarter the file's size: reads miss and evict.
  BufferPool small_pool(disk.get(), ccam_pages / 4);
  const CcamGraph cycling(&file, &small_pool);
  ASSERT_TRUE(read_all(cycling));
  small_pool.ResetStats();
  EXPECT_EQ(AllocationsDuring([&] { ok = read_all(cycling); }), 0u);
  EXPECT_TRUE(ok);
  EXPECT_GT(small_pool.stats().evictions, 0u);
}

TEST(AllocFreeTest, FailedReadAllocatesOnlyItsStatus) {
  TestDisk disk;
  constexpr size_t kPages = 16;
  constexpr size_t kFrames = 4;
  const PageId first = FillPages(disk.get(), kPages);
  BufferPool pool(disk.get(), kFrames);
  ASSERT_TRUE(FetchUnpinEach(&pool, first, kPages));
  const PageId victim = first;  // evicted by the cycle above
  disk->fault_injector()->FailPageReads(victim, 1);

  char* data = nullptr;
  Status failed;
  const uint64_t failure =
      AllocationsDuring([&] { failed = pool.FetchPage(victim, &data); });
  EXPECT_TRUE(failed.IsIOError()) << failed.ToString();
  EXPECT_GT(failure, 0u);  // the message: the exception this file names
  EXPECT_LE(pool.num_frames_in_use(), kFrames);

  // The failed frame went back to the free list; the retry reuses it.
  Status retried;
  const uint64_t retry =
      AllocationsDuring([&] { retried = pool.FetchPage(victim, &data); });
  ASSERT_TRUE(retried.ok()) << retried.ToString();
  EXPECT_EQ(retry, 0u);
  EXPECT_EQ(data[0], FillByte(0));
  pool.UnpinPage(victim, /*dirty=*/false);
}

}  // namespace
}  // namespace dsks
