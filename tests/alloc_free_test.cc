// Pins the query hot path to zero heap allocations once warm: buffer-pool
// hits through FetchPage and PageGuard, misses that evict, a batched
// FetchPages, Prefetch of cold and of resident pages, CCAM adjacency
// reads, B+tree MultiGet, Algorithm 2 (LoadObjects on IF and SIF) and
// NetworkExpansion settles through the adjacency memo. This binary replaces
// the global operator new with one that counts every call and tracks the
// bytes it holds; each test warms its path once (frames, page table and
// vectors reach their high-water mark), then asserts that repeating the
// path allocates nothing. It also bounds what an IF and a SIF build
// allocate by the keywords and pages, not the (keyword, edge) runs, and
// the most heap they hold at once by 4 bytes per posting, and prints both.
//
// The exceptions, each named in DESIGN.md "Hot-path memory model":
//  * a failed read: its Status carries a heap-allocated message ("injected
//    read fault on page N", an errno text). Failures are off the hot path;
//    FailedReadAllocatesOnlyItsStatus shows that the failed frame itself
//    goes back to the free list, so the retry allocates nothing;
//  * a conjunction of more than 16 keywords: LoadObjects and MultiGet keep
//    per-keyword slots inline up to that bound and take one heap array per
//    slot set above it;
//  * SIF-P's restricted position ranges (a vector per partitioned probe);
//  * what a whole query allocates outside these paths, which
//    WholeQueriesAllocateOnlyAtTheirBoundary measures and prints.
//
// check.sh runs this binary on both disk backends under every sanitizer.

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "btree/bplus_tree.h"
#include "core/div_search.h"
#include "core/network_expansion.h"
#include "core/query.h"
#include "core/query_context.h"
#include "core/ranked_search.h"
#include "core/sk_search.h"
#include "datagen/network_generator.h"
#include "datagen/presets.h"
#include "datagen/workload.h"
#include "graph/ccam.h"
#include "gtest/gtest.h"
#include "harness/database.h"
#include "index/object_index.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"
#include "storage_test_util.h"

namespace {

std::atomic<uint64_t> g_allocations{0};
/// Heap held through operator new (each live block's malloc_usable_size),
/// and its high-water mark since PeakHeapGrowthDuring last reset it.
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_live_bytes{0};

void* Tracked(void* p) {
  if (p != nullptr) {
    const auto size = static_cast<int64_t>(malloc_usable_size(p));
    const int64_t live =
        g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
    int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
    while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                              peak, live, std::memory_order_relaxed)) {
    }
  }
  return p;
}

void Release(void* p) {
  if (p != nullptr) {
    g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return Tracked(std::malloc(size == 0 ? 1 : size));
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return Tracked(std::aligned_alloc(a, (size + a - 1) / a * a));
}

}  // namespace

// The replacements stay out of line: inlined, GCC sees a `new`
// expression's memory reach std::free and warns -Wmismatched-new-delete,
// although every replaced new takes its memory from malloc.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       std::align_val_t align) {
  return ::operator new(size, align);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { Release(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { Release(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  Release(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  Release(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  Release(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         std::align_val_t) noexcept {
  Release(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  Release(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  Release(p);
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

/// The most heap held at once while `fn` runs, beyond what was live when
/// it started. `fn` must not call into gtest.
template <typename Fn>
int64_t PeakHeapGrowthDuring(Fn&& fn) {
  const int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_live_bytes.store(before, std::memory_order_relaxed);
  fn();
  return g_peak_live_bytes.load(std::memory_order_relaxed) - before;
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

TEST(AllocFreeTest, MultiGetAllocatesNothing) {
  TestDisk disk;
  BufferPool pool(disk.get(), 256);
  // Three trees of two levels, so every lookup descends an internal node.
  PageId roots[3];
  const size_t n = BPlusTree::LeafCapacity() * 3;
  for (uint64_t t = 0; t < 3; ++t) {
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    for (uint64_t k = 0; k < n; ++k) {
      pairs.emplace_back(k * 3 + t, k * 10 + t);
    }
    roots[t] = BPlusTree::BulkLoad(&pool, pairs).root();
  }
  std::optional<uint64_t> results[3];
  auto lookups = [&] {
    size_t found = 0;
    for (uint64_t k = 0; k < n * 3; k += 7) {
      if (!BPlusTree::MultiGet(&pool, roots, k, results).ok()) {
        return size_t{0};
      }
      for (const auto& r : results) {
        found += r.has_value() ? 1 : 0;
      }
    }
    return found;
  };
  for (const bool prefetch : {true, false}) {
    pool.set_prefetch_enabled(prefetch);
    const size_t want = lookups();  // warm
    ASSERT_GT(want, 0u);
    size_t found = 0;
    EXPECT_EQ(AllocationsDuring([&] { found = lookups(); }), 0u)
        << (prefetch ? "prefetch on" : "prefetch off");
    EXPECT_EQ(found, want);
  }
}

/// Forwards to the wrapped index and records every probe, so a test can
/// replay exactly the LoadObjects calls a workload's searches make.
class RecordingIndex : public ObjectIndex {
 public:
  struct Probe {
    EdgeId edge;
    std::vector<TermId> terms;
  };

  explicit RecordingIndex(ObjectIndex* inner) : inner_(inner) {}

  Status LoadObjects(EdgeId edge, std::span<const TermId> terms,
                     std::vector<LoadedObject>* out) override {
    probes_.push_back(Probe{edge, {terms.begin(), terms.end()}});
    return inner_->LoadObjects(edge, terms, out);
  }
  uint64_t SizeBytes() const override { return inner_->SizeBytes(); }
  std::string name() const override { return inner_->name(); }

  const std::vector<Probe>& probes() const { return probes_; }

 private:
  ObjectIndex* inner_;
  std::vector<Probe> probes_;
};

DatasetConfig AllocConfig() {
  DatasetConfig config = ScalePreset(PresetSYN(), 0.2);
  config.objects.keywords_per_object = 6;
  return config;
}

Workload AllocWorkload(const Database& db) {
  WorkloadConfig wc;
  wc.num_queries = 16;
  wc.num_keywords = 3;
  wc.seed = 41;
  Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);
  for (WorkloadQuery& wq : wl.queries) {
    DSKS_CHECK(NormalizeSkQuery(&wq.sk).ok());
  }
  return wl;
}

class LoadObjectsAllocTest : public ::testing::TestWithParam<IndexKind> {};

/// Algorithm 2 straight off the pinned pages: replaying every probe a
/// workload's SK searches make allocates nothing once `out` and the pool
/// are warm, with prefetch on and off, on a pool that holds the whole
/// index and on an 8-frame pool where the probes miss and evict.
TEST_P(LoadObjectsAllocTest, ReplayedProbesAllocateNothing) {
  testing::BackendDatabase bdb(AllocConfig(), "alloc_load");
  Database& db = *bdb;
  IndexOptions opts;
  opts.kind = GetParam();
  db.BuildIndex(opts);
  db.PrepareForQueries(1.0);
  RecordingIndex recorder(db.index());
  QueryContext ctx;
  for (const WorkloadQuery& wq : AllocWorkload(db).queries) {
    IncrementalSkSearch search(&db.ccam_graph(), &recorder, wq.sk, wq.edge,
                               &ctx);
    SkResult r;
    while (search.Next(&r)) {
    }
    ASSERT_TRUE(search.status().ok());
  }
  const std::vector<RecordingIndex::Probe>& probes = recorder.probes();
  ASSERT_GT(probes.size(), 100u);

  std::vector<LoadedObject> out;
  auto replay = [&] {
    size_t loaded = 0;
    for (const RecordingIndex::Probe& p : probes) {
      if (!db.index()->LoadObjects(p.edge, p.terms, &out).ok()) {
        return SIZE_MAX;
      }
      loaded += out.size();
    }
    return loaded;
  };
  for (const size_t frames : {size_t{0}, size_t{8}}) {
    for (const bool prefetch : {true, false}) {
      const std::string where =
          std::string(frames == 0 ? "resident pool" : "8-frame pool") +
          (prefetch ? ", prefetch on" : ", prefetch off");
      if (frames == 0) {
        db.PrepareForQueries(1.0);
      } else {
        db.PrepareForQueries(0.0, frames);
      }
      db.SetPrefetchEnabled(prefetch);
      const size_t want = replay();  // warm
      ASSERT_NE(want, SIZE_MAX) << where;
      ASSERT_GT(want, 0u) << where;
      size_t loaded = 0;
      EXPECT_EQ(AllocationsDuring([&] { loaded = replay(); }), 0u) << where;
      EXPECT_EQ(loaded, want) << where;
      if (frames != 0) {
        EXPECT_GT(db.pool()->stats().evictions, 0u) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, LoadObjectsAllocTest,
    ::testing::Values(IndexKind::kIF, IndexKind::kSIF),
    [](const ::testing::TestParamInfo<IndexKind>& info) {
      return std::string(info.param == IndexKind::kIF ? "IF" : "SIF");
    });

/// The (keyword, edge) posting runs of `db`'s dataset.
uint64_t CountRuns(const Database& db) {
  const ObjectSet& objects = db.objects();
  uint64_t runs = 0;
  std::vector<EdgeId> last_edge(db.config().objects.vocab_size,
                                kInvalidEdgeId);
  for (EdgeId e = 0; e < db.network().num_edges(); ++e) {
    for (const ObjectId id : objects.ObjectsOnEdge(e)) {
      for (const TermId t : objects.object(id).terms) {
        if (last_edge[t] != e) {
          last_edge[t] = e;
          ++runs;
        }
      }
    }
  }
  return runs;
}

/// An IF or SIF build allocates per keyword, never per (keyword, edge)
/// run: the postings are counting-sorted into one flat array and the
/// signature lists share one more. The bound leaves room for one
/// allocation per page written (the sim backend gives each page a buffer)
/// and a few per keyword (its B+tree levels); a build that gave each run a
/// vector makes at least one allocation per run, far above it on this
/// dataset.
TEST(AllocFreeTest, IndexBuildAllocatesPerKeywordNotPerRun) {
  testing::BackendDatabase bdb(AllocConfig(), "alloc_build");
  Database& db = *bdb;
  const size_t keywords = db.config().objects.vocab_size;
  const uint64_t runs = CountRuns(db);
  // A rebuild truncates the disk back to this watermark first.
  const DiskManager* disk = db.pool()->disk();
  const size_t base_pages = disk->num_pages();
  uint64_t counts[2] = {0, 0};
  const IndexKind kinds[2] = {IndexKind::kIF, IndexKind::kSIF};
  for (size_t i = 0; i < 2; ++i) {
    IndexOptions opts;
    opts.kind = kinds[i];
    counts[i] = AllocationsDuring([&] { db.BuildIndex(opts); });
    const uint64_t pages = disk->num_pages() - base_pages;
    const uint64_t bound = pages + 8 * keywords + 256;
    EXPECT_LE(counts[i], bound) << db.index()->name();
    EXPECT_GT(runs, 4 * bound) << "the dataset no longer tells the two apart";
  }
  std::printf(
      "index build allocations: IF %llu, SIF %llu (%zu keywords, %llu "
      "runs)\n",
      static_cast<unsigned long long>(counts[0]),
      static_cast<unsigned long long>(counts[1]), keywords,
      static_cast<unsigned long long>(runs));
}

/// What an IF or a SIF build holds on the heap at its peak, beyond what
/// was live before it and the pages it writes (heap on the sim backend,
/// where db.disk.resident_bytes counts them): each posting as 4 bytes (its
/// object's index in the edge walk), each object's w1 (8 bytes), each
/// run's edge and locator (12 bytes), a few words per keyword, and a word
/// or two per edge (the index's Z-order codes) and per page (the disk's
/// checksums). A build that holds a 16-byte entry per posting exceeds the
/// bound on this dataset.
TEST(AllocFreeTest, IndexBuildHeapIsFourBytesPerPosting) {
  for (const IndexKind kind : {IndexKind::kIF, IndexKind::kSIF}) {
    testing::BackendDatabase bdb(AllocConfig(), "alloc_build_heap");
    Database& db = *bdb;
    const uint64_t postings = db.objects().TotalTermOccurrences();
    const uint64_t objects = db.objects().size();
    const uint64_t runs = CountRuns(db);
    const uint64_t keywords = db.config().objects.vocab_size;
    const uint64_t edges = db.network().num_edges();
    const DiskManager* disk = db.disk();
    auto resident_bytes = [disk] {
      return static_cast<int64_t>(disk->lends_pages() ? disk->size_bytes()
                                                      : 0);
    };
    const int64_t resident_before = resident_bytes();
    const size_t pages_before = disk->num_pages();
    IndexOptions opts;
    opts.kind = kind;
    const int64_t growth = PeakHeapGrowthDuring([&] { db.BuildIndex(opts); });
    const int64_t held = growth - (resident_bytes() - resident_before);
    const uint64_t pages = disk->num_pages() - pages_before;
    const auto bound = static_cast<int64_t>(
        4 * postings + 8 * objects + 12 * runs + 64 * keywords + 16 * edges +
        8 * pages);
    EXPECT_LE(held, bound) << db.index()->name();
    std::printf(
        "%s build heap beyond its pages: %.1f KiB, bound %.1f KiB (%llu "
        "postings, %llu objects, %llu runs, %llu keywords, %llu edges, %llu "
        "pages)\n",
        db.index()->name().c_str(), static_cast<double>(held) / 1024.0,
        static_cast<double>(bound) / 1024.0,
        static_cast<unsigned long long>(postings),
        static_cast<unsigned long long>(objects),
        static_cast<unsigned long long>(runs),
        static_cast<unsigned long long>(keywords),
        static_cast<unsigned long long>(edges),
        static_cast<unsigned long long>(pages));
  }
}

/// Settles on a warmed context allocate nothing: a full expansion that
/// refills the memo after a query-start reset, and one served from it.
TEST(AllocFreeTest, MemoizedExpansionAllocatesNothing) {
  NetworkGenConfig nc;
  nc.num_nodes = 400;
  nc.seed = 5;
  const auto net = GenerateRoadNetwork(nc);
  TestDisk disk;
  const CcamFile file = CcamFileBuilder::Build(*net, disk.get());
  BufferPool pool(disk.get(), disk->num_pages());
  const CcamGraph graph(&file, &pool);
  QueryContext ctx;
  const QueryEdgeInfo qe = MakeQueryEdgeInfo(
      *net, NetworkLocation{0, net->edge(0).length / 2.0});
  auto expand = [&](ExpansionScratch* scratch) {
    NetworkExpansion x(&graph, 1e18, scratch, &ctx);
    x.Seed(qe.n1, qe.n2, qe.weight, qe.w1);
    NodeId v;
    double d;
    while (x.Settle(&v, &d)) {
      for (const AdjacentEdge& adj : x.adjacency()) {
        x.Relax(adj.neighbor, d + adj.weight);
      }
    }
    return x.status().ok() ? x.settles() : 0;
  };
  ASSERT_EQ(expand(&ctx.sk_search.expansion), net->num_nodes());  // warm
  ASSERT_EQ(expand(&ctx.oracle.field), net->num_nodes());

  uint64_t refill = 0;
  EXPECT_EQ(AllocationsDuring([&] {
              ctx.adjacency_memo.Reset();
              refill = expand(&ctx.sk_search.expansion);
            }),
            0u);
  EXPECT_EQ(refill, net->num_nodes());
  const uint64_t accesses = pool.stats_snapshot().accesses();
  uint64_t served = 0;
  EXPECT_EQ(AllocationsDuring([&] { served = expand(&ctx.oracle.field); }),
            0u);
  EXPECT_EQ(served, net->num_nodes());
  EXPECT_EQ(pool.stats_snapshot().accesses(), accesses);
}

/// What a whole warm query still allocates, with the counter above, on one
/// reused context and a resident pool: printed for DESIGN.md "Hot-path
/// memory model", which names every remaining call site. The SK and
/// ranked bounds catch a return of per-probe or per-settle allocation (the
/// search paths alone made hundreds per query before they were pinned
/// above); the div-COM bound sits just above its measured 8.06, so half an
/// allocation more per query fails it.
TEST(AllocFreeTest, WholeQueriesAllocateOnlyAtTheirBoundary) {
  testing::BackendDatabase bdb(AllocConfig(), "alloc_query");
  Database& db = *bdb;
  db.BuildIndex(IndexOptions{});
  db.PrepareForQueries(1.0);
  const Workload wl = AllocWorkload(db);
  QueryContext ctx;
  std::vector<SkResult> sk_out;
  DivSearchOutput div_out;
  DivQuery dq;
  dq.k = 10;
  dq.lambda = 0.8;
  std::vector<RankedResult> ranked_out;
  RankedQuery rq;
  rq.k = 10;
  rq.alpha = 0.5;
  auto run_all = [&] {
    bool ok = true;
    for (const WorkloadQuery& wq : wl.queries) {
      ok &= db.RunSkQuery(wq.sk, wq.edge, &sk_out, &ctx).ok();
    }
    return ok;
  };
  auto run_all_div = [&] {
    bool ok = true;
    for (const WorkloadQuery& wq : wl.queries) {
      dq.sk = wq.sk;
      ok &= db.RunDivQuery(dq, wq.edge, /*use_com=*/true, &div_out, &ctx).ok();
    }
    return ok;
  };
  auto run_all_ranked = [&] {
    bool ok = true;
    for (const WorkloadQuery& wq : wl.queries) {
      rq.sk = wq.sk;
      ok &= db.RunRankedQuery(rq, wq.edge, &ranked_out, &ctx).ok();
    }
    return ok;
  };
  ASSERT_TRUE(run_all());  // warm
  ASSERT_TRUE(run_all_div());
  ASSERT_TRUE(run_all_ranked());
  bool ok = false;
  const double q = static_cast<double>(wl.queries.size());
  const double sk = static_cast<double>(AllocationsDuring([&] {
                      ok = run_all();
                    })) / q;
  EXPECT_TRUE(ok);
  const double div = static_cast<double>(AllocationsDuring([&] {
                       ok = run_all_div();
                     })) / q;
  EXPECT_TRUE(ok);
  const double ranked = static_cast<double>(AllocationsDuring([&] {
                          ok = run_all_ranked();
                        })) / q;
  EXPECT_TRUE(ok);
  std::printf(
      "warm allocations per query: SK %.2f, div-COM %.2f, ranked %.2f\n", sk,
      div, ranked);
  EXPECT_LT(sk, 10.0);
  EXPECT_LT(div, 8.5);
  EXPECT_LT(ranked, 10.0);
}

}  // namespace
}  // namespace dsks
