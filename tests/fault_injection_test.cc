// Storage fault injection: deterministic fault draws, one-shot and
// targeted faults, checksum verification on read, and the contract that
// every failure surfaces as a Status while the disk/pool stay usable.
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage_test_util.h"
#include "storage/fault_injector.h"
#include "storage/page.h"

namespace dsks {
namespace {

/// Fills `page` with a pattern derived from `tag`.
void FillPage(char* page, char tag) { std::memset(page, tag, kPageSize); }

TEST(FaultInjectionTest, DisarmedDiskReadsAndWritesCleanly) {
  dsks::testing::TestDisk disk;
  const PageId p = disk->AllocatePage();
  char buf[kPageSize];
  FillPage(buf, 'a');
  ASSERT_TRUE(disk->WritePage(p, buf).ok());
  char out[kPageSize];
  ASSERT_TRUE(disk->ReadPage(p, out).ok());
  EXPECT_EQ(std::memcmp(buf, out, kPageSize), 0);
  EXPECT_FALSE(disk->fault_injector()->armed());
  EXPECT_EQ(disk->stats().read_faults.load(), 0u);
  EXPECT_EQ(disk->stats().corruptions_detected.load(), 0u);
}

TEST(FaultInjectionTest, OneShotReadFaultFiresExactlyOnce) {
  dsks::testing::TestDisk disk;
  const PageId p = disk->AllocatePage();
  char buf[kPageSize];
  FillPage(buf, 'b');
  ASSERT_TRUE(disk->WritePage(p, buf).ok());

  disk->fault_injector()->InjectReadFaultOnce();
  EXPECT_TRUE(disk->fault_injector()->armed());
  char out[kPageSize];
  EXPECT_TRUE(disk->ReadPage(p, out).IsIOError());
  // The fault is consumed: the retry succeeds with intact data.
  ASSERT_TRUE(disk->ReadPage(p, out).ok());
  EXPECT_EQ(std::memcmp(buf, out, kPageSize), 0);
  EXPECT_EQ(disk->stats().read_faults.load(), 1u);
  EXPECT_EQ(disk->fault_injector()->stats().read_faults, 1u);
}

TEST(FaultInjectionTest, OneShotWriteFaultLeavesStoredPageIntact) {
  dsks::testing::TestDisk disk;
  const PageId p = disk->AllocatePage();
  char original[kPageSize];
  FillPage(original, 'c');
  ASSERT_TRUE(disk->WritePage(p, original).ok());

  disk->fault_injector()->InjectWriteFaultOnce();
  char update[kPageSize];
  FillPage(update, 'd');
  EXPECT_TRUE(disk->WritePage(p, update).IsIOError());
  // The failed write must not have touched the page or its checksum.
  char out[kPageSize];
  ASSERT_TRUE(disk->ReadPage(p, out).ok());
  EXPECT_EQ(std::memcmp(original, out, kPageSize), 0);
  EXPECT_EQ(disk->stats().write_faults.load(), 1u);
}

TEST(FaultInjectionTest, TargetedPageFaultsHitOnlyThatPage) {
  dsks::testing::TestDisk disk;
  const PageId victim = disk->AllocatePage();
  const PageId bystander = disk->AllocatePage();
  char buf[kPageSize];
  FillPage(buf, 'e');
  ASSERT_TRUE(disk->WritePage(victim, buf).ok());
  ASSERT_TRUE(disk->WritePage(bystander, buf).ok());

  disk->fault_injector()->FailPageReads(victim, 2);
  char out[kPageSize];
  EXPECT_TRUE(disk->ReadPage(victim, out).IsIOError());
  ASSERT_TRUE(disk->ReadPage(bystander, out).ok());  // unaffected
  EXPECT_TRUE(disk->ReadPage(victim, out).IsIOError());
  // Two targeted faults armed, two fired; the page recovers.
  ASSERT_TRUE(disk->ReadPage(victim, out).ok());
  EXPECT_EQ(std::memcmp(buf, out, kPageSize), 0);
  EXPECT_EQ(disk->stats().read_faults.load(), 2u);
}

TEST(FaultInjectionTest, AtRestCorruptionIsCaughtByChecksum) {
  dsks::testing::TestDisk disk;
  const PageId p = disk->AllocatePage();
  char buf[kPageSize];
  FillPage(buf, 'f');
  ASSERT_TRUE(disk->WritePage(p, buf).ok());

  disk->CorruptStoredPage(p, /*bit_index=*/12345);
  char out[kPageSize];
  EXPECT_TRUE(disk->ReadPage(p, out).IsCorruption());
  EXPECT_EQ(disk->stats().corruptions_detected.load(), 1u);
  // Rewriting the page refreshes the checksum and heals it.
  ASSERT_TRUE(disk->WritePage(p, buf).ok());
  ASSERT_TRUE(disk->ReadPage(p, out).ok());
  EXPECT_EQ(std::memcmp(buf, out, kPageSize), 0);
}

TEST(FaultInjectionTest, InjectedBitFlipOnReadIsCorruption) {
  dsks::testing::TestDisk disk;
  const PageId p = disk->AllocatePage();
  char buf[kPageSize];
  FillPage(buf, 'g');
  ASSERT_TRUE(disk->WritePage(p, buf).ok());

  FaultInjector::Config cfg;
  cfg.corrupt_read_p = 1.0;  // every read comes back with one flipped bit
  cfg.seed = 99;
  disk->fault_injector()->Configure(cfg);
  char out[kPageSize];
  EXPECT_TRUE(disk->ReadPage(p, out).IsCorruption());
  EXPECT_GE(disk->fault_injector()->stats().corruptions, 1u);
  EXPECT_GE(disk->stats().corruptions_detected.load(), 1u);

  disk->fault_injector()->Disarm();
  EXPECT_FALSE(disk->fault_injector()->armed());
  // The stored page was never touched: the flip went into a private copy.
  ASSERT_TRUE(disk->ReadPage(p, out).ok());
  EXPECT_EQ(std::memcmp(buf, out, kPageSize), 0);
}

TEST(FaultInjectionTest, FaultCountIsAFunctionOfSeedAndOpCount) {
  // The injector hashes (seed, op counter), so the number of faults over N
  // reads is reproducible run to run — the property the chaos test's exact
  // accounting relies on.
  constexpr size_t kReads = 4000;
  constexpr double kP = 0.01;
  auto run = [](uint64_t seed) {
    dsks::testing::TestDisk disk;
    const PageId p = disk->AllocatePage();
    char buf[kPageSize];
    FillPage(buf, 'h');
    const Status ws = disk->WritePage(p, buf);
    EXPECT_TRUE(ws.ok());
    FaultInjector::Config cfg;
    cfg.read_fault_p = kP;
    cfg.seed = seed;
    disk->fault_injector()->Configure(cfg);
    size_t faults = 0;
    char out[kPageSize];
    for (size_t i = 0; i < kReads; ++i) {
      if (disk->ReadPage(p, out).IsIOError()) {
        ++faults;
      }
    }
    return faults;
  };
  const size_t a = run(42);
  EXPECT_EQ(a, run(42)) << "same seed, same op count, same fault count";
  EXPECT_NE(a, run(43)) << "a different seed draws a different pattern";
  // The rate is in the right ballpark (40 expected; 5x margins).
  EXPECT_GT(a, 8u);
  EXPECT_LT(a, 200u);
}

TEST(FaultInjectionTest, BufferPoolPropagatesReadErrorsAndRecovers) {
  dsks::testing::TestDisk disk;
  const PageId p = dsks::testing::FillPages(disk.get(), 1);
  BufferPool pool(disk.get(), 8);

  disk->fault_injector()->FailPageReads(p, 1);
  char* out = reinterpret_cast<char*>(0x1);
  char* const sentinel = out;
  EXPECT_TRUE(pool.FetchPage(p, &out).IsIOError());
  EXPECT_EQ(out, sentinel) << "failed fetch must not touch *out";
  // Nothing is pinned after a failed fetch; the pool remains usable and
  // the next fetch re-reads the page successfully.
  ASSERT_TRUE(pool.FetchPage(p, &out).ok());
  EXPECT_EQ(out[17], dsks::testing::FillByte(0));
  pool.UnpinPage(p, /*dirty=*/false);
}

TEST(FaultInjectionTest, BufferPoolSurfacesCorruptPage) {
  dsks::testing::TestDisk disk;
  const PageId p = dsks::testing::FillPages(disk.get(), 1);
  BufferPool pool(disk.get(), 8);

  disk->CorruptStoredPage(p, /*bit_index=*/7);
  char* out = nullptr;
  EXPECT_TRUE(pool.FetchPage(p, &out).IsCorruption());
  EXPECT_EQ(disk->stats().corruptions_detected.load(), 1u);
}

// On a lending disk (sim) the pool's page is the disk's stored image, so
// an injected bit flip must land in a private copy: the fetch fails, and
// once the injector is off the same fetch returns the bytes written.
TEST(FaultInjectionTest, InjectedFlipNeverReachesTheStoredPage) {
  dsks::testing::TestDisk disk;
  const PageId p = dsks::testing::FillPages(disk.get(), 1);
  BufferPool pool(disk.get(), 8);
  FaultInjector::Config config;
  config.corrupt_read_p = 1.0;
  disk->fault_injector()->Configure(config);

  char* out = nullptr;
  EXPECT_TRUE(pool.FetchPage(p, &out).IsCorruption());
  EXPECT_EQ(disk->stats().corruptions_detected.load(), 1u);
  EXPECT_EQ(pool.num_frames_in_use(), 0u);

  disk->fault_injector()->Disarm();
  ASSERT_TRUE(pool.FetchPage(p, &out).ok());
  const std::string expected(kPageSize, dsks::testing::FillByte(0));
  EXPECT_EQ(std::string(out, kPageSize), expected);
  pool.UnpinPage(p, /*dirty=*/false);
  EXPECT_EQ(disk->stats().corruptions_detected.load(), 1u);
}

TEST(FaultInjectionTest, CachedPagesAreImmuneToReadFaults) {
  // Checksum verification and read faults live on the miss path only: a
  // page resident in the pool never touches the disk again.
  dsks::testing::TestDisk disk;
  const PageId p = dsks::testing::FillPages(disk.get(), 1);
  BufferPool pool(disk.get(), 8);
  char* out = dsks::testing::MustFetch(&pool, p);  // resident from here on
  pool.UnpinPage(p, /*dirty=*/false);

  FaultInjector::Config cfg;
  cfg.read_fault_p = 1.0;  // every *disk* read fails...
  cfg.seed = 7;
  disk->fault_injector()->Configure(cfg);
  ASSERT_TRUE(pool.FetchPage(p, &out).ok());  // ...but this one is a hit
  EXPECT_EQ(out[3], dsks::testing::FillByte(0));
  pool.UnpinPage(p, /*dirty=*/false);
  EXPECT_EQ(disk->stats().read_faults.load(), 0u);
}

}  // namespace
}  // namespace dsks
