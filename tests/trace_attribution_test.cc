// Exact per-query I/O attribution under real concurrency: eight threads
// run traced queries against one shared Database (with storage faults
// armed), and two identities must hold exactly — per trace, the sum of
// every phase's exclusive share equals the root's inclusive total; across
// threads, the per-context charges sum to the global pool/disk counter
// deltas, proving no thread's traffic leaks into another's account.
#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/status.h"
#include "datagen/presets.h"
#include "datagen/workload.h"
#include "gtest/gtest.h"
#include "harness/database.h"
#include "obs/io_account.h"
#include "obs/trace.h"
#include "storage/fault_injector.h"
#include "storage_test_util.h"

namespace dsks {
namespace {

DatasetConfig TinyPreset() {
  DatasetConfig c = ScalePreset(PresetSYN(), 0.03);
  c.objects.keywords_per_object = 6;
  return c;
}

TEST(TraceAttributionTest, EightThreadsTelescopeExactlyUnderFaults) {
  const DiskOptions disk_options = testing::TestDiskOptions("attr");
  Database db(TinyPreset(), disk_options);
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();

  WorkloadConfig wc;
  wc.num_queries = 24;
  wc.num_keywords = 2;
  wc.seed = 99;
  const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);

  // Faults on: failed queries unwind early, and their partial traces must
  // still balance and their partial I/O must still be charged exactly.
  FaultInjector::Config fc;
  fc.read_fault_p = 1e-2;
  fc.seed = 42;
  db.disk()->fault_injector()->Configure(fc);

  const BufferPoolStatsSnapshot pool_before = db.pool()->stats_snapshot();
  const auto disk_before = db.disk()->stats_snapshot();

  constexpr size_t kThreads = 8;
  constexpr size_t kRepeats = 4;
  std::vector<obs::IoCounters> charged(kThreads);
  std::array<uint64_t, kThreads> telescope_failures{};
  std::atomic<uint64_t> query_errors{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread owns its context and trace; Database::Run* installs
      // the context's counters as this thread's charge target and binds
      // the trace to them.
      QueryContext ctx;
      obs::QueryTrace trace;
      for (size_t r = 0; r < kRepeats; ++r) {
        for (const WorkloadQuery& wq : wl.queries) {
          trace.Clear();
          ctx.trace = &trace;
          std::vector<SkResult> results;
          const Status s = db.RunSkQuery(wq.sk, wq.edge, &results, &ctx);
          ctx.trace = nullptr;
          if (!s.ok()) {
            query_errors.fetch_add(1);
          }
          if (trace.open_depth() != 0 || trace.spans().empty()) {
            ++telescope_failures[t];
            continue;
          }
          const obs::TraceSpan& root = trace.spans().front();
          int64_t exclusive_ns = 0;
          obs::IoCounters exclusive_io;
          for (const obs::TraceSpan& span : trace.spans()) {
            exclusive_ns += span.exclusive_ns();
            exclusive_io += span.exclusive_io();
          }
          if (exclusive_ns != root.inclusive_ns ||
              !(exclusive_io == root.inclusive_io)) {
            ++telescope_failures[t];
          }
        }
      }
      charged[t] = ctx.io;
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }

  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(telescope_failures[t], 0u) << "thread " << t;
  }

  // The fault rate is high enough that this seeded run does fail queries;
  // attribution exactness must survive those unwinds.
  EXPECT_GT(db.disk()->fault_injector()->stats().read_faults, 0u);

  // Cross-thread: summed per-context charges equal the global deltas for
  // every counter pair — nothing double-charged, nothing dropped, no
  // account polluted by a neighbor. Exactness relies on every global
  // increment having a co-located thread-affine charge.
  obs::IoCounters total;
  for (const obs::IoCounters& io : charged) {
    total += io;
  }
  const BufferPoolStatsSnapshot pool_after = db.pool()->stats_snapshot();
  const auto disk_after = db.disk()->stats_snapshot();
  EXPECT_EQ(total.pool_hits, pool_after.hits - pool_before.hits);
  EXPECT_EQ(total.pool_misses, pool_after.misses - pool_before.misses);
  EXPECT_EQ(total.prefetched_pages,
            pool_after.prefetch_issued - pool_before.prefetch_issued);
  EXPECT_EQ(total.disk_reads, disk_after.reads - disk_before.reads);
  // Queries only read: the query phase wrote no page.
  EXPECT_EQ(disk_after.writes, disk_before.writes);
  EXPECT_GT(total.pool_hits + total.pool_misses, 0u);
  EXPECT_GT(total.disk_reads, 0u);

  testing::RemoveDiskFiles(disk_options);
}

TEST(TraceAttributionTest, ScopedAccountRestoresAndNullIsNoop) {
  obs::IoCounters outer;
  obs::IoCounters inner;
  EXPECT_EQ(obs::CurrentIoAccount(), nullptr);
  {
    obs::ScopedIoAccount a(&outer);
    EXPECT_EQ(obs::CurrentIoAccount(), &outer);
    {
      // A null installation keeps the current account: Run* called with
      // no context must not silently detach an enclosing attribution.
      obs::ScopedIoAccount b(nullptr);
      EXPECT_EQ(obs::CurrentIoAccount(), &outer);
      {
        obs::ScopedIoAccount c(&inner);
        EXPECT_EQ(obs::CurrentIoAccount(), &inner);
        obs::ChargePoolHit();
      }
      EXPECT_EQ(obs::CurrentIoAccount(), &outer);
    }
    obs::ChargePoolMiss();
    obs::ChargeDiskRead();
  }
  EXPECT_EQ(obs::CurrentIoAccount(), nullptr);
  obs::ChargePoolHit();  // uncharged: no account installed
  EXPECT_EQ(inner.pool_hits, 1u);
  EXPECT_EQ(outer.pool_hits, 0u);
  EXPECT_EQ(outer.pool_misses, 1u);
  EXPECT_EQ(outer.disk_reads, 1u);
}

}  // namespace
}  // namespace dsks
