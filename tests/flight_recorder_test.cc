// FlightRecorder retention invariants (recent ring, slowest top-K, error
// retention) under both sequential and concurrent writers, plus the
// TraceSampler's deterministic 1-in-N schedule and its record-anyway
// overrides for errors and slow queries.
#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/sampler.h"

namespace dsks {
namespace {

obs::QuerySummary MakeSummary(double ms, bool error = false,
                              bool traced = false) {
  obs::QuerySummary s;
  s.kind = "sk";
  s.terms = 2;
  s.status = error ? "IO_ERROR" : "OK";
  s.error = error;
  s.traced = traced;
  s.total_ms = ms;
  s.total_io.pool_misses = 3;
  s.total_io.disk_reads = 3;
  return s;
}

TEST(FlightRecorderTest, RecentRingKeepsNewestAndSlowestSurviveEviction) {
  obs::FlightRecorder::Options opt;
  opt.recent_capacity = 4;
  opt.slow_capacity = 2;
  opt.error_capacity = 2;
  obs::FlightRecorder rec(opt);

  // Increasing latency: the slowest are also the newest, then one early
  // spike that recency must evict but the slow region must retain.
  const uint64_t first = rec.Record(MakeSummary(100.0));
  EXPECT_EQ(first, 1u);
  for (int i = 1; i <= 9; ++i) {
    rec.Record(MakeSummary(static_cast<double>(i)));
  }
  const obs::FlightRecorder::Snapshot snap = rec.TakeSnapshot();
  EXPECT_EQ(snap.recorded, 10u);

  // recent: newest first, exactly the ring capacity.
  ASSERT_EQ(snap.recent.size(), 4u);
  for (size_t i = 0; i < snap.recent.size(); ++i) {
    EXPECT_EQ(snap.recent[i].seq, 10u - i);
  }

  // slowest: the 100ms spike (seq 1, long gone from recent) plus the 9ms
  // runner-up, slowest first.
  ASSERT_EQ(snap.slowest.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.slowest[0].total_ms, 100.0);
  EXPECT_EQ(snap.slowest[0].seq, 1u);
  EXPECT_DOUBLE_EQ(snap.slowest[1].total_ms, 9.0);

  EXPECT_TRUE(snap.errors.empty());
}

TEST(FlightRecorderTest, ErrorsAreRetainedPastRecencyEviction) {
  obs::FlightRecorder::Options opt;
  opt.recent_capacity = 2;
  opt.slow_capacity = 1;
  opt.error_capacity = 3;
  obs::FlightRecorder rec(opt);

  rec.Record(MakeSummary(1.0, /*error=*/true));
  for (int i = 0; i < 10; ++i) {
    rec.Record(MakeSummary(2.0));
  }
  rec.Record(MakeSummary(3.0, /*error=*/true));

  const obs::FlightRecorder::Snapshot snap = rec.TakeSnapshot();
  ASSERT_EQ(snap.errors.size(), 2u);
  EXPECT_EQ(snap.errors[0].seq, 12u);  // newest first
  EXPECT_EQ(snap.errors[1].seq, 1u);
  EXPECT_STREQ(snap.errors[0].status, "IO_ERROR");
  // Both errors also went through the recent ring; only the newest remains.
  EXPECT_EQ(snap.recent[0].seq, 12u);
}

TEST(FlightRecorderTest, OccupancyGaugeTracksLiveSlotsAndClear) {
  obs::MetricsRegistry reg;
  obs::Gauge& gauge = reg.gauge("flight_recorder.entries");
  obs::FlightRecorder::Options opt;
  opt.recent_capacity = 2;
  opt.slow_capacity = 2;
  opt.error_capacity = 2;
  obs::FlightRecorder rec(opt);
  rec.set_occupancy_gauge(&gauge);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);

  rec.Record(MakeSummary(1.0));  // recent + slowest
  EXPECT_DOUBLE_EQ(gauge.value(), 2.0);
  EXPECT_EQ(rec.size(), 2u);
  rec.Record(MakeSummary(2.0, /*error=*/true));  // all three regions
  EXPECT_DOUBLE_EQ(gauge.value(), 5.0);
  // recent and slowest are full: further OK records only replace slots.
  rec.Record(MakeSummary(3.0));
  EXPECT_DOUBLE_EQ(gauge.value(), 5.0);
  rec.Record(MakeSummary(4.0));
  EXPECT_DOUBLE_EQ(gauge.value(), 5.0);

  rec.Clear();
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.TakeSnapshot().recent.size(), 0u);
  // Seq numbering restarts after Clear.
  EXPECT_EQ(rec.Record(MakeSummary(1.0)), 1u);
}

TEST(FlightRecorderTest, ConcurrentWritersLoseNothing) {
  obs::FlightRecorder::Options opt;
  opt.recent_capacity = 64;
  opt.slow_capacity = 8;
  opt.error_capacity = 16;
  obs::FlightRecorder rec(opt);

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const bool error = i % 97 == 0;
        rec.Record(MakeSummary(
            static_cast<double>(t * kPerThread + i) * 0.001, error));
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }

  EXPECT_EQ(rec.recorded(), kThreads * kPerThread);
  const obs::FlightRecorder::Snapshot snap = rec.TakeSnapshot();
  EXPECT_EQ(snap.recorded, kThreads * kPerThread);
  EXPECT_EQ(snap.recent.size(), opt.recent_capacity);
  EXPECT_EQ(snap.slowest.size(), opt.slow_capacity);
  EXPECT_EQ(snap.errors.size(), opt.error_capacity);

  // Seqs were assigned once each: every region holds distinct ones, the
  // rings in strictly newest-first order.
  std::set<uint64_t> seqs;
  for (size_t i = 0; i < snap.recent.size(); ++i) {
    EXPECT_TRUE(seqs.insert(snap.recent[i].seq).second);
    if (i > 0) {
      EXPECT_LT(snap.recent[i].seq, snap.recent[i - 1].seq);
    }
  }
  // The global slowest record (the last of thread 7) survived.
  EXPECT_DOUBLE_EQ(snap.slowest[0].total_ms,
                   (kThreads * kPerThread - 1) * 0.001);
  for (size_t i = 1; i < snap.slowest.size(); ++i) {
    EXPECT_GE(snap.slowest[i - 1].total_ms, snap.slowest[i].total_ms);
  }
  for (const obs::QuerySummary& s : snap.errors) {
    EXPECT_TRUE(s.error);
  }
}

TEST(FlightRecorderTest, RendersJson) {
  obs::FlightRecorder rec;
  obs::QuerySummary traced = MakeSummary(5.0, /*error=*/false, /*traced=*/true);
  obs::PhaseTotals& root =
      traced.phases[static_cast<size_t>(obs::Phase::kQuery)];
  root.spans = 1;
  root.exclusive_ns = 1000000;
  root.io.disk_reads = 3;
  rec.Record(traced);
  rec.Record(MakeSummary(1.0, /*error=*/true));

  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"recorded\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"phases\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"query\":{\"spans\":1,\"ms\":1.000000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"status\":\"IO_ERROR\""), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// TraceSampler

TEST(TraceSamplerTest, OneInNIsExactAndDeterministic) {
  obs::TraceSamplerConfig cfg;
  cfg.sample_every = 4;
  cfg.seed = 7;
  obs::TraceSampler a(cfg, /*stream=*/0);
  obs::TraceSampler b(cfg, /*stream=*/0);
  size_t hits = 0;
  for (int i = 0; i < 64; ++i) {
    const bool ha = a.ShouldTrace();
    EXPECT_EQ(ha, b.ShouldTrace()) << i;  // same stream, same schedule
    hits += ha ? 1 : 0;
  }
  EXPECT_EQ(hits, 16u);  // exactly 1 in 4, not 1-in-4-on-average
}

TEST(TraceSamplerTest, StreamsArePhasedApart) {
  obs::TraceSamplerConfig cfg;
  cfg.sample_every = 4;
  cfg.seed = 0;
  // Each stream still traces exactly 1 in 4; the golden-ratio phase
  // spreads the first hit so workers do not trace in lockstep.
  std::set<size_t> first_hit;
  for (uint64_t stream = 0; stream < 4; ++stream) {
    obs::TraceSampler s(cfg, stream);
    size_t hits = 0;
    for (size_t i = 0; i < 64; ++i) {
      if (s.ShouldTrace()) {
        if (hits == 0) {
          first_hit.insert(i);
        }
        ++hits;
      }
    }
    EXPECT_EQ(hits, 16u) << "stream " << stream;
  }
  EXPECT_GT(first_hit.size(), 1u);
}

TEST(TraceSamplerTest, DisabledSamplerNeverTraces) {
  obs::TraceSampler s(obs::TraceSamplerConfig{}, /*stream=*/3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(s.ShouldTrace());
  }
}

TEST(TraceSamplerTest, ShouldRecordOverrides) {
  obs::TraceSamplerConfig cfg;
  cfg.slow_ms = 5.0;
  obs::TraceSampler s(cfg, 0);
  EXPECT_TRUE(s.ShouldRecord(/*sampled=*/true, /*ok=*/true, 0.1));
  EXPECT_TRUE(s.ShouldRecord(/*sampled=*/false, /*ok=*/false, 0.1));
  EXPECT_TRUE(s.ShouldRecord(/*sampled=*/false, /*ok=*/true, 9.0));
  EXPECT_FALSE(s.ShouldRecord(/*sampled=*/false, /*ok=*/true, 0.1));

  // No slow threshold: only sampling and errors keep records.
  obs::TraceSampler t(obs::TraceSamplerConfig{}, 0);
  EXPECT_FALSE(t.ShouldRecord(/*sampled=*/false, /*ok=*/true, 1e9));
  EXPECT_TRUE(t.ShouldRecord(/*sampled=*/false, /*ok=*/false, 0.0));
}

}  // namespace
}  // namespace dsks
