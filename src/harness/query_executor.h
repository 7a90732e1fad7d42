#ifndef DSKS_HARNESS_QUERY_EXECUTOR_H_
#define DSKS_HARNESS_QUERY_EXECUTOR_H_

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/query_context.h"
#include "datagen/workload.h"
#include "harness/database.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace dsks {

/// Thread-pool settings for QueryExecutor.
struct ExecutorConfig {
  /// Worker threads running queries. 1 degenerates to (almost) the
  /// sequential harness, with one extra thread doing the work.
  size_t num_threads = 1;
  /// Bound on queued-but-unstarted tasks; SubmitQuery blocks when the
  /// queue is full so a fast producer cannot outrun the workers
  /// unboundedly.
  size_t queue_capacity = 1024;
  /// Registry every query is recorded into as it completes
  /// ("executor.query_ms" histogram, "executor.queries" counter,
  /// "query.errors.<CODE>" counters and the rest). Null disables
  /// publication.
  obs::MetricsRegistry* metrics = &obs::GlobalMetrics();
  /// Bounded retry for *transient* faults: a query that fails with
  /// IO_ERROR is re-run up to this many times, r * 0.1 ms after attempt r,
  /// before counting as failed. Corruption and invalid-argument failures
  /// never retry — re-reading a bad checksum or a bad query cannot help.
  size_t max_retries = 0;
  /// Always-on sampled tracing: each worker traces a deterministic
  /// 1-in-N subset of the queries it runs (sampling.sample_every; worker
  /// id is the sampler stream) into its reusable QueryTrace — the same
  /// trace a QueryTag::trace task runs under. Defaults to off, which
  /// keeps the per-query cost at one branch.
  obs::TraceSamplerConfig sampling;
  /// Sink for completed-query summaries: every sampled query, every
  /// errored query, and every query slower than sampling.slow_ms records
  /// one entry (see TraceSampler::ShouldRecord). Null disables recording;
  /// the recorder must outlive the executor.
  obs::FlightRecorder* flight_recorder = nullptr;
};

/// Identity carried alongside a submitted query into its flight-recorder
/// entry, plus whether the caller wants its trace. Every field is
/// optional; `kind` must be a static-lifetime string (a literal, a
/// workload label).
struct QueryTag {
  const char* kind = "query";
  uint32_t terms = 0;
  /// Run the task traced even when the sampler does not pick it (a
  /// request's "trace":true): the task reads its spans from ctx->trace,
  /// the worker's one trace, which also feeds the task's flight-recorder
  /// entry. It is not counted as sampled and does not by itself record
  /// an entry.
  bool trace = false;
};

/// Aggregate results of a concurrent batch: throughput plus the latency
/// distribution of the executor's drained histogram.
struct ThroughputMetrics {
  size_t num_threads = 0;
  size_t queries = 0;
  /// Wall-clock time of the whole batch (submit of the first query to
  /// drain), which is what queries/sec is computed from.
  double wall_millis = 0.0;
  double qps = 0.0;
  /// From the histogram: avg is exact, the percentiles are interpolated
  /// within one bucket (HistogramSnapshot::Percentile).
  double avg_millis = 0.0;
  double p50_millis = 0.0;
  double p95_millis = 0.0;
  double p99_millis = 0.0;
  /// Queries that ended with a non-OK Status (after any retries). Failed
  /// queries that actually ran still count in `queries` and in the latency
  /// distribution — the time was spent either way. Queries rejected at the
  /// validation boundary (INVALID_ARGUMENT) count here and in `rejected`
  /// but NOT in `queries`/qps/percentiles: they never ran a search, and
  /// letting them inflate throughput skews benches under malformed-input
  /// chaos.
  uint64_t errors = 0;
  /// Validation-boundary rejections (INVALID_ARGUMENT), a subset of
  /// `errors`; excluded from `queries` and the latency distribution.
  uint64_t rejected = 0;
  /// errors / (queries + rejected) (0 when the batch is empty).
  double error_rate = 0.0;
  /// Failure breakdown indexed by Status::Code.
  std::array<uint64_t, Status::kNumCodes> errors_by_code{};
  /// Transient-fault re-runs that happened under the retry policy.
  uint64_t retries = 0;
  /// Queries that ran traced under the sampling policy (0 when off).
  uint64_t sampled = 0;
  /// The sampling config's 1-in-N (0 when sampling was off).
  uint32_t sample_rate = 0;
  /// The batch's latency histogram; lets benches report the full
  /// distribution without keeping every raw sample.
  obs::HistogramSnapshot histogram;
};

/// Fixed-size thread pool with a bounded work queue, built for running
/// many independent read-only queries against one shared Database (whose
/// storage layer is concurrent-reader-safe — see DESIGN.md "Threading
/// model"). Each worker times every task it runs and records it once, as
/// it completes, into the executor's batch instruments and the configured
/// registry in the same step — so a live scrape sees every finished query
/// whether or not anyone ever calls Drain().
///
/// Every worker owns a QueryContext, handed to each task it runs —
/// steady-state queries then reuse the worker's scratch instead of
/// allocating per query.
class QueryExecutor {
 public:
  explicit QueryExecutor(const ExecutorConfig& config);

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// Drains outstanding work, then joins the workers.
  ~QueryExecutor();

  /// Called once per task, on its worker, with the task's final Status.
  using Done = std::function<void(const Status&)>;

  /// Enqueues one query; blocks while the queue is at capacity — the
  /// back-pressure a bench producer wants. A non-OK result is a *recorded
  /// failure*, never a crash: IO_ERROR failures are re-run up to
  /// config.max_retries times with linear backoff, and whatever Status
  /// survives is tallied per code (DrainResult::errors and
  /// "query.errors.<CODE>"). The task must be safe to re-run from scratch
  /// — every Run*Query is — and must not touch single-writer state of the
  /// shared database (index builds, SetCapacity, Clear, counter resets).
  /// `tag` shows up in the query's flight-recorder entry when the
  /// sampling/recording policy keeps one.
  void SubmitQuery(std::function<Status(QueryContext*)> task,
                   const QueryTag& tag = {});

  /// Non-blocking admission, the server-side path: enqueues like
  /// SubmitQuery but never waits on a full queue. Returns false when the
  /// task was NOT admitted; the caller owns the rejection (a server
  /// answers RESOURCE_EXHAUSTED and counts the shed). `done`, when set,
  /// runs after the last attempt — retries included — so a caller that
  /// answers a client from it answers exactly once.
  bool TrySubmitQuery(std::function<Status(QueryContext*)> task,
                      const QueryTag& tag = {}, Done done = nullptr);

  /// What one Drain hands back: the batch's latency histogram plus its
  /// failure tallies.
  struct DrainResult {
    /// Milliseconds per served query, retries included.
    obs::HistogramSnapshot latency;
    /// Final (post-retry) failures by Status::Code.
    std::array<uint64_t, Status::kNumCodes> errors{};
    /// Validation-boundary rejections (INVALID_ARGUMENT results), also
    /// tallied in errors[kInvalidArgument] but excluded from latency — a
    /// rejected query never ran a search, so it must not count as served
    /// throughput.
    uint64_t rejected = 0;
    /// Transient-fault re-runs performed by the retry policy.
    uint64_t retries = 0;
    /// Queries of the batch that ran traced under the sampling policy.
    uint64_t sampled = 0;

    uint64_t total_errors() const {
      uint64_t n = 0;
      for (const uint64_t e : errors) {
        n += e;
      }
      return n;
    }
  };

  /// Blocks until every submitted task has finished, then snapshots and
  /// resets the batch instruments. Publishes nothing — every query was
  /// recorded into the registry as it completed. The executor stays
  /// usable for further submissions.
  DrainResult Drain();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop(size_t worker_id);
  /// Records one finished task into the batch instruments and the
  /// registry, in the same step.
  void RecordCompletion(const Status& status, double millis,
                        uint64_t retries, bool sampled);

  const size_t queue_capacity_;
  const size_t max_retries_;

  std::mutex mu_;
  std::condition_variable queue_not_full_;
  std::condition_variable queue_not_empty_;
  std::condition_variable all_idle_;
  struct Task {
    QueryTag tag;
    std::function<Status(QueryContext*)> fn;
    Done done;
  };
  std::deque<Task> queue_;
  size_t active_tasks_ = 0;
  bool stopping_ = false;

  /// Batch instruments, recorded by any worker (relaxed atomics) and read
  /// and reset by Drain() while it holds mu_ with no task active. Each
  /// counter also feeds its registry counter (PublishedCounter).
  obs::Histogram latency_;
  std::array<obs::PublishedCounter, Status::kNumCodes> errors_;
  obs::PublishedCounter rejected_, retries_, sampled_;
  /// contexts_[i] is touched only by worker i.
  std::vector<std::unique_ptr<QueryContext>> contexts_;
  const obs::TraceSamplerConfig sampling_;
  obs::FlightRecorder* const flight_recorder_;
  /// Registry instruments, resolved once at construction (null without a
  /// registry). Workers Add/Sub in_flight_ around each task.
  obs::Histogram* published_latency_ = nullptr;
  obs::Counter* published_queries_ = nullptr;
  obs::Gauge* in_flight_ = nullptr;
  /// Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

/// Derives queries/sec from the batch wall time, plus avg/p50/p95/p99
/// and the failure fields, from one drained batch.
ThroughputMetrics SummarizeThroughput(
    size_t num_threads, double wall_millis,
    const QueryExecutor::DrainResult& drained);

/// Runs `repeat` passes over the workload's SK queries on `num_threads`
/// workers sharing `db` and reports aggregate throughput. Applies the same
/// ScopedIoDelay as the sequential harness so numbers are comparable.
/// `sampling`/`recorder` feed the executor's sampled-tracing policy (both
/// default to off/none).
ThroughputMetrics RunSkWorkloadConcurrent(
    Database* db, const Workload& workload, size_t num_threads,
    size_t repeat = 1, const obs::TraceSamplerConfig& sampling = {},
    obs::FlightRecorder* recorder = nullptr);

/// Concurrent counterpart of RunDivWorkload.
ThroughputMetrics RunDivWorkloadConcurrent(
    Database* db, const Workload& workload, size_t k, double lambda,
    bool use_com, size_t num_threads, size_t repeat = 1,
    const obs::TraceSamplerConfig& sampling = {},
    obs::FlightRecorder* recorder = nullptr);

}  // namespace dsks

#endif  // DSKS_HARNESS_QUERY_EXECUTOR_H_
