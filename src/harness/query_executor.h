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

/// Fixed-size thread pool with a bounded work queue, built for running
/// many independent read-only queries against one shared Database (whose
/// storage layer is concurrent-reader-safe — see DESIGN.md "Threading
/// model"). Each worker times every task it runs and records it once, as
/// it completes, into the configured registry — its one record of a
/// finished query — so a live scrape sees every finished query whether or
/// not anyone ever calls Drain(). A caller that wants the numbers of one
/// batch gives the executor a registry of its own.
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
  /// survives is counted under "query.errors.<CODE>". The task must be
  /// safe to re-run from scratch — every Run*Query is — and must not
  /// touch single-writer state of the shared database (index builds,
  /// SetCapacity, Clear, counter resets). `tag` shows up in the query's
  /// flight-recorder entry when the sampling/recording policy keeps one.
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

  /// Blocks until every submitted task has finished and been recorded.
  /// The executor stays usable for further submissions.
  void Drain();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop(size_t worker_id);
  /// Records one finished task into the registry (no-op without one).
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

  /// contexts_[i] is touched only by worker i.
  std::vector<std::unique_ptr<QueryContext>> contexts_;
  const obs::TraceSamplerConfig sampling_;
  obs::FlightRecorder* const flight_recorder_;
  /// Registry instruments, resolved once at construction (all null
  /// without a registry). Workers Add/Sub in_flight_ around each task.
  obs::Histogram* latency_ = nullptr;
  obs::Counter* queries_ = nullptr;
  std::array<obs::Counter*, Status::kNumCodes> errors_{};
  obs::Counter* rejected_ = nullptr;
  obs::Counter* retries_ = nullptr;
  obs::Counter* sampled_ = nullptr;
  obs::Gauge* in_flight_ = nullptr;
  /// Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace dsks

#endif  // DSKS_HARNESS_QUERY_EXECUTOR_H_
