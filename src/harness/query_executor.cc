#include "harness/query_executor.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/timer.h"
#include "harness/experiment.h"

namespace dsks {

QueryExecutor::QueryExecutor(const ExecutorConfig& config)
    : queue_capacity_(config.queue_capacity),
      max_retries_(config.max_retries),
      retry_backoff_millis_(config.retry_backoff_millis),
      sampling_(config.sampling),
      flight_recorder_(config.flight_recorder) {
  DSKS_CHECK_MSG(config.num_threads > 0, "executor needs at least one thread");
  DSKS_CHECK_MSG(config.queue_capacity > 0, "queue capacity must be positive");
  if (obs::MetricsRegistry* m = config.metrics; m != nullptr) {
    published_latency_ = &m->histogram("executor.query_ms");
    published_queries_ = &m->counter("executor.queries");
    in_flight_ = &m->gauge("query.in_flight");
    for (size_t c = 1; c < Status::kNumCodes; ++c) {  // every non-OK code
      errors_[c].published =
          &m->counter(std::string("query.errors.") +
                      Status::CodeName(static_cast<Status::Code>(c)));
    }
    rejected_.published = &m->counter("query.rejected");
    retries_.published = &m->counter("query.retries");
    sampled_.published = &m->counter("query.sampled");
  }
  contexts_.reserve(config.num_threads);
  for (size_t i = 0; i < config.num_threads; ++i) {
    contexts_.push_back(std::make_unique<QueryContext>());
  }
  workers_.reserve(config.num_threads);
  for (size_t i = 0; i < config.num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

QueryExecutor::~QueryExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_not_empty_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void QueryExecutor::Submit(std::function<void()> task) {
  SubmitQuery([task = std::move(task)](QueryContext* /*ctx*/) {
    task();
    return Status::Ok();
  });
}

void QueryExecutor::SubmitWithContext(
    std::function<void(QueryContext*)> task) {
  SubmitQuery([task = std::move(task)](QueryContext* ctx) {
    task(ctx);
    return Status::Ok();
  });
}

void QueryExecutor::SubmitQuery(std::function<Status(QueryContext*)> task) {
  SubmitQuery(QueryTag{}, std::move(task));
}

void QueryExecutor::SubmitQuery(const QueryTag& tag,
                                std::function<Status(QueryContext*)> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_not_full_.wait(lock,
                         [this] { return queue_.size() < queue_capacity_; });
    queue_.push_back(Task{tag, std::move(task)});
  }
  queue_not_empty_.notify_one();
}

bool QueryExecutor::TrySubmitQuery(const QueryTag& tag,
                                   std::function<Status(QueryContext*)> task,
                                   double wait_millis) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (queue_.size() >= queue_capacity_) {
      if (wait_millis <= 0.0) {
        return false;  // immediate rejection — the producer never blocks
      }
      // Bounded submit deadline: wait up to wait_millis for space, then
      // give up. wait_for re-checks the predicate on spurious wakeups.
      if (!queue_not_full_.wait_for(
              lock, std::chrono::duration<double, std::milli>(wait_millis),
              [this] { return queue_.size() < queue_capacity_; })) {
        return false;
      }
    }
    queue_.push_back(Task{tag, std::move(task)});
  }
  queue_not_empty_.notify_one();
  return true;
}

bool QueryExecutor::TrySubmitQuery(std::function<Status(QueryContext*)> task,
                                   double wait_millis) {
  return TrySubmitQuery(QueryTag{}, std::move(task), wait_millis);
}

QueryExecutor::DrainResult QueryExecutor::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  all_idle_.wait(lock, [this] { return queue_.empty() && active_tasks_ == 0; });
  // Idle, and no worker can pop a task while we hold mu_: nothing records
  // during the read-and-reset below, and the mutex hand-off orders every
  // finished task's records before it.
  const auto take = [](obs::PublishedCounter* c) {
    const uint64_t n = c->local.value();
    c->local.Reset();
    return n;
  };
  DrainResult result;
  result.latency = latency_.Snapshot();
  latency_.Reset();
  for (size_t c = 0; c < Status::kNumCodes; ++c) {
    result.errors[c] = take(&errors_[c]);
  }
  result.rejected = take(&rejected_);
  result.retries = take(&retries_);
  result.sampled = take(&sampled_);
  return result;
}

void QueryExecutor::RecordCompletion(const Status& status, double millis,
                                     uint64_t retries, bool traced) {
  // A query rejected at the validation boundary never ran a search: it
  // counts as an error (and under `rejected`), but not as served
  // throughput — no latency entry, no qps.
  if (status.IsInvalidArgument()) {
    rejected_.Add();
  } else {
    latency_.Record(millis);
    if (published_latency_ != nullptr) {
      published_latency_->Record(millis);
      published_queries_->Add();
    }
  }
  if (!status.ok()) {
    errors_[static_cast<size_t>(status.code())].Add();
  }
  if (retries > 0) {
    retries_.Add(retries);
  }
  if (traced) {
    sampled_.Add();
  }
}

void QueryExecutor::WorkerLoop(size_t worker_id) {
  QueryContext* ctx = contexts_[worker_id].get();
  // Reusable per-worker trace sink (capacity survives Clear) bound to this
  // worker's context counters, plus this worker's slice of the sampling
  // stream. Both are worker-private: no locks on the trace path.
  obs::QueryTrace trace;
  trace.BindContextIo(&ctx->io);
  obs::TraceSampler sampler(sampling_, worker_id);
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_not_empty_.wait(lock,
                            [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping_ and no work left
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_tasks_;
    }
    queue_not_full_.notify_one();
    const bool traced = sampler.ShouldTrace();
    if (traced) {
      trace.Clear();
      ctx->trace = &trace;
    }
    if (in_flight_ != nullptr) {
      in_flight_->Add(1.0);
    }
    // Snapshot the context's attribution counters so the delta across the
    // task is this query's exact I/O — with or without a trace.
    const obs::IoCounters io_before = ctx->io;
    // The latency covers retries too — that time was spent on the query.
    Timer timer;
    Status status = task.fn(ctx);
    uint64_t task_retries = 0;
    while (status.IsIOError() && task_retries < max_retries_) {
      ++task_retries;
      if (retry_backoff_millis_ > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            retry_backoff_millis_ * static_cast<double>(task_retries)));
      }
      status = task.fn(ctx);
    }
    const double millis = timer.ElapsedMillis();
    if (in_flight_ != nullptr) {
      in_flight_->Sub(1.0);
    }
    if (traced) {
      ctx->trace = nullptr;
    }
    if (flight_recorder_ != nullptr &&
        sampler.ShouldRecord(traced, status.ok(), millis)) {
      obs::QuerySummary summary;
      summary.kind = task.tag.kind;
      summary.terms = task.tag.terms;
      summary.status = status.ok() ? "OK" : status.code_name();
      summary.error = !status.ok();
      summary.traced = traced;
      summary.total_ms = millis;
      summary.total_io = ctx->io - io_before;
      if (traced && trace.open_depth() == 0) {
        const auto totals = trace.AggregateByPhase();
        for (size_t p = 0; p < obs::kNumPhases; ++p) {
          summary.phase_exclusive_ns[p] = totals[p].exclusive_ns;
          summary.phase_io[p] = totals[p].io;
        }
      }
      flight_recorder_->Record(summary);
    }
    RecordCompletion(status, millis, task_retries, traced);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_tasks_;
      if (queue_.empty() && active_tasks_ == 0) {
        all_idle_.notify_all();
      }
    }
  }
}

ThroughputMetrics SummarizeThroughput(
    size_t num_threads, double wall_millis,
    const QueryExecutor::DrainResult& drained) {
  const obs::HistogramSnapshot& h = drained.latency;
  ThroughputMetrics m;
  m.num_threads = num_threads;
  m.queries = h.count;
  m.wall_millis = wall_millis;
  m.errors = drained.total_errors();
  m.rejected = drained.rejected;
  if (h.count + drained.rejected > 0) {
    m.error_rate = static_cast<double>(m.errors) /
                   static_cast<double>(h.count + drained.rejected);
  }
  m.errors_by_code = drained.errors;
  m.retries = drained.retries;
  m.sampled = drained.sampled;
  m.histogram = h;
  if (h.count == 0) {
    return m;
  }
  m.qps = wall_millis > 0.0
              ? static_cast<double>(h.count) / (wall_millis / 1000.0)
              : 0.0;
  m.avg_millis = h.avg();
  m.p50_millis = h.Percentile(50);
  m.p95_millis = h.Percentile(95);
  m.p99_millis = h.Percentile(99);
  return m;
}

namespace {

ThroughputMetrics RunConcurrent(
    Database* db, const Workload& workload, size_t num_threads, size_t repeat,
    const obs::TraceSamplerConfig& sampling, obs::FlightRecorder* recorder,
    const char* kind,
    const std::function<Status(const WorkloadQuery&, QueryContext*)>&
        run_one) {
  DSKS_CHECK_MSG(!workload.queries.empty(), "empty workload");
  DSKS_CHECK_MSG(repeat > 0, "repeat must be positive");
  // Yielding delay: a blocked "disk read" frees its core, so concurrent
  // queries overlap I/O the way they would on a real disk.
  ScopedIoDelay delay(db, /*yielding=*/true);
  ExecutorConfig config;
  config.num_threads = num_threads;
  config.sampling = sampling;
  config.flight_recorder = recorder;
  QueryExecutor exec(config);
  Timer wall;
  for (size_t r = 0; r < repeat; ++r) {
    for (const WorkloadQuery& wq : workload.queries) {
      QueryTag tag;
      tag.kind = kind;
      tag.terms = static_cast<uint32_t>(wq.sk.terms.size());
      exec.SubmitQuery(tag, [&run_one, &wq](QueryContext* ctx) {
        return run_one(wq, ctx);
      });
    }
  }
  const QueryExecutor::DrainResult drained = exec.Drain();
  ThroughputMetrics m =
      SummarizeThroughput(num_threads, wall.ElapsedMillis(), drained);
  m.sample_rate = sampling.sample_every;
  return m;
}

}  // namespace

ThroughputMetrics RunSkWorkloadConcurrent(
    Database* db, const Workload& workload, size_t num_threads, size_t repeat,
    const obs::TraceSamplerConfig& sampling, obs::FlightRecorder* recorder) {
  return RunConcurrent(db, workload, num_threads, repeat, sampling, recorder,
                       "sk",
                       [db](const WorkloadQuery& wq, QueryContext* ctx) {
                         std::vector<SkResult> results;
                         return db->RunSkQuery(wq.sk, wq.edge, &results, ctx);
                       });
}

ThroughputMetrics RunDivWorkloadConcurrent(
    Database* db, const Workload& workload, size_t k, double lambda,
    bool use_com, size_t num_threads, size_t repeat,
    const obs::TraceSamplerConfig& sampling, obs::FlightRecorder* recorder) {
  return RunConcurrent(
      db, workload, num_threads, repeat, sampling, recorder,
      use_com ? "div-com" : "div-seq",
      [db, k, lambda, use_com](const WorkloadQuery& wq, QueryContext* ctx) {
        DivQuery dq;
        dq.sk = wq.sk;
        dq.k = k;
        dq.lambda = lambda;
        DivSearchOutput out;
        return db->RunDivQuery(dq, wq.edge, use_com, &out, ctx);
      });
}

}  // namespace dsks
