#include "harness/query_executor.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/timer.h"

namespace dsks {

namespace {

/// Backoff before retry r (1-based) is r times this.
constexpr double kRetryBackoffMillis = 0.1;

}  // namespace

QueryExecutor::QueryExecutor(const ExecutorConfig& config)
    : queue_capacity_(config.queue_capacity),
      max_retries_(config.max_retries),
      sampling_(config.sampling),
      flight_recorder_(config.flight_recorder) {
  DSKS_CHECK_MSG(config.num_threads > 0, "executor needs at least one thread");
  DSKS_CHECK_MSG(config.queue_capacity > 0, "queue capacity must be positive");
  if (obs::MetricsRegistry* m = config.metrics; m != nullptr) {
    latency_ = &m->histogram("executor.query_ms");
    queries_ = &m->counter("executor.queries");
    in_flight_ = &m->gauge("query.in_flight");
    for (size_t c = 1; c < Status::kNumCodes; ++c) {  // every non-OK code
      errors_[c] = &m->counter(std::string("query.errors.") +
                               Status::CodeName(static_cast<Status::Code>(c)));
    }
    rejected_ = &m->counter("query.rejected");
    retries_ = &m->counter("query.retries");
    sampled_ = &m->counter("query.sampled");
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

void QueryExecutor::SubmitQuery(std::function<Status(QueryContext*)> task,
                                const QueryTag& tag) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_not_full_.wait(lock,
                         [this] { return queue_.size() < queue_capacity_; });
    queue_.push_back(Task{tag, std::move(task), nullptr});
  }
  queue_not_empty_.notify_one();
}

bool QueryExecutor::TrySubmitQuery(std::function<Status(QueryContext*)> task,
                                   const QueryTag& tag, Done done) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= queue_capacity_) {
      return false;  // immediate rejection — the producer never blocks
    }
    queue_.push_back(Task{tag, std::move(task), std::move(done)});
  }
  queue_not_empty_.notify_one();
  return true;
}

void QueryExecutor::Drain() {
  // A worker records its task before it marks the task done under mu_, so
  // the registry holds every finished task once this wait returns.
  std::unique_lock<std::mutex> lock(mu_);
  all_idle_.wait(lock, [this] { return queue_.empty() && active_tasks_ == 0; });
}

void QueryExecutor::RecordCompletion(const Status& status, double millis,
                                     uint64_t retries, bool sampled) {
  if (latency_ == nullptr) {
    return;  // no registry: nothing records
  }
  // A query rejected at the validation boundary never ran a search: it
  // counts as an error (and under `rejected`), but not as served
  // throughput — no latency entry, no qps.
  if (status.IsInvalidArgument()) {
    rejected_->Add();
  } else {
    latency_->Record(millis);
    queries_->Add();
  }
  if (!status.ok()) {
    errors_[static_cast<size_t>(status.code())]->Add();
  }
  if (retries > 0) {
    retries_->Add(retries);
  }
  if (sampled) {
    sampled_->Add();
  }
}

void QueryExecutor::WorkerLoop(size_t worker_id) {
  QueryContext* ctx = contexts_[worker_id].get();
  // The worker's one trace (capacity survives Clear; Database::Run* binds
  // it to the context's counters), plus this worker's slice of the
  // sampling stream. Both are worker-private: no locks on the trace path.
  obs::QueryTrace trace;
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
    // The sampler advances on every task, so `sampled` stays exactly
    // 1-in-N whatever the tags ask for.
    const bool sampled = sampler.ShouldTrace();
    const bool traced = sampled || task.tag.trace;
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
    // The latency covers retries and `done` too — that time was spent on
    // the query.
    Timer timer;
    Status status = task.fn(ctx);
    uint64_t task_retries = 0;
    while (status.IsIOError() && task_retries < max_retries_) {
      ++task_retries;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          kRetryBackoffMillis * static_cast<double>(task_retries)));
      status = task.fn(ctx);
    }
    if (task.done) {
      task.done(status);
    }
    const double millis = timer.ElapsedMillis();
    if (in_flight_ != nullptr) {
      in_flight_->Sub(1.0);
    }
    if (traced) {
      ctx->trace = nullptr;
    }
    if (flight_recorder_ != nullptr &&
        sampler.ShouldRecord(sampled, status.ok(), millis)) {
      obs::QuerySummary summary;
      summary.kind = task.tag.kind;
      summary.terms = task.tag.terms;
      summary.status = status.ok() ? "OK" : status.code_name();
      summary.error = !status.ok();
      summary.traced = traced;
      summary.total_ms = millis;
      summary.total_io = ctx->io - io_before;
      if (traced) {
        summary.phases = trace.AggregateByPhase();
      }
      flight_recorder_->Record(summary);
    }
    RecordCompletion(status, millis, task_retries, sampled);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_tasks_;
      if (queue_.empty() && active_tasks_ == 0) {
        all_idle_.notify_all();
      }
    }
  }
}

}  // namespace dsks
