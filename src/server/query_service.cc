#include "server/query_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/timer.h"
#include "core/query.h"
#include "core/query_context.h"
#include "datagen/workload.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "server/json.h"

namespace dsks::server {

namespace {

int64_t NowSteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Reads a non-negative finite number, rejecting anything else.
Status ReadNumber(const JsonValue& obj, const char* key, bool required,
                  double* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    if (required) {
      return Status::InvalidArgument(std::string("missing field '") + key +
                                     "'");
    }
    return Status::Ok();
  }
  if (!v->is_number()) {
    return Status::InvalidArgument(std::string("field '") + key +
                                   "' must be a number");
  }
  *out = v->number();
  return Status::Ok();
}

}  // namespace

/// One parsed request: the normalized query plus the service-level options
/// that traveled with it. `raw_id` is the request's "id" member re-rendered
/// verbatim so the response echoes whatever identifier shape (number,
/// string) the client used.
struct QueryService::Request {
  bool is_div = false;
  SkQuery sk;
  DivQuery div;
  QueryEdgeInfo edge;
  double deadline_ms = 0.0;  // 0 = service default
  bool want_trace = false;
  size_t limit = 0;  // 0 = service max_results
  std::string tenant;
  std::string raw_id;  // pre-rendered JSON for the response's "id"
  std::string batch_key;
  int64_t deadline_ns = 0;  // armed at admission
};

struct QueryService::PendingBatch {
  int64_t flush_at_ns = 0;
  std::vector<std::pair<std::shared_ptr<Request>, Completion>> members;
};

QueryService::QueryService(Database* db, const ServiceConfig& config)
    : db_(db), config_(config) {
  ExecutorConfig exec;
  exec.num_threads = std::max<size_t>(1, config_.threads);
  exec.queue_capacity = std::max<size_t>(1, config_.queue_capacity);
  exec.max_retries = config_.max_retries;
  exec.metrics = config_.metrics;
  exec.sampling = config_.sampling;
  exec.flight_recorder = config_.flight_recorder;
  executor_ = std::make_unique<QueryExecutor>(exec);

  if (config_.metrics != nullptr) {
    auto* m = config_.metrics;
    requests_.published = &m->counter("server.requests");
    invalid_.published = &m->counter("server.invalid");
    quota_denied_.published = &m->counter("server.quota_denied");
    shed_.published = &m->counter("server.shed");
    admitted_.published = &m->counter("server.admitted");
    completed_.published = &m->counter("server.completed");
    cancelled_.published = &m->counter("server.cancelled");
    batches_.published = &m->counter("server.batches");
    batched_queries_.published = &m->counter("server.batched_queries");
  }

  if (config_.batch_window_ms > 0.0) {
    batcher_ = std::thread([this] { BatcherLoop(); });
  }
}

QueryService::~QueryService() { Stop(); }

void QueryService::Stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  if (batcher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(batch_mu_);
      batcher_stop_ = true;
    }
    batch_cv_.notify_all();
    batcher_.join();
  }
  // Flush anything the batcher left behind (it flushes on stop, but be
  // safe against a Stop before the thread ever ran).
  std::map<std::string, PendingBatch> leftovers;
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    leftovers.swap(pending_batches_);
  }
  for (auto& [key, batch] : leftovers) {
    FlushBatch(std::move(batch));
  }
  // Destroying the executor drains it: every admitted query completes and
  // its completion callback has run by the time this returns.
  executor_.reset();
}

ServiceCounters QueryService::counters() const {
  ServiceCounters c;
  c.requests = requests_.local.value();
  c.invalid = invalid_.local.value();
  c.quota_denied = quota_denied_.local.value();
  c.shed = shed_.local.value();
  c.admitted = admitted_.local.value();
  c.completed = completed_.local.value();
  c.cancelled = cancelled_.local.value();
  c.batches = batches_.local.value();
  c.batched_queries = batched_queries_.local.value();
  return c;
}

Status QueryService::ParseRequest(const std::string& line,
                                  Request* out) const {
  JsonValue doc;
  DSKS_RETURN_IF_ERROR(JsonValue::Parse(line, &doc));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  const JsonValue* op = doc.Find("op");
  if (op == nullptr || !op->is_string()) {
    return Status::InvalidArgument("missing string field 'op'");
  }
  if (op->string_value() == "sk") {
    out->is_div = false;
  } else if (op->string_value() == "div") {
    out->is_div = true;
  } else {
    return Status::InvalidArgument("unknown op '" + op->string_value() +
                                   "' (want \"sk\" or \"div\")");
  }

  const JsonValue* terms = doc.Find("terms");
  if (terms == nullptr || !terms->is_array() || terms->array().empty()) {
    return Status::InvalidArgument("'terms' must be a non-empty array");
  }
  SkQuery sk;
  for (const JsonValue& t : terms->array()) {
    if (!t.is_number() || t.number() < 0.0 ||
        t.number() != static_cast<double>(static_cast<TermId>(t.number()))) {
      return Status::InvalidArgument("'terms' entries must be term ids");
    }
    sk.terms.push_back(static_cast<TermId>(t.number()));
  }

  double edge = -1.0, offset = -1.0, delta = 0.0;
  DSKS_RETURN_IF_ERROR(ReadNumber(doc, "edge", /*required=*/true, &edge));
  DSKS_RETURN_IF_ERROR(ReadNumber(doc, "offset", /*required=*/true, &offset));
  DSKS_RETURN_IF_ERROR(ReadNumber(doc, "delta", /*required=*/true, &delta));
  if (edge < 0.0 ||
      edge != static_cast<double>(static_cast<EdgeId>(edge)) ||
      static_cast<EdgeId>(edge) >= db_->network().num_edges()) {
    return Status::InvalidArgument("'edge' is not a valid edge id");
  }
  sk.loc.edge = static_cast<EdgeId>(edge);
  // Pre-check the offset against the edge length: MakeQueryEdgeInfo (and
  // the search constructors) CHECK this invariant, and an abort is exactly
  // what a network-facing boundary must never do.
  const double length = db_->network().edge(sk.loc.edge).length;
  if (!(offset >= 0.0 && offset <= length)) {
    return Status::InvalidArgument("'offset' outside [0, edge length]");
  }
  sk.loc.offset = offset;
  sk.delta_max = delta;

  if (out->is_div) {
    DivQuery div;
    div.sk = std::move(sk);
    double k = static_cast<double>(div.k), lambda = div.lambda;
    DSKS_RETURN_IF_ERROR(ReadNumber(doc, "k", /*required=*/false, &k));
    DSKS_RETURN_IF_ERROR(ReadNumber(doc, "lambda", /*required=*/false,
                                    &lambda));
    if (k < 1.0 || k != static_cast<double>(static_cast<size_t>(k))) {
      return Status::InvalidArgument("'k' must be a positive integer");
    }
    div.k = static_cast<size_t>(k);
    div.lambda = lambda;
    DSKS_RETURN_IF_ERROR(NormalizeDivQuery(&div));
    out->div = std::move(div);
    out->sk = out->div.sk;
  } else {
    DSKS_RETURN_IF_ERROR(NormalizeSkQuery(&sk));
    out->sk = std::move(sk);
  }
  out->edge = MakeQueryEdgeInfo(db_->network(), out->sk.loc);

  double deadline_ms = 0.0, limit = 0.0;
  DSKS_RETURN_IF_ERROR(
      ReadNumber(doc, "deadline_ms", /*required=*/false, &deadline_ms));
  if (deadline_ms < 0.0) {
    return Status::InvalidArgument("'deadline_ms' must be >= 0");
  }
  out->deadline_ms = deadline_ms;
  DSKS_RETURN_IF_ERROR(ReadNumber(doc, "limit", /*required=*/false, &limit));
  if (limit < 0.0) {
    return Status::InvalidArgument("'limit' must be >= 0");
  }
  out->limit = static_cast<size_t>(limit);

  if (const JsonValue* trace = doc.Find("trace"); trace != nullptr) {
    if (!trace->is_bool()) {
      return Status::InvalidArgument("'trace' must be a boolean");
    }
    out->want_trace = trace->bool_value();
  }
  if (const JsonValue* tenant = doc.Find("tenant"); tenant != nullptr) {
    if (!tenant->is_string()) {
      return Status::InvalidArgument("'tenant' must be a string");
    }
    out->tenant = tenant->string_value();
  }
  if (const JsonValue* id = doc.Find("id"); id != nullptr) {
    JsonWriter w;
    switch (id->kind()) {
      case JsonValue::Kind::kNumber:
        w.Value(id->number());
        break;
      case JsonValue::Kind::kString:
        w.Value(id->string_value());
        break;
      case JsonValue::Kind::kBool:
        w.Value(id->bool_value());
        break;
      default:
        return Status::InvalidArgument(
            "'id' must be a number, string or boolean");
    }
    out->raw_id = w.Take();
  }

  // Canonical batch key: op + normalized (sorted, deduplicated) terms.
  // Same key = same posting scans, which is exactly what batching shares.
  out->batch_key = out->is_div ? "div:" : "sk:";
  for (const TermId t : out->sk.terms) {
    out->batch_key += std::to_string(t);
    out->batch_key.push_back(',');
  }
  return Status::Ok();
}

bool QueryService::CheckQuota(const std::string& tenant) {
  if (config_.quota.rate_qps <= 0.0) {
    return true;
  }
  const int64_t now = NowSteadyNs();
  std::lock_guard<std::mutex> lock(quota_mu_);
  Bucket& b = buckets_[tenant];
  if (b.last_ns == 0) {
    b.tokens = config_.quota.burst;  // fresh tenant starts with a full burst
  } else {
    const double elapsed_s = static_cast<double>(now - b.last_ns) * 1e-9;
    b.tokens = std::min(config_.quota.burst,
                        b.tokens + elapsed_s * config_.quota.rate_qps);
  }
  b.last_ns = now;
  if (b.tokens < 1.0) {
    return false;
  }
  b.tokens -= 1.0;
  return true;
}

void QueryService::RespondRejected(const Completion& done, const Request* req,
                                   const char* code_name,
                                   const std::string& message,
                                   bool /*quota*/) const {
  JsonWriter w;
  w.BeginObject();
  if (req != nullptr && !req->raw_id.empty()) {
    w.Key("id").Raw(req->raw_id);
  }
  w.Key("status").Value(code_name);
  w.Key("message").Value(message);
  w.EndObject();
  done(w.Take());
}

Status QueryService::RunOne(const Request& req, QueryContext* ctx,
                            bool batched, std::string* response) const {
  JsonWriter w;
  w.BeginObject();
  if (!req.raw_id.empty()) {
    w.Key("id").Raw(req.raw_id);
  }

  Status status;
  Timer timer;
  const obs::IoCounters io_before = ctx->io;

  // A request whose deadline expired while it sat in the queue is
  // cancelled without running — the work it would do is already useless.
  ctx->deadline_steady_ns = req.deadline_ns;
  if (ctx->DeadlineExceeded()) {
    status = Status::Cancelled("deadline expired before execution");
  }

  // Optional per-request trace; uses a local trace so the executor's own
  // sampling policy (which owns the worker trace) is never disturbed.
  obs::QueryTrace trace;
  obs::QueryTrace* const saved_trace = ctx->trace;
  if (req.want_trace && status.ok()) {
    trace.BindContextIo(&ctx->io);
    ctx->trace = &trace;
  }

  size_t count = 0;
  double objective = 0.0;
  std::vector<SkResult> results;
  if (status.ok()) {
    if (req.is_div) {
      DivSearchOutput out;
      status = db_->RunDivQuery(req.div, req.edge, /*use_com=*/true, &out,
                                ctx);
      results = std::move(out.selected);
      objective = out.objective;
    } else {
      status = db_->RunSkQuery(req.sk, req.edge, &results, ctx);
    }
  }
  ctx->trace = saved_trace;
  ctx->deadline_steady_ns = 0;

  count = results.size();
  const double ms = static_cast<double>(timer.ElapsedMicros()) / 1000.0;
  const obs::IoCounters io = ctx->io - io_before;

  w.Key("status").Value(Status::CodeName(status.code()));
  if (!status.ok()) {
    w.Key("message").Value(status.message());
  }
  w.Key("count").Value(static_cast<uint64_t>(count));
  size_t limit = req.limit > 0 ? req.limit : config_.max_results;
  limit = std::min(limit, config_.max_results);
  w.Key("results").BeginArray();
  for (size_t i = 0; i < results.size() && i < limit; ++i) {
    w.BeginObject();
    w.Key("object").Value(static_cast<uint64_t>(results[i].id));
    w.Key("dist").Value(results[i].dist);
    w.EndObject();
  }
  w.EndArray();
  if (req.is_div) {
    w.Key("objective").Value(objective);
  }
  w.Key("ms").Value(ms);
  w.Key("io")
      .BeginObject()
      .Key("pool_hits")
      .Value(io.pool_hits)
      .Key("pool_misses")
      .Value(io.pool_misses)
      .Key("disk_reads")
      .Value(io.disk_reads)
      .Key("disk_writes")
      .Value(io.disk_writes)
      .Key("prefetched_pages")
      .Value(io.prefetched_pages)
      .EndObject();
  if (batched) {
    w.Key("batched").Value(true);
  }
  if (req.want_trace) {
    // Phase summary of the work actually done — for a CANCELLED query
    // that is the partial-work accounting up to the cancellation point.
    w.Key("trace").BeginObject();
    const auto totals = trace.AggregateByPhase();
    for (size_t p = 0; p < obs::kNumPhases; ++p) {
      if (totals[p].spans == 0) {
        continue;
      }
      w.Key(obs::PhaseName(static_cast<obs::Phase>(p)))
          .BeginObject()
          .Key("spans")
          .Value(totals[p].spans)
          .Key("ms")
          .Value(static_cast<double>(totals[p].exclusive_ns) / 1e6)
          .Key("disk_reads")
          .Value(totals[p].io.disk_reads)
          .EndObject();
    }
    w.EndObject();
  }
  w.EndObject();
  *response = w.Take();
  return status;
}

void QueryService::FinishAdmitted(const Status& status) const {
  completed_.Add();
  if (status.IsCancelled()) {
    cancelled_.Add();
  }
}

void QueryService::SubmitDirect(std::shared_ptr<Request> req,
                                Completion done) {
  // Admission verdict must be synchronous so shedding is exact: count the
  // shed here, not in a callback.
  QueryTag tag;
  tag.kind = req->is_div ? "server_div" : "server_sk";
  tag.terms = static_cast<uint32_t>(req->sk.terms.size());
  auto service = this;
  const bool admitted = executor_->TrySubmitQuery(
      tag,
      [service, req, done](QueryContext* ctx) {
        std::string response;
        const Status status =
            service->RunOne(*req, ctx, /*batched=*/false, &response);
        service->FinishAdmitted(status);
        done(std::move(response));
        return status;
      },
      config_.submit_wait_ms);
  if (admitted) {
    admitted_.Add();
  } else {
    shed_.Add();
    RespondRejected(done, req.get(), "RESOURCE_EXHAUSTED",
                    "admission queue full", /*quota=*/false);
  }
}

void QueryService::Submit(const std::string& line, const std::string& tenant,
                          Completion done) {
  requests_.Add();

  auto req = std::make_shared<Request>();
  if (const Status parsed = ParseRequest(line, req.get()); !parsed.ok()) {
    invalid_.Add();
    RespondRejected(done, req.get(), Status::CodeName(parsed.code()),
                    parsed.message(), /*quota=*/false);
    return;
  }
  if (req->tenant.empty()) {
    req->tenant = tenant;
  }
  if (!CheckQuota(req->tenant)) {
    quota_denied_.Add();
    RespondRejected(done, req.get(), "RESOURCE_EXHAUSTED",
                    "tenant '" + req->tenant + "' over quota", /*quota=*/true);
    return;
  }

  const double deadline_ms = req->deadline_ms > 0.0
                                 ? req->deadline_ms
                                 : config_.default_deadline_ms;
  req->deadline_ns = deadline_ms > 0.0 ? DeadlineFromNowMillis(deadline_ms)
                                       : 0;

  if (config_.batch_window_ms > 0.0) {
    EnqueueBatchMember(std::move(req), std::move(done));
    return;
  }
  SubmitDirect(std::move(req), std::move(done));
}

void QueryService::EnqueueBatchMember(std::shared_ptr<Request> req,
                                      Completion done) {
  std::string key = req->batch_key;
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    PendingBatch& batch = pending_batches_[key];
    if (batch.members.empty()) {
      batch.flush_at_ns =
          NowSteadyNs() +
          static_cast<int64_t>(config_.batch_window_ms * 1e6);
    }
    batch.members.emplace_back(std::move(req), std::move(done));
  }
  batch_cv_.notify_one();
}

void QueryService::BatcherLoop() {
  std::unique_lock<std::mutex> lock(batch_mu_);
  while (true) {
    if (pending_batches_.empty()) {
      if (batcher_stop_) {
        return;
      }
      batch_cv_.wait(lock, [this] {
        return batcher_stop_ || !pending_batches_.empty();
      });
      continue;
    }
    // Earliest flush deadline among pending batches.
    int64_t next_ns = INT64_MAX;
    for (const auto& [key, batch] : pending_batches_) {
      next_ns = std::min(next_ns, batch.flush_at_ns);
    }
    const int64_t now = NowSteadyNs();
    if (now < next_ns && !batcher_stop_) {
      batch_cv_.wait_for(lock, std::chrono::nanoseconds(next_ns - now));
      continue;
    }
    // Flush everything due (or everything, when stopping).
    std::vector<PendingBatch> due;
    for (auto it = pending_batches_.begin(); it != pending_batches_.end();) {
      if (batcher_stop_ || it->second.flush_at_ns <= now) {
        due.push_back(std::move(it->second));
        it = pending_batches_.erase(it);
      } else {
        ++it;
      }
    }
    lock.unlock();
    for (PendingBatch& batch : due) {
      FlushBatch(std::move(batch));
    }
    lock.lock();
  }
}

void QueryService::FlushBatch(PendingBatch&& batch) {
  if (batch.members.empty()) {
    return;
  }
  const size_t n = batch.members.size();
  if (n > 1) {
    batches_.Add();
    batched_queries_.Add(n);
  }
  // All members run sequentially as ONE executor task on one worker: the
  // first member's B+tree descents and posting-page reads warm the buffer
  // pool for the rest, so the shared keyword scan is physical exactly
  // once. Results are bit-identical to unbatched runs — each member still
  // executes its own search against the same immutable index.
  QueryTag tag;
  tag.kind = n > 1 ? "server_batch"
                   : (batch.members.front().first->is_div ? "server_div"
                                                          : "server_sk");
  tag.terms =
      static_cast<uint32_t>(batch.members.front().first->sk.terms.size());
  auto members = std::make_shared<
      std::vector<std::pair<std::shared_ptr<Request>, Completion>>>(
      std::move(batch.members));
  auto service = this;
  const bool admitted = executor_->TrySubmitQuery(
      tag,
      [service, members, n](QueryContext* ctx) {
        Status worst;
        for (auto& [req, done] : *members) {
          std::string response;
          const Status status =
              service->RunOne(*req, ctx, /*batched=*/n > 1, &response);
          service->FinishAdmitted(status);
          done(std::move(response));
          if (worst.ok() && !status.ok()) {
            worst = status;
          }
        }
        return worst;
      },
      config_.submit_wait_ms);
  if (admitted) {
    admitted_.Add(n);
  } else {
    // The whole batch is shed as one unit: every member is a rejected
    // submission and every member answers RESOURCE_EXHAUSTED.
    shed_.Add(n);
    for (auto& [req, done] : *members) {
      RespondRejected(done, req.get(), "RESOURCE_EXHAUSTED",
                      "admission queue full (batch shed)", /*quota=*/false);
    }
  }
}

}  // namespace dsks::server
