#include "server/query_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

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

/// True when `v` is a whole number that the integer type T holds. The range
/// test runs on the double, before any cast: casting an out-of-range double
/// is undefined behaviour. Inside the range, the round trip through T drops
/// any fraction.
template <typename T>
bool FitsWhole(double v) {
  // 2^digits is one past T's maximum, and exact as a double.
  return v >= 0.0 && v < std::ldexp(1.0, std::numeric_limits<T>::digits) &&
         v == static_cast<double>(static_cast<T>(v));
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
  int64_t deadline_ns = 0;  // armed at admission
  std::string response;     // rendered by the latest attempt
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
  }
}

QueryService::~QueryService() { Stop(); }

void QueryService::Stop() {
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
    if (!t.is_number() || !FitsWhole<TermId>(t.number())) {
      return Status::InvalidArgument("'terms' entries must be term ids");
    }
    sk.terms.push_back(static_cast<TermId>(t.number()));
  }

  double edge = -1.0, offset = -1.0, delta = 0.0;
  DSKS_RETURN_IF_ERROR(ReadNumber(doc, "edge", /*required=*/true, &edge));
  DSKS_RETURN_IF_ERROR(ReadNumber(doc, "offset", /*required=*/true, &offset));
  DSKS_RETURN_IF_ERROR(ReadNumber(doc, "delta", /*required=*/true, &delta));
  if (!FitsWhole<EdgeId>(edge) ||
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
    if (k < 1.0 || !FitsWhole<size_t>(k)) {
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
  // Clamped as a double, so a limit past size_t's range casts defined.
  out->limit = static_cast<size_t>(
      std::min(limit, static_cast<double>(config_.max_results)));

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
                                   const std::string& message) const {
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
                            std::string* response) const {
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
  ctx->deadline_steady_ns = 0;

  count = results.size();
  const double ms = static_cast<double>(timer.ElapsedMicros()) / 1000.0;
  const obs::IoCounters io = ctx->io - io_before;

  w.Key("status").Value(Status::CodeName(status.code()));
  if (!status.ok()) {
    w.Key("message").Value(status.message());
  }
  w.Key("count").Value(static_cast<uint64_t>(count));
  const size_t limit = req.limit > 0 ? req.limit : config_.max_results;
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
  w.Key("io").Raw(obs::IoJson(io));
  if (req.want_trace && ctx->trace != nullptr) {
    // The executor runs a "trace":true request under its worker trace,
    // the same one the request's flight-recorder entry renders. It covers
    // every attempt so far; for a CANCELLED query it is the partial-work
    // account up to the cancellation point.
    w.Key("trace").Raw(obs::PhasesJson(ctx->trace->AggregateByPhase()));
  }
  w.EndObject();
  *response = w.Take();
  return status;
}

void QueryService::Submit(const std::string& line, const std::string& tenant,
                          Completion done) {
  requests_.Add();

  auto req = std::make_shared<Request>();
  if (const Status parsed = ParseRequest(line, req.get()); !parsed.ok()) {
    invalid_.Add();
    RespondRejected(done, req.get(), Status::CodeName(parsed.code()),
                    parsed.message());
    return;
  }
  if (req->tenant.empty()) {
    req->tenant = tenant;
  }
  if (!CheckQuota(req->tenant)) {
    quota_denied_.Add();
    RespondRejected(done, req.get(), "RESOURCE_EXHAUSTED",
                    "tenant '" + req->tenant + "' over quota");
    return;
  }

  const double deadline_ms = req->deadline_ms > 0.0
                                 ? req->deadline_ms
                                 : config_.default_deadline_ms;
  req->deadline_ns = deadline_ms > 0.0 ? DeadlineFromNowMillis(deadline_ms)
                                       : 0;

  // One admitted request is one executor task with one response. Each
  // attempt renders into req->response; the executor hands the final
  // Status to the completion once, after any IO_ERROR retries. The verdict
  // is synchronous, so the shed is counted here, not in a callback.
  QueryTag tag;
  tag.kind = req->is_div ? "server_div" : "server_sk";
  tag.terms = static_cast<uint32_t>(req->sk.terms.size());
  tag.trace = req->want_trace;
  const bool admitted = executor_->TrySubmitQuery(
      [this, req](QueryContext* ctx) {
        return RunOne(*req, ctx, &req->response);
      },
      tag,
      [this, req, done](const Status& status) {
        completed_.Add();
        if (status.IsCancelled()) {
          cancelled_.Add();
        }
        done(std::move(req->response));
      });
  if (admitted) {
    admitted_.Add();
  } else {
    shed_.Add();
    RespondRejected(done, req.get(), "RESOURCE_EXHAUSTED",
                    "admission queue full");
  }
}

}  // namespace dsks::server
