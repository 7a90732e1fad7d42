#ifndef DSKS_SERVER_QUERY_SERVICE_H_
#define DSKS_SERVER_QUERY_SERVICE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "harness/database.h"
#include "harness/query_executor.h"
#include "obs/metrics.h"
#include "obs/sampler.h"

namespace dsks::server {

/// Per-tenant token-bucket quota. Tokens refill at `rate_qps` up to
/// `burst`; each admitted request spends one. 0 rate disables quotas.
struct QuotaConfig {
  double rate_qps = 0.0;
  double burst = 8.0;
};

/// QueryService settings: the executor underneath plus the service-level
/// overload policy (quota, admission, deadlines).
struct ServiceConfig {
  /// Worker threads of the underlying QueryExecutor.
  size_t threads = 4;
  /// Bound on queued-but-unstarted queries. A full queue is the overload
  /// signal: further requests shed with RESOURCE_EXHAUSTED at once instead
  /// of queueing unboundedly or blocking the network thread.
  size_t queue_capacity = 64;
  /// IO_ERROR retry budget per query (see ExecutorConfig::max_retries).
  /// The retries of one request stay inside its one executor task and
  /// produce one response.
  size_t max_retries = 0;
  /// Deadline applied to requests that carry none; 0 = unlimited.
  double default_deadline_ms = 0.0;
  /// Hard cap on result objects serialized per response (requests may ask
  /// for fewer via "limit"). Keeps one greedy query from turning the
  /// response stream into a bulk export.
  size_t max_results = 1024;
  QuotaConfig quota;
  obs::MetricsRegistry* metrics = &obs::GlobalMetrics();
  obs::FlightRecorder* flight_recorder = nullptr;
  obs::TraceSamplerConfig sampling;
};

/// Exact service-level accounting, readable while the service runs. The
/// overload invariant the integration suite pins down:
///   requests == invalid + quota_denied + shed + admitted
///   admitted == completed (after Stop/drain): each admitted request is
///   one executor task with one response, retries included, carrying an
///   OK / CANCELLED / error Status.
struct ServiceCounters {
  uint64_t requests = 0;
  uint64_t invalid = 0;       // malformed before admission (parse/shape)
  uint64_t quota_denied = 0;  // per-tenant token bucket said no
  uint64_t shed = 0;          // admission queue full → RESOURCE_EXHAUSTED
  uint64_t admitted = 0;      // handed to the executor
  uint64_t completed = 0;     // responses produced by admitted queries
  uint64_t cancelled = 0;     // completions whose Status was CANCELLED
};

/// The socket-independent query engine behind the TCP front end: parses
/// the one-line JSON query language into SkQuery/DivQuery at the
/// NormalizeSkQuery/NormalizeDivQuery boundary, applies quota + admission
/// + deadline policy, runs on a QueryExecutor, and hands each request's
/// JSON response to its completion callback (invoked on a worker thread —
/// the caller owns cross-thread delivery).
///
/// Request language (one JSON object per line):
///   {"op":"sk"|"div", "terms":[1,2], "edge":E, "offset":W, "delta":D,
///    "k":K, "lambda":L,            // div only
///    "deadline_ms":D, "trace":true, "limit":N, "tenant":"t", "id":...}
/// Response: {"id":..., "status":"OK", "count":N, "results":[...], "ms":..,
///    "io":{...}, and "objective"/"trace"/"message" as apply}. "io" is
///    obs::IoJson of the query's I/O; "trace" is obs::PhasesJson of the
///    request's one trace, the executor worker's, which its /tracez entry
///    (when it gets one) renders too.
class QueryService {
 public:
  /// Response JSON plus delivery. Called exactly once per Submit: on a
  /// worker thread, after the query's last attempt, for admitted queries,
  /// and inline (on the Submit caller's thread) for pre-admission
  /// rejections.
  using Completion = std::function<void(std::string response_json)>;

  QueryService(Database* db, const ServiceConfig& config);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// One request line from connection tag `tenant` (a request-level
  /// "tenant" field overrides it for quota accounting).
  void Submit(const std::string& line, const std::string& tenant,
              Completion done);

  /// Drains the executor: every admitted query completes and its callback
  /// runs. Idempotent; also run by the destructor. No Submit may race or
  /// follow Stop.
  void Stop();

  ServiceCounters counters() const;
  const ServiceConfig& config() const { return config_; }

 private:
  struct Request;

  Status ParseRequest(const std::string& line, Request* out) const;
  bool CheckQuota(const std::string& tenant);
  /// Runs one parsed request on a worker context and renders its response
  /// into `*response`; one call per attempt.
  Status RunOne(const Request& req, QueryContext* ctx,
                std::string* response) const;
  void RespondRejected(const Completion& done, const Request* req,
                       const char* code_name,
                       const std::string& message) const;

  Database* const db_;
  const ServiceConfig config_;
  std::unique_ptr<QueryExecutor> executor_;

  // Pre-resolved counters; the registry publishes, the local counts are
  // the exact-accounting source of truth for counters().
  obs::PublishedCounter requests_, invalid_, quota_denied_, shed_,
      admitted_, completed_, cancelled_;

  // Per-tenant token buckets (steady-clock refill).
  struct Bucket {
    double tokens = 0.0;
    int64_t last_ns = 0;
  };
  std::mutex quota_mu_;
  std::map<std::string, Bucket> buckets_;
};

}  // namespace dsks::server

#endif  // DSKS_SERVER_QUERY_SERVICE_H_
