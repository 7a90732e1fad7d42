#ifndef DSKS_SERVER_QUERY_SERVICE_H_
#define DSKS_SERVER_QUERY_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

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
/// overload policy (admission, deadlines, quotas, batching).
struct ServiceConfig {
  /// Worker threads of the underlying QueryExecutor.
  size_t threads = 4;
  /// Bound on queued-but-unstarted queries. A full queue is the overload
  /// signal: further requests shed with RESOURCE_EXHAUSTED instead of
  /// queueing unboundedly or blocking the network thread.
  size_t queue_capacity = 64;
  /// IO_ERROR retry budget per query (see ExecutorConfig::max_retries).
  size_t max_retries = 0;
  /// Deadline applied to requests that carry none; 0 = unlimited.
  double default_deadline_ms = 0.0;
  /// Micro-batching window: queries with identical keyword sets admitted
  /// within this many milliseconds run as one executor task on one worker,
  /// so the B+tree descents and posting pages of the shared terms are
  /// fetched once and reused from the buffer pool (one physical scan).
  /// Results are bit-identical to unbatched execution — members still run
  /// their own searches, only the I/O overlaps. 0 disables batching.
  double batch_window_ms = 0.0;
  /// Bounded submit deadline: how long admission may wait for queue space
  /// before shedding. 0 = reject immediately (pure non-blocking).
  double submit_wait_ms = 0.0;
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
///   admitted == completed (after Stop/drain), every completion carrying
///   an OK / CANCELLED / error Status.
struct ServiceCounters {
  uint64_t requests = 0;
  uint64_t invalid = 0;       // malformed before admission (parse/shape)
  uint64_t quota_denied = 0;  // per-tenant token bucket said no
  uint64_t shed = 0;          // admission queue full → RESOURCE_EXHAUSTED
  uint64_t admitted = 0;      // handed to the executor
  uint64_t completed = 0;     // responses produced by admitted queries
  uint64_t cancelled = 0;     // completions whose Status was CANCELLED
  uint64_t batches = 0;           // flushed multi-member batches
  uint64_t batched_queries = 0;   // members that rode in those batches
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
///    "io":{...}, and "objective"/"trace"/"batched"/"message" as apply}.
class QueryService {
 public:
  /// Response JSON plus delivery. Called exactly once per Submit, on a
  /// worker/batcher thread for admitted queries and inline (on the
  /// Submit caller's thread) for pre-admission rejections.
  using Completion = std::function<void(std::string response_json)>;

  QueryService(Database* db, const ServiceConfig& config);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// One request line from connection tag `tenant` (a request-level
  /// "tenant" field overrides it for quota accounting).
  void Submit(const std::string& line, const std::string& tenant,
              Completion done);

  /// Flushes pending batches, drains the executor (every admitted query
  /// completes and its callback runs), and stops the batcher. Idempotent;
  /// also run by the destructor. No Submit may race or follow Stop.
  void Stop();

  ServiceCounters counters() const;
  const ServiceConfig& config() const { return config_; }

 private:
  struct Request;
  struct PendingBatch;

  Status ParseRequest(const std::string& line, Request* out) const;
  bool CheckQuota(const std::string& tenant);
  /// Runs one parsed request on a worker context and returns the response.
  Status RunOne(const Request& req, QueryContext* ctx, bool batched,
                std::string* response) const;
  void FinishAdmitted(const Status& status) const;
  void SubmitDirect(std::shared_ptr<Request> req, Completion done);
  void EnqueueBatchMember(std::shared_ptr<Request> req, Completion done);
  void BatcherLoop();
  void FlushBatch(PendingBatch&& batch);
  void RespondRejected(const Completion& done, const Request* req,
                       const char* code_name, const std::string& message,
                       bool quota) const;

  Database* const db_;
  const ServiceConfig config_;
  std::unique_ptr<QueryExecutor> executor_;

  // Pre-resolved counters; the registry publishes, the local counts are
  // the exact-accounting source of truth for counters().
  mutable obs::PublishedCounter requests_, invalid_, quota_denied_, shed_,
      admitted_, completed_, cancelled_, batches_, batched_queries_;

  // Per-tenant token buckets (steady-clock refill).
  struct Bucket {
    double tokens = 0.0;
    int64_t last_ns = 0;
  };
  std::mutex quota_mu_;
  std::map<std::string, Bucket> buckets_;

  // Micro-batcher state: keyed by canonical term list, flushed by a
  // dedicated thread once a batch's window expires (or at Stop).
  std::mutex batch_mu_;
  std::condition_variable batch_cv_;
  std::map<std::string, PendingBatch> pending_batches_;
  bool batcher_stop_ = false;
  std::thread batcher_;

  bool stopped_ = false;
};

}  // namespace dsks::server

#endif  // DSKS_SERVER_QUERY_SERVICE_H_
