// Shared declarations of the repository benchmark: workload definitions,
// request generation and the in-process reference, the load-generator
// process, the per-layer passes of the traced run, and result output.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/div_search.h"
#include "core/query.h"
#include "core/query_context.h"
#include "core/sk_search.h"
#include "harness/database.h"
#include "server/query_server.h"

namespace perfbench {

int64_t NowNs();

/// One benchmark workload. Everything the program sees is derived from
/// this plus the --seed: the dataset (fixed NA preset), the request lines
/// and, for the open loop, the arrival schedule.
struct WorkloadSpec {
  const char* name;
  bool file_backend;
  /// Buffer pool size as a share of the live index (PrepareForQueries).
  double pool_fraction;
  /// Share of diversified (COM) requests; the rest are Boolean SK.
  double div_share;
  bool open_loop;
  size_t connections;
  /// Open loop only: fixed arrival rate in requests per second.
  double rate_qps;
  /// Simulated sleeping per-read delay (sim backend), 0 = none.
  double read_delay_us;
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// Query parameters shared by every workload (the paper's defaults).
inline constexpr double kDeltaMax = 1500.0;
inline constexpr size_t kNumKeywords = 3;
inline constexpr size_t kDivK = 10;
inline constexpr double kDivLambda = 0.8;

/// One generated request: the query as the reference runs it and the
/// request line body the server receives (everything after `{"id":N,`).
struct Request {
  bool is_div = false;
  dsks::DivQuery div;  // div.sk is the SK query for both kinds
  dsks::QueryEdgeInfo edge;
  std::string body;
};

std::vector<Request> GenerateRequests(const dsks::Database& db,
                                      const WorkloadSpec& spec, uint64_t seed,
                                      size_t count);

/// The full request line for send number `id` of a request body.
std::string RequestLine(uint64_t id, const std::string& body);

/// What a correct response carries: object ids with bit-exact distances
/// and, for a diversified request, the bit-exact objective.
struct Expected {
  std::vector<uint64_t> ids;
  std::vector<double> dists;
  double objective = 0.0;
};

/// Runs `req` in-process through Database::Run*Query.
dsks::Status RunInProcess(dsks::Database* db, const Request& req,
                          dsks::QueryContext* ctx, Expected* out);

/// Client-process settings, passed on its command line.
struct ClientConfig {
  uint16_t port = 0;
  std::string dir;  // holds requests.txt / expected.txt, receives client.out
  std::string requests_file = "requests.txt";
  bool open_loop = false;
  size_t connections = 1;
  double rate_qps = 0.0;
  double seconds = 1.0;
  /// Whether to write one line per request (send, receive, server time)
  /// for the span log of the traced run.
  bool record_spans = false;
};

/// The load generator's summary, read back by the server process.
using ClientSummary = std::map<std::string, double>;

/// Entry point of the load-generator process.
int ClientMain(int argc, char** argv);

/// Starts the load-generator process, waits for it (killing it past a
/// hard deadline) and parses its summary.
dsks::Status RunClient(const std::string& self_exe, const ClientConfig& config,
                       ClientSummary* out);

/// Writes request bodies / expected results for the client process.
void WriteRequestFile(const std::string& path,
                      const std::vector<Request>& requests, bool trace);
void WriteExpectedFile(const std::string& path,
                       const std::vector<Expected>& expected);

/// Metrics of one run, printed as the benchmark's final JSON line.
class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;
  void PrintTable() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// In-memory span log of the traced run; written once at the end.
class SpanLog {
 public:
  /// Returns the new span's index; `parent` -1 for a root.
  int64_t Add(const char* name, int64_t parent, int64_t request,
              int64_t start_ns, int64_t end_ns, int64_t child_ns = 0);
  void Close(int64_t span, int64_t end_ns) { spans_[span].end_ns = end_ns; }
  void WriteNdjson(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    int64_t parent;
    int64_t request;
    int64_t start_ns;
    int64_t end_ns;
    int64_t child_ns;
  };
  std::vector<Span> spans_;
};

/// A running system under test: database, server and the workload's
/// requests with their reference results.
struct Env {
  const WorkloadSpec* spec = nullptr;
  std::string dir;
  std::string self_exe;
  std::unique_ptr<dsks::Database> db;
  std::unique_ptr<dsks::server::QueryServer> server;
  std::vector<Request> requests;
  std::vector<Expected> expected;
  size_t threads = 1;
  double seconds = 1.0;
};

/// Drops every cached page, replays the warm-up (one in-process pass over
/// the first `count` requests, without the simulated delay) and zeroes the
/// counters, so that every measured pass starts from the same pool.
void ResetPoolState(Env* env, size_t count);

/// Applies / removes the workload's simulated read delay.
void SetReadDelay(Env* env, bool on);

/// Drives the socket with the workload; fills the client summary.
dsks::Status RunSocketPass(Env* env, bool trace, double seconds,
                           bool record_spans, ClientSummary* out);

/// The traced run: every per-layer metric into `sink`, spans into `log`,
/// requests run and failed (including reference mismatches) into the
/// counts. Returns false when a cross-check failed.
bool RunLayers(Env* env, MetricSink* sink, SpanLog* log, uint64_t* attempted,
               uint64_t* failed);

double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
