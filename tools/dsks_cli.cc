// dsks_cli — command-line front end for the library.
//
//   dsks_cli generate --preset NA|SF|TW|SYN [--scale F] --out FILE
//       Generate a dataset and save it in the DSKS binary format.
//   dsks_cli info FILE
//       Print dataset statistics (Table 2 style).
//   dsks_cli query --data FILE [--index ir|if|sif|sifp|sifg]
//             --terms T1,T2,... [--object-loc ID] [--delta D]
//             [--k K] [--mode boolean|knn|ranked|div-seq|div-com]
//             [--lambda L] [--alpha A] [--trace] [--prefetch on|off]
//       Load a dataset into a Database, build the index, run one query
//       through Database::Run*Query. The query point is the location of
//       object --object-loc (default 0). --trace records per-phase spans
//       with buffer-pool/disk deltas and prints them as one JSON line, the
//       per-phase object a served query's "trace" and /tracez also show.
//   dsks_cli serve [--port P] [--preset SYN] [--scale F] [--index sif]
//             [--threads N] [--queue N] [--deadline-ms D] [--quota-qps Q]
//             [--quota-burst B] [--sample N] [--duration-ms N]
//       Build a synthetic database and serve the NDJSON query protocol
//       plus the observability routes (/metrics /varz /tracez /healthz
//       /statusz) on one loopback listener until SIGINT/SIGTERM (or
//       --duration-ms). Prints one `setup:` line with each setup phase's
//       milliseconds and one `setup peak rss:` line with the process's
//       peak RSS as each phase ended (also the db.setup.<phase>_ms and
//       db.setup.<phase>_peak_rss_bytes gauges). --port 0 picks an
//       ephemeral port (printed).
//       --sample N traces 1 in N queries into the flight recorder that
//       /tracez serves (errors are recorded regardless; 0 = off).
//   dsks_cli drill [--preset SYN] [--scale F] [--index sif] [--threads N]
//             [--queue N] [--clients N] [--queries N] [--deadline-ms D]
//             [--invalid-p P] [--quota-qps Q] [--read-fault-p P]
//             [--corrupt-p P] [--seed S] [--retries R]
//       Load drill: an in-process query server hammered over real sockets
//       by N pipelining clients, with /metrics scraped throughout.
//       Verifies the admission invariants (offered == admitted + shed +
//       invalid + quota_denied, admitted == completed, sheds exactly match
//       rejected submissions, the client tallies add up to every request
//       sent) and prints one "bench":"server_drill" JSON line. The fault
//       flags arm storage fault injection (seeded by --seed) once the
//       index is built; every injected fault must come back as one
//       Status-coded response, IO_ERROR retried up to --retries times.
#include <csignal>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "datagen/network_generator.h"
#include "datagen/object_generator.h"
#include "datagen/presets.h"
#include "datagen/workload.h"
#include "graph/serialization.h"
#include "harness/database.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/process_memory.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/json.h"
#include "server/query_server.h"
#include "storage/fault_injector.h"

namespace dsks {
namespace {

/// Minimal --flag value parser. Both spellings work: `--flag value` and
/// `--flag=value`. A flag followed by another flag (or by nothing) is
/// boolean — present with an empty value — like `--trace` and `--socket`.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) == 0) {
        const char* key = argv[i] + 2;
        if (const char* eq = std::strchr(key, '=')) {
          values_[std::string(key, eq - key)] = eq + 1;
        } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
          values_[key] = argv[i + 1];
          ++i;
        } else {
          values_[key] = "";
        }
      } else {
        positional_.emplace_back(argv[i]);
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// Checked numeric flags, shared by every subcommand: a present flag
  /// whose value does not parse completely as a number, or falls outside
  /// [min_value, max_value], prints an error and exits with status 2 —
  /// `--threads foo` must not silently become 0.
  double GetDouble(const std::string& key, double fallback, double min_value,
                   double max_value) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    const char* text = it->second.c_str();
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (*text == '\0' || end == nullptr || *end != '\0') {
      std::fprintf(stderr, "--%s: '%s' is not a number\n", key.c_str(), text);
      std::exit(2);
    }
    if (!(v >= min_value && v <= max_value)) {
      std::fprintf(stderr, "--%s: %s out of range [%g, %g]\n", key.c_str(),
                   text, min_value, max_value);
      std::exit(2);
    }
    return v;
  }
  size_t GetSize(const std::string& key, size_t fallback, size_t min_value,
                 size_t max_value) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    const char* text = it->second.c_str();
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*text == '\0' || end == nullptr || *end != '\0' || *text == '-') {
      std::fprintf(stderr, "--%s: '%s' is not a non-negative integer\n",
                   key.c_str(), text);
      std::exit(2);
    }
    if (v < min_value || v > max_value) {
      std::fprintf(stderr, "--%s: %s out of range [%zu, %zu]\n", key.c_str(),
                   text, min_value, max_value);
      std::exit(2);
    }
    return static_cast<size_t>(v);
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// The first flag given that is not one of `known`, if any.
  std::optional<std::string> FirstUnknownFlag(
      const std::vector<std::string>& known) const {
    for (const auto& [key, value] : values_) {
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        return key;
      }
    }
    return std::nullopt;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  dsks_cli generate --preset NA|SF|TW|SYN [--scale F] "
               "--out FILE\n"
               "  dsks_cli info FILE\n"
               "  dsks_cli query --data FILE [--index sif] --terms 1,2,3\n"
               "           [--object-loc ID] [--delta 1500] [--k 10]\n"
               "           [--mode boolean|knn|ranked|div-seq|div-com]\n"
               "           [--lambda 0.8] [--alpha 0.5] [--trace]\n"
               "           [--prefetch on|off]\n"
               "  dsks_cli serve [--port 0] [--preset SYN] [--scale 0.03]\n"
               "           [--index sif] [--threads 4] [--queue 64]\n"
               "           [--deadline-ms 0] [--quota-qps 0]\n"
               "           [--quota-burst 8] [--sample 0] [--duration-ms 0]\n"
               "  dsks_cli drill [--preset SYN] [--scale 0.03] [--index sif]\n"
               "           [--threads 4] [--queue 16] [--clients 8]\n"
               "           [--queries 64] [--deadline-ms 0] [--invalid-p 0]\n"
               "           [--quota-qps 0] [--read-fault-p 0]\n"
               "           [--corrupt-p 0] [--seed 42] [--retries 0]\n"
               "query/serve/drill also accept storage-backend flags:\n"
               "           [--backend sim|file] [--backend-path PATH]\n"
               "any other flag exits 2\n");
  return 2;
}

/// Shared storage-backend flags: `--backend sim|file` selects where pages
/// live, `--backend-path PATH` names the index file (file backend only;
/// defaults to a fresh /tmp file that is removed on exit).
class CliBackend {
 public:
  explicit CliBackend(const Args& args) {
    const std::string name = args.Get("backend", "sim");
    if (name == "file") {
      options_.backend = DiskBackendKind::kFile;
      options_.path = args.Get("backend-path", "");
      if (options_.path.empty()) {
        options_.path =
            "/tmp/dsks_cli_" + std::to_string(::getpid()) + ".pages";
        owns_files_ = true;
      }
    } else if (name != "sim") {
      std::fprintf(stderr, "--backend: want 'sim' or 'file', got '%s'\n",
                   name.c_str());
      std::exit(2);
    }
  }
  ~CliBackend() {
    if (owns_files_) {
      std::remove(options_.path.c_str());
      std::remove((options_.path + ".crc").c_str());
    }
  }

  CliBackend(const CliBackend&) = delete;
  CliBackend& operator=(const CliBackend&) = delete;

  const DiskOptions& options() const { return options_; }
  const char* name() const { return DiskBackendKindName(options_.backend); }

 private:
  DiskOptions options_;
  bool owns_files_ = false;
};

DatasetConfig PresetByName(const std::string& name) {
  for (const DatasetConfig& c : AllPresets()) {
    if (c.name == name) {
      return c;
    }
  }
  std::fprintf(stderr, "unknown preset '%s' (want NA, SF, SYN or TW)\n",
               name.c_str());
  std::exit(2);
}

int CmdGenerate(const Args& args) {
  const std::string out = args.Get("out", "");
  if (out.empty()) {
    return Usage();
  }
  DatasetConfig cfg = PresetByName(args.Get("preset", "SYN"));
  const double scale = args.GetDouble("scale", 1.0, 1e-6, 1e6);
  if (scale != 1.0) {
    cfg = ScalePreset(cfg, scale);
  }
  std::printf("generating %s (scale %.2f)...\n", cfg.name.c_str(), scale);
  auto net = GenerateRoadNetwork(cfg.network);
  auto objects = GenerateObjects(*net, cfg.objects);
  const Status s = SaveDataset(*net, *objects, out);
  if (!s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu nodes, %zu edges, %zu objects\n", out.c_str(),
              net->num_nodes(), net->num_edges(), objects->size());
  return 0;
}

int CmdInfo(const Args& args) {
  if (args.positional().size() < 3) {
    return Usage();
  }
  const std::string path = args.positional()[2];
  std::unique_ptr<RoadNetwork> net;
  std::unique_ptr<ObjectSet> objects;
  const Status s = LoadDataset(path, &net, &objects);
  if (!s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const double avg_kw =
      objects->size() == 0
          ? 0.0
          : static_cast<double>(objects->TotalTermOccurrences()) /
                static_cast<double>(objects->size());
  std::printf("%s:\n  nodes    %zu\n  edges    %zu\n  objects  %zu\n"
              "  avg keywords/object  %.2f\n",
              path.c_str(), net->num_nodes(), net->num_edges(),
              objects->size(), avg_kw);
  return 0;
}

std::vector<TermId> ParseTerms(const std::string& csv) {
  std::vector<TermId> terms;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) {
      comma = csv.size();
    }
    const std::string token = csv.substr(pos, comma - pos);
    char* end = nullptr;
    const unsigned long long t = std::strtoull(token.c_str(), &end, 10);
    if (token.empty() || end == nullptr || *end != '\0') {
      std::fprintf(stderr, "--terms: '%s' is not a term id\n", token.c_str());
      std::exit(2);
    }
    terms.push_back(static_cast<TermId>(t));
    pos = comma + 1;
  }
  // Sorting and dedup happen again behind the API boundary
  // (NormalizeSkQuery); doing it here just keeps the printed query tidy.
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  return terms;
}

IndexOptions IndexOptionsByName(const std::string& index_name) {
  IndexOptions opts;
  if (index_name == "ir") {
    opts.kind = IndexKind::kIR;
  } else if (index_name == "if") {
    opts.kind = IndexKind::kIF;
  } else if (index_name == "sifp") {
    opts.kind = IndexKind::kSIFP;
  } else if (index_name == "sifg") {
    opts.kind = IndexKind::kSIFG;
  } else {
    opts.kind = IndexKind::kSIF;
  }
  return opts;
}

/// One `dsks_cli query`: the mode and the query it runs.
struct CliQuery {
  std::string mode;
  SkQuery sk;
  QueryEdgeInfo edge;
  size_t k = 0;
  double alpha = 0.0;
  double lambda = 0.0;
};

/// Runs `q` through the Database in its mode and prints the result lines;
/// a failed query prints what it found before the error.
Status RunCliQuery(Database* db, const CliQuery& q, QueryContext* ctx) {
  if (q.mode == "knn") {
    std::vector<SkResult> res;
    const Status s = db->RunKnnQuery(q.sk, q.edge, q.k, &res, ctx);
    for (size_t i = 0; i < res.size(); ++i) {
      std::printf("  object %u  dist %.1f\n", res[i].id, res[i].dist);
    }
    return s;
  }
  if (q.mode == "ranked") {
    RankedQuery rq;
    rq.sk = q.sk;
    rq.k = q.k;
    rq.alpha = q.alpha;
    std::vector<RankedResult> res;
    const Status s = db->RunRankedQuery(rq, q.edge, &res, ctx);
    for (size_t i = 0; i < res.size(); ++i) {
      std::printf("  object %u  dist %.1f  matched %u/%zu  score %.4f\n",
                  res[i].id, res[i].dist, res[i].matched, q.sk.terms.size(),
                  res[i].score);
    }
    return s;
  }
  if (q.mode == "div-seq" || q.mode == "div-com") {
    DivQuery dq;
    dq.sk = q.sk;
    dq.k = q.k;
    dq.lambda = q.lambda;
    DivSearchOutput out;
    const Status s =
        db->RunDivQuery(dq, q.edge, q.mode == "div-com", &out, ctx);
    std::printf("f(S) = %.4f over %lu candidates%s\n", out.objective,
                static_cast<unsigned long>(out.stats.candidates),
                out.stats.early_terminated ? " (early termination)" : "");
    for (const SkResult& r : out.selected) {
      std::printf("  object %u  dist %.1f\n", r.id, r.dist);
    }
    return s;
  }
  std::vector<SkResult> res;
  const Status s = db->RunSkQuery(q.sk, q.edge, &res, ctx);
  for (size_t i = 0; i < res.size() && i < 20; ++i) {
    std::printf("  object %u  dist %.1f\n", res[i].id, res[i].dist);
  }
  if (res.size() > 20) {
    std::printf("  ... and %zu more\n", res.size() - 20);
  }
  std::printf("%zu objects satisfy the query\n", res.size());
  return s;
}

int CmdQuery(const Args& args) {
  const std::string path = args.Get("data", "");
  const std::string terms_csv = args.Get("terms", "");
  if (path.empty() || terms_csv.empty()) {
    return Usage();
  }
  std::unique_ptr<RoadNetwork> net;
  std::unique_ptr<ObjectSet> objects;
  if (const Status s = LoadDataset(path, &net, &objects); !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (objects->size() == 0) {
    std::fprintf(stderr, "%s has no objects to query\n", path.c_str());
    return 1;
  }
  // --prefetch off pins the pool to demand-only reads — the A/B knob for
  // attributing a query's I/O behavior to speculative batching.
  const std::string prefetch = args.Get("prefetch", "on");
  if (prefetch != "on" && prefetch != "off") {
    std::fprintf(stderr, "--prefetch: want 'on' or 'off', got '%s'\n",
                 prefetch.c_str());
    return 2;
  }

  CliBackend backend(args);
  Database db(std::move(net), std::move(objects), backend.options());
  db.SetPrefetchEnabled(prefetch == "on");
  const Database::IndexBuildInfo built =
      db.BuildIndex(IndexOptionsByName(args.Get("index", "sif")));
  std::printf("built %s in %.0f ms (%.1f MB)\n", db.index()->name().c_str(),
              built.build_millis,
              static_cast<double>(built.size_bytes) / 1048576.0);

  const SpatioTextualObject& anchor = db.objects().object(static_cast<ObjectId>(
      args.GetSize("object-loc", 0, 0, SIZE_MAX) % db.objects().size()));
  CliQuery q;
  q.mode = args.Get("mode", "boolean");
  q.sk.loc = NetworkLocation{anchor.edge, anchor.offset};
  q.sk.terms = ParseTerms(terms_csv);
  q.sk.delta_max = args.GetDouble("delta", 1500.0, 1e-9, 1e12);
  q.edge = MakeQueryEdgeInfo(db.network(), q.sk.loc);
  q.k = args.GetSize("k", 10, 1, 1u << 20);
  q.alpha = args.GetDouble("alpha", 0.5, 0.0, 1.0);
  q.lambda = args.GetDouble("lambda", 0.8, 0.0, 1.0);

  // A storage error fails the query, not the process: the result lines
  // and the trace show the work done before it, then the exit is nonzero.
  obs::QueryTrace trace;
  QueryContext ctx;
  if (args.Has("trace")) {
    ctx.trace = &trace;
  }
  Timer timer;
  const Status status = RunCliQuery(&db, q, &ctx);
  std::printf("query time %.1f ms, %llu page reads, %llu prefetched\n",
              timer.ElapsedMillis(),
              static_cast<unsigned long long>(ctx.io.disk_reads),
              static_cast<unsigned long long>(ctx.io.prefetched_pages));
  if (ctx.trace != nullptr) {
    std::printf("%s\n", obs::PhasesJson(trace.AggregateByPhase()).c_str());
  }

  if (!status.ok()) {
    std::fprintf(stderr, "query failed: %s\n", status.ToString().c_str());
    return status.IsInvalidArgument() ? 2 : 1;
  }
  return 0;
}

/// Renders one workload query as a protocol request line for the socket
/// drills. `invalid` deliberately malforms it (negative delta) to exercise
/// the INVALID_ARGUMENT path end-to-end.
std::string MakeRequestLine(const WorkloadQuery& wq, const std::string& id,
                            double deadline_ms, bool invalid) {
  server::JsonWriter w;
  w.BeginObject();
  w.Key("op").Value("sk");
  w.Key("id").Value(id);
  w.Key("terms").BeginArray();
  for (const TermId t : wq.sk.terms) {
    w.Value(static_cast<uint64_t>(t));
  }
  w.EndArray();
  w.Key("edge").Value(static_cast<uint64_t>(wq.sk.loc.edge));
  w.Key("offset").Value(wq.sk.loc.offset);
  w.Key("delta").Value(invalid ? -1.0 : wq.sk.delta_max);
  if (deadline_ms > 0.0) {
    w.Key("deadline_ms").Value(deadline_ms);
  }
  w.EndObject();
  return w.Take();
}

/// One-shot HTTP GET against the query server's obs routes; returns true
/// when a "200 OK" came back within the timeout.
bool HttpGetOk(uint16_t port, const std::string& path, std::string* body) {
  server::QueryClient raw;
  if (!raw.Connect(port).ok()) {
    return false;
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(raw.fd(), request.data() + sent,
                             request.size() - sent, 0);
    if (n <= 0) {
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  // The server answers Connection: close, so read to EOF.
  std::string response;
  char chunk[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(raw.fd(), chunk, sizeof(chunk), 0);
    if (n <= 0) {
      break;
    }
    response.append(chunk, static_cast<size_t>(n));
  }
  if (response.compare(0, 15, "HTTP/1.1 200 OK") != 0) {
    return false;
  }
  if (body != nullptr) {
    const size_t head_end = response.find("\r\n\r\n");
    *body = head_end == std::string::npos ? "" : response.substr(head_end + 4);
  }
  return true;
}

/// Per-client outcome tally of a socket drill.
struct ClientTally {
  std::map<std::string, uint64_t> by_status;
  uint64_t sent = 0;
  uint64_t received = 0;
  uint64_t transport_errors = 0;
};

/// Sends every line pipelined on one connection, then reads one response
/// per request and tallies the Status codes.
void RunSocketClient(uint16_t port, const std::vector<std::string>& lines,
                     int read_timeout_ms, ClientTally* tally) {
  server::QueryClient client;
  if (!client.Connect(port).ok()) {
    tally->transport_errors += lines.size();
    return;
  }
  for (const std::string& line : lines) {
    if (!client.SendLine(line).ok()) {
      tally->transport_errors += lines.size() - tally->sent;
      return;
    }
    ++tally->sent;
  }
  for (uint64_t i = 0; i < tally->sent; ++i) {
    std::string response;
    if (!client.ReadLine(&response, read_timeout_ms).ok()) {
      ++tally->transport_errors;
      continue;
    }
    ++tally->received;
    server::JsonValue doc;
    const server::JsonValue* status = nullptr;
    if (server::JsonValue::Parse(response, &doc).ok()) {
      status = doc.Find("status");
    }
    if (status != nullptr && status->is_string()) {
      ++tally->by_status[status->string_value()];
    } else {
      ++tally->by_status["<unparseable>"];
    }
  }
}

volatile std::sig_atomic_t g_stop_serve = 0;
void OnStopSignal(int) { g_stop_serve = 1; }

int CmdServe(const Args& args) {
  const double scale = args.GetDouble("scale", 0.03, 1e-6, 1e3);
  const auto port = static_cast<uint16_t>(args.GetSize("port", 0, 0, 65535));
  const size_t duration_ms = args.GetSize("duration-ms", 0, 0, SIZE_MAX);

  CliBackend backend(args);
  Database db(ScalePreset(PresetByName(args.Get("preset", "SYN")), scale),
              backend.options());
  db.BuildIndex(IndexOptionsByName(args.Get("index", "sif")));
  db.PrepareForQueries();
  const Database::SetupTimes& setup = db.setup_times();
  std::printf("setup: dataset %.1f ms, term_stats %.1f ms, ccam %.1f ms, "
              "index_build %.1f ms, prepare %.1f ms\n",
              setup.dataset.ms, setup.term_stats.ms, setup.ccam.ms,
              setup.index_build.ms, setup.prepare.ms);
  constexpr double kMiB = 1024.0 * 1024.0;
  std::printf("setup peak rss: dataset %.1f MiB, term_stats %.1f MiB, "
              "ccam %.1f MiB, index_build %.1f MiB, prepare %.1f MiB\n",
              static_cast<double>(setup.dataset.peak_rss_bytes) / kMiB,
              static_cast<double>(setup.term_stats.peak_rss_bytes) / kMiB,
              static_cast<double>(setup.ccam.peak_rss_bytes) / kMiB,
              static_cast<double>(setup.index_build.peak_rss_bytes) / kMiB,
              static_cast<double>(setup.prepare.peak_rss_bytes) / kMiB);

  obs::MetricsRegistry& registry = obs::GlobalMetrics();
  db.BindMetrics(&registry, "db");
  obs::BindProcessMetrics(&registry);
  obs::FlightRecorder recorder;
  recorder.set_occupancy_gauge(&registry.gauge("flight_recorder.entries"));

  server::ServerConfig sc;
  sc.service.threads = args.GetSize("threads", 4, 1, 1024);
  sc.service.queue_capacity = args.GetSize("queue", 64, 1, 1u << 20);
  sc.service.default_deadline_ms =
      args.GetDouble("deadline-ms", 0.0, 0.0, 1e9);
  sc.service.quota.rate_qps = args.GetDouble("quota-qps", 0.0, 0.0, 1e9);
  sc.service.quota.burst = args.GetDouble("quota-burst", 8.0, 1.0, 1e9);
  sc.service.metrics = &registry;
  sc.service.flight_recorder = &recorder;
  sc.service.sampling.sample_every =
      static_cast<uint32_t>(args.GetSize("sample", 0, 0, 1u << 20));

  server::QueryServer server(&db, sc);
  if (const Status s = server.Start(port); !s.ok()) {
    std::fprintf(stderr, "query server failed to start: %s\n",
                 s.ToString().c_str());
    db.UnbindMetrics(&registry, "db");
    return 1;
  }
  std::printf("serving queries on 127.0.0.1:%u (NDJSON; GET /metrics /varz "
              "/tracez /healthz /statusz)\n",
              server.port());
  std::printf("example: {\"op\":\"sk\",\"terms\":[1,2],\"edge\":0,"
              "\"offset\":0,\"delta\":1000}\n");
  std::fflush(stdout);

  std::signal(SIGINT, OnStopSignal);
  std::signal(SIGTERM, OnStopSignal);
  Timer total;
  while (g_stop_serve == 0 &&
         (duration_ms == 0 ||
          total.ElapsedMillis() < static_cast<double>(duration_ms))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const server::ServiceCounters c = server.counters();
  server.Stop();
  std::printf("served %.1f s: %llu requests (%llu admitted, %llu shed, "
              "%llu invalid, %llu quota-denied, %llu cancelled)\n",
              total.ElapsedMillis() / 1000.0,
              static_cast<unsigned long long>(c.requests),
              static_cast<unsigned long long>(c.admitted),
              static_cast<unsigned long long>(c.shed),
              static_cast<unsigned long long>(c.invalid),
              static_cast<unsigned long long>(c.quota_denied),
              static_cast<unsigned long long>(c.cancelled));
  const obs::ProcessMemory mem = obs::ReadProcessMemory();
  std::printf(
      "memory: rss %.1f MiB, peak rss %.1f MiB, heap in use %.1f MiB\n",
      static_cast<double>(mem.rss_bytes) / kMiB,
      static_cast<double>(mem.peak_rss_bytes) / kMiB,
      static_cast<double>(mem.heap_in_use_bytes) / kMiB);
  db.UnbindMetrics(&registry, "db");
  return 0;
}

/// A response status the drill counts as failed: anything but an answer
/// (OK), a deadline (CANCELLED), a shed (RESOURCE_EXHAUSTED) or a rejected
/// request (INVALID_ARGUMENT) — IO_ERROR, CORRUPTION and the rest.
bool IsFailedStatus(const std::string& status) {
  return status != "OK" && status != "CANCELLED" &&
         status != "RESOURCE_EXHAUSTED" && status != "INVALID_ARGUMENT";
}

int CmdDrill(const Args& args) {
  // Load drill: hammer an in-process server over real sockets — at a
  // multiple of its capacity, under injected storage faults, or both — and
  // verify the accounting is exact: no aborts, no lost requests, no double
  // counts, every fault one Status-coded response.
  const double scale = args.GetDouble("scale", 0.03, 1e-6, 1e3);
  const size_t threads = args.GetSize("threads", 4, 1, 1024);
  const size_t queue = args.GetSize("queue", 16, 1, 1u << 20);
  const size_t clients = args.GetSize("clients", 8, 1, 256);
  const size_t queries_per_client = args.GetSize("queries", 64, 1, 1u << 20);
  const double deadline_ms = args.GetDouble("deadline-ms", 0.0, 0.0, 1e9);
  const double invalid_p = args.GetDouble("invalid-p", 0.0, 0.0, 1.0);
  const double quota_qps = args.GetDouble("quota-qps", 0.0, 0.0, 1e9);
  const double read_fault_p = args.GetDouble("read-fault-p", 0.0, 0.0, 1.0);
  const double corrupt_p = args.GetDouble("corrupt-p", 0.0, 0.0, 1.0);
  const uint64_t seed = args.GetSize("seed", 42, 0, SIZE_MAX);
  const size_t retries = args.GetSize("retries", 0, 0, 64);

  CliBackend backend(args);
  Database db(ScalePreset(PresetByName(args.Get("preset", "SYN")), scale),
              backend.options());
  db.BuildIndex(IndexOptionsByName(args.Get("index", "sif")));
  db.PrepareForQueries();
  // Faults are armed after the build, which has written every page: a
  // fault during a build would be a setup failure, not a query failure.
  // The 2% pool then keeps cold reads coming for the faults to hit.
  FaultInjector* faults = db.disk()->fault_injector();
  if (read_fault_p > 0.0 || corrupt_p > 0.0) {
    FaultInjector::Config fc;
    fc.read_fault_p = read_fault_p;
    fc.corrupt_read_p = corrupt_p;
    fc.seed = seed;
    faults->Configure(fc);
  }

  obs::MetricsRegistry registry;
  server::ServerConfig sc;
  sc.service.threads = threads;
  sc.service.queue_capacity = queue;
  sc.service.max_retries = retries;
  sc.service.default_deadline_ms = deadline_ms;
  sc.service.quota.rate_qps = quota_qps;
  sc.service.metrics = &registry;
  server::QueryServer server(&db, sc);
  if (const Status s = server.Start(0); !s.ok()) {
    std::fprintf(stderr, "drill server failed to start: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  WorkloadConfig wc;
  wc.num_queries = queries_per_client;
  wc.num_keywords = 2;
  wc.seed = 7;
  const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);
  Random rng(13);
  std::vector<std::vector<std::string>> lines(clients);
  for (size_t c = 0; c < clients; ++c) {
    for (size_t i = 0; i < queries_per_client; ++i) {
      const bool invalid = rng.NextDouble() < invalid_p;
      std::string id = "c";
      id += std::to_string(c);
      id += '-';
      id += std::to_string(i);
      lines[c].push_back(
          MakeRequestLine(wl.queries[i], id, deadline_ms, invalid));
    }
  }

  // Scrape /metrics continuously while the drill runs: the acceptance bar
  // is that observability stays up under overload.
  std::atomic<bool> drill_done{false};
  std::atomic<uint64_t> scrapes_ok{0}, scrapes_failed{0};
  std::thread scraper([&] {
    while (!drill_done.load(std::memory_order_acquire)) {
      if (HttpGetOk(server.port(), "/metrics", nullptr)) {
        scrapes_ok.fetch_add(1, std::memory_order_relaxed);
      } else {
        scrapes_failed.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  Timer wall;
  std::vector<ClientTally> tallies(clients);
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      RunSocketClient(server.port(), lines[c], /*read_timeout_ms=*/60000,
                      &tallies[c]);
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  const double wall_ms = wall.ElapsedMillis();
  drill_done.store(true, std::memory_order_release);
  scraper.join();

  const server::ServiceCounters sv = server.counters();
  server.Stop();
  faults->Disarm();
  const FaultInjector::StatsSnapshot injected = faults->stats();

  ClientTally total;
  for (const ClientTally& t : tallies) {
    total.sent += t.sent;
    total.received += t.received;
    total.transport_errors += t.transport_errors;
    for (const auto& [status, n] : t.by_status) {
      total.by_status[status] += n;
    }
  }
  const uint64_t client_ok = total.by_status["OK"];
  const uint64_t client_cancelled = total.by_status["CANCELLED"];
  const uint64_t client_rejected = total.by_status["RESOURCE_EXHAUSTED"];
  const uint64_t client_invalid = total.by_status["INVALID_ARGUMENT"];
  uint64_t client_failed = 0;
  for (const auto& [status, n] : total.by_status) {
    client_failed += IsFailedStatus(status) ? n : 0;
  }
  // Every admitted query was recorded by the executor under its final
  // Status once the server stopped.
  uint64_t server_failed = 0;
  for (size_t c = 1; c < Status::kNumCodes; ++c) {
    const char* name = Status::CodeName(static_cast<Status::Code>(c));
    if (IsFailedStatus(name)) {
      server_failed +=
          registry.counter(std::string("query.errors.") + name).value();
    }
  }

  // The admission invariants this drill exists to enforce.
  bool ok = true;
  const auto check = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "drill INVARIANT VIOLATED: %s\n", what);
      ok = false;
    }
  };
  check(sv.requests == sv.invalid + sv.quota_denied + sv.shed + sv.admitted,
        "requests == invalid + quota_denied + shed + admitted");
  check(sv.admitted == sv.completed, "admitted == completed after drain");
  check(sv.requests == total.sent - total.transport_errors ||
            total.transport_errors > 0,
        "server saw every sent request");
  check(client_rejected == sv.shed + sv.quota_denied,
        "client RESOURCE_EXHAUSTED == server shed + quota_denied");
  check(client_invalid == sv.invalid,
        "client INVALID_ARGUMENT == server invalid");
  check(total.received == total.sent - total.transport_errors,
        "one response per request");
  check(client_ok + client_cancelled + client_rejected + client_invalid +
                client_failed + total.transport_errors ==
            clients * queries_per_client,
        "client tallies add up to every request sent");
  check(client_failed == server_failed,
        "client failures == executor query.errors of the same codes");
  check(scrapes_ok.load() > 0 && scrapes_failed.load() == 0,
        "/metrics scrapeable throughout");

  server::JsonWriter w;
  w.BeginObject();
  w.Key("bench").Value("server_drill");
  w.Key("server_clients").Value(static_cast<uint64_t>(clients));
  w.Key("server_threads").Value(static_cast<uint64_t>(threads));
  w.Key("server_queue").Value(static_cast<uint64_t>(queue));
  w.Key("server_offered").Value(sv.requests);
  w.Key("server_admitted").Value(sv.admitted);
  w.Key("server_completed").Value(sv.completed);
  w.Key("server_shed").Value(sv.shed);
  w.Key("server_invalid").Value(sv.invalid);
  w.Key("server_quota_denied").Value(sv.quota_denied);
  w.Key("server_cancelled").Value(sv.cancelled);
  w.Key("server_client_ok").Value(client_ok);
  w.Key("server_client_cancelled").Value(client_cancelled);
  w.Key("server_client_rejected").Value(client_rejected);
  w.Key("server_client_failed").Value(client_failed);
  w.Key("server_retries").Value(registry.counter("query.retries").value());
  w.Key("server_read_faults").Value(injected.read_faults);
  w.Key("server_bit_flips").Value(injected.corruptions);
  w.Key("server_transport_errors").Value(total.transport_errors);
  w.Key("server_scrapes_ok").Value(scrapes_ok.load());
  w.Key("server_scrapes_failed").Value(scrapes_failed.load());
  w.Key("server_wall_ms").Value(wall_ms);
  w.Key("server_qps").Value(
      wall_ms > 0.0 ? 1000.0 * static_cast<double>(sv.completed) / wall_ms
                    : 0.0);
  w.Key("server_invariants_ok").Value(ok);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args(argc, argv);
  if (argc < 2) {
    return Usage();
  }
  // Each subcommand with every flag it reads. Any other flag exits 2, so a
  // misspelt or removed flag cannot run silently with its default.
  struct Command {
    const char* name;
    int (*run)(const Args&);
    std::vector<std::string> flags;
  };
  const Command commands[] = {
      {"generate", CmdGenerate, {"preset", "scale", "out"}},
      {"info", CmdInfo, {}},
      {"query",
       CmdQuery,
       {"data", "terms", "index", "object-loc", "delta", "k", "mode", "lambda",
        "alpha", "trace", "prefetch", "backend", "backend-path"}},
      {"serve",
       CmdServe,
       {"port", "preset", "scale", "index", "threads", "queue", "deadline-ms",
        "quota-qps", "quota-burst", "sample", "duration-ms", "backend",
        "backend-path"}},
      {"drill",
       CmdDrill,
       {"preset", "scale", "index", "threads", "queue", "clients", "queries",
        "deadline-ms", "invalid-p", "quota-qps", "read-fault-p", "corrupt-p",
        "seed", "retries", "backend", "backend-path"}},
  };
  const std::string cmd = argv[1];
  for (const Command& c : commands) {
    if (cmd != c.name) {
      continue;
    }
    if (const auto unknown = args.FirstUnknownFlag(c.flags)) {
      std::fprintf(stderr, "unknown flag --%s for %s\n", unknown->c_str(),
                   c.name);
      return 2;
    }
    return c.run(args);
  }
  return Usage();
}

}  // namespace
}  // namespace dsks

int main(int argc, char** argv) { return dsks::Main(argc, argv); }
