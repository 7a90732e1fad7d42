// dsks_cli — command-line front end for the library.
//
//   dsks_cli generate --preset NA|SF|TW|SYN [--scale F] --out FILE
//       Generate a dataset and save it in the DSKS binary format.
//   dsks_cli info FILE
//       Print dataset statistics (Table 2 style).
//   dsks_cli query --data FILE [--index ir|if|sif|sifp|sifg]
//             --terms T1,T2,... [--object-loc ID] [--delta D]
//             [--k K] [--mode boolean|knn|ranked|div-seq|div-com]
//             [--lambda L] [--alpha A] [--threads N] [--repeat R]
//             [--trace [json]]
//       Load a dataset, build the index, run one query. The query point
//       defaults to the location of object --object-loc (default 0).
//       With --threads N > 1, additionally re-runs the query R times
//       (default 64 per thread) on an N-thread QueryExecutor sharing the
//       index and buffer pool, and reports aggregate throughput.
//       --trace records per-phase spans with buffer-pool/disk deltas and
//       prints the span tree (or JSON with `--trace json`).
//   dsks_cli metrics [--scale F] [--index sif] [--queries N] [--threads N]
//             [--format json|prom]
//       Build a synthetic database, run a small concurrent workload, and
//       dump the metrics registry (storage counters bound as live sources
//       plus the executor's latency histogram).
//   dsks_cli chaos [--scale F] [--index sif] [--queries N] [--threads N]
//             [--read-fault-p P] [--write-fault-p P] [--corrupt-p P]
//             [--seed S] [--retries R] [--socket]
//       Run a concurrent workload with storage fault injection armed and
//       prove the process survives: failed queries are counted per Status
//       code (never aborting), transient read faults optionally retried.
//       With --socket the same drill runs end-to-end through the TCP query
//       server: requests go over loopback as JSON lines and every failure
//       comes back as a Status-coded response.
//   dsks_cli serve [--port P] [--scale F] [--index sif] [--threads N]
//             [--queue N] [--deadline-ms D] [--batch-window-ms W]
//             [--quota-qps Q] [--quota-burst B] [--submit-wait-ms S]
//             [--sample N] [--duration-ms N]
//       Build a synthetic database and serve the NDJSON query protocol
//       plus the observability routes (/metrics /varz /tracez /healthz
//       /statusz) on one loopback listener until SIGINT/SIGTERM (or
//       --duration-ms). --port 0 picks an ephemeral port (printed).
//       --sample N traces 1 in N queries into the flight recorder that
//       /tracez serves (errors are recorded regardless; 0 = off).
//   dsks_cli drill [--scale F] [--index sif] [--threads N] [--queue N]
//             [--clients N] [--queries N] [--deadline-ms D] [--invalid-p P]
//             [--batch-window-ms W] [--quota-qps Q]
//       Overload drill: an in-process query server hammered over real
//       sockets by N pipelining clients at a multiple of its capacity,
//       with /metrics scraped throughout. Verifies the admission
//       invariants (offered == admitted + shed + invalid + quota_denied,
//       admitted == completed, sheds exactly match rejected submissions)
//       and prints one "bench":"server_drill" JSON line.
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
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "datagen/presets.h"
#include "datagen/workload.h"
#include "graph/serialization.h"
#include "harness/database.h"
#include "harness/query_executor.h"
#include "index/inverted_file.h"
#include "index/inverted_rtree.h"
#include "index/sif.h"
#include "index/sif_group.h"
#include "index/sif_partitioned.h"
#include "core/distance_oracle.h"
#include "core/div_search.h"
#include "core/ranked_search.h"
#include "graph/ccam.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "datagen/network_generator.h"
#include "datagen/object_generator.h"
#include "index/query_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/json.h"
#include "server/query_server.h"

namespace dsks {
namespace {

/// Minimal --flag value parser. Both spellings work: `--flag value` and
/// `--flag=value`. A flag followed by another flag (or by nothing) is
/// boolean — present with an empty value — so `--trace` and `--trace json`
/// both work.
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
               "           [--lambda 0.8] [--alpha 0.5]\n"
               "           [--threads 4] [--repeat 64] [--trace [json]]\n"
               "           [--prefetch on|off]\n"
               "  dsks_cli metrics [--scale 0.03] [--index sif]\n"
               "           [--queries 32] [--threads 2]\n"
               "           [--format=json|prometheus]\n"
               "  dsks_cli chaos [--scale 0.03] [--index sif] [--queries 256]\n"
               "           [--threads 8] [--read-fault-p 0.001]\n"
               "           [--write-fault-p 0] [--corrupt-p 0] [--seed 42]\n"
               "           [--retries 0] [--socket]\n"
               "  dsks_cli serve [--port 0] [--scale 0.03] [--index sif]\n"
               "           [--threads 4] [--queue 64] [--deadline-ms 0]\n"
               "           [--batch-window-ms 0] [--quota-qps 0]\n"
               "           [--quota-burst 8] [--submit-wait-ms 0]\n"
               "           [--sample 0] [--duration-ms 0]\n"
               "  dsks_cli drill [--scale 0.03] [--index sif] [--threads 4]\n"
               "           [--queue 16] [--clients 8] [--queries 64]\n"
               "           [--deadline-ms 0] [--invalid-p 0]\n"
               "           [--batch-window-ms 0] [--quota-qps 0]\n"
               "query/metrics/chaos/serve/drill also accept storage-backend "
               "flags:\n"
               "           [--backend sim|file] [--backend-path PATH]\n"
               "           [--o-direct]\n");
  return 2;
}

/// Shared storage-backend flags: `--backend sim|file` selects where pages
/// live, `--backend-path PATH` names the index file (file backend only;
/// defaults to a fresh /tmp file that is removed on exit), `--o-direct`
/// asks the file backend to bypass the OS page cache.
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
      options_.o_direct = args.Has("o-direct");
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
  const double avg_kw = static_cast<double>(objects->TotalTermOccurrences()) /
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

int CmdQuery(const Args& args) {
  const std::string path = args.Get("data", "");
  const std::string terms_csv = args.Get("terms", "");
  if (path.empty() || terms_csv.empty()) {
    return Usage();
  }
  // Loading through the serialization path, then wrapping into a Database
  // would duplicate the dataset; the CLI builds the stack directly.
  std::unique_ptr<RoadNetwork> net;
  std::unique_ptr<ObjectSet> objects;
  Status s = LoadDataset(path, &net, &objects);
  if (!s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  size_t vocab = 0;
  for (const auto& o : objects->objects()) {
    for (TermId t : o.terms) {
      vocab = std::max<size_t>(vocab, t + 1);
    }
  }

  CliBackend backend(args);
  DiskManager disk(backend.options());
  BufferPool pool(&disk, 1u << 16);
  // --prefetch off pins the pool to demand-only reads — the A/B knob for
  // attributing a query's I/O behavior to speculative batching.
  const std::string prefetch = args.Get("prefetch", "on");
  if (prefetch != "on" && prefetch != "off") {
    std::fprintf(stderr, "--prefetch: want 'on' or 'off', got '%s'\n",
                 prefetch.c_str());
    return 2;
  }
  pool.set_prefetch_enabled(prefetch == "on");
  const CcamFile ccam = CcamFileBuilder::Build(*net, &disk);
  CcamGraph graph(&ccam, &pool);

  const std::string index_name = args.Get("index", "sif");
  std::unique_ptr<ObjectIndex> index;
  Timer build_timer;
  if (index_name == "ir") {
    index = std::make_unique<InvertedRTreeIndex>(&pool, *objects, vocab);
  } else if (index_name == "if") {
    index = std::make_unique<InvertedFileIndex>(&pool, *objects, vocab);
  } else if (index_name == "sifp") {
    SifPConfig cfg;
    cfg.log_provider =
        MakeQueryLogProvider(QueryLogMode::kFrequency, {}, 3, 8, 1);
    index =
        std::make_unique<SifPartitionedIndex>(&pool, *objects, vocab, cfg);
  } else if (index_name == "sifg") {
    index = std::make_unique<SifGroupIndex>(&pool, *objects, vocab, 25);
  } else {
    index = std::make_unique<SifIndex>(&pool, *objects, vocab);
  }
  std::printf("built %s in %.0f ms (%.1f MB)\n", index->name().c_str(),
              build_timer.ElapsedMillis(),
              static_cast<double>(index->SizeBytes()) / 1048576.0);

  const auto& anchor = objects->object(static_cast<ObjectId>(
      args.GetSize("object-loc", 0, 0, SIZE_MAX) % objects->size()));
  SkQuery q;
  q.loc = NetworkLocation{anchor.edge, anchor.offset};
  q.terms = ParseTerms(terms_csv);
  q.delta_max = args.GetDouble("delta", 1500.0, 1e-9, 1e12);
  // The API boundary: a malformed query is an error message plus a nonzero
  // exit, never an abort inside the search.
  if (const Status qs = NormalizeSkQuery(&q); !qs.ok()) {
    std::fprintf(stderr, "invalid query: %s\n", qs.ToString().c_str());
    return 2;
  }
  const QueryEdgeInfo qe = MakeQueryEdgeInfo(*net, q.loc);
  const std::string mode = args.Get("mode", "boolean");
  const size_t k = args.GetSize("k", 10, 1, 1u << 20);

  // --trace: per-phase spans with pool/disk counter deltas, for every mode.
  const bool traced = args.Has("trace");
  obs::QueryTrace trace;
  obs::QueryTrace* trace_ptr = nullptr;
  QueryContext cli_ctx;
  if (traced) {
    // The trace snapshots the context's per-query attribution counters,
    // charged through the thread-affine account installed below — exact
    // even if other threads shared this pool.
    trace.BindContextIo(&cli_ctx.io);
    trace_ptr = &trace;
  }
  cli_ctx.trace = trace_ptr;
  obs::ScopedIoAccount io_account(&cli_ctx.io);

  const uint64_t reads_before = disk.stats().reads.load();
  const uint64_t prefetched_before = pool.stats().prefetch_issued.load();
  Timer timer;
  uint32_t root_span = 0;
  if (trace_ptr != nullptr) {
    root_span = trace.OpenSpan(obs::Phase::kQuery);
  }
  // A storage error fails the query, not the process: remember it, close
  // the trace normally (its spans are the partial-work account) and exit
  // nonzero at the end.
  Status query_status;
  if (mode == "knn") {
    std::vector<SkResult> res;
    query_status =
        BooleanKnnSearch(&graph, index.get(), q, qe, k, &res, &cli_ctx);
    for (const auto& r : res) {
      std::printf("  object %u  dist %.1f\n", r.id, r.dist);
    }
  } else if (mode == "ranked") {
    RankedQuery rq;
    rq.sk = q;
    rq.k = k;
    rq.alpha = args.GetDouble("alpha", 0.5, 0.0, 1.0);
    std::vector<RankedResult> res;
    query_status = RankedSkSearch(&graph, index.get(), rq, qe, &res,
                                  /*stats=*/nullptr, &cli_ctx);
    for (const auto& r : res) {
      std::printf("  object %u  dist %.1f  matched %u/%zu  score %.4f\n",
                  r.id, r.dist, r.matched, q.terms.size(), r.score);
    }
  } else if (mode == "div-seq" || mode == "div-com") {
    DivQuery dq;
    dq.sk = q;
    dq.k = k;
    dq.lambda = args.GetDouble("lambda", 0.8, 0.0, 1.0);
    IncrementalSkSearch search(&graph, index.get(), dq.sk, qe, &cli_ctx);
    PairwiseDistanceOracle oracle(&graph, 2.0 * q.delta_max,
                                  OracleStrategy::kSharedExpansion, &cli_ctx);
    oracle.SetQueryEdge(qe);
    const DivSearchOutput out = mode == "div-com"
                                    ? DiversifiedSearchCOM(&search, dq, &oracle)
                                    : DiversifiedSearchSEQ(&search, dq,
                                                           &oracle);
    query_status = out.status;
    std::printf("f(S) = %.4f over %lu candidates%s\n", out.objective,
                static_cast<unsigned long>(out.stats.candidates),
                out.stats.early_terminated ? " (early termination)" : "");
    for (const auto& r : out.selected) {
      std::printf("  object %u  dist %.1f\n", r.id, r.dist);
    }
  } else {
    IncrementalSkSearch search(&graph, index.get(), q, qe, &cli_ctx);
    SkResult r;
    size_t count = 0;
    while (search.Next(&r)) {
      if (count < 20) {
        std::printf("  object %u  dist %.1f\n", r.id, r.dist);
      }
      ++count;
    }
    query_status = search.status();
    if (count > 20) {
      std::printf("  ... and %zu more\n", count - 20);
    }
    std::printf("%zu objects satisfy the query\n", count);
  }
  if (trace_ptr != nullptr) {
    if (!query_status.ok()) {
      trace.MarkError(query_status.code_name());
    }
    trace.CloseSpan(root_span);
  }
  const double query_millis = timer.ElapsedMillis();
  const uint64_t query_reads = disk.stats().reads.load() - reads_before;
  std::printf("query time %.1f ms, %lu page reads, %lu prefetched\n",
              query_millis, static_cast<unsigned long>(query_reads),
              static_cast<unsigned long>(
                  pool.stats().prefetch_issued.load() - prefetched_before));
  if (traced) {
    if (args.Get("trace", "") == "json") {
      std::printf("%s\n", trace.ToJson().c_str());
    } else {
      std::printf("%s", trace.ToText().c_str());
    }
    // Per-phase exclusive totals telescope exactly to the root span; the
    // remaining gap is only root-vs-wall (timer/printf overhead outside
    // the span), reported so drift is visible.
    const obs::TraceSpan& rs = trace.spans()[root_span];
    int64_t phase_ns = 0;
    uint64_t phase_reads = 0;
    for (const auto& t : trace.AggregateByPhase()) {
      phase_ns += t.exclusive_ns;
      phase_reads += t.io.disk_reads;
    }
    std::printf(
        "trace check: phases %.3f ms / root %.3f ms / wall %.3f ms, "
        "phase reads %llu / query reads %llu\n",
        static_cast<double>(phase_ns) / 1e6,
        static_cast<double>(rs.inclusive_ns) / 1e6, query_millis,
        static_cast<unsigned long long>(phase_reads),
        static_cast<unsigned long long>(query_reads));
  }

  // Optional concurrent re-run: the storage layer is concurrent-reader
  // safe, so N workers can hammer the same index and buffer pool.
  const size_t threads = args.GetSize("threads", 1, 1, 1024);
  if (threads > 1) {
    const size_t repeat = args.GetSize("repeat", 64, 1, 1u << 20);
    const double alpha = args.GetDouble("alpha", 0.5, 0.0, 1.0);
    const double lambda = args.GetDouble("lambda", 0.8, 0.0, 1.0);
    ExecutorConfig config;
    config.num_threads = threads;
    QueryExecutor exec(config);
    Timer wall;
    for (size_t i = 0; i < threads * repeat; ++i) {
      exec.SubmitQuery([&graph, &index, &q, &qe, mode, k, alpha,
                        lambda](QueryContext* ctx) {
        if (mode == "knn") {
          std::vector<SkResult> res;
          return BooleanKnnSearch(&graph, index.get(), q, qe, k, &res, ctx);
        }
        if (mode == "ranked") {
          RankedQuery rq;
          rq.sk = q;
          rq.k = k;
          rq.alpha = alpha;
          std::vector<RankedResult> res;
          return RankedSkSearch(&graph, index.get(), rq, qe, &res,
                                /*stats=*/nullptr, ctx);
        }
        if (mode == "div-seq" || mode == "div-com") {
          DivQuery dq;
          dq.sk = q;
          dq.k = k;
          dq.lambda = lambda;
          IncrementalSkSearch search(&graph, index.get(), dq.sk, qe, ctx);
          PairwiseDistanceOracle oracle(&graph, 2.0 * q.delta_max,
                                        OracleStrategy::kSharedExpansion, ctx);
          oracle.SetQueryEdge(qe);
          const DivSearchOutput out =
              mode == "div-com" ? DiversifiedSearchCOM(&search, dq, &oracle)
                                : DiversifiedSearchSEQ(&search, dq, &oracle);
          return out.status;
        }
        IncrementalSkSearch search(&graph, index.get(), q, qe, ctx);
        SkResult r;
        while (search.Next(&r)) {
        }
        return search.status();
      });
    }
    const QueryExecutor::DrainResult drained = exec.Drain();
    const ThroughputMetrics m =
        SummarizeThroughput(threads, wall.ElapsedMillis(), drained);
    std::printf(
        "concurrent rerun: %zu threads, %zu queries, %.1f qps "
        "(p50 %.3f ms, p99 %.3f ms, errors %llu)\n",
        m.num_threads, m.queries, m.qps, m.p50_millis, m.p99_millis,
        static_cast<unsigned long long>(m.errors));
  }
  if (!query_status.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 query_status.ToString().c_str());
    return 1;
  }
  return 0;
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

int CmdMetrics(const Args& args) {
  // Self-contained: a synthetic database plus a short concurrent workload,
  // so there is traffic behind every exposed counter.
  const double scale = args.GetDouble("scale", 0.03, 1e-6, 1e3);
  CliBackend backend(args);
  Database db(ScalePreset(PresetByName(args.Get("preset", "SYN")), scale),
              backend.options());
  db.BuildIndex(IndexOptionsByName(args.Get("index", "sif")));
  db.PrepareForQueries();

  obs::MetricsRegistry& registry = obs::GlobalMetrics();
  db.BindMetrics(&registry, "db");

  WorkloadConfig wc;
  wc.num_queries = args.GetSize("queries", 32, 1, 1u << 20);
  wc.num_keywords = 2;
  wc.seed = 7;
  const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);
  ExecutorConfig config;
  config.num_threads = args.GetSize("threads", 2, 1, 1024);
  config.metrics = &registry;
  {
    // Each query lands in the registry as it completes; leaving the scope
    // waits for the last one.
    QueryExecutor exec(config);
    for (const WorkloadQuery& wq : wl.queries) {
      const WorkloadQuery* q = &wq;
      exec.SubmitQuery([&db, q](QueryContext* ctx) {
        std::vector<SkResult> results;
        return db.RunSkQuery(q->sk, q->edge, &results, ctx);
      });
    }
  }

  const std::string format = args.Get("format", "json");
  if (format == "prom" || format == "prometheus") {
    std::printf("%s", registry.ToPrometheus().c_str());
  } else {
    std::printf("%s\n", registry.ToJson().c_str());
  }
  db.UnbindMetrics(&registry, "db");
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

  obs::MetricsRegistry& registry = obs::GlobalMetrics();
  db.BindMetrics(&registry, "db");
  obs::FlightRecorder recorder;
  recorder.set_occupancy_gauge(&registry.gauge("flight_recorder.entries"));

  server::ServerConfig sc;
  sc.service.threads = args.GetSize("threads", 4, 1, 1024);
  sc.service.queue_capacity = args.GetSize("queue", 64, 1, 1u << 20);
  sc.service.default_deadline_ms =
      args.GetDouble("deadline-ms", 0.0, 0.0, 1e9);
  sc.service.batch_window_ms =
      args.GetDouble("batch-window-ms", 0.0, 0.0, 1e6);
  sc.service.submit_wait_ms = args.GetDouble("submit-wait-ms", 0.0, 0.0, 1e6);
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
  db.UnbindMetrics(&registry, "db");
  return 0;
}

int CmdDrill(const Args& args) {
  // Overload acceptance drill: hammer an in-process server over real
  // sockets at a multiple of its capacity and verify the admission
  // arithmetic is exact — no aborts, no lost requests, no double counts.
  const double scale = args.GetDouble("scale", 0.03, 1e-6, 1e3);
  const size_t threads = args.GetSize("threads", 4, 1, 1024);
  const size_t queue = args.GetSize("queue", 16, 1, 1u << 20);
  const size_t clients = args.GetSize("clients", 8, 1, 256);
  const size_t queries_per_client = args.GetSize("queries", 64, 1, 1u << 20);
  const double deadline_ms = args.GetDouble("deadline-ms", 0.0, 0.0, 1e9);
  const double invalid_p = args.GetDouble("invalid-p", 0.0, 0.0, 1.0);
  const double batch_window_ms =
      args.GetDouble("batch-window-ms", 0.0, 0.0, 1e6);
  const double quota_qps = args.GetDouble("quota-qps", 0.0, 0.0, 1e9);

  CliBackend backend(args);
  Database db(ScalePreset(PresetByName(args.Get("preset", "SYN")), scale),
              backend.options());
  db.BuildIndex(IndexOptionsByName(args.Get("index", "sif")));
  db.PrepareForQueries();

  obs::MetricsRegistry registry;
  server::ServerConfig sc;
  sc.service.threads = threads;
  sc.service.queue_capacity = queue;
  sc.service.default_deadline_ms = deadline_ms;
  sc.service.batch_window_ms = batch_window_ms;
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
      lines[c].push_back(MakeRequestLine(
          wl.queries[i], "c" + std::to_string(c) + "-" + std::to_string(i),
          deadline_ms, invalid));
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
  w.Key("server_batches").Value(sv.batches);
  w.Key("server_batched_queries").Value(sv.batched_queries);
  w.Key("server_client_ok").Value(client_ok);
  w.Key("server_client_cancelled").Value(client_cancelled);
  w.Key("server_client_rejected").Value(client_rejected);
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

int CmdChaos(const Args& args) {
  // Survival demonstration: run a concurrent workload with the storage
  // fault injector armed and show that every failure surfaces as a counted
  // Status — the queries fail, the process does not.
  const double scale = args.GetDouble("scale", 0.03, 1e-6, 1e3);
  const double read_fault_p = args.GetDouble("read-fault-p", 0.001, 0.0, 1.0);
  const double write_fault_p = args.GetDouble("write-fault-p", 0.0, 0.0, 1.0);
  const double corrupt_p = args.GetDouble("corrupt-p", 0.0, 0.0, 1.0);
  const uint64_t seed = args.GetSize("seed", 42, 0, SIZE_MAX);
  const size_t retries = args.GetSize("retries", 0, 0, 64);
  const size_t num_queries = args.GetSize("queries", 256, 1, 1u << 20);
  const size_t threads = args.GetSize("threads", 8, 1, 1024);

  CliBackend backend(args);
  Database db(ScalePreset(PresetByName(args.Get("preset", "SYN")), scale),
              backend.options());
  db.BuildIndex(IndexOptionsByName(args.Get("index", "sif")));
  // Shrink the pool *before* arming the injector: preparation flushes, and
  // an injected write fault there would be a setup failure, not a query
  // failure. The small pool then guarantees cold reads during the workload
  // so faults actually have reads to hit.
  db.PrepareForQueries();

  WorkloadConfig wc;
  wc.num_queries = num_queries;
  wc.num_keywords = 2;
  wc.seed = 7;
  const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);

  FaultInjector::Config fc;
  fc.read_fault_p = read_fault_p;
  fc.write_fault_p = write_fault_p;
  fc.corrupt_read_p = corrupt_p;
  fc.seed = seed;
  db.disk()->fault_injector()->Configure(fc);

  if (args.Has("socket")) {
    // End-to-end drill: the same fault-injected workload, but every query
    // travels over a real TCP connection through the query server. The
    // survival property becomes visible at the protocol level — each
    // injected fault answers as a Status-coded JSON response and the
    // server keeps serving.
    obs::MetricsRegistry registry;
    server::ServerConfig sc;
    sc.service.threads = threads;
    sc.service.queue_capacity = num_queries;  // chaos probes faults, not sheds
    sc.service.max_retries = retries;
    sc.service.metrics = &registry;
    server::QueryServer server(&db, sc);
    if (const Status s = server.Start(0); !s.ok()) {
      std::fprintf(stderr, "chaos server failed to start: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    const size_t num_clients = std::min<size_t>(threads, 8);
    std::vector<std::vector<std::string>> lines(num_clients);
    for (size_t i = 0; i < wl.queries.size(); ++i) {
      lines[i % num_clients].push_back(MakeRequestLine(
          wl.queries[i], "q" + std::to_string(i), /*deadline_ms=*/0.0,
          /*invalid=*/false));
    }
    std::vector<ClientTally> tallies(num_clients);
    std::vector<std::thread> workers;
    for (size_t c = 0; c < num_clients; ++c) {
      workers.emplace_back([&, c] {
        RunSocketClient(server.port(), lines[c], /*read_timeout_ms=*/120000,
                        &tallies[c]);
      });
    }
    for (std::thread& t : workers) {
      t.join();
    }
    const server::ServiceCounters sv = server.counters();
    server.Stop();
    db.disk()->fault_injector()->Disarm();

    ClientTally total;
    for (const ClientTally& t : tallies) {
      total.sent += t.sent;
      total.received += t.received;
      total.transport_errors += t.transport_errors;
      for (const auto& [status, n] : t.by_status) {
        total.by_status[status] += n;
      }
    }
    std::printf(
        "chaos --socket: %llu requests over %zu connections, %zu server "
        "threads, read-fault-p=%g corrupt-p=%g (seed %llu, backend %s)\n",
        static_cast<unsigned long long>(total.sent), num_clients, threads,
        read_fault_p, corrupt_p, static_cast<unsigned long long>(seed),
        backend.name());
    for (const auto& [status, n] : total.by_status) {
      std::printf("    %-17s %llu\n", status.c_str(),
                  static_cast<unsigned long long>(n));
    }
    std::printf("  server: %llu admitted, %llu completed, %llu shed; "
                "transport errors %llu\n",
                static_cast<unsigned long long>(sv.admitted),
                static_cast<unsigned long long>(sv.completed),
                static_cast<unsigned long long>(sv.shed),
                static_cast<unsigned long long>(total.transport_errors));
    const bool survived =
        total.received == total.sent && sv.admitted == sv.completed;
    std::printf("%s\n", survived
                            ? "survived: every failure above is a Status "
                              "response, not a crash"
                            : "FAILED: lost responses or admission leak");
    return survived ? 0 : 1;
  }

  ExecutorConfig config;
  config.num_threads = threads;
  config.max_retries = retries;
  ThroughputMetrics m;
  {
    QueryExecutor exec(config);
    Timer wall;
    for (const WorkloadQuery& wq : wl.queries) {
      const WorkloadQuery* q = &wq;
      exec.SubmitQuery([&db, q](QueryContext* ctx) {
        std::vector<SkResult> results;
        return db.RunSkQuery(q->sk, q->edge, &results, ctx);
      });
    }
    const QueryExecutor::DrainResult drained = exec.Drain();
    m = SummarizeThroughput(threads, wall.ElapsedMillis(), drained);
  }
  db.disk()->fault_injector()->Disarm();

  std::printf(
      "chaos: %zu queries on %zu threads under read-fault-p=%g "
      "corrupt-p=%g (seed %llu, backend %s)\n",
      m.queries, m.num_threads, read_fault_p, corrupt_p,
      static_cast<unsigned long long>(seed), backend.name());
  std::printf("  failed %llu (error rate %.2f%%), retries %llu\n",
              static_cast<unsigned long long>(m.errors),
              100.0 * m.error_rate,
              static_cast<unsigned long long>(m.retries));
  for (size_t c = 0; c < Status::kNumCodes; ++c) {
    if (m.errors_by_code[c] > 0) {
      std::printf("    %-17s %llu\n",
                  Status::CodeName(static_cast<Status::Code>(c)),
                  static_cast<unsigned long long>(m.errors_by_code[c]));
    }
  }
  const FaultInjector::StatsSnapshot fs =
      db.disk()->fault_injector()->stats();
  const DiskStatsSnapshot ds = db.disk()->stats_snapshot();
  std::printf(
      "  injected: %llu read faults, %llu write faults, %llu bit flips\n",
      static_cast<unsigned long long>(fs.read_faults),
      static_cast<unsigned long long>(fs.write_faults),
      static_cast<unsigned long long>(fs.corruptions));
  std::printf("  disk: %llu reads, %llu corruptions detected by checksum\n",
              static_cast<unsigned long long>(ds.reads),
              static_cast<unsigned long long>(ds.corruptions_detected));
  std::printf("survived: every failure above is a Status, not a crash\n");
  return 0;
}

int Main(int argc, char** argv) {
  Args args(argc, argv);
  if (argc < 2) {
    return Usage();
  }
  const std::string cmd = argv[1];
  if (cmd == "generate") {
    return CmdGenerate(args);
  }
  if (cmd == "info") {
    return CmdInfo(args);
  }
  if (cmd == "query") {
    return CmdQuery(args);
  }
  if (cmd == "metrics") {
    return CmdMetrics(args);
  }
  if (cmd == "chaos") {
    return CmdChaos(args);
  }
  if (cmd == "serve") {
    return CmdServe(args);
  }
  if (cmd == "drill") {
    return CmdDrill(args);
  }
  return Usage();
}

}  // namespace
}  // namespace dsks

int main(int argc, char** argv) { return dsks::Main(argc, argv); }
