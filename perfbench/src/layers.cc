// The traced run: the per-layer metrics. Each is measured from outside the
// program, around calls into a module's public functions, or read from
// counters and trace phases the program already keeps. Every measured pass
// starts from the same pool state (ResetPoolState).
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "core/distance_oracle.h"
#include "harness/query_executor.h"
#include "obs/trace.h"
#include "server/json.h"
#include "storage/page.h"

namespace perfbench {

dsks::Status RunSocketPass(Env* env, bool trace, double seconds,
                           bool record_spans, ClientSummary* out) {
  ClientConfig cc;
  cc.port = env->server->port();
  cc.dir = env->dir;
  cc.requests_file = trace ? "requests_traced.txt" : "requests.txt";
  cc.open_loop = env->spec->open_loop;
  cc.connections = env->spec->connections;
  cc.rate_qps = env->spec->rate_qps;
  cc.seconds = seconds;
  cc.record_spans = record_spans;
  return RunClient(env->self_exe, cc, out);
}

namespace {

/// Keeps the timed CRC loop from being optimized away.
volatile uint32_t g_crc_sink = 0;

/// Benchmark-side ObjectIndex decorator: forwards to the database's index
/// and times every LoadObjects call.
class TimedIndex : public dsks::ObjectIndex {
 public:
  explicit TimedIndex(dsks::ObjectIndex* inner) : inner_(inner) {}

  dsks::Status LoadObjects(dsks::EdgeId edge,
                           std::span<const dsks::TermId> terms,
                           std::vector<dsks::LoadedObject>* out) override {
    const int64_t t0 = NowNs();
    const dsks::Status s = inner_->LoadObjects(edge, terms, out);
    ns_ += NowNs() - t0;
    ++calls_;
    return s;
  }
  uint64_t SizeBytes() const override { return inner_->SizeBytes(); }
  std::string name() const override { return inner_->name(); }

  int64_t ns() const { return ns_; }
  uint64_t calls() const { return calls_; }

 private:
  dsks::ObjectIndex* inner_;
  int64_t ns_ = 0;
  uint64_t calls_ = 0;
};

bool SameResult(const Expected& a, const Expected& b) {
  return a.ids == b.ids &&
         std::memcmp(&a.objective, &b.objective, sizeof(double)) == 0 &&
         a.dists.size() == b.dists.size() &&
         (a.dists.empty() ||
          std::memcmp(a.dists.data(), b.dists.data(),
                      a.dists.size() * sizeof(double)) == 0);
}

double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// Runs `body` over and over for at least `min_s` seconds; returns the
/// mean nanoseconds per call of `body`, which performs `per_round` calls.
template <typename F>
double TimeLoop(double min_s, size_t per_round, F&& body) {
  const int64_t t0 = NowNs();
  uint64_t rounds = 0;
  int64_t now = t0;
  do {
    body();
    ++rounds;
    now = NowNs();
  } while (static_cast<double>(now - t0) < min_s * 1e9);
  return static_cast<double>(now - t0) /
         static_cast<double>(rounds * std::max<size_t>(1, per_round));
}

struct Run {
  Env* env;
  MetricSink* sink;
  SpanLog* log;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool ok = true;

  /// The in-process passes run the first n() requests: enough for steady
  /// per-layer means while keeping the traced run short.
  size_t n() const { return std::min<size_t>(env->requests.size(), 2000); }

  void Check(size_t i, const dsks::Status& st, const Expected& got,
             const char* pass) {
    ++attempted;
    if (!st.ok() || !SameResult(got, env->expected[i])) {
      if (ok) {
        std::fprintf(stderr, "%s: request %zu differs from the reference\n",
                     pass, i);
      }
      ++failed;
      ok = false;
    }
  }

  void SocketPasses(double pass_s) {
    dsks::server::QueryServer* server = env->server.get();
    ClientSummary plain, traced;
    const dsks::server::ServiceCounters c0 = server->counters();
    ResetPoolState(env, env->requests.size());
    SetReadDelay(env, true);
    int64_t t0 = NowNs();
    dsks::Status st = RunSocketPass(env, false, pass_s, false, &plain);
    log->Add("pass.socket_untraced", -1, -1, t0, NowNs());
    ResetPoolState(env, env->requests.size());
    SetReadDelay(env, true);
    t0 = NowNs();
    if (st.ok()) {
      st = RunSocketPass(env, true, pass_s, true, &traced);
    }
    const int64_t root = log->Add("pass.socket_traced", -1, -1, t0, NowNs());
    const dsks::server::ServiceCounters c1 = server->counters();
    if (!st.ok()) {
      std::fprintf(stderr, "socket pass: %s\n", st.ToString().c_str());
      ok = false;
      return;
    }
    for (const ClientSummary* cs : {&plain, &traced}) {
      attempted += static_cast<uint64_t>(cs->at("attempted"));
      failed += static_cast<uint64_t>(cs->at("failed"));
      ok = ok && cs->at("mismatched") == 0;
    }
    // The split of the traced round trip: outside + exec == round trip.
    const double served = traced["ok"];
    const double rtt_us = Share(traced["rtt_us_sum"], served);
    const double exec_us = Share(1e3 * traced["exec_ms_sum"], served);
    const double outside_us = Share(traced["outside_us_sum"], served);
    if (std::abs(rtt_us - exec_us - outside_us) > 1e-6 * rtt_us) {
      std::fprintf(stderr, "round-trip split does not add up: %f != %f+%f\n",
                   rtt_us, exec_us, outside_us);
      ok = false;
    }
    std::printf(
        "traced round trip %.3f us = outside exec %.3f us + exec %.3f us "
        "(%.0f requests)\n",
        rtt_us, outside_us, exec_us, served);
    sink->Add("server.round_trip_us", rtt_us, "us");
    sink->Add("server.exec_us", exec_us, "us");
    sink->Add("server.outside_exec_us", outside_us, "us");
    sink->Add("server.outside_exec_p50_us", traced["outside_us_p50"], "us");
    sink->Add("server.disk_reads_per_query",
              Share(plain["disk_reads"], plain["ok"]), "count");
    sink->Add("server.response_bytes",
              Share(plain["response_bytes_sum"], plain["ok"]), "bytes");
    sink->Add("server.shed_share",
              Share(static_cast<double>(c1.shed - c0.shed),
                    static_cast<double>(c1.requests - c0.requests)),
              "share");
    sink->Add("obs.trace_overhead_share",
              Share(traced["latency_p50_ms"], plain["latency_p50_ms"]) - 1.0,
              "share");
    sink->Add("bench.gen_lag_p99_ms", plain["gen_lag_p99_ms"], "ms");

    std::ifstream in(env->dir + "/client_spans.txt");
    long long s = 0, send = 0, recv = 0, exec = 0;
    while (in >> s >> send >> recv >> exec) {
      log->Add("socket.request", root, s, send, recv, exec);
    }
  }

  void DbPass() {
    ResetPoolState(env, n());
    SetReadDelay(env, true);
    dsks::Database* db = env->db.get();
    const int64_t root = log->Add("pass.db", -1, -1, NowNs(), 0);
    dsks::QueryContext ctx;
    Expected got;
    std::vector<double> exec_ms;
    for (size_t i = 0; i < n(); ++i) {
      const int64_t t0 = NowNs();
      const dsks::Status st = RunInProcess(db, env->requests[i], &ctx, &got);
      const int64_t t1 = NowNs();
      log->Add("db.run", root, static_cast<int64_t>(i), t0, t1);
      exec_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      Check(i, st, got, "db pass");
    }
    log->Close(root, NowNs());
    const dsks::BufferPoolStatsSnapshot pool = db->pool()->stats_snapshot();
    const dsks::DiskStatsSnapshot disk = db->disk()->stats_snapshot();
    SetReadDelay(env, false);
    const double q = static_cast<double>(n());
    sink->Add("db.exec_ms_p50", Percentile(exec_ms, 50), "ms");
    sink->Add("db.exec_ms_p99", Percentile(exec_ms, 99), "ms");
    sink->Add("storage.pool.accesses_per_query",
              static_cast<double>(pool.accesses()) / q, "count");
    sink->Add("storage.pool.hit_share", pool.hit_rate(), "share");
    sink->Add("storage.pool.evictions_per_query",
              static_cast<double>(pool.evictions) / q, "count");
    sink->Add("storage.disk.reads_per_query",
              static_cast<double>(disk.reads) / q, "count");
    sink->Add("storage.prefetch.hit_share",
              Share(static_cast<double>(pool.prefetch_hits),
                    static_cast<double>(pool.prefetch_issued)),
              "share");
    sink->Add("storage.prefetch.wasted_share",
              Share(static_cast<double>(pool.prefetch_wasted),
                    static_cast<double>(pool.prefetch_issued)),
              "share");
  }

  void CorePass() {
    ResetPoolState(env, n());
    SetReadDelay(env, true);
    dsks::Database* db = env->db.get();
    TimedIndex timed(db->index());
    const int64_t root = log->Add("pass.core", -1, -1, NowNs(), 0);
    dsks::QueryContext ctx;
    double settled = 0, edges = 0, div_queries = 0, candidates = 0,
           pruned = 0, early = 0, fields = 0, pairs = 0, shared = 0;
    Expected got;
    for (size_t i = 0; i < n(); ++i) {
      const Request& r = env->requests[i];
      const int64_t t0 = NowNs();
      const int64_t index_ns0 = timed.ns();
      dsks::DivQuery q = r.div;
      dsks::Status st = dsks::NormalizeDivQuery(&q);
      got = Expected();
      if (st.ok()) {
        dsks::IncrementalSkSearch search(&db->ccam_graph(), &timed, q.sk,
                                         r.edge, &ctx);
        if (r.is_div) {
          dsks::PairwiseDistanceOracle oracle(
              &db->ccam_graph(), 2.0 * q.sk.delta_max,
              dsks::OracleStrategy::kSharedExpansion, &ctx);
          oracle.SetQueryEdge(r.edge);
          const dsks::DivSearchOutput out =
              dsks::DiversifiedSearchCOM(&search, q, &oracle);
          st = out.status;
          for (const dsks::SkResult& s : out.selected) {
            got.ids.push_back(s.id);
            got.dists.push_back(s.dist);
          }
          got.objective = out.objective;
          ++div_queries;
          candidates += static_cast<double>(out.stats.candidates);
          pruned += static_cast<double>(out.stats.pruned_objects);
          early += out.stats.early_terminated ? 1 : 0;
          fields += static_cast<double>(out.stats.distance_fields);
          pairs += static_cast<double>(out.stats.oracle_pairs);
          shared += static_cast<double>(out.stats.oracle_pairs_shared);
        } else {
          dsks::SkResult res;
          while (search.Next(&res)) {
            got.ids.push_back(res.id);
            got.dists.push_back(res.dist);
          }
          st = search.status();
        }
        settled += static_cast<double>(search.stats().nodes_settled);
        edges += static_cast<double>(search.stats().edges_processed);
      }
      log->Add("core.search", root, static_cast<int64_t>(i), t0, NowNs(),
               timed.ns() - index_ns0);
      Check(i, st, got, "core pass");
    }
    log->Close(root, NowNs());
    SetReadDelay(env, false);
    const dsks::ObjectIndexStats& is = db->index()->stats();
    const double probed = static_cast<double>(is.edges_probed.load());
    const double q = static_cast<double>(n());
    sink->Add("core.sk.nodes_settled", settled / q, "count");
    sink->Add("core.sk.edges_processed", edges / q, "count");
    sink->Add("core.div.candidates", Share(candidates, div_queries), "count");
    sink->Add("core.div.pruned", Share(pruned, div_queries), "count");
    sink->Add("core.div.early_terminated_share", Share(early, div_queries),
              "share");
    sink->Add("core.oracle.fields", Share(fields, div_queries), "count");
    sink->Add("core.oracle.pairs", Share(pairs, div_queries), "count");
    sink->Add("core.oracle.shared_exact_share", Share(shared, pairs),
              "share");
    sink->Add("index.load_objects_us",
              Share(static_cast<double>(timed.ns()) / 1e3,
                    static_cast<double>(timed.calls())),
              "us");
    sink->Add("index.probes_per_query",
              static_cast<double>(timed.calls()) / q, "count");
    sink->Add("index.signature_skip_share",
              Share(static_cast<double>(is.edges_skipped_by_signature.load()),
                    probed),
              "share");
    sink->Add("index.false_hit_share",
              Share(static_cast<double>(is.false_hits.load()), probed),
              "share");
    sink->Add("index.loaded_per_returned",
              Share(static_cast<double>(is.objects_loaded.load()),
                    static_cast<double>(is.objects_returned.load())),
              "count");
  }

  void PhasePass() {
    ResetPoolState(env, n());
    SetReadDelay(env, true);
    const int64_t t0 = NowNs();
    dsks::obs::QueryTrace trace;
    dsks::QueryContext ctx;
    ctx.trace = &trace;
    Expected got;
    for (size_t i = 0; i < n(); ++i) {
      const dsks::Status st =
          RunInProcess(env->db.get(), env->requests[i], &ctx, &got);
      Check(i, st, got, "phase pass");
    }
    SetReadDelay(env, false);
    log->Add("pass.phase", -1, -1, t0, NowNs());
    const auto totals = trace.AggregateByPhase();
    const double q = static_cast<double>(n());
    using dsks::obs::Phase;
    for (const Phase p :
         {Phase::kKeywordLookup, Phase::kNetworkExpansion,
          Phase::kOracleSharedExpansion, Phase::kOracleFieldDijkstra,
          Phase::kGreedySelection}) {
      const auto& t = totals[static_cast<size_t>(p)];
      const std::string prefix =
          std::string("core.phase.") + dsks::obs::PhaseName(p);
      sink->Add(prefix + ".ms", static_cast<double>(t.exclusive_ns) / 1e6 / q,
                "ms");
      sink->Add(prefix + ".pool_hits",
                static_cast<double>(t.io.pool_hits) / q, "count");
      sink->Add(prefix + ".disk_reads",
                static_cast<double>(t.io.disk_reads) / q, "count");
    }
  }

  /// Replays the workload's arrival pattern through
  /// QueryExecutor::TrySubmitQuery: the open loop on its fixed schedule,
  /// the closed loop one request at a time.
  void ExecutorPass(double pass_s) {
    ResetPoolState(env, n());
    SetReadDelay(env, true);
    struct Slot {
      int64_t submit = 0, start = 0, end = 0;
      bool admitted = false;
    };
    const WorkloadSpec& spec = *env->spec;
    const size_t planned =
        spec.open_loop ? static_cast<size_t>(spec.rate_qps * pass_s)
                       : std::max<size_t>(n(), 1);
    std::vector<Slot> slots(planned);
    std::vector<Expected> results(planned);
    std::vector<dsks::Status> statuses(planned);
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;  // guarded by mu
    size_t submitted = 0, admitted = 0;
    const int64_t t0 = NowNs();
    {
      dsks::ExecutorConfig ec;
      ec.num_threads = env->threads;
      ec.queue_capacity = 64;  // the server's admission bound
      ec.metrics = nullptr;
      dsks::QueryExecutor executor(ec);
      const double interval_ns = spec.open_loop ? 1e9 / spec.rate_qps : 0.0;
      const int64_t stop = t0 + static_cast<int64_t>(pass_s * 1e9);
      for (size_t s = 0; s < planned; ++s) {
        if (spec.open_loop) {
          const int64_t due =
              t0 + static_cast<int64_t>(interval_ns * static_cast<double>(s));
          const int64_t wait = due - NowNs();
          if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
          }
        } else if (NowNs() > stop) {
          break;
        }
        Slot* slot = &slots[s];
        Expected* result = &results[s];
        dsks::Status* status = &statuses[s];
        const Request* req = &env->requests[s % n()];
        dsks::Database* db = env->db.get();
        slot->submit = NowNs();
        slot->admitted = executor.TrySubmitQuery(
            [slot, result, status, req, db, &mu, &cv,
             &done](dsks::QueryContext* ctx) {
              slot->start = NowNs();
              *status = RunInProcess(db, *req, ctx, result);
              slot->end = NowNs();
              {
                std::lock_guard<std::mutex> lock(mu);
                ++done;
              }
              cv.notify_one();
              return *status;
            });
        ++submitted;
        admitted += slot->admitted ? 1 : 0;
        if (!spec.open_loop) {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done == admitted; });
        }
      }
      executor.Drain();
    }
    SetReadDelay(env, false);
    const int64_t root = log->Add("pass.executor", -1, -1, t0, NowNs());
    std::vector<double> wait_ms;
    double busy_ns = 0;
    int64_t first = INT64_MAX, last = 0;
    uint64_t rejected = 0;
    for (size_t s = 0; s < submitted; ++s) {
      const Slot& sl = slots[s];
      if (!sl.admitted) {
        ++rejected;
        continue;
      }
      Check(s % n(), statuses[s], results[s], "executor pass");
      wait_ms.push_back(static_cast<double>(sl.start - sl.submit) / 1e6);
      busy_ns += static_cast<double>(sl.end - sl.start);
      first = std::min(first, sl.submit);
      last = std::max(last, sl.end);
      log->Add("executor.task", root, static_cast<int64_t>(s), sl.submit,
               sl.end, sl.end - sl.start);
    }
    std::printf("executor replay: %zu submitted, %llu rejected\n", submitted,
                static_cast<unsigned long long>(rejected));
    sink->Add("executor.queue_wait_p99_ms", Percentile(wait_ms, 99), "ms");
    sink->Add("executor.busy_share",
              Share(busy_ns, static_cast<double>(env->threads) *
                                 static_cast<double>(last - first)),
              "share");
  }

  void MicroPass() {
    ResetPoolState(env, n());
    const int64_t t0 = NowNs();
    dsks::Database* db = env->db.get();
    constexpr double kMinSeconds = 0.2;

    std::vector<std::string> lines;
    for (size_t i = 0; i < n(); ++i) {
      lines.push_back(RequestLine(i, env->requests[i].body));
    }
    const double parse_ns = TimeLoop(kMinSeconds, lines.size(), [&] {
      for (const std::string& line : lines) {
        dsks::server::JsonValue doc;
        if (!dsks::server::JsonValue::Parse(line, &doc).ok()) {
          ok = false;
        }
      }
    });
    sink->Add("server.parse_us", parse_ns / 1e3, "us");

    std::vector<dsks::NodeId> nodes;
    for (const Request& r : env->requests) {
      nodes.push_back(r.edge.n1);
      nodes.push_back(r.edge.n2);
    }
    std::vector<dsks::AdjacentEdge> adj;
    const double adj_ns = TimeLoop(kMinSeconds, nodes.size(), [&] {
      for (const dsks::NodeId v : nodes) {
        if (!db->ccam_graph().GetAdjacency(v, &adj).ok()) {
          ok = false;
        }
      }
    });
    sink->Add("graph.get_adjacency_ns", adj_ns, "ns");

    // Buffer-pool hit path: CCAM pages are the first pages of the disk.
    dsks::BufferPool* pool = db->pool();
    const size_t ccam_pages =
        static_cast<size_t>(db->ccam_size_bytes() / dsks::kPageSize);
    std::vector<dsks::PageId> resident;
    const size_t want = std::min<size_t>({64, ccam_pages, pool->capacity() / 2});
    for (size_t i = 0; i < want; ++i) {
      resident.push_back(static_cast<dsks::PageId>(i * ccam_pages / want));
    }
    char* data = nullptr;
    for (const dsks::PageId id : resident) {
      if (pool->FetchPage(id, &data).ok()) {
        pool->UnpinPage(id, false);
      }
    }
    const double fetch_ns = TimeLoop(kMinSeconds, resident.size(), [&] {
      for (const dsks::PageId id : resident) {
        if (pool->FetchPage(id, &data).ok()) {
          pool->UnpinPage(id, false);
        } else {
          ok = false;
        }
      }
    });
    sink->Add("storage.pool.fetch_hit_ns", fetch_ns, "ns");

    // Raw page reads from the workload's backend (no simulated delay).
    dsks::DiskManager* disk = db->disk();
    dsks::Random rng(0xd15c);
    std::vector<dsks::PageId> sample;
    for (int i = 0; i < 2000; ++i) {
      sample.push_back(static_cast<dsks::PageId>(rng.Uniform(disk->num_pages())));
    }
    std::vector<char> page(dsks::kPageSize);
    const double read_ns = TimeLoop(kMinSeconds, sample.size(), [&] {
      for (const dsks::PageId id : sample) {
        if (!disk->ReadPage(id, page.data()).ok()) {
          ok = false;
        }
      }
    });
    sink->Add("storage.disk.read_page_us", read_ns / 1e3, "us");

    uint32_t crc = 0;
    const double crc_ns = TimeLoop(kMinSeconds, 64, [&] {
      for (int i = 0; i < 64; ++i) {
        page[0] = static_cast<char>(i);
        crc ^= dsks::crc32c::Value(page.data(), page.size());
      }
    });
    sink->Add("storage.crc_ns_per_page", crc_ns, "ns");
    g_crc_sink = crc;
    log->Add("pass.micro", -1, -1, t0, NowNs());
  }
};

}  // namespace

bool RunLayers(Env* env, MetricSink* sink, SpanLog* log, uint64_t* attempted,
               uint64_t* failed) {
  Run run{env, sink, log};
  const double pass_s = std::max(0.5, env->seconds / 4.0);
  run.SocketPasses(pass_s);
  run.DbPass();
  run.CorePass();
  run.PhasePass();
  run.ExecutorPass(pass_s);
  run.MicroPass();
  *attempted = run.attempted;
  *failed = run.failed;
  return run.ok;
}

}  // namespace perfbench
