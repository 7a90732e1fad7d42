// perfbench: the repository benchmark. Builds the NA preset with the SIF
// index, serves it with server::QueryServer on loopback and drives it from
// a separate load-generator process over NDJSON.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR [--spans-out FILE] [--scale X]
//
// --trace 0 prints the end-to-end metrics (untraced), --trace 1 the
// per-layer metrics of a traced run. The last line of standard output is
// the result object {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "datagen/presets.h"
#include "storage/page.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string spans_out;
  double scale = 1.0;
};

/// Setups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// Distinct requests generated from the seed and cycled through. Enough
/// that the query mix of one seed does not move the figures.
constexpr size_t kDistinctRequests = 8000;
/// The untraced window is measured in this many rounds; the timings
/// reported are medians over the rounds, which damps the host's drift.
constexpr int kRounds = 5;

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return false;
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      o->workload = v;
    } else if (a == "--seed") {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o->seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      o->trace = v == "1";
    } else if (a == "--workdir") {
      o->workdir = v;
    } else if (a == "--spans-out") {
      o->spans_out = v;
    } else if (a == "--scale") {
      o->scale = std::atof(v.c_str());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return false;
    }
  }
  if (o->workload.empty() || o->workdir.empty() || o->seconds <= 0.0 ||
      o->scale <= 0.0) {
    std::fprintf(stderr, "need --workload, --workdir, positive --seconds\n");
    return false;
  }
  return true;
}

std::string IndexPath(const Env& env) { return env.dir + "/index.pages"; }

/// Dataset generation, BuildIndex, PrepareForQueries and server start: the
/// work setup_s times.
dsks::Status Setup(Env* env, double scale) {
  dsks::DatasetConfig cfg = dsks::PresetNA();
  if (scale != 1.0) {
    cfg = dsks::ScalePreset(cfg, scale);
  }
  dsks::DiskOptions storage;
  if (env->spec->file_backend) {
    storage.backend = dsks::DiskBackendKind::kFile;
    storage.path = IndexPath(*env);
  }
  env->db = std::make_unique<dsks::Database>(cfg, storage);
  dsks::IndexOptions index;
  index.kind = dsks::IndexKind::kSIF;
  env->db->BuildIndex(index);
  env->db->PrepareForQueries(env->spec->pool_fraction);
  dsks::server::ServerConfig sc;
  sc.service.threads = env->threads;
  env->server = std::make_unique<dsks::server::QueryServer>(env->db.get(), sc);
  return env->server->Start(0);
}

void Teardown(Env* env) {
  if (env->server != nullptr) {
    env->server->Stop();
    env->server.reset();
  }
  env->db.reset();
  std::remove(IndexPath(*env).c_str());
  std::remove((IndexPath(*env) + ".crc").c_str());
}

double CpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMiB() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Pins this process, and every thread and process it starts later, to the
/// last CPU it may run on. On a guest whose vCPUs the host deschedules, a
/// wakeup sent to another vCPU can wait milliseconds; on one CPU the server
/// threads and the load generator hand off locally.
void PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) {
    return;
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      last = cpu;
    }
  }
  if (last >= 0) {
    CPU_ZERO(&set);
    CPU_SET(last, &set);
    ::sched_setaffinity(0, sizeof(set), &set);
  }
}

int Main(int argc, char** argv) {
  PinToOneCpu();
  // Sleeps end on time instead of up to 50 us late (the default timer
  // slack): the simulated read delay and the open-loop schedule both sleep,
  // and every thread created later inherits the setting.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  if (argc > 1 && std::strcmp(argv[1], "--client") == 0) {
    return ClientMain(argc, argv);
  }
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    return 2;
  }
  Env env;
  env.spec = FindWorkload(opt.workload);
  if (env.spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  env.dir = opt.workdir;
  env.self_exe = argv[0];
  env.seconds = opt.seconds;
  const unsigned hw = std::thread::hardware_concurrency();
  env.threads = std::max<size_t>(1, std::min<size_t>(4, hw == 0 ? 1 : hw));

  // Set up several times and keep the last system: setup_s is the median.
  std::vector<double> setup_s;
  const int setups = opt.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    if (i > 0) {
      Teardown(&env);
    }
    const int64_t t0 = NowNs();
    const dsks::Status st = Setup(&env, opt.scale);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      Teardown(&env);
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  const WorkloadSpec& spec = *env.spec;
  env.requests =
      GenerateRequests(*env.db, spec, opt.seed, kDistinctRequests);
  // Reference pass: the in-process results every response is checked
  // against. It is also the warm-up of the untraced run.
  {
    dsks::QueryContext ctx;
    env.expected.resize(env.requests.size());
    for (size_t i = 0; i < env.requests.size(); ++i) {
      const dsks::Status st =
          RunInProcess(env.db.get(), env.requests[i], &ctx, &env.expected[i]);
      if (!st.ok()) {
        std::fprintf(stderr, "reference query %zu failed: %s\n", i,
                     st.ToString().c_str());
        Teardown(&env);
        return 1;
      }
    }
    env.db->ResetCounters();
  }
  WriteRequestFile(env.dir + "/requests.txt", env.requests, false);
  WriteRequestFile(env.dir + "/requests_traced.txt", env.requests, true);
  WriteExpectedFile(env.dir + "/expected.txt", env.expected);

  std::printf(
      "workload %s seed %llu: %s backend, %zu disk pages, %zu pool frames, "
      "%s loop, %zu connection(s)%s, %zu distinct requests (%.0f%% div), "
      "%zu executor threads\n",
      spec.name, static_cast<unsigned long long>(opt.seed),
      spec.file_backend ? "file" : "sim", env.db->disk()->num_pages(),
      env.db->pool()->capacity(), spec.open_loop ? "open" : "closed",
      spec.connections,
      spec.open_loop
          ? (" at " + std::to_string(static_cast<int>(spec.rate_qps)) +
             " req/s")
                .c_str()
          : "",
      env.requests.size(), 100.0 * spec.div_share, env.threads);

  MetricSink sink;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  if (!opt.trace) {
    // Each round is its own load-generator process.
    SetReadDelay(&env, true);
    std::vector<double> p50, p99, qps, cpu_ms;
    ClientSummary total;
    for (int round = 0; round < kRounds; ++round) {
      const double cpu0 = CpuSeconds();
      ClientSummary cs;
      const dsks::Status st = RunSocketPass(
          &env, /*trace=*/false, opt.seconds / kRounds, false, &cs);
      const double cpu_s = CpuSeconds() - cpu0;
      if (!st.ok()) {
        std::fprintf(stderr, "load generator: %s\n", st.ToString().c_str());
        Teardown(&env);
        return 1;
      }
      const double ok = cs["ok"];
      p50.push_back(cs["latency_p50_ms"]);
      p99.push_back(cs["latency_p99_ms"]);
      qps.push_back(cs["wall_s"] > 0 ? ok / cs["wall_s"] : 0.0);
      cpu_ms.push_back(ok > 0 ? 1e3 * cpu_s / ok : 0.0);
      std::printf(
          "round %d: %.0f requests, %.0f ok, p50 %.4f ms, p99 %.4f ms, "
          "%.1f req/s, cpu %.4f ms/query, %.0f latency samples\n",
          round, cs["attempted"], ok, p50.back(), p99.back(), qps.back(),
          cpu_ms.back(), cs["latency_samples"]);
      for (const auto& [key, v] : cs) {
        total[key] += v;
      }
    }
    attempted = static_cast<uint64_t>(total["attempted"]);
    failed = static_cast<uint64_t>(total["failed"]);
    const double ok = total["ok"];
    correct = total["mismatched"] == 0 && attempted > 0;
    if (spec.open_loop && total["late_sends"] > 0.01 * total["attempted"]) {
      std::printf(
          "FLAG: the generator fell behind its schedule (%.0f of %.0f sends "
          "more than 1 ms late)\n",
          total["late_sends"], total["attempted"]);
    }
    std::printf(
        "%.0f requests, %.0f ok, %.0f failed (%.0f mismatched, %.0f shed, "
        "%.0f timed out); %d rounds; %d setups\n",
        total["attempted"], ok, total["failed"], total["mismatched"],
        total["shed"], total["timeouts"], kRounds, setups);
    sink.Add("setup_s", Median(setup_s), "s");
    sink.Add("latency_p50_ms", Median(p50), "ms");
    sink.Add("latency_p99_ms", Median(p99), "ms");
    sink.Add("throughput_qps", Median(qps), "1/s");
    sink.Add("ok_share", attempted > 0 ? ok / total["attempted"] : 0.0,
             "share");
    sink.Add("cpu_ms_per_query", Median(cpu_ms), "ms");
    sink.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    sink.Add("index_mb",
             static_cast<double>(env.db->index()->SizeBytes()) / 1048576.0,
             "MiB");
    std::printf("per-query physical reads %.3f (the paper's # of I/O)\n",
                ok > 0 ? total["disk_reads"] / ok : 0.0);
  } else {
    SpanLog log;
    correct = RunLayers(&env, &sink, &log, &attempted, &failed);
    if (!opt.spans_out.empty()) {
      log.WriteNdjson(opt.spans_out);
      std::printf("wrote %zu spans to %s\n", log.size(),
                  opt.spans_out.c_str());
    }
  }
  Teardown(&env);
  sink.PrintTable();
  std::printf("%s\n", sink.Json(correct, attempted, failed).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
