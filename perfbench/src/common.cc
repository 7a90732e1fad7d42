// Workload definitions, request generation, the in-process reference and
// the small output helpers shared by both benchmark processes.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "common/random.h"
#include "datagen/workload.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// The fixed mixed-open arrival rate is about half of what four closed-loop
// connections sustain with the same mix and delay (see README.md).
const WorkloadSpec kWorkloads[] = {
    {"sk-2pct-file", /*file_backend=*/true, /*pool_fraction=*/0.02,
     /*div_share=*/0.0, /*open_loop=*/false, /*connections=*/1,
     /*rate_qps=*/0.0, /*read_delay_us=*/0.0},
    {"div-resident", false, 1.0, 1.0, false, 1, 0.0, 0.0},
    {"mixed-open", false, 0.02, 0.2, true, 4, 500.0, 50.0},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

std::vector<Request> GenerateRequests(const dsks::Database& db,
                                      const WorkloadSpec& spec, uint64_t seed,
                                      size_t count) {
  dsks::WorkloadConfig wc;
  wc.num_queries = count;
  wc.num_keywords = kNumKeywords;
  wc.delta_max_override = kDeltaMax;
  wc.seed = seed;
  const dsks::Workload wl =
      dsks::GenerateWorkload(db.objects(), db.term_stats(), wc);
  dsks::Random mix(seed ^ 0x5eedf00dULL);
  std::vector<Request> out;
  out.reserve(wl.queries.size());
  for (const dsks::WorkloadQuery& wq : wl.queries) {
    Request r;
    r.is_div = mix.NextDouble() < spec.div_share;
    r.div.sk = wq.sk;
    r.div.k = kDivK;
    r.div.lambda = kDivLambda;
    r.edge = wq.edge;
    std::string body = r.is_div ? "\"op\":\"div\",\"terms\":["
                                : "\"op\":\"sk\",\"terms\":[";
    for (size_t i = 0; i < wq.sk.terms.size(); ++i) {
      body += (i == 0 ? "" : ",") + std::to_string(wq.sk.terms[i]);
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "],\"edge\":%u,\"offset\":%.17g,\"delta\":%.17g",
                  static_cast<unsigned>(wq.sk.loc.edge), wq.sk.loc.offset,
                  wq.sk.delta_max);
    body += buf;
    if (r.is_div) {
      std::snprintf(buf, sizeof(buf), ",\"k\":%zu,\"lambda\":%.17g", kDivK,
                    kDivLambda);
      body += buf;
    }
    body += "}";
    r.body = std::move(body);
    out.push_back(std::move(r));
  }
  return out;
}

std::string RequestLine(uint64_t id, const std::string& body) {
  return "{\"id\":" + std::to_string(id) + "," + body;
}

dsks::Status RunInProcess(dsks::Database* db, const Request& req,
                          dsks::QueryContext* ctx, Expected* out) {
  out->ids.clear();
  out->dists.clear();
  out->objective = 0.0;
  if (req.is_div) {
    dsks::DivSearchOutput div;
    DSKS_RETURN_IF_ERROR(
        db->RunDivQuery(req.div, req.edge, /*use_com=*/true, &div, ctx));
    for (const dsks::SkResult& r : div.selected) {
      out->ids.push_back(r.id);
      out->dists.push_back(r.dist);
    }
    out->objective = div.objective;
    return dsks::Status::Ok();
  }
  std::vector<dsks::SkResult> results;
  DSKS_RETURN_IF_ERROR(db->RunSkQuery(req.div.sk, req.edge, &results, ctx));
  for (const dsks::SkResult& r : results) {
    out->ids.push_back(r.id);
    out->dists.push_back(r.dist);
  }
  return dsks::Status::Ok();
}

void WriteRequestFile(const std::string& path,
                      const std::vector<Request>& requests, bool trace) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(path.c_str());
    std::exit(1);
  }
  for (const Request& r : requests) {
    std::fprintf(f, "%s%s\n", trace ? "\"trace\":true," : "", r.body.c_str());
  }
  std::fclose(f);
}

void WriteExpectedFile(const std::string& path,
                       const std::vector<Expected>& expected) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(path.c_str());
    std::exit(1);
  }
  // Hex floats keep every bit of the reference distances.
  for (const Expected& e : expected) {
    std::fprintf(f, "%zu %a", e.ids.size(), e.objective);
    for (size_t i = 0; i < e.ids.size(); ++i) {
      std::fprintf(f, " %llu %a", static_cast<unsigned long long>(e.ids[i]),
                   e.dists[i]);
    }
    std::fputc('\n', f);
  }
  std::fclose(f);
}

void MetricSink::Add(const std::string& name, double value,
                     const std::string& unit) {
  if (!std::isfinite(value)) {
    std::fprintf(stderr, "metric %s is not finite; reported as 0\n",
                 name.c_str());
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

std::string MetricSink::Json(bool correct, uint64_t attempted,
                             uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void MetricSink::PrintTable() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int64_t SpanLog::Add(const char* name, int64_t parent, int64_t request,
                     int64_t start_ns, int64_t end_ns, int64_t child_ns) {
  spans_.push_back({name, parent, request, start_ns, end_ns, child_ns});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::WriteNdjson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(path.c_str());
    return;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // self_ns: the span's duration minus what its children covered.
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"parent\":%lld,"
                 "\"request\":%lld,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"self_ns\":%lld}\n",
                 i, s.name, static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.end_ns - s.start_ns - s.child_ns));
  }
  std::fclose(f);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  // Nearest rank.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t i = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(i, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void SetReadDelay(Env* env, bool on) {
  const bool delay = on && env->spec->read_delay_us > 0.0;
  env->db->disk()->set_read_delay_us(delay ? env->spec->read_delay_us : 0.0);
  env->db->disk()->set_read_delay_yields(delay);
}

void ResetPoolState(Env* env, size_t count) {
  SetReadDelay(env, false);
  const dsks::Status cleared = env->db->pool()->Clear();
  if (!cleared.ok()) {
    std::fprintf(stderr, "pool clear failed: %s\n", cleared.ToString().c_str());
    std::exit(1);
  }
  dsks::QueryContext ctx;
  Expected scratch;
  for (size_t i = 0; i < count && i < env->requests.size(); ++i) {
    const dsks::Status s =
        RunInProcess(env->db.get(), env->requests[i], &ctx, &scratch);
    if (!s.ok()) {
      std::fprintf(stderr, "warm-up query failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  env->db->ResetCounters();
}

}  // namespace perfbench
