// The load generator: a separate process that drives the query server
// over loopback NDJSON connections, closed loop (next request after the
// previous response) or open loop (a fixed schedule computed before the
// first send). Every response is kept in memory and checked against the
// reference results only after the timed window, so checking costs the
// measured requests nothing.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "server/client.h"
#include "server/json.h"

extern char** environ;

namespace perfbench {

namespace {

constexpr int kResponseTimeoutMs = 10000;
/// Largest result list the server serializes (ServiceConfig::max_results).
constexpr size_t kMaxResults = 1024;
/// A send later than this behind its due time marks the generator as
/// behind schedule.
constexpr double kLateSendMs = 1.0;

struct Record {
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t recv_ns = 0;  // 0 = no response
  std::string line;
};

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

std::vector<Expected> ReadExpected(const std::string& path) {
  std::vector<Expected> out;
  for (const std::string& line : ReadLines(path)) {
    std::istringstream in(line);
    Expected e;
    size_t n = 0;
    std::string token;
    in >> n >> token;
    e.objective = std::strtod(token.c_str(), nullptr);
    for (size_t i = 0; i < n; ++i) {
      uint64_t id = 0;
      in >> id >> token;
      e.ids.push_back(id);
      e.dists.push_back(std::strtod(token.c_str(), nullptr));
    }
    out.push_back(std::move(e));
  }
  return out;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Checks one response against its reference; returns "" when it matches.
std::string Mismatch(const dsks::server::JsonValue& doc, const Expected& e) {
  const auto* count = doc.Find("count");
  const auto* results = doc.Find("results");
  if (count == nullptr || results == nullptr || !results->is_array()) {
    return "response lacks count/results";
  }
  if (count->number() != static_cast<double>(e.ids.size())) {
    return "count " + std::to_string(count->number()) + " != " +
           std::to_string(e.ids.size());
  }
  const auto& arr = results->array();
  if (arr.size() != std::min(e.ids.size(), kMaxResults)) {
    return "result list length differs";
  }
  for (size_t i = 0; i < arr.size(); ++i) {
    const auto* id = arr[i].Find("object");
    const auto* dist = arr[i].Find("dist");
    if (id == nullptr || dist == nullptr ||
        id->number() != static_cast<double>(e.ids[i]) ||
        !SameBits(dist->number(), e.dists[i])) {
      return "result " + std::to_string(i) + " differs";
    }
  }
  if (const auto* obj = doc.Find("objective");
      obj != nullptr && !SameBits(obj->number(), e.objective)) {
    return "objective differs";
  }
  return "";
}

/// Parses the id the server echoes first in every response.
bool ResponseId(const std::string& line, uint64_t* id) {
  static const char kPrefix[] = "{\"id\":";
  if (line.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0) {
    return false;
  }
  char* end = nullptr;
  *id = std::strtoull(line.c_str() + sizeof(kPrefix) - 1, &end, 10);
  return end != line.c_str() + sizeof(kPrefix) - 1;
}

/// Closed loop: each connection sends its next request only after the
/// previous response arrived. Latency runs from the send.
std::vector<Record> RunClosed(const ClientConfig& cfg,
                              const std::vector<std::string>& bodies,
                              std::vector<dsks::server::QueryClient>* conns) {
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(cfg.seconds * 1e9);
  std::atomic<uint64_t> next{0};
  std::vector<std::vector<std::pair<uint64_t, Record>>> per_conn(conns->size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns->size(); ++c) {
    threads.emplace_back([&, c] {
      dsks::server::QueryClient& conn = (*conns)[c];
      while (NowNs() < stop) {
        const uint64_t s = next.fetch_add(1);
        Record r;
        r.send_ns = r.due_ns = NowNs();
        dsks::Status st =
            conn.SendLine(RequestLine(s, bodies[s % bodies.size()]));
        if (st.ok()) {
          st = conn.ReadLine(&r.line, kResponseTimeoutMs);
        }
        if (st.ok()) {
          r.recv_ns = NowNs();
        }
        per_conn[c].emplace_back(s, std::move(r));
        if (!st.ok()) {
          std::fprintf(stderr, "client: connection %zu: %s\n", c,
                       st.ToString().c_str());
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  std::vector<Record> records(next.load());
  for (auto& list : per_conn) {
    for (auto& [s, r] : list) {
      records[s] = std::move(r);
    }
  }
  // Ids handed out by threads that stopped at the deadline were never
  // sent; drop them from the tail.
  while (!records.empty() && records.back().send_ns == 0) {
    records.pop_back();
  }
  return records;
}

/// Open loop: the whole arrival schedule is fixed before the first send;
/// request s is due at start + s/rate on connection s % C whatever the
/// server's state. Latency runs from the due time.
std::vector<Record> RunOpen(const ClientConfig& cfg,
                            const std::vector<std::string>& bodies,
                            std::vector<dsks::server::QueryClient>* conns) {
  const size_t total =
      static_cast<size_t>(std::floor(cfg.rate_qps * cfg.seconds));
  std::vector<Record> records(total);
  const int64_t start = NowNs() + 20'000'000;
  const double interval_ns = 1e9 / cfg.rate_qps;
  for (size_t s = 0; s < total; ++s) {
    records[s].due_ns =
        start + static_cast<int64_t>(std::llround(interval_ns * s));
  }

  std::atomic<size_t> sent{0};
  std::atomic<bool> sender_done{false};
  std::thread sender([&] {
    for (size_t s = 0; s < total; ++s) {
      const int64_t wait = records[s].due_ns - NowNs();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      }
      const std::string line = RequestLine(s, bodies[s % bodies.size()]);
      records[s].send_ns = NowNs();
      const dsks::Status st = (*conns)[s % conns->size()].SendLine(line);
      if (!st.ok()) {
        std::fprintf(stderr, "client: send %zu: %s\n", s,
                     st.ToString().c_str());
        records[s].send_ns = 0;
        break;
      }
      sent.store(s + 1, std::memory_order_release);
    }
    sender_done.store(true, std::memory_order_release);
  });

  // Receiver: one poll loop over every connection.
  std::vector<pollfd> fds;
  std::vector<std::string> bufs(conns->size());
  for (auto& c : *conns) {
    fds.push_back({c.fd(), POLLIN, 0});
  }
  size_t received = 0;
  int64_t give_up_ns = 0;
  while (true) {
    if (sender_done.load(std::memory_order_acquire)) {
      const size_t n = sent.load(std::memory_order_acquire);
      if (received >= n) {
        break;
      }
      if (give_up_ns == 0) {
        give_up_ns = NowNs() + int64_t{kResponseTimeoutMs} * 1'000'000;
      } else if (NowNs() > give_up_ns) {
        break;
      }
    }
    if (::poll(fds.data(), fds.size(), 20) <= 0) {
      continue;
    }
    for (size_t c = 0; c < fds.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      char chunk[64 * 1024];
      const ssize_t n = ::recv(fds[c].fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n == 0 || (errno != EINTR && errno != EAGAIN)) {
          fds[c].fd = -1;  // closed: poll ignores negative fds
        }
        continue;
      }
      const int64_t now = NowNs();
      bufs[c].append(chunk, static_cast<size_t>(n));
      size_t pos = 0;
      for (size_t nl; (nl = bufs[c].find('\n', pos)) != std::string::npos;
           pos = nl + 1) {
        std::string line = bufs[c].substr(pos, nl - pos);
        uint64_t id = 0;
        if (ResponseId(line, &id) && id < total && records[id].recv_ns == 0) {
          records[id].recv_ns = now;
          records[id].line = std::move(line);
          ++received;
        }
      }
      bufs[c].erase(0, pos);
    }
  }
  sender.join();
  records.resize(sent.load());
  return records;
}

}  // namespace

int ClientMain(int argc, char** argv) {
  ClientConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--port") {
      cfg.port = static_cast<uint16_t>(std::atoi(next().c_str()));
    } else if (a == "--dir") {
      cfg.dir = next();
    } else if (a == "--requests") {
      cfg.requests_file = next();
    } else if (a == "--connections") {
      cfg.connections = static_cast<size_t>(std::atoi(next().c_str()));
    } else if (a == "--rate") {
      cfg.open_loop = true;
      cfg.rate_qps = std::atof(next().c_str());
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(next().c_str());
    } else if (a == "--spans") {
      cfg.record_spans = true;
    }
  }
  const std::vector<std::string> bodies =
      ReadLines(cfg.dir + "/" + cfg.requests_file);
  const std::vector<Expected> expected = ReadExpected(cfg.dir + "/expected.txt");
  if (bodies.empty() || bodies.size() != expected.size() ||
      cfg.connections == 0) {
    std::fprintf(stderr, "client: bad inputs in %s\n", cfg.dir.c_str());
    return 2;
  }
  std::vector<dsks::server::QueryClient> conns(cfg.connections);
  for (auto& c : conns) {
    const dsks::Status st = c.Connect(cfg.port);
    if (!st.ok()) {
      std::fprintf(stderr, "client: %s\n", st.ToString().c_str());
      return 2;
    }
  }
  const int64_t window_start = NowNs();
  std::vector<Record> records = cfg.open_loop
                                    ? RunOpen(cfg, bodies, &conns)
                                    : RunClosed(cfg, bodies, &conns);
  for (auto& c : conns) {
    c.Close();
  }

  // Everything below runs after the timed window.
  double ok = 0, failed = 0, mismatched = 0, shed = 0, timeouts = 0;
  double disk_reads = 0, exec_ms_sum = 0, rtt_us_sum = 0, bytes = 0;
  std::vector<double> latency_ms, lag_ms, outside_us;
  int64_t first_ns = records.empty() ? window_start : records[0].due_ns;
  int64_t last_ns = first_ns;
  std::FILE* spans = nullptr;
  if (cfg.record_spans) {
    spans = std::fopen((cfg.dir + "/client_spans.txt").c_str(), "w");
  }
  for (size_t s = 0; s < records.size(); ++s) {
    const Record& r = records[s];
    lag_ms.push_back(static_cast<double>(r.send_ns - r.due_ns) / 1e6);
    if (r.recv_ns == 0) {
      ++timeouts;
      ++failed;
      continue;
    }
    last_ns = std::max(last_ns, r.recv_ns);
    latency_ms.push_back(static_cast<double>(r.recv_ns - r.due_ns) / 1e6);
    bytes += static_cast<double>(r.line.size() + 1);
    dsks::server::JsonValue doc;
    const auto* status = dsks::server::JsonValue::Parse(r.line, &doc).ok()
                             ? doc.Find("status")
                             : nullptr;
    if (status == nullptr || !status->is_string() ||
        status->string_value() != "OK") {
      ++failed;
      if (status != nullptr && status->is_string() &&
          status->string_value() == "RESOURCE_EXHAUSTED") {
        ++shed;
      }
      continue;
    }
    const std::string why = Mismatch(doc, expected[s % expected.size()]);
    if (!why.empty()) {
      if (mismatched == 0) {
        std::fprintf(stderr, "client: request %zu mismatch: %s\n", s,
                     why.c_str());
      }
      ++mismatched;
      ++failed;
      continue;
    }
    ++ok;
    const auto* ms = doc.Find("ms");
    const double exec_ms = ms != nullptr ? ms->number() : 0.0;
    const auto* io = doc.Find("io");
    const auto* reads = io != nullptr ? io->Find("disk_reads") : nullptr;
    disk_reads += reads != nullptr ? reads->number() : 0.0;
    const double rtt_us = static_cast<double>(r.recv_ns - r.send_ns) / 1e3;
    exec_ms_sum += exec_ms;
    rtt_us_sum += rtt_us;
    outside_us.push_back(rtt_us - exec_ms * 1e3);
    if (spans != nullptr) {
      std::fprintf(spans, "%zu %lld %lld %lld\n", s,
                   static_cast<long long>(r.send_ns),
                   static_cast<long long>(r.recv_ns),
                   static_cast<long long>(std::llround(exec_ms * 1e6)));
    }
  }
  if (spans != nullptr) {
    std::fclose(spans);
  }
  double late = 0;
  for (double l : lag_ms) {
    late += l > kLateSendMs ? 1 : 0;
  }
  double outside_sum = 0;
  for (double o : outside_us) {
    outside_sum += o;
  }

  std::FILE* f = std::fopen((cfg.dir + "/client.out").c_str(), "w");
  if (f == nullptr) {
    std::perror("client.out");
    return 2;
  }
  const auto put = [f](const char* key, double v) {
    std::fprintf(f, "%s %.17g\n", key, v);
  };
  put("attempted", static_cast<double>(records.size()));
  put("ok", ok);
  put("failed", failed);
  put("mismatched", mismatched);
  put("shed", shed);
  put("timeouts", timeouts);
  put("wall_s", static_cast<double>(last_ns - first_ns) / 1e9);
  put("latency_samples", static_cast<double>(latency_ms.size()));
  put("latency_p50_ms", Percentile(latency_ms, 50));
  put("latency_p99_ms", Percentile(latency_ms, 99));
  put("disk_reads", disk_reads);
  put("exec_ms_sum", exec_ms_sum);
  put("rtt_us_sum", rtt_us_sum);
  put("outside_us_sum", outside_sum);
  put("outside_us_p50", Percentile(outside_us, 50));
  put("response_bytes_sum", bytes);
  put("gen_lag_p99_ms", Percentile(lag_ms, 99));
  put("late_sends", late);
  std::fclose(f);
  return 0;
}

dsks::Status RunClient(const std::string& self_exe, const ClientConfig& config,
                       ClientSummary* out) {
  std::vector<std::string> args = {self_exe,
                                    "--client",
                                    "--port",
                                    std::to_string(config.port),
                                    "--dir",
                                    config.dir,
                                    "--requests",
                                    config.requests_file,
                                    "--connections",
                                    std::to_string(config.connections),
                                    "--seconds",
                                    std::to_string(config.seconds)};
  if (config.open_loop) {
    args.push_back("--rate");
    args.push_back(std::to_string(config.rate_qps));
  }
  if (config.record_spans) {
    args.push_back("--spans");
  }
  std::vector<char*> argv;
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);
  std::remove((config.dir + "/client.out").c_str());
  pid_t pid = 0;
  if (posix_spawn(&pid, self_exe.c_str(), nullptr, nullptr, argv.data(),
                  environ) != 0) {
    return dsks::Status::IOError("cannot start the load generator");
  }
  // The client ends by itself: its window plus at most one response
  // timeout plus checking. Past that it is stuck and gets killed.
  const int64_t deadline =
      NowNs() + static_cast<int64_t>((config.seconds + 60.0) * 1e9);
  int wstatus = 0;
  while (true) {
    const pid_t r = ::waitpid(pid, &wstatus, WNOHANG);
    if (r == pid) {
      break;
    }
    if (r < 0 && errno != EINTR) {
      return dsks::Status::IOError("waitpid failed");
    }
    if (NowNs() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &wstatus, 0);
      return dsks::Status::IOError("load generator did not finish");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return dsks::Status::IOError("load generator failed");
  }
  out->clear();
  for (const std::string& line : ReadLines(config.dir + "/client.out")) {
    std::istringstream in(line);
    std::string key;
    double v = 0.0;
    if (in >> key >> v) {
      (*out)[key] = v;
    }
  }
  if (out->count("attempted") == 0) {
    return dsks::Status::IOError("load generator wrote no summary");
  }
  return dsks::Status::Ok();
}

}  // namespace perfbench
