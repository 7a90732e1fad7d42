// Query service + TCP front end: the wire protocol parses and renders
// correctly, admission control sheds exactly, deadlines cancel
// cooperatively with partial work accounted, per-tenant quotas hold, a
// retried request answers once, the whole thing survives concurrent
// clients and malformed input over a real socket, and the same listener
// serves the stats routes over plain HTTP.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datagen/presets.h"
#include "datagen/workload.h"
#include "gtest/gtest.h"
#include "harness/database.h"
#include "harness/experiment.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/json.h"
#include "server/query_server.h"
#include "server/query_service.h"
#include "storage/fault_injector.h"

namespace dsks {
namespace {

using server::JsonValue;
using server::JsonWriter;
using server::QueryClient;
using server::QueryServer;
using server::QueryService;
using server::ServerConfig;
using server::ServiceConfig;
using server::ServiceCounters;

// ---------------------------------------------------------------------------
// JSON protocol units

TEST(JsonTest, ParsesScalarsObjectsAndArrays) {
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(
                  R"({"a":1,"b":-2.5e2,"c":"x","d":true,"e":null,)"
                  R"("f":[1,2,3],"g":{"h":false}})",
                  &v)
                  .ok());
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.Find("a")->number(), 1.0);
  EXPECT_DOUBLE_EQ(v.Find("b")->number(), -250.0);
  EXPECT_EQ(v.Find("c")->string_value(), "x");
  EXPECT_TRUE(v.Find("d")->bool_value());
  EXPECT_TRUE(v.Find("e")->is_null());
  ASSERT_TRUE(v.Find("f")->is_array());
  EXPECT_EQ(v.Find("f")->array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.Find("f")->array()[1].number(), 2.0);
  ASSERT_TRUE(v.Find("g")->is_object());
  EXPECT_FALSE(v.Find("g")->Find("h")->bool_value());
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonTest, ParsesStringEscapes) {
  JsonValue v;
  ASSERT_TRUE(
      JsonValue::Parse(R"({"s":"a\"b\\c\nd\teA"})", &v).ok());
  EXPECT_EQ(v.Find("s")->string_value(), "a\"b\\c\nd\teA");
}

TEST(JsonTest, RejectsMalformedInputWithBytePosition) {
  JsonValue v;
  const Status s = JsonValue::Parse(R"({"a":})", &v);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("at byte"), std::string::npos) << s.ToString();

  EXPECT_TRUE(JsonValue::Parse("", &v).IsInvalidArgument());
  EXPECT_TRUE(JsonValue::Parse("{", &v).IsInvalidArgument());
  EXPECT_TRUE(JsonValue::Parse("nul", &v).IsInvalidArgument());
  EXPECT_TRUE(JsonValue::Parse("1 2", &v).IsInvalidArgument());  // trailing
  EXPECT_TRUE(JsonValue::Parse(R"({"a":1)", &v).IsInvalidArgument());
  EXPECT_TRUE(JsonValue::Parse("[1,]", &v).IsInvalidArgument());
  EXPECT_TRUE(JsonValue::Parse("Infinity", &v).IsInvalidArgument());
  EXPECT_TRUE(JsonValue::Parse("\"unterminated", &v).IsInvalidArgument());
}

TEST(JsonTest, DepthCapStopsDegenerateNesting) {
  std::string deep;
  for (int i = 0; i < 64; ++i) {
    deep += "[";
  }
  JsonValue v;
  const Status s = JsonValue::Parse(deep, &v);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("deep"), std::string::npos);
}

TEST(JsonTest, WriterRoundTripsThroughParser) {
  JsonWriter w;
  w.BeginObject();
  w.Key("n").Value(0.1);
  w.Key("i").Value(static_cast<uint64_t>(42));
  w.Key("s").Value(std::string("he said \"hi\"\n"));
  w.Key("b").Value(true);
  w.Key("z").Null();
  w.Key("a").BeginArray().Value(1.5).Value(false).EndArray();
  w.Key("o").BeginObject().Key("k").Value("v").EndObject();
  w.EndObject();

  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(w.str(), &v).ok()) << w.str();
  EXPECT_DOUBLE_EQ(v.Find("n")->number(), 0.1);  // %.17g is lossless
  EXPECT_DOUBLE_EQ(v.Find("i")->number(), 42.0);
  EXPECT_EQ(v.Find("s")->string_value(), "he said \"hi\"\n");
  EXPECT_TRUE(v.Find("b")->bool_value());
  EXPECT_TRUE(v.Find("z")->is_null());
  EXPECT_DOUBLE_EQ(v.Find("a")->array()[0].number(), 1.5);
  EXPECT_EQ(v.Find("o")->Find("k")->string_value(), "v");
}

// ---------------------------------------------------------------------------
// Service + server integration against a shared database

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig c = ScalePreset(PresetSYN(), 0.03);
    c.objects.keywords_per_object = 6;
    db_ = new Database(c);
    IndexOptions opts;
    opts.kind = IndexKind::kSIF;
    db_->BuildIndex(opts);
    db_->PrepareForQueries();

    WorkloadConfig wc;
    wc.num_queries = 16;
    wc.num_keywords = 2;
    wc.seed = 17;
    workload_ = new Workload(
        GenerateWorkload(db_->objects(), db_->term_stats(), wc));
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete db_;
    workload_ = nullptr;
    db_ = nullptr;
  }

  static std::string RequestLine(const WorkloadQuery& wq,
                                 const std::string& id,
                                 double deadline_ms = 0.0,
                                 bool trace = false, const char* op = "sk") {
    JsonWriter w;
    w.BeginObject();
    w.Key("op").Value(op);
    if (!id.empty()) {
      w.Key("id").Value(id);
    }
    w.Key("terms").BeginArray();
    for (const TermId t : wq.sk.terms) {
      w.Value(static_cast<uint64_t>(t));
    }
    w.EndArray();
    w.Key("edge").Value(static_cast<uint64_t>(wq.sk.loc.edge));
    w.Key("offset").Value(wq.sk.loc.offset);
    w.Key("delta").Value(wq.sk.delta_max);
    if (deadline_ms > 0.0) {
      w.Key("deadline_ms").Value(deadline_ms);
    }
    if (trace) {
      w.Key("trace").Value(true);
    }
    w.EndObject();
    return w.Take();
  }

  /// "c<client>-<query>", built by appending to one string: GCC 12 flags
  /// a literal prepended to a temporary std::string with -Wrestrict.
  static std::string ClientRequestId(size_t c, size_t i) {
    std::string id = "c";
    id += std::to_string(c);
    id += '-';
    id += std::to_string(i);
    return id;
  }

  /// Collects completions with a latch so tests can block on "all done".
  struct Collector {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::string> responses;
    size_t expected = 0;

    QueryService::Completion Make() {
      return [this](std::string response) {
        std::lock_guard<std::mutex> lock(mu);
        responses.push_back(std::move(response));
        cv.notify_all();
      };
    }
    void Await(size_t n) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return responses.size() >= n; });
    }
  };

  static std::string StatusOf(const std::string& response) {
    JsonValue doc;
    if (!JsonValue::Parse(response, &doc).ok()) {
      return "<unparseable: " + response + ">";
    }
    const JsonValue* status = doc.Find("status");
    return status != nullptr && status->is_string() ? status->string_value()
                                                    : "<missing>";
  }

  /// One raw HTTP exchange on the query listener: the whole response
  /// (status line, headers, body), read until the server closes — or for
  /// at most 10 s of silence, so a server that never answers fails the
  /// test instead of hanging it.
  static std::string HttpExchange(uint16_t port, const std::string& request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    const timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    std::string out;
    char buf[16 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        break;
      }
      out.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return out;
  }
  static std::string HttpGet(uint16_t port, const std::string& path) {
    return HttpExchange(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
  }

  static Database* db_;
  static Workload* workload_;
};

Database* ServerTest::db_ = nullptr;
Workload* ServerTest::workload_ = nullptr;

TEST_F(ServerTest, ServiceRejectsMalformedRequestsBeforeAdmission) {
  ServiceConfig config;
  config.threads = 1;
  config.metrics = nullptr;
  QueryService service(db_, config);

  const std::vector<std::string> bad = {
      "not json at all",
      "{\"op\":\"sk\"}",                                // missing fields
      "{\"op\":\"nope\",\"terms\":[1]}",                // unknown op
      "{\"op\":\"sk\",\"terms\":[],\"edge\":0,\"offset\":0,\"delta\":1}",
      "{\"op\":\"sk\",\"terms\":[1],\"edge\":0,\"offset\":0,\"delta\":-5}",
      "{\"op\":\"sk\",\"terms\":[1],\"edge\":99999999,\"offset\":0,"
      "\"delta\":1}",                                   // edge out of range
      "{\"op\":\"sk\",\"terms\":[1],\"edge\":4294967296,\"offset\":0,"
      "\"delta\":1}",                                   // edge past uint32
      "{\"op\":\"sk\",\"terms\":[4294967297],\"edge\":0,\"offset\":0,"
      "\"delta\":1}",                                   // term past uint32
      "{\"op\":\"sk\",\"terms\":[1],\"edge\":0,\"offset\":1e300,"
      "\"delta\":1}",                                   // offset off the edge
      "{\"op\":\"div\",\"terms\":[1],\"edge\":0,\"offset\":0,\"delta\":1,"
      "\"k\":0}",                                       // bad k
      "{\"op\":\"div\",\"terms\":[1],\"edge\":0,\"offset\":0,\"delta\":1,"
      "\"k\":1e300}",                                   // k past size_t
      "{\"op\":\"div\",\"terms\":[1],\"edge\":0,\"offset\":0,\"delta\":1,"
      "\"k\":1000000}",                                 // k past kMaxDivK
      "{\"op\":\"div\",\"terms\":[1],\"edge\":0,\"offset\":0,\"delta\":1,"
      "\"lambda\":2}",                                  // bad lambda
  };
  Collector col;
  for (const std::string& line : bad) {
    service.Submit(line, "t", col.Make());
  }
  col.Await(bad.size());
  for (const std::string& r : col.responses) {
    EXPECT_EQ(StatusOf(r), "INVALID_ARGUMENT") << r;
  }
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.requests, bad.size());
  EXPECT_EQ(c.invalid, bad.size());
  EXPECT_EQ(c.admitted, 0u);
  service.Stop();
}

TEST_F(ServerTest, FarDeadlineAndHugeLimitAnswerOk) {
  // Numbers past their target type saturate instead of overflowing a cast:
  // a deadline beyond the clock's range never expires, and a limit past
  // size_t caps at max_results.
  ServiceConfig config;
  config.threads = 1;
  config.metrics = nullptr;
  QueryService service(db_, config);

  std::string line = RequestLine(workload_->queries[0], "far");
  line.pop_back();  // reopen the object for one more member
  Collector col;
  service.Submit(line + ",\"deadline_ms\":1e13}", "t", col.Make());
  service.Submit(line + ",\"limit\":1e300}", "t", col.Make());
  col.Await(2);
  service.Stop();
  for (const std::string& r : col.responses) {
    EXPECT_EQ(StatusOf(r), "OK") << r;
  }
}

TEST_F(ServerTest, OverloadShedsExactlyUnderEightSubmitterThreads) {
  // 8 producer threads race Submit against a 1-worker, tiny-queue service
  // whose worker is slowed by the simulated disk. Shedding must be exact:
  // every request is either admitted (and completes) or answers
  // RESOURCE_EXHAUSTED, and the two tallies meet the counters perfectly.
  setenv("DSKS_IO_DELAY_US", "200", /*overwrite=*/1);
  ScopedIoDelay delay(db_, /*yielding=*/true);
  ServiceConfig config;
  config.threads = 1;
  config.queue_capacity = 2;
  config.metrics = nullptr;
  QueryService service(db_, config);

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 16;
  Collector col;
  std::vector<std::thread> producers;
  for (size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const WorkloadQuery& wq =
            workload_->queries[(t * kPerThread + i) % workload_->queries.size()];
        std::string tenant = "t";
        tenant += std::to_string(t);
        service.Submit(RequestLine(wq, ""), tenant, col.Make());
      }
    });
  }
  for (std::thread& t : producers) {
    t.join();
  }
  col.Await(kThreads * kPerThread);  // one response per request, always
  service.Stop();
  unsetenv("DSKS_IO_DELAY_US");

  uint64_t ok = 0, shed = 0, other = 0;
  for (const std::string& r : col.responses) {
    const std::string status = StatusOf(r);
    if (status == "OK") {
      ++ok;
    } else if (status == "RESOURCE_EXHAUSTED") {
      ++shed;
    } else {
      ++other;
      ADD_FAILURE() << "unexpected response: " << r;
    }
  }
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.requests, kThreads * kPerThread);
  EXPECT_EQ(c.invalid, 0u);
  EXPECT_EQ(c.quota_denied, 0u);
  EXPECT_EQ(c.requests, c.admitted + c.shed);  // exact admission arithmetic
  EXPECT_EQ(c.admitted, c.completed);          // drained: nothing lost
  EXPECT_EQ(shed, c.shed);                     // client view == server view
  EXPECT_EQ(ok, c.admitted);
  EXPECT_GT(c.shed, 0u) << "drill did not overload; tighten the queue";
  EXPECT_EQ(other, 0u);
}

TEST_F(ServerTest, DeadlineCancelsCooperativelyWithPartialTrace) {
  // The simulated disk delay makes the query take many milliseconds; a
  // 2 ms deadline must cancel it mid-run — CANCELLED status, and the
  // requested trace still shows the phases that did run (partial work
  // stays accounted).
  setenv("DSKS_IO_DELAY_US", "500", /*overwrite=*/1);
  ScopedIoDelay delay(db_, /*yielding=*/true);
  ServiceConfig config;
  config.threads = 1;
  config.metrics = nullptr;
  QueryService service(db_, config);

  // Cold cache so the search actually pays the slow reads.
  db_->PrepareForQueries();
  Collector col;
  service.Submit(RequestLine(workload_->queries[0], "q1", /*deadline_ms=*/2.0,
                             /*trace=*/true),
                 "t", col.Make());
  col.Await(1);
  service.Stop();
  unsetenv("DSKS_IO_DELAY_US");

  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(col.responses[0], &doc).ok())
      << col.responses[0];
  EXPECT_EQ(doc.Find("status")->string_value(), "CANCELLED")
      << col.responses[0];
  ASSERT_NE(doc.Find("trace"), nullptr) << col.responses[0];
  EXPECT_TRUE(doc.Find("trace")->is_object());
  EXPECT_EQ(service.counters().cancelled, 1u);
  // The id travels through the cancellation path too.
  EXPECT_EQ(doc.Find("id")->string_value(), "q1");
}

TEST_F(ServerTest, RequestedTraceOfASampledQueryReachesTracez) {
  // A "trace":true request runs under the executor's one worker trace —
  // here also the sampler's pick — so its response's "trace" and its
  // flight-recorder entry's "phases" render the same spans.
  obs::FlightRecorder recorder;
  ServiceConfig config;
  config.threads = 1;
  config.metrics = nullptr;
  config.sampling.sample_every = 1;
  config.flight_recorder = &recorder;
  QueryService service(db_, config);

  const WorkloadQuery& wq = workload_->queries[0];
  Collector col;
  service.Submit(RequestLine(wq, "sk", 0.0, /*trace=*/true), "t", col.Make());
  col.Await(1);
  service.Submit(RequestLine(wq, "div", 0.0, /*trace=*/true, "div"), "t",
                 col.Make());
  col.Await(2);
  service.Stop();  // drained: both entries are recorded

  JsonValue tracez;
  const std::string tracez_json = recorder.ToJson();
  ASSERT_TRUE(JsonValue::Parse(tracez_json, &tracez).ok()) << tracez_json;
  const std::vector<JsonValue>& recent = tracez.Find("recent")->array();
  ASSERT_EQ(recent.size(), 2u) << tracez_json;
  for (size_t i = 0; i < 2; ++i) {
    JsonValue response;
    ASSERT_TRUE(JsonValue::Parse(col.responses[i], &response).ok())
        << col.responses[i];
    EXPECT_EQ(response.Find("status")->string_value(), "OK");
    const JsonValue& entry = recent[1 - i];  // newest first
    EXPECT_EQ(entry.Find("kind")->string_value(),
              i == 0 ? "server_sk" : "server_div");
    EXPECT_TRUE(entry.Find("traced")->bool_value()) << tracez_json;
    const JsonValue* trace = response.Find("trace");
    const JsonValue* phases = entry.Find("phases");
    ASSERT_NE(trace, nullptr) << col.responses[i];
    ASSERT_NE(phases, nullptr) << tracez_json;
    ASSERT_FALSE(trace->object().empty()) << col.responses[i];
    ASSERT_EQ(trace->object().size(), phases->object().size())
        << col.responses[i] << "\n" << tracez_json;
    for (const auto& [phase, fields] : trace->object()) {
      const JsonValue* recorded = phases->Find(phase);
      ASSERT_NE(recorded, nullptr) << phase << "\n" << tracez_json;
      ASSERT_EQ(fields.object().size(), recorded->object().size()) << phase;
      for (const auto& [field, value] : fields.object()) {
        ASSERT_NE(recorded->Find(field), nullptr) << phase << "." << field;
        EXPECT_EQ(value.number(), recorded->Find(field)->number())
            << phase << "." << field;
      }
    }
    // One attempt, so the response's I/O is the entry's I/O too.
    for (const auto& [field, value] : response.Find("io")->object()) {
      EXPECT_EQ(value.number(), entry.Find("io")->Find(field)->number())
          << field;
    }
  }
}

TEST_F(ServerTest, QuotaDeniesBeyondBurst) {
  ServiceConfig config;
  config.threads = 1;
  config.metrics = nullptr;
  config.quota.rate_qps = 1e-6;  // effectively no refill during the test
  config.quota.burst = 2.0;
  QueryService service(db_, config);

  Collector col;
  for (int i = 0; i < 4; ++i) {
    service.Submit(RequestLine(workload_->queries[0], ""), "tenant-a",
                   col.Make());
  }
  // A different tenant has its own bucket and is not affected.
  service.Submit(RequestLine(workload_->queries[0], ""), "tenant-b",
                 col.Make());
  col.Await(5);
  service.Stop();

  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.quota_denied, 2u);  // 4 requests against burst 2
  EXPECT_EQ(c.admitted, 3u);      // 2 from tenant-a + 1 from tenant-b
  EXPECT_EQ(c.admitted, c.completed);
}

TEST_F(ServerTest, RetriedRequestAnswersOnce) {
  // A request whose first attempt fails with IO_ERROR and whose retry
  // succeeds answers once, OK. Set up like
  // ChaosTest.TransientFaultIsAbsorbedByRetry: a cold pool and prefetch
  // off, so the one-shot fault hits a demand read.
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.threads = 1;
  config.max_retries = 1;
  config.metrics = &registry;
  QueryService service(db_, config);
  db_->PrepareForQueries();
  db_->SetPrefetchEnabled(false);
  db_->disk()->fault_injector()->InjectReadFaultOnce();

  Collector col;
  service.Submit(RequestLine(workload_->queries[0], "r"), "t", col.Make());
  col.Await(1);
  service.Stop();  // drained: a second answer would have arrived by now
  db_->disk()->fault_injector()->Disarm();
  db_->SetPrefetchEnabled(true);

  ASSERT_EQ(col.responses.size(), 1u);
  EXPECT_EQ(StatusOf(col.responses[0]), "OK") << col.responses[0];
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.admitted, 1u);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(registry.counter("query.retries").value(), 1u)
      << "the fault never reached the retry path";
  EXPECT_EQ(registry.counter("executor.queries").value(),
            registry.counter("server.completed").value());
}

// ---------------------------------------------------------------------------
// Over the wire

TEST_F(ServerTest, ConcurrentClientsGetTheirOwnAnswers) {
  ServerConfig sc;
  sc.service.threads = 4;
  sc.service.metrics = nullptr;
  QueryServer server(db_, sc);
  ASSERT_TRUE(server.Start(0).ok());

  constexpr size_t kClients = 4;
  constexpr size_t kQueries = 16;
  std::vector<std::map<std::string, std::string>> responses(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      QueryClient client;
      ASSERT_TRUE(client.Connect(server.port()).ok());
      for (size_t i = 0; i < kQueries; ++i) {
        const std::string id = ClientRequestId(c, i);
        ASSERT_TRUE(client
                        .SendLine(RequestLine(
                            workload_->queries[i % workload_->queries.size()],
                            id))
                        .ok());
      }
      for (size_t i = 0; i < kQueries; ++i) {
        std::string line;
        ASSERT_TRUE(client.ReadLine(&line).ok());
        JsonValue doc;
        ASSERT_TRUE(JsonValue::Parse(line, &doc).ok()) << line;
        ASSERT_NE(doc.Find("id"), nullptr) << line;
        responses[c][doc.Find("id")->string_value()] = line;
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }

  // Every client got exactly its own ids back, every answer OK.
  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[c].size(), kQueries);
    for (size_t i = 0; i < kQueries; ++i) {
      const std::string id = ClientRequestId(c, i);
      ASSERT_TRUE(responses[c].count(id)) << "client " << c << " missing "
                                          << id;
      EXPECT_EQ(StatusOf(responses[c][id]), "OK") << responses[c][id];
    }
  }
  const ServiceCounters counters = server.counters();
  EXPECT_EQ(counters.requests, kClients * kQueries);
  EXPECT_EQ(counters.admitted, counters.completed);
  server.Stop();
}

TEST_F(ServerTest, MalformedLinesAnswerInvalidArgumentAndConnectionSurvives) {
  ServerConfig sc;
  sc.service.threads = 1;
  sc.service.metrics = nullptr;
  QueryServer server(db_, sc);
  ASSERT_TRUE(server.Start(0).ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  std::string response;

  ASSERT_TRUE(client.Request("this is not json", &response).ok());
  EXPECT_EQ(StatusOf(response), "INVALID_ARGUMENT") << response;

  ASSERT_TRUE(client.Request("{\"op\":\"sk\",\"terms\":[1],\"edge\":0,"
                             "\"offset\":0,\"delta\":\"wat\"}",
                             &response)
                  .ok());
  EXPECT_EQ(StatusOf(response), "INVALID_ARGUMENT") << response;

  // The connection is still perfectly usable for a valid query.
  ASSERT_TRUE(
      client.Request(RequestLine(workload_->queries[0], "ok-1"), &response)
          .ok());
  EXPECT_EQ(StatusOf(response), "OK") << response;

  const ServiceCounters c = server.counters();
  EXPECT_EQ(c.requests, 3u);
  EXPECT_EQ(c.invalid, 2u);
  EXPECT_EQ(c.admitted, 1u);
  server.Stop();
}

TEST_F(ServerTest, UnknownTermAnswersEmptyAndConnectionSurvives) {
  // Regression: a term id outside the vocabulary CHECK-failed in the SIF
  // signature test, aborting the server with the request unanswered. No
  // object carries such a term, so the AND query has no result.
  ServerConfig sc;
  sc.service.threads = 1;
  sc.service.metrics = nullptr;
  QueryServer server(db_, sc);
  ASSERT_TRUE(server.Start(0).ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  std::string response;
  for (const std::string op : {"sk", "div"}) {
    ASSERT_TRUE(client
                    .Request("{\"op\":\"" + op +
                                 "\",\"terms\":[1,4000000000],\"edge\":0,"
                                 "\"offset\":0,\"delta\":1000}",
                             &response)
                    .ok())
        << op;
    EXPECT_EQ(StatusOf(response), "OK") << response;
    JsonValue doc;
    ASSERT_TRUE(JsonValue::Parse(response, &doc).ok()) << response;
    ASSERT_NE(doc.Find("count"), nullptr) << response;
    EXPECT_EQ(doc.Find("count")->number(), 0.0) << response;
  }

  // The next request on the same connection is answered.
  ASSERT_TRUE(
      client.Request(RequestLine(workload_->queries[0], "after"), &response)
          .ok());
  EXPECT_EQ(StatusOf(response), "OK") << response;
  server.Stop();
}

TEST_F(ServerTest, PipelinedBurstPastTheLineLimitIsAnsweredInFull) {
  // Regression: the 64 KiB line limit was applied to everything received
  // in one poll round, so a pipelined burst of valid lines past it closed
  // the connection with no request answered.
  ServerConfig sc;
  sc.service.threads = 1;
  sc.service.metrics = nullptr;
  QueryServer server(db_, sc);
  ASSERT_TRUE(server.Start(0).ok());

  std::string burst;
  size_t sent = 0;
  while (burst.size() <= 64 * 1024) {
    if (sent > 0) {
      burst.push_back('\n');
    }
    std::string id = "b";
    id += std::to_string(sent);
    burst += RequestLine(workload_->queries[sent % workload_->queries.size()],
                         id);
    ++sent;
  }
  QueryClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.SendLine(burst).ok());  // one write of `sent` lines

  std::set<std::string> ids;
  for (size_t i = 0; i < sent; ++i) {
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line, /*timeout_ms=*/60000).ok())
        << "answer " << i << " of " << sent;
    const std::string status = StatusOf(line);
    EXPECT_TRUE(status == "OK" || status == "RESOURCE_EXHAUSTED") << line;
    JsonValue doc;
    ASSERT_TRUE(JsonValue::Parse(line, &doc).ok()) << line;
    ASSERT_NE(doc.Find("id"), nullptr) << line;
    EXPECT_TRUE(ids.insert(doc.Find("id")->string_value()).second) << line;
  }
  EXPECT_EQ(ids.size(), sent);
  EXPECT_EQ(server.counters().requests, sent);
  server.Stop();
}

TEST_F(ServerTest, OverlongLineClosesOnlyThatConnection) {
  ServerConfig sc;
  sc.service.threads = 1;
  sc.service.metrics = nullptr;
  QueryServer server(db_, sc);
  ASSERT_TRUE(server.Start(0).ok());

  QueryClient bystander;
  ASSERT_TRUE(bystander.Connect(server.port()).ok());
  QueryClient hog;
  ASSERT_TRUE(hog.Connect(server.port()).ok());
  // One byte past the limit, with no newline.
  const std::string line(64 * 1024 + 1, 'x');
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(hog.fd(), line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
  std::string response;
  const Status closed = hog.ReadLine(&response);
  EXPECT_FALSE(closed.ok()) << response;
  EXPECT_NE(closed.message(), "client read timeout");

  ASSERT_TRUE(
      bystander.Request(RequestLine(workload_->queries[0], "b"), &response)
          .ok());
  EXPECT_EQ(StatusOf(response), "OK") << response;
  EXPECT_EQ(server.counters().requests, 1u);
  server.Stop();
}

TEST_F(ServerTest, ObsRoutesShareTheQueryListener) {
  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder;
  ServerConfig sc;
  sc.service.threads = 1;
  sc.service.metrics = &registry;
  sc.service.flight_recorder = &recorder;
  QueryServer server(db_, sc);
  ASSERT_TRUE(server.Start(0).ok());

  // Run one query so the counters are live.
  QueryClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  std::string response;
  ASSERT_TRUE(
      client.Request(RequestLine(workload_->queries[0], "m"), &response).ok());
  EXPECT_EQ(StatusOf(response), "OK");

  // Plain HTTP on the same port.
  const uint16_t port = server.port();
  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("dsks_server_admitted"), std::string::npos)
      << metrics;
  EXPECT_EQ(metrics.find("dsks_dsks_"), std::string::npos) << metrics;
  EXPECT_NE(HttpGet(port, "/healthz").find("200 OK"), std::string::npos);
  const std::string varz = HttpGet(port, "/varz");
  EXPECT_NE(varz.find("\"server.admitted\":1"), std::string::npos) << varz;
  const std::string tracez = HttpGet(port, "/tracez");
  EXPECT_NE(tracez.find("200 OK"), std::string::npos) << tracez;
  EXPECT_NE(tracez.find("\"recorded\":"), std::string::npos) << tracez;

  const std::string statusz = HttpGet(port, "/statusz");
  EXPECT_NE(statusz.find("200 OK"), std::string::npos) << statusz;
  EXPECT_NE(statusz.find("\"admitted\":1"), std::string::npos) << statusz;

  EXPECT_NE(HttpGet(port, "/nope").find("404"), std::string::npos);
  server.Stop();
}

TEST_F(ServerTest, ExecutorPublishesEveryQueryWhileServing) {
  // Regression: the executor published only from Drain(), which a serving
  // process never calls, so /varz showed no executor.* at all. Nothing
  // here drains; one query's deadline has expired before it runs.
  obs::MetricsRegistry registry;
  ServerConfig sc;
  sc.service.threads = 2;
  sc.service.metrics = &registry;
  QueryServer server(db_, sc);
  ASSERT_TRUE(server.Start(0).ok());

  constexpr size_t kQueries = 6;
  QueryClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  std::map<std::string, size_t> statuses;
  for (size_t i = 0; i < kQueries; ++i) {
    const double deadline_ms = i == 0 ? 1e-6 : 0.0;
    std::string id = "q";
    id += std::to_string(i);
    std::string response;
    ASSERT_TRUE(
        client.Request(RequestLine(workload_->queries[i], id, deadline_ms),
                       &response)
            .ok());
    ++statuses[StatusOf(response)];
  }
  EXPECT_EQ(statuses["OK"], kQueries - 1);
  EXPECT_EQ(statuses["CANCELLED"], 1u);

  // A worker records its query just after the response went out, so the
  // last one may still be in flight: poll, under a deadline.
  const std::string want =
      "\"executor.queries\":" + std::to_string(kQueries);
  std::string varz;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (varz.find(want) == std::string::npos &&
         std::chrono::steady_clock::now() < give_up) {
    varz = HttpGet(server.port(), "/varz");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_NE(varz.find(want), std::string::npos) << varz;
  server.Stop();

  EXPECT_EQ(registry.counter("executor.queries").value(), kQueries);
  EXPECT_EQ(registry.histogram("executor.query_ms").count(), kQueries);
  EXPECT_EQ(registry.counter("query.errors.CANCELLED").value(), 1u);
}

TEST_F(ServerTest, SocketOverloadShedsExactlyAndMetricsStayUp) {
  obs::MetricsRegistry registry;
  setenv("DSKS_IO_DELAY_US", "200", /*overwrite=*/1);
  ScopedIoDelay delay(db_, /*yielding=*/true);
  ServerConfig sc;
  sc.service.threads = 1;
  sc.service.queue_capacity = 2;
  sc.service.metrics = &registry;
  QueryServer server(db_, sc);
  ASSERT_TRUE(server.Start(0).ok());

  constexpr size_t kClients = 8;
  constexpr size_t kQueries = 16;
  std::atomic<uint64_t> ok{0}, shed{0}, other{0};
  // Every client sends its whole burst, then waits at this barrier until
  // the main thread's /healthz has been answered, and only then reads: the
  // scrape lands while all 128 requests are in flight, every run.
  std::mutex mu;
  std::condition_variable cv;
  size_t bursts_sent = 0;
  bool scraped = false;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      QueryClient client;
      bool sent = client.Connect(server.port()).ok();
      for (size_t i = 0; sent && i < kQueries; ++i) {
        sent = client
                   .SendLine(RequestLine(
                       workload_->queries[(c + i) % workload_->queries.size()],
                       ""))
                   .ok();
      }
      EXPECT_TRUE(sent) << "client " << c << " could not send its burst";
      {
        std::unique_lock<std::mutex> lock(mu);
        ++bursts_sent;
        cv.notify_all();
        cv.wait(lock, [&] { return scraped; });
      }
      for (size_t i = 0; sent && i < kQueries; ++i) {
        std::string line;
        ASSERT_TRUE(client.ReadLine(&line, /*timeout_ms=*/60000).ok());
        const std::string status = StatusOf(line);
        if (status == "OK") {
          ++ok;
        } else if (status == "RESOURCE_EXHAUSTED") {
          ++shed;
        } else {
          ++other;
        }
      }
    });
  }
  // Observability must stay reachable while the server is overloaded.
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return bursts_sent == kClients; });
  }
  const std::string healthz = HttpGet(server.port(), "/healthz");
  {
    std::lock_guard<std::mutex> lock(mu);
    scraped = true;
  }
  cv.notify_all();
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_NE(healthz.find("HTTP/1.1 200 OK"), std::string::npos)
      << "/healthz unreachable during overload: " << healthz;
  unsetenv("DSKS_IO_DELAY_US");

  const ServiceCounters c = server.counters();
  server.Stop();
  EXPECT_EQ(c.requests, kClients * kQueries);
  EXPECT_EQ(c.requests, c.admitted + c.shed + c.invalid + c.quota_denied);
  EXPECT_EQ(c.admitted, c.completed);
  EXPECT_EQ(shed.load(), c.shed);
  EXPECT_EQ(ok.load(), c.admitted);
  EXPECT_EQ(other.load(), 0u);
  EXPECT_GT(c.shed, 0u) << "no overload reached the server";
}

TEST_F(ServerTest, StopIsCleanAndIdempotent) {
  ServerConfig sc;
  sc.service.threads = 1;
  sc.service.metrics = nullptr;
  QueryServer server(db_, sc);
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_TRUE(server.running());
  QueryClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  std::string response;
  ASSERT_TRUE(
      client.Request(RequestLine(workload_->queries[0], "x"), &response).ok());
  EXPECT_EQ(StatusOf(response), "OK");
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
  // A second server can bind and serve right away.
  QueryServer again(db_, sc);
  ASSERT_TRUE(again.Start(0).ok());
  again.Stop();
}

// ---------------------------------------------------------------------------
// The stats routes (/metrics, /varz, /tracez, /healthz) on the query
// listener

class StatsServerTest : public ServerTest {};

TEST_F(StatsServerTest, ServesMetricsVarzTracezOnEphemeralPort) {
  obs::MetricsRegistry registry;
  registry.counter("executor.queries").Add(5);
  registry.histogram("executor.query_ms").Record(2.0);
  obs::FlightRecorder recorder;
  obs::QuerySummary summary;
  summary.total_ms = 7.0;
  recorder.Record(summary);

  ServerConfig sc;
  sc.service.threads = 1;
  sc.service.metrics = &registry;
  sc.service.flight_recorder = &recorder;
  QueryServer server(db_, sc);
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);
  const uint16_t port = server.port();

  const std::string health = HttpGet(port, "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("ok"), std::string::npos) << health;

  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("# TYPE dsks_executor_queries counter"),
            std::string::npos)
      << metrics;

  // The query string is stripped before routing (scrapers add them).
  const std::string varz = HttpGet(port, "/varz?pretty=1");
  EXPECT_NE(varz.find("200 OK"), std::string::npos) << varz;
  EXPECT_NE(varz.find("\"executor.queries\":5"), std::string::npos) << varz;

  const std::string tracez = HttpGet(port, "/tracez");
  EXPECT_NE(tracez.find("200 OK"), std::string::npos) << tracez;
  EXPECT_NE(tracez.find("\"recorded\":1"), std::string::npos) << tracez;
  EXPECT_NE(tracez.find("\"ms\":7.000000"), std::string::npos) << tracez;

  EXPECT_NE(HttpGet(port, "/nope").find("404"), std::string::npos);
  const std::string post = HttpExchange(
      port, "POST /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_NE(post.find("405"), std::string::npos) << post;

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST_F(StatsServerTest, NullSourcesServe404ButStayHealthy) {
  // Without a registry or recorder their routes are absent, but the
  // listener stays healthy.
  ServerConfig sc;
  sc.service.threads = 1;
  sc.service.metrics = nullptr;
  sc.service.flight_recorder = nullptr;
  QueryServer server(db_, sc);
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_NE(HttpGet(server.port(), "/healthz").find("200 OK"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/metrics").find("404"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/tracez").find("404"), std::string::npos);
  server.Stop();
}

TEST_F(StatsServerTest, SlowClientCannotWedgeTheAcceptLoop) {
  // A client that asks for a large /varz and never reads a byte must not
  // hold up anyone else: the poll loop writes without blocking and keeps
  // the unsent bytes on that connection only.
  obs::MetricsRegistry registry;
  for (int i = 0; i < 4000; ++i) {
    registry.counter("padding.counter." + std::to_string(i)).Add(1);
  }
  ServerConfig sc;
  sc.service.threads = 1;
  sc.service.metrics = &registry;
  QueryServer server(db_, sc);
  ASSERT_TRUE(server.Start(0).ok());

  const int stalled = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stalled, 0);
  // A tiny receive window, so the server's send hits EAGAIN quickly.
  const int tiny = 4096;
  ::setsockopt(stalled, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(stalled, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request = "GET /varz HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(stalled, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));

  const auto t0 = std::chrono::steady_clock::now();
  const std::string health = HttpGet(server.port(), "/healthz");
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_LT(waited_ms, 5000.0);

  ::close(stalled);
  server.Stop();
}

TEST_F(StatsServerTest, TwoServersCoexistOnDistinctPorts) {
  obs::MetricsRegistry registry;
  ServerConfig sc;
  sc.service.threads = 1;
  sc.service.metrics = &registry;
  QueryServer a(db_, sc);
  QueryServer b(db_, sc);
  ASSERT_TRUE(a.Start(0).ok());
  ASSERT_TRUE(b.Start(0).ok());
  EXPECT_NE(a.port(), b.port());
  EXPECT_NE(HttpGet(a.port(), "/healthz").find("200"), std::string::npos);
  EXPECT_NE(HttpGet(b.port(), "/healthz").find("200"), std::string::npos);
  // Destructors stop both; `a` explicitly, `b` via RAII.
  a.Stop();
}

}  // namespace
}  // namespace dsks