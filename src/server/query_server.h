#ifndef DSKS_SERVER_QUERY_SERVER_H_
#define DSKS_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "server/query_service.h"

namespace dsks::server {

/// QueryServer settings: the service policy. The wire-level byte limits
/// are constants in query_server.cc.
struct ServerConfig {
  ServiceConfig service;
};

/// The TCP front end: one poll loop multiplexing every connection, with
/// the actual query work on the QueryService's executor behind a bounded
/// admission queue. Two protocols share the listener, sniffed from the
/// first bytes:
///
///   - NDJSON query protocol: one JSON request object per line, one JSON
///     response object per line, same order per connection not guaranteed
///     across concurrent queries (responses carry the request "id").
///   - HTTP (a head opening with an uppercase method token such as
///     "GET "): GET serves the observability routes /metrics, /varz,
///     /tracez, /healthz (obs::RenderObsRoute over the service's registry
///     and flight recorder; a null one answers 404) plus /statusz (the
///     server's own counters as JSON); other methods answer 405. One
///     response, then close. Executor and server counters are recorded
///     per query as it completes, so a scrape is current while the server
///     runs.
///
/// The poll loop never blocks on a query: Submit's verdict is synchronous
/// (reject/shed responses queue immediately) and completions from worker
/// threads land in an outbox the loop drains via a self-pipe wakeup. A
/// stalled or disconnected client never wedges the loop either — writes
/// are non-blocking with a bounded backlog, and completions for dead
/// connections are dropped.
class QueryServer {
 public:
  QueryServer(Database* db, const ServerConfig& config);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds 127.0.0.1:port (0 picks an ephemeral port) and starts the poll
  /// thread.
  Status Start(uint16_t port = 0);

  /// Stops accepting, closes every connection, and drains the service —
  /// every admitted query completes (responses to still-open connections
  /// are not guaranteed delivery once Stop begins). Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return port_; }

  /// Exact service-level accounting (see ServiceCounters).
  ServiceCounters counters() const { return service_->counters(); }
  QueryService* service() { return service_.get(); }

 private:
  struct Conn {
    int fd = -1;
    std::string in;
    std::string out;
    bool is_http = false;   // sniffed from the first bytes
    bool read_closed = false;
    size_t in_flight = 0;   // submitted queries without a delivered response
    std::string tenant;     // connection tag ("<ip>:<port>")
  };

  void PollLoop();
  void AcceptNew();
  void HandleReadable(uint64_t conn_id, Conn* conn);
  void HandleWritable(uint64_t conn_id, Conn* conn);
  /// Consumes complete lines / a complete HTTP head from conn->in.
  /// Returns false when the connection must close (protocol error: a
  /// line or an HTTP head longer than the line limit, or EOF inside an
  /// HTTP head).
  bool ConsumeInput(uint64_t conn_id, Conn* conn);
  void DrainOutbox();
  void CloseConn(uint64_t conn_id);
  void Wake();
  std::string StatuszJson() const;

  Database* const db_;
  const ServerConfig config_;
  std::unique_ptr<QueryService> service_;

  int listen_fd_ = -1;
  int wake_r_ = -1, wake_w_ = -1;  // self-pipe: workers wake the poll loop
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;

  uint64_t next_conn_id_ = 1;
  std::map<uint64_t, Conn> conns_;  // poll-thread only

  /// Completed responses en route from worker threads to the poll loop.
  std::mutex outbox_mu_;
  std::deque<std::pair<uint64_t, std::string>> outbox_;
};

}  // namespace dsks::server

#endif  // DSKS_SERVER_QUERY_SERVER_H_
