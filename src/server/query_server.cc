#include "server/query_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

#include "obs/http.h"
#include "server/json.h"

namespace dsks::server {

namespace {

/// Largest accepted request line / HTTP head; longer input is a protocol
/// error and the connection closes. It bounds one line, not a pipelined
/// burst: complete lines are split off as they arrive.
constexpr size_t kMaxLineBytes = 64 * 1024;

/// Cap on a connection's un-sent response backlog; a client that stops
/// reading while queries complete is dropped at this bound instead of
/// growing the buffer without limit.
constexpr size_t kMaxOutBytes = 4 * 1024 * 1024;

}  // namespace

QueryServer::QueryServer(Database* db, const ServerConfig& config)
    : db_(db), config_(config) {}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start(uint16_t port) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("query server already running");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("server socket: ") +
                           std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("server bind/listen: " + err);
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("server getsockname: " + err);
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("server wake pipe: " + err);
  }
  obs::SetNonBlocking(fd);
  obs::SetNonBlocking(pipe_fds[0]);
  obs::SetNonBlocking(pipe_fds[1]);

  listen_fd_ = fd;
  wake_r_ = pipe_fds[0];
  wake_w_ = pipe_fds[1];
  port_ = ntohs(addr.sin_port);
  service_ = std::make_unique<QueryService>(db_, config_.service);
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { PollLoop(); });
  return Status::Ok();
}

void QueryServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  Wake();
  if (thread_.joinable()) {
    thread_.join();
  }
  // Drain the service AFTER the poll loop is gone: every admitted query
  // still completes (the counters invariant holds), and its completion
  // lands in the outbox, which is simply discarded below.
  if (service_ != nullptr) {
    service_->Stop();
  }
  for (auto& [id, conn] : conns_) {
    ::close(conn.fd);
  }
  conns_.clear();
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    outbox_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_r_ >= 0) {
    ::close(wake_r_);
    ::close(wake_w_);
    wake_r_ = wake_w_ = -1;
  }
  service_.reset();
  running_.store(false, std::memory_order_release);
}

void QueryServer::Wake() {
  if (wake_w_ >= 0) {
    const char b = 'x';
    // Best-effort: a full pipe already guarantees a pending wakeup.
    [[maybe_unused]] const ssize_t n = ::write(wake_w_, &b, 1);
  }
}

void QueryServer::PollLoop() {
  std::vector<pollfd> pfds;
  std::vector<uint64_t> ids;  // pfds[i >= 2] -> connection id
  while (!stop_.load(std::memory_order_acquire)) {
    DrainOutbox();

    pfds.clear();
    ids.clear();
    pfds.push_back({listen_fd_, POLLIN, 0});
    pfds.push_back({wake_r_, POLLIN, 0});
    for (const auto& [id, conn] : conns_) {
      short events = 0;
      if (!conn.read_closed) {
        events |= POLLIN;
      }
      if (!conn.out.empty()) {
        events |= POLLOUT;
      }
      pfds.push_back({conn.fd, events, 0});
      ids.push_back(id);
    }

    const int ready = ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/200);
    if (stop_.load(std::memory_order_acquire)) {
      break;
    }
    if (ready < 0) {
      continue;  // EINTR
    }

    if (pfds[1].revents & POLLIN) {
      char buf[256];
      while (::read(wake_r_, buf, sizeof(buf)) > 0) {
      }
    }
    if (pfds[0].revents & POLLIN) {
      AcceptNew();
    }
    for (size_t i = 2; i < pfds.size(); ++i) {
      const uint64_t id = ids[i - 2];
      auto it = conns_.find(id);
      if (it == conns_.end()) {
        continue;
      }
      Conn* conn = &it->second;
      if (pfds[i].revents & (POLLERR | POLLNVAL)) {
        CloseConn(id);
        continue;
      }
      if (pfds[i].revents & (POLLIN | POLLHUP)) {
        HandleReadable(id, conn);
        if (conns_.find(id) == conns_.end()) {
          continue;
        }
      }
      if (pfds[i].revents & POLLOUT) {
        HandleWritable(id, conn);
      }
    }

    // Deliver whatever completed while we were handling sockets, then
    // reap connections that are fully done.
    DrainOutbox();
    for (auto it = conns_.begin(); it != conns_.end();) {
      const Conn& c = it->second;
      if (c.read_closed && c.in_flight == 0 && c.out.empty()) {
        ::close(c.fd);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void QueryServer::AcceptNew() {
  while (true) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                            &peer_len);
    if (fd < 0) {
      return;  // EAGAIN or transient error; poll again
    }
    obs::SetNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn conn;
    conn.fd = fd;
    char ip[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
    conn.tenant = std::string(ip) + ":" + std::to_string(ntohs(peer.sin_port));
    conns_.emplace(next_conn_id_++, std::move(conn));
  }
}

void QueryServer::HandleReadable(uint64_t conn_id, Conn* conn) {
  char buf[16 * 1024];
  // Consume after every chunk, so the buffer holds at most one
  // unterminated line (or HTTP head) plus one chunk. An HTTP exchange
  // marks the connection read-closed once it is answered.
  while (!conn->read_closed) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {
      conn->read_closed = true;  // the bytes before EOF are final
    } else if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else {
      CloseConn(conn_id);  // hard error
      return;
    }
    if (!ConsumeInput(conn_id, conn)) {
      CloseConn(conn_id);
      return;
    }
  }
  // Kick the first write inline; the poll loop takes over if it blocks.
  if (!conn->out.empty()) {
    HandleWritable(conn_id, conn);
  }
}

bool QueryServer::ConsumeInput(uint64_t conn_id, Conn* conn) {
  if (conn->in.empty()) {
    return true;
  }
  // Protocol sniff: an HTTP request opens with an uppercase method token
  // and a space ("GET ", "POST "), and no JSON text starts with an
  // uppercase letter, so the two protocols are unambiguous from the first
  // word. Only GET is served; RenderObsRoute answers other methods 405.
  if (!conn->is_http) {
    size_t n = 0;
    while (n < conn->in.size() &&
           std::isupper(static_cast<unsigned char>(conn->in[n]))) {
      ++n;
    }
    if (n > 0 && n == conn->in.size() && !conn->read_closed) {
      // Could still become either; wait for more bytes.
      return conn->in.size() <= kMaxLineBytes;
    }
    conn->is_http = n > 0 && n < conn->in.size() && conn->in[n] == ' ';
  }

  if (conn->is_http) {
    const size_t head_end = conn->in.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      return conn->in.size() <= kMaxLineBytes && !conn->read_closed;
    }
    if (head_end + 4 > kMaxLineBytes) {
      return false;
    }
    obs::HttpRequest request;
    obs::HttpResponse response;
    if (!obs::ParseHttpRequest(conn->in.substr(0, head_end + 4), &request)) {
      response = {"400 Bad Request", "text/plain", "bad request\n"};
    } else if (request.method == "GET" && request.path == "/statusz") {
      response = {"200 OK", "application/json", StatuszJson()};
    } else {
      response = obs::RenderObsRoute(request, config_.service.metrics,
                                     config_.service.flight_recorder);
    }
    conn->out += obs::FormatHttpResponse(response);
    conn->in.clear();
    conn->read_closed = true;  // Connection: close semantics
    return true;
  }

  // NDJSON: one request per line.
  size_t start = 0;
  while (true) {
    const size_t nl = conn->in.find('\n', start);
    if (nl == std::string::npos) {
      break;
    }
    if (nl - start > kMaxLineBytes) {
      return false;
    }
    std::string line = conn->in.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    ++conn->in_flight;
    // The completion may run inline (rejections) or on a worker thread
    // (admitted queries); both routes go through the outbox so delivery
    // is uniformly owned by the poll loop.
    service_->Submit(line, conn->tenant,
                     [this, conn_id](std::string response) {
                       {
                         std::lock_guard<std::mutex> lock(outbox_mu_);
                         outbox_.emplace_back(conn_id, std::move(response));
                       }
                       Wake();
                     });
  }
  conn->in.erase(0, start);
  return conn->in.size() <= kMaxLineBytes;  // the unterminated tail
}

void QueryServer::DrainOutbox() {
  std::deque<std::pair<uint64_t, std::string>> batch;
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    batch.swap(outbox_);
  }
  for (auto& [conn_id, response] : batch) {
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) {
      continue;  // client left before its answer arrived
    }
    Conn& conn = it->second;
    if (conn.in_flight > 0) {
      --conn.in_flight;
    }
    conn.out += response;
    conn.out.push_back('\n');
    if (conn.out.size() > kMaxOutBytes) {
      // The client stopped reading while responses kept completing;
      // dropping it beats buffering without bound.
      CloseConn(conn_id);
      continue;
    }
    HandleWritable(conn_id, &conn);
  }
}

void QueryServer::HandleWritable(uint64_t conn_id, Conn* conn) {
  while (!conn->out.empty()) {
    const ssize_t n = ::send(conn->fd, conn->out.data(), conn->out.size(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      conn->out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // poll loop re-arms POLLOUT
    }
    CloseConn(conn_id);  // peer gone
    return;
  }
}

void QueryServer::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    return;
  }
  ::close(it->second.fd);
  conns_.erase(it);
}

std::string QueryServer::StatuszJson() const {
  const ServiceCounters c = service_->counters();
  JsonWriter w;
  w.BeginObject();
  w.Key("requests").Value(c.requests);
  w.Key("invalid").Value(c.invalid);
  w.Key("quota_denied").Value(c.quota_denied);
  w.Key("shed").Value(c.shed);
  w.Key("admitted").Value(c.admitted);
  w.Key("completed").Value(c.completed);
  w.Key("cancelled").Value(c.cancelled);
  w.Key("connections").Value(static_cast<uint64_t>(conns_.size()));
  w.EndObject();
  std::string body = w.Take();
  body.push_back('\n');
  return body;
}

}  // namespace dsks::server
