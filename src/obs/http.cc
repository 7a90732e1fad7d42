#include "obs/http.h"

#include <fcntl.h>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace dsks::obs {

bool ParseHttpRequest(const std::string& head, HttpRequest* out) {
  const size_t line_end = head.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    return false;
  }
  out->method = line.substr(0, sp1);
  out->path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t query = out->path.find('?');
  if (query != std::string::npos) {
    out->path.resize(query);
  }
  return true;
}

std::string FormatHttpResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 ";
  out += response.status_line;
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: " + std::to_string(response.body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += response.body;
  return out;
}

HttpResponse RenderObsRoute(const HttpRequest& request,
                            const MetricsRegistry* metrics,
                            const FlightRecorder* recorder) {
  if (request.method != "GET") {
    return {"405 Method Not Allowed", "text/plain", "GET only\n"};
  }
  if (request.path == "/metrics" && metrics != nullptr) {
    return {"200 OK", "text/plain; version=0.0.4", metrics->ToPrometheus()};
  }
  if (request.path == "/varz" && metrics != nullptr) {
    return {"200 OK", "application/json", metrics->ToJson()};
  }
  if (request.path == "/tracez" && recorder != nullptr) {
    return {"200 OK", "application/json", recorder->ToJson()};
  }
  if (request.path == "/healthz") {
    return {"200 OK", "text/plain", "ok\n"};
  }
  return {"404 Not Found", "text/plain", "not found\n"};
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace dsks::obs
