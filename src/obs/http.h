#ifndef DSKS_OBS_HTTP_H_
#define DSKS_OBS_HTTP_H_

#include <string>

namespace dsks::obs {

class FlightRecorder;
class MetricsRegistry;

/// The request-line fields of a parsed HTTP/1.x request head. Any query
/// string is already stripped from `path`.
struct HttpRequest {
  std::string method;
  std::string path;
};

/// Parses "<METHOD> <path> HTTP/1.x" from a raw request head (everything
/// up to the blank line). Returns false on a malformed request line.
bool ParseHttpRequest(const std::string& head, HttpRequest* out);

/// One response, ready to serialize. `status_line` and `content_type` are
/// static-lifetime strings ("200 OK", "text/plain").
struct HttpResponse {
  const char* status_line = "200 OK";
  const char* content_type = "text/plain";
  std::string body;
};

/// Serializes head + body into one Connection: close HTTP/1.1 response.
std::string FormatHttpResponse(const HttpResponse& response);

/// The observability routes, mounted by the query server so one port per
/// process serves queries and telemetry:
///   /metrics — MetricsRegistry::ToPrometheus (text/plain)
///   /varz    — MetricsRegistry::ToJson (application/json)
///   /tracez  — FlightRecorder::ToJson (application/json)
///   /healthz — "ok"
/// Non-GET methods answer 405, unknown paths (or a null source) 404.
HttpResponse RenderObsRoute(const HttpRequest& request,
                            const MetricsRegistry* metrics,
                            const FlightRecorder* recorder);

/// Puts `fd` into non-blocking mode. Returns false on fcntl failure.
bool SetNonBlocking(int fd);

}  // namespace dsks::obs

#endif  // DSKS_OBS_HTTP_H_
