// Embedded HTTP/1.1 status endpoint (rebench::telemetry).
//
// `rebench serve --listen HOST:PORT` exposes the telemetry plane over
// the smallest HTTP server that can honestly claim the name: one
// listening socket, a blocking poll() loop on a dedicated thread, one
// request per connection (Connection: close), no dependencies beyond
// POSIX sockets.  The loop polls every connection whose request head is
// still arriving and answers each as soon as its head is complete, so a
// client that connects and sends nothing delays no one.  Each waits at
// most 5 s, and at most 16 wait (the listen backlog): past that, the
// oldest is closed.  The handler is a plain callback — the server knows
// nothing about routes; rebench::service wires it to the plane.  Replies
// (and httpGet's request) are sent with MSG_NOSIGNAL, so a client that
// resets its connection ends that connection, not the daemon.
//
// Port 0 asks the kernel for an ephemeral port; the bound address is
// reported via boundAddress() and written by the daemon to
// QUEUE/endpoint.addr so tests and `rebench status` can discover it
// without parsing logs.
//
// Every request is recorded as a `serve.endpoint` span (route + status
// attributes — the trace_lint contract) on a wall-clock tracer owned by
// the server.  That trace is written to QUEUE/endpoint-trace.jsonl at
// shutdown, deliberately separate from the campaign trace: endpoint
// traffic is wall-clock and operator-driven, so it must never touch
// byte-deterministic artifacts.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "core/obs/trace.hpp"

namespace rebench::telemetry {

struct HttpRequest {
  std::string method;
  std::string path;   // without the query string
  std::string query;  // after '?', "" when none
};

struct HttpResponse {
  int status = 200;
  std::string contentType = "application/json";
  std::string body;
};

/// Checks "HOST:PORT" as StatusServer::start reads it: an IPv4 host or
/// localhost, and a whole-token port in [0, 65535] (0 = ephemeral).
/// Throws ParseError otherwise.
void validateListenAddress(const std::string& listen);

class StatusServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit StatusServer(Handler handler);
  ~StatusServer();

  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;

  /// Parses "HOST:PORT" (port 0 = ephemeral), binds, and starts the
  /// serving thread.  Throws rebench::Error on bind failure.
  void start(const std::string& listen);

  /// "HOST:PORT" with the real port ("" before start()).
  const std::string& boundAddress() const { return boundAddress_; }

  /// Closes the socket and joins the serving thread (idempotent).
  void stop();

  bool running() const { return running_; }
  std::uint64_t requestCount() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// The wall-clock request trace (one serve.endpoint span per request).
  /// Only valid to serialize after stop().
  const obs::Tracer& tracer() const { return tracer_; }

 private:
  void serveLoop();
  /// Parses the request `head` read from `fd`, runs the handler and
  /// writes the reply.
  void answer(int fd, const std::string& head);

  Handler handler_;
  obs::Tracer tracer_;
  std::thread thread_;
  std::atomic<std::uint64_t> requests_{0};
  std::string boundAddress_;
  int listenFd_ = -1;
  int wakePipe_[2] = {-1, -1};
  /// Cleared by stop() while serveLoop() reads it on the serving thread.
  std::atomic<bool> running_{false};
};

/// Minimal blocking HTTP GET ("HOST:PORT", "/path?query"): returns the
/// response body; throws rebench::Error on connect/protocol failure or
/// a non-2xx status (the status line is in the message).  This is the
/// in-test client and the engine behind `rebench status --fetch`.
std::string httpGet(const std::string& hostPort,
                    const std::string& pathQuery);

}  // namespace rebench::telemetry
