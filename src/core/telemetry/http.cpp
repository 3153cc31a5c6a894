#include "core/telemetry/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <sstream>

#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench::telemetry {

namespace {

struct ParsedAddress {
  std::string host;
  int port = 0;
};

ParsedAddress parseHostPort(const std::string& listen) {
  const std::size_t colon = listen.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= listen.size()) {
    throw ParseError("listen address '" + listen + "' is not HOST:PORT");
  }
  ParsedAddress parsed;
  parsed.host = listen.substr(0, colon);
  parsed.port = str::parseWhole<int>(std::string_view(listen).substr(colon + 1),
                                     "listen address '" + listen + "' port");
  if (parsed.port < 0 || parsed.port > 65535) {
    throw ParseError("listen port out of range in '" + listen + "'");
  }
  return parsed;
}

sockaddr_in resolveIpv4(const ParsedAddress& address) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(address.port));
  const std::string host =
      address.host == "localhost" ? "127.0.0.1" : address.host;
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw ParseError("cannot parse IPv4 host '" + address.host + "'");
  }
  return addr;
}

/// Reads until the end of the request headers (CRLFCRLF) or EOF; the
/// endpoint only serves GET, so bodies are ignored.
std::string readRequestHead(int fd) {
  std::string data;
  char buffer[2048];
  while (data.find("\r\n\r\n") == std::string::npos &&
         data.size() < 64 * 1024) {
    pollfd pfd{fd, POLLIN, 0};
    if (poll(&pfd, 1, 5000) <= 0) break;  // slow client: give up
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n <= 0) break;
    data.append(buffer, static_cast<std::size_t>(n));
  }
  return data;
}

const char* statusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    default:
      return "Internal Server Error";
  }
}

/// Sends `bytes` with MSG_NOSIGNAL: a peer that reset the connection
/// fails the send with EPIPE, which ends this connection, instead of
/// raising SIGPIPE, which would kill the process.
void writeAll(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

void validateListenAddress(const std::string& listen) {
  resolveIpv4(parseHostPort(listen));
}

StatusServer::StatusServer(Handler handler)
    : handler_(std::move(handler)),
      tracer_(std::make_unique<obs::WallClock>()) {}

StatusServer::~StatusServer() { stop(); }

void StatusServer::start(const std::string& listen) {
  if (running_) throw Error("status server already running");
  const sockaddr_in addr = resolveIpv4(parseHostPort(listen));

  listenFd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0) throw Error("cannot create endpoint socket");
  const int one = 1;
  setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0 ||
      ::listen(listenFd_, 16) != 0) {
    close(listenFd_);
    listenFd_ = -1;
    throw Error("cannot bind endpoint to '" + listen + "': " +
                std::strerror(errno));
  }

  sockaddr_in bound{};
  socklen_t boundLen = sizeof(bound);
  getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &boundLen);
  char host[INET_ADDRSTRLEN] = {0};
  inet_ntop(AF_INET, &bound.sin_addr, host, sizeof(host));
  boundAddress_ = std::string(host) + ":" + std::to_string(ntohs(bound.sin_port));

  if (pipe(wakePipe_) != 0) {
    close(listenFd_);
    listenFd_ = -1;
    throw Error("cannot create endpoint wake pipe");
  }
  running_ = true;
  thread_ = std::thread([this] { serveLoop(); });
}

void StatusServer::stop() {
  if (!running_) return;
  running_ = false;
  // Wake the poll() so the loop observes running_ == false promptly.
  const char byte = 'q';
  [[maybe_unused]] const ssize_t n = write(wakePipe_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  close(listenFd_);
  close(wakePipe_[0]);
  close(wakePipe_[1]);
  listenFd_ = -1;
  wakePipe_[0] = wakePipe_[1] = -1;
}

void StatusServer::serveLoop() {
  while (running_) {
    pollfd fds[2] = {{listenFd_, POLLIN, 0}, {wakePipe_[0], POLLIN, 0}};
    const int ready = poll(fds, 2, 500);
    if (ready <= 0) continue;
    if (fds[1].revents != 0) continue;  // wake for shutdown
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = accept(listenFd_, nullptr, nullptr);
    if (fd < 0) continue;
    handleConnection(fd);
    close(fd);
  }
}

void StatusServer::handleConnection(int fd) {
  const std::string head = readRequestHead(fd);
  HttpRequest request;
  HttpResponse response;
  const std::size_t lineEnd = head.find("\r\n");
  std::istringstream line(head.substr(0, lineEnd));
  std::string version;
  if (!(line >> request.method >> request.path >> version)) {
    response = {400, "text/plain", "malformed request line\n"};
  } else if (request.method != "GET") {
    response = {405, "text/plain", "only GET is served here\n"};
  } else {
    if (const std::size_t q = request.path.find('?');
        q != std::string::npos) {
      request.query = request.path.substr(q + 1);
      request.path.resize(q);
    }
    response = handler_(request);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  {
    obs::ScopedSpan span(&tracer_, "serve.endpoint");
    span.attr("route", request.path.empty() ? "(malformed)" : request.path);
    span.attr("status", std::to_string(response.status));
  }

  std::ostringstream out;
  out << "HTTP/1.1 " << response.status << " " << statusText(response.status)
      << "\r\nContent-Type: " << response.contentType
      << "\r\nContent-Length: " << response.body.size()
      << "\r\nConnection: close\r\n\r\n"
      << response.body;
  writeAll(fd, out.str());
}

std::string httpGet(const std::string& hostPort,
                    const std::string& pathQuery) {
  const sockaddr_in addr = resolveIpv4(parseHostPort(hostPort));
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw Error("cannot create client socket");
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    throw Error("cannot connect to endpoint '" + hostPort + "': " +
                std::strerror(errno));
  }
  const std::string request = "GET " + pathQuery +
                              " HTTP/1.1\r\nHost: " + hostPort +
                              "\r\nConnection: close\r\n\r\n";
  writeAll(fd, request);

  std::string response;
  char buffer[4096];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    if (poll(&pfd, 1, 5000) <= 0) break;
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  close(fd);

  const std::size_t headerEnd = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.", 0) != 0 || headerEnd == std::string::npos) {
    throw Error("malformed response from endpoint '" + hostPort + "'");
  }
  const std::string statusLine = response.substr(0, response.find("\r\n"));
  std::istringstream status(statusLine);
  std::string proto;
  int code = 0;
  status >> proto >> code;
  if (code < 200 || code >= 300) {
    throw Error("endpoint answered: " + statusLine);
  }
  return response.substr(headerEnd + 4);
}

}  // namespace rebench::telemetry
