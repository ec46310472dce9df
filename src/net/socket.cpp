#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace themis::net {

namespace {

void FormatError(std::string* err, const char* what) {
  if (err != nullptr)
    *err = std::string(what) + ": " + std::strerror(errno);
}

bool SetNoDelay(int fd) {
  int one = 1;
  return setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) == 0;
}

/// Fill `addr`, or set `*err` and return false. A port outside
/// [0, 65535] is an error, not a cast: 70000 would bind 4464.
bool ParseAddr(const std::string& host, int port, const std::string& what,
               sockaddr_in* addr, std::string* err) {
  std::memset(addr, 0, sizeof *addr);
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<std::uint16_t>(port));
  std::string problem;
  if (port < 0 || port > 65535)
    problem = what + " port " + std::to_string(port) + " is outside [0, 65535]";
  else if (host.empty() || host == "0.0.0.0")
    addr->sin_addr.s_addr = INADDR_ANY;
  else if (inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1)
    problem = "invalid " + what + " address: " + host;
  if (err != nullptr && !problem.empty()) *err = problem;
  return problem.empty();
}

}  // namespace

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags != -1 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) != -1;
}

int TcpListen(const std::string& host, int port, int backlog,
              std::string* err) {
  sockaddr_in addr;
  if (!ParseAddr(host, port, "listen", &addr, err)) return kBadFd;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd == kBadFd) {
    FormatError(err, "socket");
    return kBadFd;
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    FormatError(err, "bind");
    close(fd);
    return kBadFd;
  }
  if (listen(fd, backlog) != 0) {
    FormatError(err, "listen");
    close(fd);
    return kBadFd;
  }
  if (!SetNonBlocking(fd)) {
    FormatError(err, "fcntl(O_NONBLOCK)");
    close(fd);
    return kBadFd;
  }
  return fd;
}

int ListenPort(int listen_fd) {
  sockaddr_in addr;
  socklen_t len = sizeof addr;
  if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return -1;
  return ntohs(addr.sin_port);
}

int TcpAccept(int listen_fd) {
  const int fd = accept(listen_fd, nullptr, nullptr);
  if (fd == kBadFd) return kBadFd;
  if (!SetNonBlocking(fd)) {
    close(fd);
    return kBadFd;
  }
  SetNoDelay(fd);
  return fd;
}

int TcpConnect(const std::string& host, int port, std::string* err) {
  sockaddr_in addr;
  if (!ParseAddr(host.empty() ? "127.0.0.1" : host, port, "connect", &addr,
                 err))
    return kBadFd;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd == kBadFd) {
    FormatError(err, "socket");
    return kBadFd;
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    FormatError(err, "connect");
    close(fd);
    return kBadFd;
  }
  SetNoDelay(fd);
  return fd;
}

long SendSome(int fd, const char* data, std::size_t n) {
  const ssize_t w = send(fd, data, n, MSG_NOSIGNAL);
  if (w >= 0) return static_cast<long>(w);
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return 0;
  return -1;
}

long RecvSome(int fd, char* buf, std::size_t n) {
  const ssize_t r = recv(fd, buf, n, 0);
  if (r > 0) return static_cast<long>(r);
  if (r == 0) return -1;  // orderly EOF: treat as gone
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return 0;
  return -1;
}

void CloseFd(int fd) {
  if (fd != kBadFd) close(fd);
}

long RaiseFdLimit(long need) {
  rlimit lim;
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return -1;
  if (static_cast<long>(lim.rlim_cur) >= need)
    return static_cast<long>(lim.rlim_cur);
  rlim_t want = static_cast<rlim_t>(need);
  if (lim.rlim_max != RLIM_INFINITY && want > lim.rlim_max)
    want = lim.rlim_max;
  lim.rlim_cur = want;
  if (setrlimit(RLIMIT_NOFILE, &lim) != 0) return -1;
  return static_cast<long>(want);
}

}  // namespace themis::net
