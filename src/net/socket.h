// Thin POSIX TCP helpers for the ARBITER daemon (src/server/).
//
// Deliberately minimal: the daemon needs a nonblocking listener, a
// nonblocking accepted connection, a blocking client connect, and a poll
// loop — nothing more. All send paths use MSG_NOSIGNAL so a peer closing
// mid-write surfaces as EPIPE instead of killing the process with SIGPIPE
// (the daemon must never die because one AGENT vanished).
#pragma once

#include <cstddef>
#include <string>

namespace themis::net {

/// Invalid file descriptor sentinel.
constexpr int kBadFd = -1;

/// Create a nonblocking IPv4 listener on host:port (SO_REUSEADDR set,
/// backlog as given). `port` 0 binds an ephemeral port — read it back with
/// ListenPort. Returns the fd, or kBadFd with `*err` describing the failed
/// syscall or the port outside [0, 65535].
int TcpListen(const std::string& host, int port, int backlog,
              std::string* err);

/// The port a listener is actually bound to (resolves port 0).
int ListenPort(int listen_fd);

/// Accept one pending connection from a nonblocking listener. The returned
/// fd is nonblocking with TCP_NODELAY set (round frames must not sit in
/// Nagle buffers). Returns kBadFd when no connection is pending (EAGAIN)
/// or on transient accept errors.
int TcpAccept(int listen_fd);

/// Blocking IPv4 client connect to host:port with TCP_NODELAY. Returns the
/// fd, or kBadFd with `*err` set (a port outside [0, 65535] included).
int TcpConnect(const std::string& host, int port, std::string* err);

bool SetNonBlocking(int fd);

/// send() with MSG_NOSIGNAL. Returns bytes written, 0 on EAGAIN, or -1 on
/// a fatal socket error (including EPIPE).
long SendSome(int fd, const char* data, std::size_t n);

/// recv(). Returns bytes read, 0 on EAGAIN, -1 on EOF or a fatal error.
long RecvSome(int fd, char* buf, std::size_t n);

void CloseFd(int fd);

/// Raise the process soft RLIMIT_NOFILE toward `need` (capped at the hard
/// limit). Returns the resulting soft limit. The 4k-session bench and the
/// daemon call this so thousands of concurrent AGENT sockets do not trip
/// the default 1024-fd soft limit.
long RaiseFdLimit(long need);

/// RAII fd owner for tests and clients.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { reset(); }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ != kBadFd; }
  int release() {
    const int fd = fd_;
    fd_ = kBadFd;
    return fd;
  }
  void reset(int fd = kBadFd) {
    if (fd_ != kBadFd) CloseFd(fd_);
    fd_ = fd;
  }

 private:
  int fd_ = kBadFd;
};

}  // namespace themis::net
