#include "util/socket.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "util/error.h"

namespace util {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + ::strerror(errno));
}

/// Fills a sockaddr_un for `path`, rejecting paths that do not fit the
/// fixed sun_path field (the classic silent-truncation trap).
sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw IoError("unix socket path too long (" +
                  std::to_string(path.size()) + " bytes, max " +
                  std::to_string(sizeof(addr.sun_path) - 1) + "): " + path);
  ::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

Socket Socket::connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const sockaddr_un addr = make_addr(path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect " + path);
  }
  return Socket(fd);
}

bool Socket::send_line(const std::string& line) {
  if (fd_ < 0) return false;
  std::string framed = line;
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
    // MSG_NOSIGNAL: a vanished peer must surface as a return value, not a
    // process-killing SIGPIPE.
    const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      throw_errno("send");
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Socket::recv_line(std::string* line) {
  std::size_t scanned = 0;  // prefix of buffer_ known to hold no '\n'
  for (;;) {
    const std::size_t nl = buffer_.find('\n', scanned);
    scanned = std::min(nl, buffer_.size());
    if (scanned > kMaxLineBytes)
      throw IoError("received line longer than " +
                    std::to_string(kMaxLineBytes) + " bytes");
    if (nl != std::string::npos) {
      line->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    if (fd_ < 0) return false;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) return false;
      throw_errno("recv");
    }
    if (n == 0) return false;  // EOF; an unterminated tail is discarded
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

UnixListener::UnixListener(const std::string& path) : path_(path) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  const sockaddr_un addr = make_addr(path);
  // A stale socket file from a crashed server would make bind fail with
  // EADDRINUSE even though nothing is listening; remove it first.  A *live*
  // server is not protected against — the deployment owns the path.
  ::unlink(path.c_str());
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("bind " + path);
  }
  if (::listen(fd_, 64) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    ::unlink(path.c_str());
    errno = saved;
    throw_errno("listen " + path);
  }
}

UnixListener::~UnixListener() { close(); }

Socket UnixListener::accept_connection() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    // close() from another thread lands here (EBADF / EINVAL): signal a
    // clean shutdown rather than an error.
    if (fd_ < 0 || errno == EBADF || errno == EINVAL) return Socket();
    throw_errno("accept");
  }
}

void UnixListener::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() wakes a blocked accept() on Linux; closing the fd after
    // invalidating fd_ keeps the accept loop's EBADF check race-benign.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
    ::unlink(path_.c_str());
  }
}

}  // namespace util
