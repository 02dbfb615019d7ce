// Minimal blocking Unix-domain stream sockets with newline-delimited
// framing — the transport under serve/ (the ahs_server daemon and its
// clients).  Local-only by design: the service schedules *processes* on
// this machine, so a filesystem socket gives authentication (directory
// permissions) and naming for free, and the JSON protocol stays a plain
// `nc -U`-able line stream for debugging.
//
// Framing: one message per '\n'-terminated line (the payloads are the
// single-line JSON documents of serve/protocol.h, which never contain a
// raw newline — the util/json emitter escapes control characters).
#pragma once

#include <atomic>
#include <cstddef>
#include <string>

namespace util {

/// A connected stream socket.  Movable, not copyable; closes on destroy.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to a listening Unix-domain socket.  Throws IoError when the
  /// path does not exist or nothing is listening.
  static Socket connect_unix(const std::string& path);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes `line` plus a terminating '\n' (the line itself must not
  /// contain one).  Returns false when the peer has gone away (EPIPE /
  /// ECONNRESET) — never raises SIGPIPE.
  bool send_line(const std::string& line);

  /// Longest line recv_line accepts, for requests and replies alike.  The
  /// largest shipped grid (fig12's 15 points) sends a 6.7 KB submit and,
  /// even over the 5-point trip-duration grid, gets a 7.8 KB reply back.  A
  /// request costs about 450 B a point; a reply about 300 B a point plus
  /// 53 B a (point, time) pair, so a reply reaches this cap only past
  /// 300 000 such pairs.
  static constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;

  /// Reads up to the next '\n' (stripped).  Returns false on EOF with no
  /// buffered data; throws IoError on hard errors and on a line longer
  /// than kMaxLineBytes (the stream's framing is lost: close it).
  bool recv_line(std::string* line);

  void close();

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the last returned line
};

/// A bound + listening Unix-domain socket.  Removes a stale socket file on
/// bind and unlinks it again on destroy.
class UnixListener {
 public:
  explicit UnixListener(const std::string& path);
  ~UnixListener();

  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Blocking accept.  Returns an invalid Socket once close() has been
  /// called (the shutdown path), throws IoError on other failures.
  Socket accept_connection();

  /// Unblocks a concurrent accept_connection() and invalidates the
  /// listener.  Safe to call from another thread; idempotent.
  void close();

  const std::string& path() const { return path_; }

 private:
  /// Atomic: close() runs on another thread than a blocked accept.
  std::atomic<int> fd_{-1};
  std::string path_;
};

}  // namespace util
