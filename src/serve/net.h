// Thin RAII layer over loopback TCP sockets (POSIX).
//
// mivtx_serve binds 127.0.0.1 only — it is a local characterization
// daemon, not an internet service — so plain blocking sockets with one
// reader thread per connection are the right complexity level.  Writes use
// MSG_NOSIGNAL (a client hanging up must surface as a write error, never
// SIGPIPE), and Listener::shutdown() / Socket::shutdown_read() are the
// wake-up primitives the graceful-drain path uses to unblock accept() and
// read() without resorting to signals or polling.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace mivtx::serve {

// RAII file-descriptor wrapper.  Move-only; close on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();
  // Half-close the read side: a thread blocked in read() on this socket
  // returns 0 (EOF) while writes keep flowing.
  void shutdown_read();

  // Write the whole buffer; false on any error (peer gone, ...).
  bool write_all(std::string_view data);

 private:
  int fd_ = -1;
};

// Buffered newline-delimited reader over a socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  // Next line without its trailing '\n' (a trailing '\r' is stripped too,
  // so HTTP request lines parse cleanly).  nullopt on EOF or error.
  std::optional<std::string> read_line();

 private:
  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
};

// Listening socket on host:port; port 0 binds an ephemeral port (the
// actual one is in port()).  Throws mivtx::Error when binding fails.
class Listener {
 public:
  Listener(const std::string& host, int port);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  int port() const { return port_; }
  // Blocking accept; an invalid Socket means the listener was shut down.
  Socket accept();
  // Stop listening and wake a blocked accept(); safe to call from any
  // thread while another is inside accept().
  void shutdown();

 private:
  // Set once by the constructor and closed only by the destructor, so the
  // accepting thread never reads it while another thread writes it.
  int fd_ = -1;
  int port_ = 0;
};

// Blocking connect to host:port.  Throws mivtx::Error on failure.
Socket connect_to(const std::string& host, int port);

}  // namespace mivtx::serve
