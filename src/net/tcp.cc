#include "src/net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <span>

namespace tdb::net {

namespace {

using Clock = std::chrono::steady_clock;

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

Status ParseAddress(const std::string& address, sockaddr_in* out) {
  size_t colon = address.rfind(':');
  if (colon == std::string::npos) {
    return InvalidArgumentError("tcp address must be ip:port, got \"" +
                                address + "\"");
  }
  std::string host = address.substr(0, colon);
  if (host.empty()) {
    host = "0.0.0.0";
  }
  char* end = nullptr;
  long port = std::strtol(address.c_str() + colon + 1, &end, 10);
  if (end == address.c_str() + colon + 1 || *end != '\0' || port < 0 ||
      port > 65535) {
    return InvalidArgumentError("bad tcp port in \"" + address + "\"");
  }
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &out->sin_addr) != 1) {
    return InvalidArgumentError("tcp host must be a numeric IPv4 address: \"" +
                                host + "\"");
  }
  return OkStatus();
}

std::string FormatAddress(const sockaddr_in& sa) {
  char host[INET_ADDRSTRLEN] = "?";
  inet_ntop(AF_INET, &sa.sin_addr, host, sizeof(host));
  return std::string(host) + ":" + std::to_string(ntohs(sa.sin_port));
}

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return IoError(Errno("fcntl(O_NONBLOCK)"));
  }
  return OkStatus();
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Waits for `events` on fd until `deadline`. Returns 1 when ready, 0 on
// deadline expiry, -1 on poll error (errno set).
int PollFd(int fd, short events, Clock::time_point deadline) {
  for (;;) {
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (remaining.count() < 0) {
      return 0;
    }
    pollfd p{fd, events, 0};
    int r = poll(&p, 1, static_cast<int>(remaining.count()) + 1);
    if (r < 0 && errno == EINTR) {
      continue;
    }
    if (r == 0) {
      continue;  // re-check the deadline
    }
    return r;
  }
}

class TcpConnection final : public Connection {
 public:
  TcpConnection(int fd, std::string peer) : fd_(fd), peer_(std::move(peer)) {}

  ~TcpConnection() override {
    Close();
    ::close(fd_);
  }

  Status Send(ByteView frame, std::chrono::milliseconds timeout) override {
    if (frame.size() > kMaxFrameBytes) {
      return InvalidArgumentError("tcp frame exceeds kMaxFrameBytes");
    }
    auto deadline = Clock::now() + timeout;
    uint8_t header[4] = {static_cast<uint8_t>(frame.size() >> 24),
                         static_cast<uint8_t>(frame.size() >> 16),
                         static_cast<uint8_t>(frame.size() >> 8),
                         static_cast<uint8_t>(frame.size())};
    // Header and body go out in one call, so with TCP_NODELAY a small frame
    // leaves as one segment and the peer never wakes for the header alone.
    iovec parts[2] = {{header, sizeof(header)},
                      {const_cast<uint8_t*>(frame.data()), frame.size()}};
    return WriteAll(parts, deadline);
  }

  Result<Bytes> Recv(std::chrono::milliseconds timeout) override {
    auto deadline = Clock::now() + timeout;
    uint8_t header[4];
    // A timeout before the first header byte leaves the stream intact and
    // is reported as kTimeout; a stall mid-frame breaks framing and is an
    // I/O error.
    TDB_RETURN_IF_ERROR(
        ReadAll(header, sizeof(header), deadline, /*idle_ok=*/true));
    uint32_t len = static_cast<uint32_t>(header[0]) << 24 |
                   static_cast<uint32_t>(header[1]) << 16 |
                   static_cast<uint32_t>(header[2]) << 8 |
                   static_cast<uint32_t>(header[3]);
    if (len > kMaxFrameBytes) {
      return CorruptionError("tcp frame length " + std::to_string(len) +
                             " exceeds the " +
                             std::to_string(kMaxFrameBytes) + "-byte cap");
    }
    Bytes body(len);
    TDB_RETURN_IF_ERROR(ReadAll(body.data(), len, deadline, /*idle_ok=*/false));
    return body;
  }

  bool Readable() const override {
    pollfd p{fd_, POLLIN, 0};
    return ::poll(&p, 1, 0) > 0;  // data, end of stream, or an error
  }

  void Close() override {
    if (!closed_.exchange(true)) {
      // Half-close both directions; the fd itself stays open until the
      // destructor so a concurrent Send/Recv never races a reused fd.
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

  std::string peer() const override { return peer_; }

 private:
  // Writes every byte of `parts` in order. A sendmsg may take any prefix;
  // `parts` is advanced past it.
  Status WriteAll(std::span<iovec> parts, Clock::time_point deadline) {
    while (!parts.empty()) {
      msghdr msg{};
      msg.msg_iov = parts.data();
      msg.msg_iovlen = parts.size();
      ssize_t w = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
      if (w > 0) {
        size_t sent = static_cast<size_t>(w);
        while (!parts.empty() && sent >= parts.front().iov_len) {
          sent -= parts.front().iov_len;
          parts = parts.subspan(1);
        }
        if (sent > 0) {
          parts.front().iov_base =
              static_cast<uint8_t*>(parts.front().iov_base) + sent;
          parts.front().iov_len -= sent;
        }
        continue;
      }
      if (w < 0 && errno == EINTR) {
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        int r = PollFd(fd_, POLLOUT, deadline);
        if (r == 0) {
          return TimeoutError("tcp send timed out");
        }
        if (r < 0) {
          return IoError(Errno("poll"));
        }
        continue;
      }
      return IoError(Errno("tcp send"));
    }
    return OkStatus();
  }

  Status ReadAll(uint8_t* data, size_t n, Clock::time_point deadline,
                 bool idle_ok) {
    size_t off = 0;
    while (off < n) {
      ssize_t r = ::recv(fd_, data + off, n - off, 0);
      if (r > 0) {
        off += static_cast<size_t>(r);
        continue;
      }
      if (r == 0) {
        return off == 0 && idle_ok
                   ? IoError("tcp connection closed by peer")
                   : IoError("tcp connection closed mid-frame");
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        int p = PollFd(fd_, POLLIN, deadline);
        if (p == 0) {
          return off == 0 && idle_ok ? TimeoutError("tcp recv timed out")
                                     : IoError("tcp recv stalled mid-frame");
        }
        if (p < 0) {
          return IoError(Errno("poll"));
        }
        continue;
      }
      return IoError(Errno("tcp recv"));
    }
    return OkStatus();
  }

  int fd_;
  std::atomic<bool> closed_{false};
  std::string peer_;
};

class TcpListener final : public Listener {
 public:
  TcpListener(int fd, int wake_rd, int wake_wr, std::string address)
      : fd_(fd), wake_rd_(wake_rd), wake_wr_(wake_wr),
        address_(std::move(address)) {}

  ~TcpListener() override {
    Shutdown();
    ::close(fd_);
    ::close(wake_rd_);
    ::close(wake_wr_);
  }

  Result<std::unique_ptr<Connection>> Accept(
      std::chrono::milliseconds timeout) override {
    auto deadline = Clock::now() + timeout;
    for (;;) {
      if (shutdown_.load(std::memory_order_acquire)) {
        return FailedPreconditionError("listener shut down");
      }
      pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_rd_, POLLIN, 0}};
      auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (remaining.count() < 0) {
        return TimeoutError("accept timed out");
      }
      int r = poll(fds, 2, static_cast<int>(remaining.count()) + 1);
      if (r < 0 && errno == EINTR) {
        continue;
      }
      if (r < 0) {
        return IoError(Errno("poll"));
      }
      if (r == 0) {
        continue;  // re-check deadline / shutdown
      }
      if (fds[1].revents != 0) {
        return FailedPreconditionError("listener shut down");
      }
      sockaddr_in sa{};
      socklen_t salen = sizeof(sa);
      int cfd = ::accept(fd_, reinterpret_cast<sockaddr*>(&sa), &salen);
      if (cfd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
            errno == ECONNABORTED) {
          continue;
        }
        return IoError(Errno("accept"));
      }
      Status nb = SetNonBlocking(cfd);
      if (!nb.ok()) {
        ::close(cfd);
        return nb;
      }
      SetNoDelay(cfd);
      return std::unique_ptr<Connection>(
          new TcpConnection(cfd, FormatAddress(sa)));
    }
  }

  std::string address() const override { return address_; }

  void Shutdown() override {
    if (!shutdown_.exchange(true, std::memory_order_acq_rel)) {
      uint8_t byte = 1;
      (void)!::write(wake_wr_, &byte, 1);
    }
  }

 private:
  int fd_;
  int wake_rd_;
  int wake_wr_;
  std::string address_;
  std::atomic<bool> shutdown_{false};
};

}  // namespace

Result<std::unique_ptr<Listener>> TcpTransport::Listen(
    const std::string& address) {
  sockaddr_in sa{};
  TDB_RETURN_IF_ERROR(ParseAddress(address, &sa));
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return IoError(Errno("socket"));
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0 ||
      ::listen(fd, 128) < 0) {
    Status s = IoError(Errno("bind/listen"));
    ::close(fd);
    return s;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    Status s = IoError(Errno("getsockname"));
    ::close(fd);
    return s;
  }
  Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }
  int wake[2];
  if (::pipe(wake) < 0) {
    Status s = IoError(Errno("pipe"));
    ::close(fd);
    return s;
  }
  return std::unique_ptr<Listener>(
      new TcpListener(fd, wake[0], wake[1], FormatAddress(bound)));
}

Result<std::unique_ptr<Connection>> TcpTransport::Connect(
    const std::string& address, std::chrono::milliseconds timeout) {
  sockaddr_in sa{};
  TDB_RETURN_IF_ERROR(ParseAddress(address, &sa));
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return IoError(Errno("socket"));
  }
  Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    if (errno != EINPROGRESS) {
      Status s = IoError(Errno("connect"));
      ::close(fd);
      return s;
    }
    int r = PollFd(fd, POLLOUT, Clock::now() + timeout);
    if (r <= 0) {
      ::close(fd);
      return r == 0 ? TimeoutError("tcp connect timed out")
                    : IoError(Errno("poll"));
    }
    int err = 0;
    socklen_t errlen = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &errlen) < 0 || err != 0) {
      ::close(fd);
      errno = err != 0 ? err : errno;
      return IoError(Errno("connect"));
    }
  }
  SetNoDelay(fd);
  return std::unique_ptr<Connection>(new TcpConnection(fd, address));
}

}  // namespace tdb::net
