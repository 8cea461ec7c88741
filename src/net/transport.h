// Message transport abstraction for the TDB service layer.
//
// A Transport produces Listeners (server side) and Connections (both
// sides). Connections move whole frames — one frame per request or
// response; framing (length prefixes, ordering) is the transport's job, so
// the wire format above this layer never sees partial messages.
//
// Two implementations exist:
//  * LoopbackTransport (loopback.h) — in-process queues; deterministic,
//    dependency-free, used by tests and the server bench.
//  * TcpTransport (tcp.h) — POSIX TCP with length-prefixed binary framing,
//    poll-based read/write timeouts, and graceful shutdown.
//
// Threading: a Connection supports one thread in Send concurrently with one
// thread in Recv (or Readable); Close may be called from any thread to
// unblock both.
// Listener::Accept is single-consumer; Shutdown may be called from any
// thread and unblocks a pending Accept.

#ifndef SRC_NET_TRANSPORT_H_
#define SRC_NET_TRANSPORT_H_

#include <chrono>
#include <memory>
#include <string>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace tdb::net {

class Connection {
 public:
  virtual ~Connection() = default;

  // Sends one frame. Blocks at most `timeout`; returns kTimeout if the
  // frame could not be fully handed to the transport in time (the
  // connection is then in an undefined framing state and must be closed),
  // kIoError if the peer is gone.
  virtual Status Send(ByteView frame, std::chrono::milliseconds timeout) = 0;

  // Receives the next whole frame. Returns kTimeout if none arrived within
  // `timeout` (the connection remains usable), kIoError once the peer has
  // closed and all delivered frames were consumed.
  virtual Result<Bytes> Recv(std::chrono::milliseconds timeout) = 0;

  // True when Recv would return without waiting for the peer: a frame, or
  // the first bytes of one, has arrived, or the connection is closed. Never
  // blocks, so a caller that expects an answer soon can check it for a few
  // microseconds before it parks in Recv.
  virtual bool Readable() const = 0;

  // Closes both directions and unblocks any in-flight Send/Recv on this
  // connection and, eventually, on the peer. Idempotent.
  virtual void Close() = 0;

  // Human-readable peer name for logs/metrics.
  virtual std::string peer() const = 0;
};

class Listener {
 public:
  virtual ~Listener() = default;

  // Waits up to `timeout` for an inbound connection. Returns kTimeout if
  // none arrived, kFailedPrecondition after Shutdown().
  virtual Result<std::unique_ptr<Connection>> Accept(
      std::chrono::milliseconds timeout) = 0;

  // The address clients should Connect to (with ephemeral TCP ports
  // resolved to the actually-bound port).
  virtual std::string address() const = 0;

  // Stops accepting: pending and future Accept calls return
  // kFailedPrecondition; connections not yet accepted are closed.
  // Idempotent.
  virtual void Shutdown() = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual Result<std::unique_ptr<Listener>> Listen(
      const std::string& address) = 0;

  virtual Result<std::unique_ptr<Connection>> Connect(
      const std::string& address, std::chrono::milliseconds timeout) = 0;
};

}  // namespace tdb::net

#endif  // SRC_NET_TRANSPORT_H_
