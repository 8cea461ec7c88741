#include "src/net/loopback.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <utility>

namespace tdb::net {

namespace {

// One direction of a loopback connection.
struct FrameQueue {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Bytes> frames;
  bool closed = false;
  // frames.size(), plus one once closed: nonzero exactly when Pop would
  // return at once. Written under mu; Ready reads it without the lock.
  std::atomic<size_t> ready{0};

  bool Ready() const { return ready.load() != 0; }

  Status Push(ByteView frame) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (closed) {
        return IoError("loopback connection closed");
      }
      frames.emplace_back(frame.begin(), frame.end());
      PublishReady();
    }
    cv.notify_one();
    return OkStatus();
  }

  Result<Bytes> Pop(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, timeout,
                     [this] { return !frames.empty() || closed; })) {
      return TimeoutError("loopback recv timed out");
    }
    if (frames.empty()) {  // closed and fully drained
      return IoError("loopback connection closed");
    }
    Bytes frame = std::move(frames.front());
    frames.pop_front();
    PublishReady();
    return frame;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
      PublishReady();
    }
    cv.notify_all();
  }

  // Caller holds mu.
  void PublishReady() { ready.store(frames.size() + (closed ? 1 : 0)); }
};

class LoopbackConnection final : public Connection {
 public:
  LoopbackConnection(std::shared_ptr<FrameQueue> in,
                     std::shared_ptr<FrameQueue> out, std::string peer)
      : in_(std::move(in)), out_(std::move(out)), peer_(std::move(peer)) {}

  ~LoopbackConnection() override { Close(); }

  Status Send(ByteView frame, std::chrono::milliseconds /*timeout*/) override {
    // The queue is unbounded, so a send either succeeds immediately or the
    // peer is gone; the timeout never comes into play.
    return out_->Push(frame);
  }

  Result<Bytes> Recv(std::chrono::milliseconds timeout) override {
    return in_->Pop(timeout);
  }

  bool Readable() const override { return in_->Ready(); }

  void Close() override {
    in_->Close();
    out_->Close();
  }

  std::string peer() const override { return peer_; }

 private:
  std::shared_ptr<FrameQueue> in_;
  std::shared_ptr<FrameQueue> out_;
  std::string peer_;
};

}  // namespace

struct LoopbackTransport::ListenerState {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::unique_ptr<Connection>> pending;
  bool shutdown = false;
};

struct LoopbackTransport::Registry {
  std::mutex mu;
  std::map<std::string, std::shared_ptr<ListenerState>> listeners;
};

namespace {

class LoopbackListener final : public Listener {
 public:
  LoopbackListener(std::shared_ptr<LoopbackTransport::Registry> registry,
                   std::shared_ptr<LoopbackTransport::ListenerState> state,
                   std::string address)
      : registry_(std::move(registry)),
        state_(std::move(state)),
        address_(std::move(address)) {}

  ~LoopbackListener() override { Shutdown(); }

  Result<std::unique_ptr<Connection>> Accept(
      std::chrono::milliseconds timeout) override {
    std::unique_lock<std::mutex> lock(state_->mu);
    if (!state_->cv.wait_for(lock, timeout, [this] {
          return !state_->pending.empty() || state_->shutdown;
        })) {
      return TimeoutError("accept timed out");
    }
    if (state_->shutdown) {
      return FailedPreconditionError("listener shut down");
    }
    std::unique_ptr<Connection> conn = std::move(state_->pending.front());
    state_->pending.pop_front();
    return conn;
  }

  std::string address() const override { return address_; }

  void Shutdown() override {
    {
      std::lock_guard<std::mutex> lock(registry_->mu);
      auto it = registry_->listeners.find(address_);
      if (it != registry_->listeners.end() && it->second == state_) {
        registry_->listeners.erase(it);
      }
    }
    std::deque<std::unique_ptr<Connection>> orphaned;
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->shutdown = true;
      orphaned.swap(state_->pending);
    }
    state_->cv.notify_all();
    for (auto& conn : orphaned) {
      conn->Close();  // never-accepted clients observe a closed connection
    }
  }

 private:
  std::shared_ptr<LoopbackTransport::Registry> registry_;
  std::shared_ptr<LoopbackTransport::ListenerState> state_;
  std::string address_;
};

}  // namespace

LoopbackTransport::LoopbackTransport() : registry_(std::make_shared<Registry>()) {}

LoopbackTransport::~LoopbackTransport() = default;

Result<std::unique_ptr<Listener>> LoopbackTransport::Listen(
    const std::string& address) {
  if (address.empty()) {
    return InvalidArgumentError("loopback address must be non-empty");
  }
  auto state = std::make_shared<ListenerState>();
  {
    std::lock_guard<std::mutex> lock(registry_->mu);
    auto [it, inserted] = registry_->listeners.emplace(address, state);
    if (!inserted) {
      return AlreadyExistsError("already listening on loopback:" + address);
    }
  }
  return std::unique_ptr<Listener>(
      new LoopbackListener(registry_, std::move(state), address));
}

Result<std::unique_ptr<Connection>> LoopbackTransport::Connect(
    const std::string& address, std::chrono::milliseconds /*timeout*/) {
  std::shared_ptr<ListenerState> state;
  {
    std::lock_guard<std::mutex> lock(registry_->mu);
    auto it = registry_->listeners.find(address);
    if (it == registry_->listeners.end()) {
      return NotFoundError("no loopback listener at " + address);
    }
    state = it->second;
  }
  auto client_to_server = std::make_shared<FrameQueue>();
  auto server_to_client = std::make_shared<FrameQueue>();
  auto server_side = std::make_unique<LoopbackConnection>(
      client_to_server, server_to_client, "loopback-client");
  auto client_side = std::make_unique<LoopbackConnection>(
      server_to_client, client_to_server, "loopback:" + address);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->shutdown) {
      return NotFoundError("loopback listener at " + address + " shut down");
    }
    state->pending.push_back(std::move(server_side));
  }
  state->cv.notify_one();
  return std::unique_ptr<Connection>(std::move(client_side));
}

}  // namespace tdb::net
