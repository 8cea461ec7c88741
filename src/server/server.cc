#include "src/server/server.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <set>
#include <utility>

#include "src/backup/backup_store.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"
#include "src/obs/trace.h"
#include "src/server/frame_wait.h"

namespace tdb::server {

namespace {

// How long a session worker sleeps in Recv before re-checking the stop flag
// and the idle clock; bounds shutdown latency, not request latency.
constexpr std::chrono::milliseconds kRecvPollInterval{200};

// How long a hand-off cut-over waits for in-flight transactions to drain
// before giving up (the partition resumes serving on timeout).
constexpr std::chrono::milliseconds kDrainTimeout{5000};

double MicrosBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

ObjectStoreOptions StoreOptions(const TdbServerOptions& options) {
  ObjectStoreOptions out;
  out.lock_timeout = options.lock_timeout;
  out.cache_capacity = options.cache_capacity;
  out.group_commit = options.group_commit;
  return out;
}

// Hand-off streams travel as wire payloads, not archive files; these adapt
// a Bytes buffer to the archival sink/source interfaces.
class BytesSink : public ArchivalSink {
 public:
  Status Write(ByteView data) override {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
    return OkStatus();
  }
  Status Close() override { return OkStatus(); }
  Bytes Take() { return std::move(buffer_); }

 private:
  Bytes buffer_;
};

class BytesSource : public ArchivalSource {
 public:
  explicit BytesSource(ByteView data) : data_(data) {}
  Result<Bytes> Read(size_t n) override {
    n = std::min(n, data_.size() - pos_);
    Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
    pos_ += n;
    return out;
  }

 private:
  ByteView data_;
  size_t pos_ = 0;
};

uint64_t RandomSetId() {
  static std::atomic<uint64_t> salt{0};
  Rng rng(static_cast<uint64_t>(
              std::chrono::steady_clock::now().time_since_epoch().count()) ^
          (salt.fetch_add(1) << 32));
  return rng.NextU64();
}

}  // namespace

TdbServer::TdbServer(ChunkStore* chunks, PartitionId partition,
                     const TypeRegistry* registry, TdbServerOptions options)
    : chunks_(chunks),
      registry_(registry),
      options_(options),
      engines_(chunks, registry, StoreOptions(options)) {
  // A missing partition surfaces as kNotFound on the first begin.
  (void)engines_.Add(partition);
}

TdbServer::TdbServer(ChunkStore* chunks, shard::PartitionDirectory* directory,
                     const TypeRegistry* registry, TdbServerOptions options)
    : chunks_(chunks),
      registry_(registry),
      options_(options),
      engines_(chunks, registry, StoreOptions(options)),
      directory_(directory) {
  for (const shard::PartitionEntry& entry : directory_->List()) {
    if (!entry.moved) {
      (void)engines_.Add(entry.id);
    }
  }
}

TdbServer::~TdbServer() { Stop(); }

Status TdbServer::Start(net::Transport* transport, const std::string& address) {
  if (started_) {
    return FailedPreconditionError("server already started");
  }
  if (options_.max_sessions == 0) {
    return InvalidArgumentError("max_sessions must be positive");
  }
  TDB_ASSIGN_OR_RETURN(listener_, transport->Listen(address));
  workers_ = std::make_unique<ThreadPool>(options_.max_sessions);
  stop_.store(false, std::memory_order_release);
  started_ = true;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return OkStatus();
}

void TdbServer::Stop() {
  if (!started_) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  listener_->Shutdown();
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  {
    // Unblock every session worker parked in Recv; each aborts its open
    // transaction on the way out.
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& [id, conn] : live_sessions_) {
      conn->Close();
    }
  }
  workers_.reset();  // joins the session workers (runs any never-started task)
  listener_.reset();
  started_ = false;
}

std::string TdbServer::address() const {
  return listener_ != nullptr ? listener_->address() : std::string();
}

void TdbServer::PublishGauges() {
  {
    // The gauge changes under sessions_mu_ wherever a session opens or
    // closes, so a refresh cannot set it back.
    std::lock_guard<std::mutex> lock(sessions_mu_);
    obs::SetGauge("server.sessions.active",
                  static_cast<double>(live_sessions_.size()));
  }
  std::vector<std::shared_ptr<shard::PartitionEngine>> engines =
      engines_.Engines();
  obs::SetGauge("shard.partitions", static_cast<double>(engines.size()));
  std::set<std::string> published;
  auto publish = [&](const std::string& name, double value) {
    obs::SetGauge(name.c_str(), value);
    published.insert(name);
  };
  for (const std::shared_ptr<shard::PartitionEngine>& engine : engines) {
    const std::string prefix =
        "shard.partition." + std::to_string(engine->partition());
    publish(prefix + ".sessions", static_cast<double>(engine->active_txns()));
    publish(prefix + ".commits",
            static_cast<double>(engine->store()->write_commits()));
    publish(prefix + ".state", static_cast<double>(engine->state()));
  }
  // A dropped or moved partition's gauges would otherwise read on as if it
  // were still served.
  obs::MetricsRegistry::Instance().EraseGauges("shard.partition.", published);
  obs::SetGauge("server.group_commit.queue_depth",
                static_cast<double>(engines_.commit_queue_depth()));
  // ChunkStore::GetStats publishes the chunk gauges (live/used log bytes)
  // as a side effect.
  (void)chunks_->GetStats();
}

void TdbServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    Result<std::unique_ptr<net::Connection>> accepted =
        listener_->Accept(kRecvPollInterval);
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kTimeout) {
        continue;
      }
      return;  // listener shut down (or died); Stop joins us
    }
    std::shared_ptr<net::Connection> conn(std::move(*accepted));
    bool busy = false;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      busy = live_sessions_.size() >= options_.max_sessions;
    }
    if (busy) {
      obs::Count("server.sessions.rejected");
      // Backpressure: answer the session's first request with a busy status
      // before any worker is committed to it.
      (void)conn->Send(
          EncodeResponses({ResponseFromStatus(FailedPreconditionError(
              "server busy: session limit reached"))}),
          options_.io_timeout);
      conn->Close();
      continue;
    }
    workers_->Submit([this, conn]() mutable { ServeSession(std::move(conn)); });
  }
}

void TdbServer::FinishTxn(Session& session) {
  session.txn.reset();
  if (session.engine != nullptr) {
    session.engine->TxnFinished();
    session.engine.reset();
  }
}

void TdbServer::AbortTxn(Session& session) {
  if (session.txn != nullptr && session.txn->active()) {
    session.txn->Abort();
  }
  FinishTxn(session);
}

void TdbServer::ServeSession(std::shared_ptr<net::Connection> conn) {
  Session session;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    session.id = next_session_id_++;
    live_sessions_[session.id] = conn.get();
    obs::SetGauge("server.sessions.active",
                  static_cast<double>(live_sessions_.size()));
  }
  obs::Count("server.sessions.opened");
  session.last_activity = std::chrono::steady_clock::now();

  const auto poll = std::min(options_.idle_timeout, kRecvPollInterval);
  FrameWait wait = FrameWait::ForSession(AffinityCpus());
  // Start of the recv stage for the next frame: the previous response's
  // send completion (or session start). Includes client think time, so it is
  // reported but never counted against the slow-request threshold.
  auto recv_start = session.last_activity;
  while (!stop_.load(std::memory_order_acquire)) {
    Result<Bytes> frame = wait.Next(*conn, poll);
    if (!frame.ok()) {
      if (frame.status().code() != StatusCode::kTimeout) {
        break;  // peer gone
      }
      if (std::chrono::steady_clock::now() - session.last_activity >=
          options_.idle_timeout) {
        obs::Count("server.idle_timeouts");
        break;  // the epilogue below aborts the transaction, freeing locks
      }
      continue;
    }
    const auto recv_end = std::chrono::steady_clock::now();
    session.last_activity = recv_end;

    Result<std::vector<Request>> requests = DecodeRequests(*frame);
    if (!requests.ok()) {
      // The stream's framing can no longer be trusted; answer and hang up.
      (void)conn->Send(
          EncodeResponses({ResponseFromStatus(requests.status())}),
          options_.io_timeout);
      break;
    }
    // Run the frame's requests in order until the first failure; each one's
    // own handle time feeds its per-op histogram.
    std::vector<Response> responses;
    std::vector<double> op_us;
    responses.reserve(requests->size());
    op_us.reserve(requests->size());
    auto op_start = recv_end;
    for (const Request& request : *requests) {
      obs::Count("server.requests");
      responses.push_back(Handle(session, request));
      const auto op_end = std::chrono::steady_clock::now();
      op_us.push_back(MicrosBetween(op_start, op_end));
      op_start = op_end;
      if (responses.back().code != StatusCode::kOk) {
        break;
      }
    }
    // A client that sent a commit or an abort treats its transaction as
    // over whatever the answer, so a frame that failed before its last
    // request ran finishes the transaction here, as a failed commit does.
    const Op last_op = requests->back().op;
    if (responses.back().code != StatusCode::kOk &&
        (last_op == Op::kCommit || last_op == Op::kAbort)) {
      AbortTxn(session);
    }
    const auto handle_end = std::chrono::steady_clock::now();
    const bool sent =
        conn->Send(EncodeResponses(responses), options_.io_timeout).ok();
    const auto send_end = std::chrono::steady_clock::now();

    // Per-frame span: stage histograms, plus per-op server histograms (each
    // request's handle time; the last one run also carries the send).
    const double recv_us = MicrosBetween(recv_start, recv_end);
    const double handle_us = MicrosBetween(recv_end, handle_end);
    const double send_us = MicrosBetween(handle_end, send_end);
    const size_t ran = responses.size();
    for (size_t i = 0; i < ran; ++i) {
      obs::Observe(FindOpInfo((*requests)[i].op)->server_histogram,
                   op_us[i] + (i + 1 == ran ? send_us : 0.0));
    }
    obs::Observe("wire.stage.recv_us", recv_us);
    obs::Observe("wire.stage.handle_us", handle_us);
    obs::Observe("wire.stage.send_us", send_us);
    const auto threshold = options_.slow_request_threshold;
    if (threshold.count() > 0 &&
        handle_us + send_us >= static_cast<double>(threshold.count())) {
      char detail[160];
      std::snprintf(detail, sizeof(detail),
                    "op=%s requests=%zu recv_us=%.0f handle_us=%.0f "
                    "send_us=%.0f",
                    OpName((*requests)[ran - 1].op), ran, recv_us, handle_us,
                    send_us);
      obs::TraceEmit(obs::TraceKind::kSlowRequest, "server", session.id,
                     static_cast<uint64_t>(handle_us + send_us), detail);
    }
    if (!sent) {
      break;
    }
    recv_start = send_end;
  }

  AbortTxn(session);
  conn->Close();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    live_sessions_.erase(session.id);
    obs::SetGauge("server.sessions.active",
                  static_cast<double>(live_sessions_.size()));
  }
  obs::Count("server.sessions_closed");
}

Response TdbServer::HandleBegin(Session& session, const Request& request) {
  if (session.txn != nullptr && session.txn->active()) {
    return ResponseFromStatus(
        FailedPreconditionError("transaction already open"));
  }
  std::shared_ptr<shard::PartitionEngine> engine;
  if (request.partition == 0) {
    engine = engines_.Solo();
    if (engine == nullptr) {
      return ResponseFromStatus(InvalidArgumentError(
          "server serves " + std::to_string(engines_.size()) +
          " partitions; begin must name one"));
    }
  } else {
    PartitionId pid = static_cast<PartitionId>(request.partition);
    engine = engines_.Find(pid);
    if (engine == nullptr) {
      // The "moved" redirect: a cataloged-but-moved partition tells the
      // client where it lives now; anything else is unknown.
      if (directory_ != nullptr) {
        Result<shard::PartitionEntry> entry = directory_->Find(pid);
        if (entry.ok() && entry->moved) {
          return ResponseFromStatus(MovedError(entry->moved_to));
        }
      }
      return ResponseFromStatus(
          NotFoundError("unknown partition " + std::to_string(pid)));
    }
  }
  Result<std::unique_ptr<Transaction>> txn =
      request.op == Op::kBegin ? engine->Begin() : engine->BeginReadOnly();
  if (!txn.ok()) {
    return ResponseFromStatus(txn.status());
  }
  session.engine = std::move(engine);
  session.txn = std::move(*txn);
  Response response;
  response.object_id = session.txn->id();
  return response;
}

Result<Bytes> TdbServer::ExportPartition(PartitionId partition,
                                         PartitionId base,
                                         PartitionId* snapshot_out) {
  BackupStore backup(chunks_);
  BytesSink sink;
  TDB_ASSIGN_OR_RETURN(
      BackupStore::CreateResult created,
      backup.CreateBackupSet({{partition, base}}, RandomSetId(),
                             static_cast<uint64_t>(std::time(nullptr)),
                             &sink));
  {
    std::lock_guard<std::mutex> lock(handoff_mu_);
    handoff_snapshots_[partition].push_back(created.snapshots[0]);
  }
  if (snapshot_out != nullptr) {
    *snapshot_out = created.snapshots[0];
  }
  return sink.Take();
}

void TdbServer::DropHandoffSnapshots(PartitionId partition) {
  std::vector<PartitionId> snapshots;
  {
    std::lock_guard<std::mutex> lock(handoff_mu_);
    auto it = handoff_snapshots_.find(partition);
    if (it == handoff_snapshots_.end()) {
      return;
    }
    snapshots = std::move(it->second);
    handoff_snapshots_.erase(it);
  }
  ChunkStore::Batch batch;
  for (PartitionId snapshot : snapshots) {
    if (chunks_->PartitionExists(snapshot)) {
      batch.DeallocatePartition(snapshot);
    }
  }
  (void)chunks_->Commit(std::move(batch));
}

Response TdbServer::HandleAdmin(const Request& request) {
  const PartitionId pid = static_cast<PartitionId>(request.partition);
  switch (request.op) {
    case Op::kPartitionCreate: {
      if (directory_ == nullptr) {
        return ResponseFromStatus(FailedPreconditionError(
            "server has no partition directory (single-partition mode)"));
      }
      if (options_.new_partition_params.key.empty()) {
        return ResponseFromStatus(FailedPreconditionError(
            "server has no key configured for new partitions"));
      }
      Result<shard::PartitionEntry> entry = directory_->Create(
          StringFromBytes(request.object), options_.new_partition_params);
      if (!entry.ok()) {
        return ResponseFromStatus(entry.status());
      }
      Result<std::shared_ptr<shard::PartitionEngine>> engine =
          engines_.Add(entry->id);
      if (!engine.ok()) {
        return ResponseFromStatus(engine.status());
      }
      Response response;
      response.object_id = entry->id;
      return response;
    }
    case Op::kPartitionDrop: {
      if (directory_ == nullptr) {
        return ResponseFromStatus(FailedPreconditionError(
            "server has no partition directory (single-partition mode)"));
      }
      const std::string name = StringFromBytes(request.object);
      Result<shard::PartitionEntry> entry = directory_->Lookup(name);
      if (!entry.ok()) {
        return ResponseFromStatus(entry.status());
      }
      // Unroute first so no new transaction can begin on a partition whose
      // chunks are about to be deallocated; in-flight ones fail on commit.
      (void)engines_.Remove(entry->id);
      DropHandoffSnapshots(entry->id);
      return ResponseFromStatus(directory_->Drop(name));
    }
    case Op::kPartitionList: {
      if (directory_ == nullptr) {
        return ResponseFromStatus(FailedPreconditionError(
            "server has no partition directory (single-partition mode)"));
      }
      Response response;
      response.object = shard::PickleEntryList(directory_->List());
      return response;
    }
    case Op::kPartitionLookup: {
      if (directory_ == nullptr) {
        return ResponseFromStatus(FailedPreconditionError(
            "server has no partition directory (single-partition mode)"));
      }
      Result<shard::PartitionEntry> entry =
          directory_->Lookup(StringFromBytes(request.object));
      if (!entry.ok()) {
        return ResponseFromStatus(entry.status());
      }
      Response response;
      response.object_id = entry->id;
      response.object = shard::PickleEntryList({*entry});
      return response;
    }
    case Op::kHandoffExport: {
      if (engines_.Find(pid) == nullptr) {
        return ResponseFromStatus(
            NotFoundError("partition " + std::to_string(pid) +
                          " is not served here"));
      }
      const PartitionId base = static_cast<PartitionId>(request.object_id);
      PartitionId snapshot = 0;
      Result<Bytes> stream = ExportPartition(pid, base, &snapshot);
      if (!stream.ok()) {
        return ResponseFromStatus(stream.status());
      }
      if (base == 0) {
        obs::TraceEmit(obs::TraceKind::kPartitionHandoffBegin, "shard", pid,
                       snapshot);
      }
      Response response;
      response.object_id = snapshot;
      response.object = std::move(*stream);
      return response;
    }
    case Op::kHandoffImport: {
      std::lock_guard<std::mutex> lock(handoff_mu_);
      Bytes& staged = staged_imports_[pid];
      if (request.object_id == 0) {
        // A full stream restarts the staging buffer: the chain is rebuilt
        // from scratch (retry after a torn stream or coordinator restart).
        staged.clear();
      }
      staged.insert(staged.end(), request.object.begin(),
                    request.object.end());
      return Response{};
    }
    case Op::kHandoffCutover: {
      std::shared_ptr<shard::PartitionEngine> engine = engines_.Find(pid);
      if (engine == nullptr) {
        return ResponseFromStatus(
            NotFoundError("partition " + std::to_string(pid) +
                          " is not served here"));
      }
      const std::string target = StringFromBytes(request.object);
      Status status = engine->StartDraining(target);
      if (!status.ok()) {
        return ResponseFromStatus(status);
      }
      if (!engine->WaitDrained(kDrainTimeout)) {
        (void)engine->ResumeServing();
        return ResponseFromStatus(TimeoutError(
            "partition " + std::to_string(pid) +
            " did not drain within the cut-over window; still serving"));
      }
      // Drained and not admitting: this incremental is the partition's
      // final state. The engine stays draining (clients are redirected via
      // its moved_to) until kHandoffFinish persists the move.
      const PartitionId base = static_cast<PartitionId>(request.object_id);
      PartitionId snapshot = 0;
      Result<Bytes> stream = ExportPartition(pid, base, &snapshot);
      if (!stream.ok()) {
        (void)engine->ResumeServing();
        return ResponseFromStatus(stream.status());
      }
      obs::TraceEmit(obs::TraceKind::kPartitionHandoffCutover, "shard", pid,
                     snapshot, target);
      Response response;
      response.object_id = snapshot;
      response.object = std::move(*stream);
      return response;
    }
    case Op::kHandoffActivate: {
      Bytes staged;
      {
        std::lock_guard<std::mutex> lock(handoff_mu_);
        auto it = staged_imports_.find(pid);
        if (it == staged_imports_.end()) {
          return ResponseFromStatus(FailedPreconditionError(
              "no staged import for partition " + std::to_string(pid)));
        }
        staged = std::move(it->second);
        staged_imports_.erase(it);
      }
      // Apply the whole chain in one atomic restore: the partition either
      // arrives fully (and is served) or not at all — a torn stream or
      // validation failure leaves this store untouched.
      BackupStore backup(chunks_);
      BytesSource source(staged);
      Result<BackupStore::RestoreResult> restored =
          backup.RestoreStream(&source);
      if (!restored.ok()) {
        return ResponseFromStatus(restored.status());
      }
      if (directory_ != nullptr) {
        const std::string name = StringFromBytes(request.object);
        Result<shard::PartitionEntry> entry = directory_->Find(pid);
        Status cataloged = entry.ok() ? directory_->MarkServing(pid)
                                      : directory_->Adopt(pid, name).status();
        if (!cataloged.ok()) {
          return ResponseFromStatus(cataloged);
        }
      }
      Result<std::shared_ptr<shard::PartitionEngine>> engine =
          engines_.Add(pid);
      if (!engine.ok()) {
        return ResponseFromStatus(engine.status());
      }
      return Response{};
    }
    case Op::kHandoffFinish: {
      const std::string target = StringFromBytes(request.object);
      std::shared_ptr<shard::PartitionEngine> engine = engines_.Find(pid);
      if (target.empty()) {
        // Abort/rollback: reclaim ownership (the partition may have been
        // unrouted by a crashed finish) and discard the snapshot chain.
        Status status = OkStatus();
        if (engine != nullptr) {
          status = engine->ResumeServing();
        } else {
          Result<std::shared_ptr<shard::PartitionEngine>> added =
              engines_.Add(pid);
          if (!added.ok()) {
            status = added.status();
          }
        }
        if (status.ok() && directory_ != nullptr) {
          status = directory_->MarkServing(pid);
        }
        DropHandoffSnapshots(pid);
        return ResponseFromStatus(status);
      }
      if (engine != nullptr) {
        (void)engine->MarkMoved(target);
      }
      if (directory_ != nullptr) {
        Status status = directory_->MarkMoved(pid, target);
        if (!status.ok()) {
          return ResponseFromStatus(status);
        }
      }
      (void)engines_.Remove(pid);
      DropHandoffSnapshots(pid);
      obs::TraceEmit(obs::TraceKind::kPartitionHandoffComplete, "shard", pid,
                     0, target);
      return Response{};
    }
    default:
      return ResponseFromStatus(InvalidArgumentError("unhandled admin op"));
  }
}

Response TdbServer::Handle(Session& session, const Request& request) {
  switch (request.op) {
    case Op::kPing:
      return Response{};
    case Op::kBegin:
    case Op::kBeginReadOnly:
      return HandleBegin(session, request);
    case Op::kStats: {
      // Refresh every live gauge first so the snapshot a remote tdb_stats
      // renders is current, not whatever the last slow path happened to set.
      PublishGauges();
      Response response;
      response.object = PickleSnapshot(obs::TakeSnapshot());
      return response;
    }
    case Op::kStatsReset: {
      obs::ResetAll();
      return Response{};
    }
    case Op::kPartitionCreate:
    case Op::kPartitionDrop:
    case Op::kPartitionList:
    case Op::kPartitionLookup:
    case Op::kHandoffExport:
    case Op::kHandoffImport:
    case Op::kHandoffCutover:
    case Op::kHandoffActivate:
    case Op::kHandoffFinish:
      return HandleAdmin(request);
    default:
      break;
  }
  if (session.txn == nullptr || !session.txn->active()) {
    return ResponseFromStatus(
        FailedPreconditionError("no open transaction (send begin first)"));
  }

  // Validate client-supplied object ids before they reach the stores: a
  // session may only address data chunks of its transaction's partition —
  // never the system partition, another partition, or map/leader chunks.
  auto checked_id = [&](uint64_t packed) -> Result<ObjectId> {
    ObjectId id = ChunkId::Unpack(packed);
    if (id.partition != session.engine->partition() ||
        id.position.height != 0) {
      return InvalidArgumentError("object id " + id.ToString() +
                                  " is outside the session's partition");
    }
    return id;
  };

  switch (request.op) {
    case Op::kGet:
    case Op::kGetForUpdate: {
      Result<ObjectId> id = checked_id(request.object_id);
      if (!id.ok()) {
        return ResponseFromStatus(id.status());
      }
      Result<ObjectPtr> object = request.op == Op::kGet
                                     ? session.txn->Get(*id)
                                     : session.txn->GetForUpdate(*id);
      if (!object.ok()) {
        return ResponseFromStatus(object.status());
      }
      Response response;
      response.object = registry_->Pickle(**object);
      return response;
    }
    case Op::kInsert: {
      Result<ObjectPtr> object = registry_->Unpickle(request.object);
      if (!object.ok()) {
        return ResponseFromStatus(object.status());
      }
      Result<ObjectId> id = session.txn->Insert(std::move(*object));
      if (!id.ok()) {
        return ResponseFromStatus(id.status());
      }
      Response response;
      response.object_id = id->Pack();
      return response;
    }
    case Op::kPut: {
      Result<ObjectId> id = checked_id(request.object_id);
      if (!id.ok()) {
        return ResponseFromStatus(id.status());
      }
      Result<ObjectPtr> object = registry_->Unpickle(request.object);
      if (!object.ok()) {
        return ResponseFromStatus(object.status());
      }
      return ResponseFromStatus(session.txn->Put(*id, std::move(*object)));
    }
    case Op::kDelete: {
      Result<ObjectId> id = checked_id(request.object_id);
      if (!id.ok()) {
        return ResponseFromStatus(id.status());
      }
      return ResponseFromStatus(session.txn->Delete(*id));
    }
    case Op::kCommit: {
      // The response is sent only after this returns, i.e. after the
      // (possibly group-) commit flushed — acknowledgement implies
      // durability.
      Status status = session.txn->Commit();
      FinishTxn(session);
      return ResponseFromStatus(status);
    }
    case Op::kAbort: {
      session.txn->Abort();
      FinishTxn(session);
      return Response{};
    }
    default:
      return ResponseFromStatus(
          InvalidArgumentError("unhandled request op"));
  }
}

}  // namespace tdb::server
