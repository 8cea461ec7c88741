#include "src/server/client.h"

#include <thread>

#include "src/common/bytes.h"
#include "src/obs/metrics.h"

namespace tdb::server {

namespace {

bool IsBegin(Op op) { return op == Op::kBegin || op == Op::kBeginReadOnly; }

// Bytes a queued request adds to the frame besides its object: the op byte
// and three varints (partition, object id, object length) of at most ten
// bytes each.
constexpr size_t kRequestOverheadBytes = 31;

// The pending byte bound also keeps a frame under the server's request cap.
static_assert(TdbClient::kMaxPendingBytes / kRequestOverheadBytes + 1 <=
              kMaxFrameRequests);

// How long a client polls for the answer to its frame before it parks in
// Recv. A parked client pays a thread wake-up when the answer comes, and on
// a VM that is dear: on a 4-vCPU x86-64 VM a condition-variable ping-pong
// (two wake-ups) took 3.8-28 us per round trip with one pair of threads
// and 7-21 us with four, over five runs. There the server answers a
// one-put write frame in 14 us at p50 and about 30 us at p90 (handle +
// send, ycsb-a-wire, 4 clients), so most answers land inside the budget,
// and a slower one (a lock wait, a group-commit flush) costs at most the
// budget in client CPU.
constexpr std::chrono::microseconds kAnswerPollBudget{40};
// The poll yields the CPU this often, so a server thread that shares the
// client's CPU is never kept waiting behind it.
constexpr std::chrono::microseconds kPollSlice{2};

// A spin-wait hint: on x86 it frees the core's pipeline for a sibling
// hyperthread; elsewhere the loop spins plainly.
void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Waits for the answer to the frame just sent on `conn`: polls for up to
// kAnswerPollBudget, then parks in Recv. Only the client polls. It waits
// for a server that already has its frame, while a server session waits
// for the client's think time, which can be long.
Result<Bytes> AwaitAnswer(net::Connection& conn,
                          std::chrono::milliseconds timeout) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  auto slice_end = start + kPollSlice;
  while (!conn.Readable()) {
    const auto now = Clock::now();
    if (now - start >= kAnswerPollBudget) {
      break;
    }
    if (now >= slice_end) {
      std::this_thread::yield();
      slice_end = Clock::now() + kPollSlice;
    } else {
      CpuRelax();
    }
  }
  return conn.Recv(timeout);
}

}  // namespace

TdbClient::TdbClient(const TypeRegistry* registry, TdbClientOptions options)
    : registry_(registry), options_(options) {}

TdbClient::~TdbClient() { Disconnect(); }

Status TdbClient::Connect(net::Transport* transport,
                          const std::string& address) {
  if (conn_ != nullptr) {
    return FailedPreconditionError("client already connected");
  }
  TDB_ASSIGN_OR_RETURN(conn_,
                       transport->Connect(address, options_.connect_timeout));
  return OkStatus();
}

void TdbClient::Disconnect() {
  if (conn_ != nullptr) {
    conn_->Close();
    conn_.reset();
  }
  in_transaction_ = false;
  pending_.clear();
  pending_bytes_ = 0;
}

Status TdbClient::Queue(Request request) {
  const size_t bytes = kRequestOverheadBytes + request.object.size();
  if (!pending_.empty() && pending_bytes_ + bytes > kMaxPendingBytes) {
    TDB_ASSIGN_OR_RETURN(Response response, SendPending());
    TDB_RETURN_IF_ERROR(StatusFromResponse(response));
  }
  pending_bytes_ += bytes;
  pending_.push_back(std::move(request));
  return OkStatus();
}

Result<Response> TdbClient::SendPending() {
  std::vector<Request> requests = std::move(pending_);
  pending_.clear();
  pending_bytes_ = 0;
  // Client-side span: the full round trip (send + server + recv), one per
  // frame, named after the frame's last op.
  obs::LatencyTimer timer(FindOpInfo(requests.back().op)->client_histogram);
  TDB_RETURN_IF_ERROR(
      conn_->Send(EncodeRequests(requests), options_.request_timeout));
  TDB_ASSIGN_OR_RETURN(Bytes frame,
                       AwaitAnswer(*conn_, options_.request_timeout));
  TDB_ASSIGN_OR_RETURN(std::vector<Response> responses,
                       DecodeResponses(frame));
  // The server runs requests until the first failure: every response but
  // the last is a success, and only a failure may end the frame early.
  const size_t last = responses.size() - 1;
  if (responses.size() > requests.size() ||
      (responses.size() < requests.size() &&
       responses[last].code == StatusCode::kOk)) {
    return CorruptionError("response frame answers " +
                           std::to_string(responses.size()) + " of " +
                           std::to_string(requests.size()) + " requests");
  }
  if (responses[last].code != StatusCode::kOk && IsBegin(requests[last].op)) {
    in_transaction_ = false;  // no transaction was opened
  }
  return std::move(responses[last]);
}

Result<Response> TdbClient::RoundTrip(Request request) {
  if (conn_ == nullptr) {
    return FailedPreconditionError("client is not connected");
  }
  // No size check here: sent on its own, a queue that fails would leave the
  // server's transaction open behind a Commit that ends the client's.
  pending_.push_back(std::move(request));
  return SendPending();
}

Status TdbClient::Ping() {
  TDB_ASSIGN_OR_RETURN(Response response, RoundTrip(Request{.op = Op::kPing}));
  return StatusFromResponse(response);
}

Status TdbClient::BeginInternal(Op op, PartitionId partition) {
  if (conn_ == nullptr) {
    return FailedPreconditionError("client is not connected");
  }
  if (in_transaction_) {
    return FailedPreconditionError("transaction already open");
  }
  in_transaction_ = true;
  return Queue(Request{.op = op, .partition = partition});
}

Status TdbClient::Begin(PartitionId partition) {
  return BeginInternal(Op::kBegin, partition);
}

Status TdbClient::BeginReadOnly(PartitionId partition) {
  return BeginInternal(Op::kBeginReadOnly, partition);
}

Status TdbClient::Commit() {
  Result<Response> response = RoundTrip(Request{.op = Op::kCommit});
  // Success or not, the server-side transaction is finished.
  in_transaction_ = false;
  return response.ok() ? StatusFromResponse(*response) : response.status();
}

Status TdbClient::Abort() {
  const bool unseen = !pending_.empty() && IsBegin(pending_[0].op);
  // The queued puts die with the transaction either way.
  pending_.clear();
  pending_bytes_ = 0;
  if (unseen) {
    in_transaction_ = false;
    return OkStatus();  // the server never saw this transaction
  }
  Result<Response> response = RoundTrip(Request{.op = Op::kAbort});
  in_transaction_ = false;
  return response.ok() ? StatusFromResponse(*response) : response.status();
}

Result<ObjectPtr> TdbClient::GetInternal(ObjectId id, Op op) {
  Request request;
  request.op = op;
  request.object_id = id.Pack();
  TDB_ASSIGN_OR_RETURN(Response response, RoundTrip(std::move(request)));
  TDB_RETURN_IF_ERROR(StatusFromResponse(response));
  return registry_->Unpickle(response.object);
}

Result<ObjectPtr> TdbClient::Get(ObjectId id) {
  return GetInternal(id, Op::kGet);
}

Result<ObjectPtr> TdbClient::GetForUpdate(ObjectId id) {
  return GetInternal(id, Op::kGetForUpdate);
}

Result<ObjectId> TdbClient::Insert(const Pickled& object) {
  Request request;
  request.op = Op::kInsert;
  request.object = registry_->Pickle(object);
  TDB_ASSIGN_OR_RETURN(Response response, RoundTrip(std::move(request)));
  TDB_RETURN_IF_ERROR(StatusFromResponse(response));
  return ChunkId::Unpack(response.object_id);
}

Status TdbClient::Put(ObjectId id, const Pickled& object) {
  if (!in_transaction_) {
    return FailedPreconditionError("no open transaction (send begin first)");
  }
  Request request;
  request.op = Op::kPut;
  request.object_id = id.Pack();
  request.object = registry_->Pickle(object);
  return Queue(std::move(request));
}

Status TdbClient::Delete(ObjectId id) {
  Request request;
  request.op = Op::kDelete;
  request.object_id = id.Pack();
  TDB_ASSIGN_OR_RETURN(Response response, RoundTrip(std::move(request)));
  return StatusFromResponse(response);
}

Result<obs::StatsSnapshot> TdbClient::FetchStats() {
  TDB_ASSIGN_OR_RETURN(Response response, RoundTrip(Request{.op = Op::kStats}));
  TDB_RETURN_IF_ERROR(StatusFromResponse(response));
  return UnpickleSnapshot(response.object);
}

Status TdbClient::ResetStats() {
  TDB_ASSIGN_OR_RETURN(Response response,
                       RoundTrip(Request{.op = Op::kStatsReset}));
  return StatusFromResponse(response);
}

Result<PartitionId> TdbClient::PartitionCreate(const std::string& name) {
  Request request;
  request.op = Op::kPartitionCreate;
  request.object = BytesFromString(name);
  TDB_ASSIGN_OR_RETURN(Response response, RoundTrip(std::move(request)));
  TDB_RETURN_IF_ERROR(StatusFromResponse(response));
  return static_cast<PartitionId>(response.object_id);
}

Status TdbClient::PartitionDrop(const std::string& name) {
  Request request;
  request.op = Op::kPartitionDrop;
  request.object = BytesFromString(name);
  TDB_ASSIGN_OR_RETURN(Response response, RoundTrip(std::move(request)));
  return StatusFromResponse(response);
}

Result<std::vector<shard::PartitionEntry>> TdbClient::PartitionList() {
  TDB_ASSIGN_OR_RETURN(Response response,
                       RoundTrip(Request{.op = Op::kPartitionList}));
  TDB_RETURN_IF_ERROR(StatusFromResponse(response));
  return shard::UnpickleEntryList(response.object);
}

Result<shard::PartitionEntry> TdbClient::PartitionLookup(
    const std::string& name) {
  Request request;
  request.op = Op::kPartitionLookup;
  request.object = BytesFromString(name);
  TDB_ASSIGN_OR_RETURN(Response response, RoundTrip(std::move(request)));
  TDB_RETURN_IF_ERROR(StatusFromResponse(response));
  TDB_ASSIGN_OR_RETURN(std::vector<shard::PartitionEntry> entries,
                       shard::UnpickleEntryList(response.object));
  if (entries.size() != 1) {
    return CorruptionError("partition lookup returned " +
                           std::to_string(entries.size()) + " entries");
  }
  return entries[0];
}

Result<TdbClient::HandoffStream> TdbClient::HandoffExport(
    PartitionId partition, PartitionId base) {
  Request request;
  request.op = Op::kHandoffExport;
  request.partition = partition;
  request.object_id = base;
  TDB_ASSIGN_OR_RETURN(Response response, RoundTrip(std::move(request)));
  TDB_RETURN_IF_ERROR(StatusFromResponse(response));
  HandoffStream out;
  out.snapshot = static_cast<PartitionId>(response.object_id);
  out.stream = std::move(response.object);
  return out;
}

Status TdbClient::HandoffImport(PartitionId partition, PartitionId base,
                                ByteView stream) {
  Request request;
  request.op = Op::kHandoffImport;
  request.partition = partition;
  request.object_id = base;
  request.object = Bytes(stream.begin(), stream.end());
  TDB_ASSIGN_OR_RETURN(Response response, RoundTrip(std::move(request)));
  return StatusFromResponse(response);
}

Result<TdbClient::HandoffStream> TdbClient::HandoffCutover(
    PartitionId partition, const std::string& target, PartitionId base) {
  Request request;
  request.op = Op::kHandoffCutover;
  request.partition = partition;
  request.object_id = base;
  request.object = BytesFromString(target);
  TDB_ASSIGN_OR_RETURN(Response response, RoundTrip(std::move(request)));
  TDB_RETURN_IF_ERROR(StatusFromResponse(response));
  HandoffStream out;
  out.snapshot = static_cast<PartitionId>(response.object_id);
  out.stream = std::move(response.object);
  return out;
}

Status TdbClient::HandoffActivate(PartitionId partition,
                                  const std::string& name) {
  Request request;
  request.op = Op::kHandoffActivate;
  request.partition = partition;
  request.object = BytesFromString(name);
  TDB_ASSIGN_OR_RETURN(Response response, RoundTrip(std::move(request)));
  return StatusFromResponse(response);
}

Status TdbClient::HandoffFinish(PartitionId partition,
                                const std::string& target) {
  Request request;
  request.op = Op::kHandoffFinish;
  request.partition = partition;
  request.object = BytesFromString(target);
  TDB_ASSIGN_OR_RETURN(Response response, RoundTrip(std::move(request)));
  return StatusFromResponse(response);
}

}  // namespace tdb::server
