#include "src/chunk/log_manager.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace tdb {

void SegmentInfo::Pickle(PickleWriter& w) const {
  w.WriteU8(static_cast<uint8_t>(state));
  w.WriteU32(bytes_used);
  w.WriteU32(live_bytes);
}

Result<SegmentInfo> SegmentInfo::Unpickle(PickleReader& r) {
  SegmentInfo info;
  uint8_t state = r.ReadU8();
  if (state > static_cast<uint8_t>(State::kCleaned)) {
    return CorruptionError("bad segment state");
  }
  info.state = static_cast<State>(state);
  info.bytes_used = r.ReadU32();
  info.live_bytes = r.ReadU32();
  TDB_RETURN_IF_ERROR(r.Check());
  return info;
}

Bytes SystemLeaderRecord::Pickle() const {
  PickleWriter w;
  system_tree.Pickle(w);
  w.WriteVarint(segments.size());
  for (const SegmentInfo& s : segments) {
    s.Pickle(w);
  }
  w.WriteU64(commit_count);
  return w.Take();
}

Result<SystemLeaderRecord> SystemLeaderRecord::Unpickle(ByteView data) {
  PickleReader r(data);
  SystemLeaderRecord rec;
  TDB_ASSIGN_OR_RETURN(rec.system_tree, PartitionLeader::Unpickle(r));
  // A SegmentInfo is a state byte and two 32-bit fields.
  uint64_t num_segments = r.ReadCount(9);
  if (!r.ok()) {
    return CorruptionError("bad segment table");
  }
  rec.segments.reserve(num_segments);
  for (uint64_t i = 0; i < num_segments; ++i) {
    TDB_ASSIGN_OR_RETURN(SegmentInfo info, SegmentInfo::Unpickle(r));
    rec.segments.push_back(info);
  }
  rec.commit_count = r.ReadU64();
  TDB_RETURN_IF_ERROR(r.Done());
  return rec;
}

LogManager::LogManager(UntrustedStore* store, const CryptoSuite* system_suite)
    : store_(store), system_suite_(system_suite) {
  segments_.resize(store->num_segments());
}

size_t LogManager::header_ct_size() const {
  return HeaderCipherSize(*system_suite_);
}

size_t LogManager::next_segment_blob_size() const {
  // NextSegmentRecord pickles to a fixed 4 bytes.
  return header_ct_size() + system_suite_->CiphertextSize(4);
}

size_t LogManager::max_blob_size() const {
  return segment_size() - next_segment_blob_size();
}

Status LogManager::InitFresh() {
  for (SegmentInfo& s : segments_) {
    s = SegmentInfo{};
  }
  segments_[0].state = SegmentInfo::State::kLive;
  residual_ = {0};
  tail_ = Location{0, 0};
  return OkStatus();
}

Status LogManager::LoadFromCheckpoint(std::vector<SegmentInfo> table,
                                      Location leader_loc,
                                      uint32_t leader_size) {
  if (table.size() != segments_.size()) {
    return CorruptionError("segment table size mismatch");
  }
  if (leader_loc.segment >= table.size() ||
      static_cast<size_t>(leader_loc.offset) + leader_size > segment_size()) {
    return TamperDetectedError("checkpoint leader location out of range");
  }
  segments_ = std::move(table);
  SegmentInfo& leader_seg = segments_[leader_loc.segment];
  leader_seg.state = SegmentInfo::State::kLive;
  leader_seg.bytes_used =
      std::max(leader_seg.bytes_used, leader_loc.offset + leader_size);
  leader_seg.live_bytes += leader_size;
  residual_ = {leader_loc.segment};
  tail_ = Location{leader_loc.segment, leader_loc.offset + leader_size};
  return OkStatus();
}

Result<uint32_t> LogManager::PickFreeSegment() {
  for (uint32_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].state == SegmentInfo::State::kFree) {
      return i;
    }
  }
  return OutOfSpaceError("no free segments in untrusted store");
}

Result<std::vector<Location>> LogManager::Append(
    const std::vector<Blob>& blobs,
    const std::function<void(ByteView, bool is_link)>& on_append) {
  std::vector<Location> locations;
  locations.reserve(blobs.size());
  const size_t seg_size = segment_size();
  const size_t reserve = next_segment_blob_size();

  for (const Blob& blob : blobs) {
    if (blob.bytes.size() > max_blob_size()) {
      return InvalidArgumentError("chunk version exceeds segment size");
    }
    if (tail_.offset + blob.bytes.size() + reserve > seg_size) {
      // Link to a fresh segment with a next-segment chunk.
      TDB_ASSIGN_OR_RETURN(uint32_t next, PickFreeSegment());
      NextSegmentRecord rec{next};
      Bytes body = system_suite_->Encrypt(rec.Pickle());
      VersionHeader header = VersionHeader::Unnamed(
          UnnamedType::kNextSegment, static_cast<uint32_t>(body.size()));
      Bytes link = EncodeHeader(*system_suite_, header);
      tdb::Append(link, body);
      TDB_RETURN_IF_ERROR(store_->Write(tail_.segment, tail_.offset, link));
      if (on_append) {
        on_append(link, /*is_link=*/true);
      }
      segments_[tail_.segment].bytes_used =
          tail_.offset + static_cast<uint32_t>(link.size());
      segments_[next].state = SegmentInfo::State::kLive;
      segments_[next].bytes_used = 0;
      segments_[next].live_bytes = 0;
      residual_.push_back(next);
      tail_ = Location{next, 0};
      obs::Count("log.segment_links");
    }
    TDB_RETURN_IF_ERROR(store_->Write(tail_.segment, tail_.offset, blob.bytes));
    if (on_append) {
      on_append(blob.bytes, /*is_link=*/false);
    }
    locations.push_back(tail_);
    SegmentInfo& info = segments_[tail_.segment];
    tail_.offset += static_cast<uint32_t>(blob.bytes.size());
    info.bytes_used = tail_.offset;
    if (blob.live) {
      info.live_bytes += static_cast<uint32_t>(blob.bytes.size());
    }
  }
  return locations;
}

void LogManager::ReleaseLive(Location loc, uint32_t size) {
  SegmentInfo& info = segments_[loc.segment];
  info.live_bytes = info.live_bytes >= size ? info.live_bytes - size : 0;
}

void LogManager::AddLive(Location loc, uint32_t size) {
  segments_[loc.segment].live_bytes += size;
}

void LogManager::SetTailForRecovery(Location tail) {
  tail_ = tail;
  segments_[tail.segment].state = SegmentInfo::State::kLive;
  segments_[tail.segment].bytes_used =
      std::max(segments_[tail.segment].bytes_used, tail.offset);
}

void LogManager::NoteScanned(uint32_t segment, uint32_t end_offset) {
  SegmentInfo& info = segments_[segment];
  info.state = SegmentInfo::State::kLive;
  info.bytes_used = std::max(info.bytes_used, end_offset);
}

void LogManager::SetResidualChain(std::vector<uint32_t> segments) {
  residual_ = std::move(segments);
}

void LogManager::OnCheckpointComplete(Location leader_loc) {
  // The residual log now starts at the leader; everything before it is
  // checkpointed log.
  auto it = std::find(residual_.begin(), residual_.end(), leader_loc.segment);
  if (it != residual_.end()) {
    residual_.erase(residual_.begin(), it);
  } else {
    residual_ = {leader_loc.segment};
  }
  // Cleaned segments are safe to reuse once the checkpointed tree no longer
  // references them.
  for (SegmentInfo& s : segments_) {
    if (s.state == SegmentInfo::State::kCleaned) {
      s = SegmentInfo{};
    }
  }
}

bool LogManager::InResidual(uint32_t segment) const {
  return std::find(residual_.begin(), residual_.end(), segment) !=
         residual_.end();
}

std::vector<uint32_t> LogManager::CleanableSegments() const {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < segments_.size(); ++i) {
    const SegmentInfo& s = segments_[i];
    if (s.state == SegmentInfo::State::kLive && !InResidual(i) &&
        s.bytes_used > 0) {
      out.push_back(i);
    }
  }
  std::sort(out.begin(), out.end(), [this](uint32_t a, uint32_t b) {
    return segments_[a].live_bytes < segments_[b].live_bytes;
  });
  return out;
}

void LogManager::MarkCleaned(uint32_t segment) {
  segments_[segment].state = SegmentInfo::State::kCleaned;
  segments_[segment].live_bytes = 0;
}

bool LogManager::HasCleaned() const {
  return std::any_of(segments_.begin(), segments_.end(),
                     [](const SegmentInfo& s) {
                       return s.state == SegmentInfo::State::kCleaned;
                     });
}

uint32_t LogManager::free_segment_count() const {
  uint32_t n = 0;
  for (const SegmentInfo& s : segments_) {
    if (s.state == SegmentInfo::State::kFree) {
      ++n;
    }
  }
  return n;
}

uint64_t LogManager::total_live_bytes() const {
  uint64_t n = 0;
  for (const SegmentInfo& s : segments_) {
    n += s.live_bytes;
  }
  return n;
}

uint64_t LogManager::total_used_bytes() const {
  uint64_t n = 0;
  for (const SegmentInfo& s : segments_) {
    if (s.state != SegmentInfo::State::kFree) {
      n += s.bytes_used;
    }
  }
  return n;
}

Result<std::optional<LogManager::Scanned>> LogManager::Scanner::Next() {
  const size_t header_size = log_->header_ct_size();
  const size_t seg_size = log_->segment_size();
  if (pos_.segment >= log_->segments_.size()) {
    return CorruptionError("scan position outside store");
  }
  if (pos_.offset + header_size > seg_size) {
    return std::optional<Scanned>{};
  }
  TDB_ASSIGN_OR_RETURN(Bytes header_ct,
                       log_->store_->Read(pos_.segment, pos_.offset,
                                          header_size));
  Result<VersionHeader> header =
      DecodeHeader(*log_->system_suite_, header_ct);
  if (!header.ok()) {
    // Unparsable header: end of log (or garbage tail after a crash).
    return std::optional<Scanned>{};
  }
  if (pos_.offset + header_size + header->body_size > seg_size) {
    return std::optional<Scanned>{};
  }
  TDB_ASSIGN_OR_RETURN(
      Bytes body_ct,
      log_->store_->Read(pos_.segment, pos_.offset + header_size,
                         header->body_size));
  Scanned scanned;
  scanned.location = pos_;
  scanned.header = *header;
  scanned.raw = header_ct;
  tdb::Append(scanned.raw, body_ct);
  scanned.body_ct = std::move(body_ct);
  scanned.end = Location{
      pos_.segment,
      pos_.offset + static_cast<uint32_t>(header_size) + header->body_size};

  if (header->unnamed && header->type == UnnamedType::kNextSegment) {
    // A link record whose body fails to decrypt or parse is a torn final
    // write (the header landed, the body did not): end of log, exactly like
    // an unparsable header. Truncation attacks that masquerade as torn
    // links are still caught downstream — the register tail check in direct
    // mode, the counter window in counter mode.
    Result<Bytes> plain = log_->system_suite_->Decrypt(scanned.body_ct);
    if (!plain.ok()) {
      return std::optional<Scanned>{};
    }
    Result<NextSegmentRecord> rec_or = NextSegmentRecord::Unpickle(*plain);
    if (!rec_or.ok()) {
      return std::optional<Scanned>{};
    }
    NextSegmentRecord rec = *rec_or;
    if (rec.next_segment >= log_->segments_.size()) {
      return CorruptionError("next-segment link outside store");
    }
    // A legitimate residual chain never revisits a segment, so a link into
    // a visited one ends the log, like a torn link (and the scan cannot
    // loop). Past the durable tail it is a stale record of a reused
    // segment's earlier life. Before the tail it is a splice, and the same
    // downstream checks judge the log that ends early (DESIGN.md, deviation
    // 3).
    if (std::find(visited_.begin(), visited_.end(), rec.next_segment) !=
        visited_.end()) {
      return std::optional<Scanned>{};
    }
    pos_ = Location{rec.next_segment, 0};
    visited_.push_back(rec.next_segment);
  } else {
    pos_ = scanned.end;
  }
  return std::optional<Scanned>(std::move(scanned));
}

}  // namespace tdb
