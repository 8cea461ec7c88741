#include "src/store/faulty_store.h"

#include <cmath>

namespace tdb {

Status FaultyStore::CheckReadFault() const {
  if (read_faulted_) {
    return IoError("injected fault: read failed");
  }
  if (read_armed_) {
    if (reads_until_fault_ == 0) {
      read_faulted_ = true;
      return IoError("injected fault: read failed");
    }
    --reads_until_fault_;
  }
  ++read_count_;
  return OkStatus();
}

Result<Bytes> FaultyStore::Read(uint32_t segment, uint32_t offset,
                                size_t len) const {
  TDB_RETURN_IF_ERROR(CheckReadFault());
  return base_->Read(segment, offset, len);
}

Status FaultyStore::Write(uint32_t segment, uint32_t offset, ByteView data) {
  if (write_faulted_) {
    return IoError("injected fault: store is down");
  }
  if (write_armed_) {
    if (writes_until_fault_ == 0) {
      write_faulted_ = true;
      if (tear_) {
        size_t keep = static_cast<size_t>(
            std::floor(static_cast<double>(data.size()) * tear_fraction_));
        if (keep > data.size()) keep = data.size();
        if (keep > 0) {
          // Persist a prefix, then fail: a torn write.
          (void)base_->Write(segment, offset, data.subspan(0, keep));
        }
      }
      return IoError("injected fault: write failed");
    }
    --writes_until_fault_;
  }
  ++write_count_;
  return base_->Write(segment, offset, data);
}

Status FaultyStore::Flush() {
  if (write_faulted_) {
    return IoError("injected fault: store is down");
  }
  if (flush_faulted_) {
    return IoError("injected fault: flush failed");
  }
  if (flush_armed_) {
    if (flushes_until_fault_ == 0) {
      flush_faulted_ = true;
      return IoError("injected fault: flush failed");
    }
    --flushes_until_fault_;
  }
  ++flush_count_;
  return base_->Flush();
}

Result<Bytes> FaultyStore::ReadSuperblock() const {
  TDB_RETURN_IF_ERROR(CheckReadFault());
  return base_->ReadSuperblock();
}

Status FaultyStore::WriteSuperblock(ByteView data) {
  if (write_faulted_) {
    return IoError("injected fault: store is down");
  }
  if (write_armed_) {
    if (writes_until_fault_ == 0) {
      write_faulted_ = true;
      return IoError("injected fault: superblock write failed");
    }
    --writes_until_fault_;
  }
  ++write_count_;
  return base_->WriteSuperblock(data);
}

void FaultyStore::FailAfterWrites(uint64_t n) {
  write_armed_ = true;
  writes_until_fault_ = n;
  write_faulted_ = false;
}

void FaultyStore::FailAfterReads(uint64_t n) {
  read_armed_ = true;
  reads_until_fault_ = n;
  read_faulted_ = false;
}

void FaultyStore::FailAfterFlushes(uint64_t n) {
  flush_armed_ = true;
  flushes_until_fault_ = n;
  flush_faulted_ = false;
}

void FaultyStore::SetTearFraction(double fraction) {
  if (fraction < 0.0) fraction = 0.0;
  if (fraction > 1.0) fraction = 1.0;
  tear_fraction_ = fraction;
  tear_ = true;
}

void FaultyStore::ClearFault() {
  write_armed_ = false;
  write_faulted_ = false;
  read_armed_ = false;
  read_faulted_ = false;
  flush_armed_ = false;
  flush_faulted_ = false;
  tear_ = false;
  tear_fraction_ = 0.0;
}

}  // namespace tdb
