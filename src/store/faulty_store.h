// Fault-injection wrapper around an UntrustedStore, used by crash-recovery
// and error-propagation tests. It can fail writes after a countdown and can
// tear the write that trips the countdown (persisting only a configurable
// prefix fraction), which models a power failure in the middle of a device
// write. It can also fail reads after a countdown, modelling a device whose
// medium goes bad between commit and recovery.

#ifndef SRC_STORE_FAULTY_STORE_H_
#define SRC_STORE_FAULTY_STORE_H_

#include "src/store/untrusted_store.h"

namespace tdb {

class FaultyStore final : public UntrustedStore {
 public:
  explicit FaultyStore(UntrustedStore* base) : base_(base) {}

  size_t segment_size() const override { return base_->segment_size(); }
  uint32_t num_segments() const override { return base_->num_segments(); }

  Result<Bytes> Read(uint32_t segment, uint32_t offset,
                     size_t len) const override;
  Status Write(uint32_t segment, uint32_t offset, ByteView data) override;
  Status Flush() override;
  Result<Bytes> ReadSuperblock() const override;
  Status WriteSuperblock(ByteView data) override;

  // After `n` more successful writes, the next write fails with kIoError
  // (and, if a tear fraction is set, persists that prefix fraction of its
  // data before failing). Further writes and flushes keep failing until
  // ClearFault().
  void FailAfterWrites(uint64_t n);
  // After `n` more successful reads (segment or superblock), reads fail with
  // kIoError until ClearFault(). Writes are unaffected.
  void FailAfterReads(uint64_t n);
  // After `n` more successful flushes, flushes fail with kIoError until
  // ClearFault(). Writes are unaffected.
  void FailAfterFlushes(uint64_t n);
  // Fraction in [0, 1] of the tripping write's bytes persisted before the
  // injected failure. 0 persists nothing (clean fail), 1 persists everything
  // (the write succeeded at the device but the ack was lost).
  void SetTearFraction(double fraction);
  void ClearFault();
  bool faulted() const {
    return write_faulted_ || read_faulted_ || flush_faulted_;
  }

  uint64_t write_count() const { return write_count_; }
  uint64_t read_count() const { return read_count_; }
  uint64_t flush_count() const { return flush_count_; }

 private:
  Status CheckReadFault() const;

  UntrustedStore* base_;
  uint64_t write_count_ = 0;
  uint64_t flush_count_ = 0;
  bool write_armed_ = false;
  double tear_fraction_ = 0.0;
  bool tear_ = false;
  uint64_t writes_until_fault_ = 0;
  bool write_faulted_ = false;
  bool flush_armed_ = false;
  uint64_t flushes_until_fault_ = 0;
  bool flush_faulted_ = false;
  // Read-path state is mutable because Read()/ReadSuperblock() are const in
  // the UntrustedStore contract; fault bookkeeping is not logical state.
  mutable uint64_t read_count_ = 0;
  mutable bool read_armed_ = false;
  mutable uint64_t reads_until_fault_ = 0;
  mutable bool read_faulted_ = false;
};

}  // namespace tdb

#endif  // SRC_STORE_FAULTY_STORE_H_
