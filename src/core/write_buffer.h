#ifndef LSS_CORE_WRITE_BUFFER_H_
#define LSS_CORE_WRITE_BUFFER_H_

#include <cstdint>
#include <vector>

#include "core/types.h"

namespace lss {

/// A pending page write held in the user write buffer.
struct BufferedWrite {
  PageId page = kInvalidPage;
  uint32_t bytes = 0;
  /// Carried penultimate-update estimate; NaN-free: first writes are
  /// flagged instead (their up2 is resolved at flush time to the oldest
  /// up2 in the batch, paper §5.2.2 "First Write").
  double up2 = 0;
  bool first_write = true;
  /// A newer write to the same page is queued behind this one; when
  /// flushed, this copy is placed dead-on-arrival (physical write, no
  /// page-table update).
  bool superseded = false;
  /// Exact oracle frequency (0 when no oracle).
  double exact_upf = 0;
};

/// Buffer that accumulates user page writes so they can be *sorted by
/// update frequency* before being packed into segments (paper §5.3,
/// Figure 4). The buffer is a queue of writes, as in the paper's
/// simulator: re-writing a page that is already buffered marks the queued
/// copy `superseded` and appends a new slot, which the page table then
/// points at, so every update costs one physical page write.
///
/// Slots are stable until Flush drains the buffer.
class WriteBuffer {
 public:
  /// `capacity_bytes` of 0 means unbuffered operation; the store then
  /// bypasses this class entirely.
  explicit WriteBuffer(uint64_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  /// Adds a new pending write; returns its slot index.
  uint32_t Add(const BufferedWrite& w) {
    writes_.push_back(w);
    bytes_ += w.bytes;
    return static_cast<uint32_t>(writes_.size() - 1);
  }

  /// Tombstones a slot whose page was deleted while buffered; flush
  /// skips it. The buffered byte count keeps the dead bytes, which only
  /// brings the next flush a little earlier.
  void Invalidate(uint32_t slot) { writes_[slot].page = kInvalidPage; }

  const BufferedWrite& Get(uint32_t slot) const { return writes_[slot]; }
  BufferedWrite& GetMutable(uint32_t slot) { return writes_[slot]; }

  bool Full() const { return bytes_ >= capacity_bytes_; }
  bool Empty() const { return writes_.empty(); }
  uint64_t bytes() const { return bytes_; }
  size_t Count() const { return writes_.size(); }
  uint64_t capacity_bytes() const { return capacity_bytes_; }

  /// Drains the buffer, returning all pending writes in arrival order.
  /// The caller re-resolves page-table locations as it places them.
  std::vector<BufferedWrite> Drain() {
    std::vector<BufferedWrite> out;
    out.swap(writes_);
    bytes_ = 0;
    return out;
  }

 private:
  uint64_t capacity_bytes_;
  std::vector<BufferedWrite> writes_;
  uint64_t bytes_ = 0;
};

}  // namespace lss

#endif  // LSS_CORE_WRITE_BUFFER_H_
