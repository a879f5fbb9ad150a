#ifndef LSS_CORE_PAGE_TABLE_H_
#define LSS_CORE_PAGE_TABLE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/types.h"

namespace lss {

/// Where the current version of a page lives. Log-structured stores never
/// update in place, so every write moves a page and the table is remapped
/// (paper §1: "pages are dynamically remapped on every write").
struct PageLocation {
  /// Owning segment, or kBufferSegment (in the user write buffer) or
  /// kInvalidSegment (page not present).
  SegmentId segment = kInvalidSegment;
  /// Entry index within the segment, or the buffer slot.
  uint32_t index = 0;

  bool Present() const { return segment != kInvalidSegment; }
  bool InBuffer() const { return segment == kBufferSegment; }
};

/// Per-page metadata the store and the policies need.
struct PageMeta {
  PageLocation loc;
  /// Current version size in bytes.
  uint32_t bytes = 0;
  /// Update-count clock at the page's most recent update (up1). Used by
  /// the multi-log policy's frequency estimate and by the up2 carry rule.
  UpdateCount last_update = 0;
};

/// Dense page table: PageId -> PageMeta, one array indexed by page id (the
/// OS coremap layout), split into chunks of kChunkPages entries behind a
/// fixed directory of kMaxChunks pointers. Page ids are small integers
/// (workloads number their pages 0..P-1); ids at or past kMaxPages read
/// as absent, and StoreShard::Write rejects them.
///
/// Lookups are lock-free: one acquire-load of a chunk pointer, then an
/// index. Growth publishes a fresh chunk by CAS (a thread that loses the
/// race frees its copy). Chunks never move, so references returned by
/// Ensure stay valid for the table's lifetime.
///
/// Concurrency contract: the table's *structure* (growth, lookup) is safe
/// from any thread. The PageMeta *fields* are not synchronised here: all
/// accesses to a page's meta must be serialised by the page's owner (in a
/// ShardedStore, the owning shard's lock; in a LogStructuredStore, the
/// single-threaded caller).
class PageTable {
 public:
  static constexpr uint32_t kChunkBits = 12;
  static constexpr PageId kChunkPages = PageId{1} << kChunkBits;
  static constexpr PageId kMaxChunks = PageId{1} << 16;
  static constexpr PageId kMaxPages = kChunkPages * kMaxChunks;  // 2^28

  // calloc: the directory arrives zeroed from the OS, so only the parts
  // that ever hold a chunk pointer get touched.
  PageTable()
      : chunks_(static_cast<std::atomic<PageMeta*>*>(
            std::calloc(kMaxChunks, sizeof(std::atomic<PageMeta*>)))) {
    if (chunks_ == nullptr) throw std::bad_alloc();
  }
  ~PageTable() {
    for (PageId c = 0; c << kChunkBits < Size(); ++c) delete[] chunks_[c];
    std::free(chunks_);
  }
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  static constexpr bool Addressable(PageId page) { return page < kMaxPages; }

  /// The metadata slot for `page`, growing the table if needed. Requires
  /// Addressable(page).
  PageMeta& Ensure(PageId page) {
    assert(Addressable(page));
    std::atomic<PageMeta*>& slot = chunks_[page >> kChunkBits];
    PageMeta* chunk = slot.load(std::memory_order_acquire);
    if (chunk == nullptr) {
      PageMeta* fresh = new PageMeta[kChunkPages]();
      if (slot.compare_exchange_strong(chunk, fresh, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        chunk = fresh;
      } else {
        delete[] fresh;
      }
    }
    // Size() is the max ensured page id + 1, maintained monotonically.
    PageId cur = size_.load(std::memory_order_relaxed);
    while (cur <= page && !size_.compare_exchange_weak(
                              cur, page + 1, std::memory_order_acq_rel)) {
    }
    return chunk[page & (kChunkPages - 1)];
  }

  /// Metadata for `page`; pages never materialised read as an absent
  /// default (exactly what a freshly grown slot would hold).
  const PageMeta& Get(PageId page) const {
    static const PageMeta kAbsent{};
    if (!Addressable(page)) return kAbsent;
    const PageMeta* chunk =
        chunks_[page >> kChunkBits].load(std::memory_order_acquire);
    return chunk == nullptr ? kAbsent : chunk[page & (kChunkPages - 1)];
  }

  /// True if `page` has ever been written and is currently present.
  bool Present(PageId page) const { return Get(page).loc.Present(); }

  /// Number of page slots allocated (max page id ensured + 1).
  size_t Size() const { return size_.load(std::memory_order_acquire); }

  /// Number of currently present pages (O(n); for tests/diagnostics).
  size_t CountPresent() const {
    size_t n = 0;
    for (PageId p = 0; p < Size(); ++p) n += Present(p) ? 1 : 0;
    return n;
  }

 private:
  std::atomic<PageMeta*>* const chunks_;
  std::atomic<PageId> size_{0};
};

}  // namespace lss

#endif  // LSS_CORE_PAGE_TABLE_H_
