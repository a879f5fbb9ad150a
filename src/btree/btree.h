#ifndef LSS_BTREE_BTREE_H_
#define LSS_BTREE_BTREE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "btree/buffer_pool.h"
#include "btree/node.h"
#include "btree/page.h"
#include "core/types.h"

namespace lss {

/// A disk-format B+-tree over a buffer pool: 4 KB slotted pages,
/// arbitrary byte-string keys (memcmp order) and values, leaf-chained
/// range scans. This is the storage engine under the TPC-C workload whose
/// page-write trace drives the paper's §6.3 experiment.
///
/// Concurrency: safe for any mix of concurrent readers and writers on
/// the same tree via latch coupling over the buffer pool's per-frame
/// reader-writer page latches (docs/ARCHITECTURE.md, "Latch-coupled
/// B+-tree"). Readers crab shared latches root->leaf; writers descend
/// optimistically (shared latches, exclusive leaf) and restart with a
/// full exclusive-path descent only when the leaf must split.
/// CheckIntegrity and moving a BTree are NOT thread-safe: the caller
/// must quiesce the tree (and, for a move, both trees) first.
///
/// Scope notes (documented simplifications, see docs/ARCHITECTURE.md):
/// deletes do not rebalance (underfull leaves persist, as in
/// lazy-deletion engines); pages are never returned to the pager, so
/// leaf-chain links never dangle; the record count is maintained in
/// memory, not persisted. Key+value payload is limited to
/// NodeView::kMaxPayload bytes so splits always succeed.
class BTree {
 public:
  /// Creates an empty tree whose pages are allocated from `pool`.
  explicit BTree(BufferPool* pool);

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;
  /// Moves transfer the tree; the moved-from tree keeps no pool pointer
  /// and any further operation on it asserts. Requires both trees
  /// quiescent (no concurrent operations, no live iterators).
  BTree(BTree&& o) noexcept;
  BTree& operator=(BTree&& o) noexcept;

  /// Inserts a new record; kInvalidArgument if the key already exists or
  /// the payload exceeds kMaxPayload.
  Status Insert(std::string_view key, std::string_view value);

  /// Inserts or overwrites.
  Status Put(std::string_view key, std::string_view value);

  /// Fetches a record. Returns false if absent. `value` may be null to
  /// test existence only.
  bool Get(std::string_view key, std::string* value) const;

  /// Removes a record. Returns false if absent.
  bool Delete(std::string_view key);

  /// Records currently stored (exact when quiescent; a racing snapshot
  /// while writers run).
  uint64_t Size() const { return size_.load(std::memory_order_acquire); }

  PageNo root() const {
    return static_cast<PageNo>(root_word_.load(std::memory_order_acquire));
  }

  /// Forward iterator over records. Pins and shared-latches pages only
  /// while reading; the current key/value are materialised copies. The
  /// iterator is valid across unrelated tree reads AND writes: every
  /// Load checks the tree's modification counter under the leaf latch
  /// and, when any write has intervened, safely re-seeks to the first
  /// key after the last one returned (so a stale position can never read
  /// a recycled or reorganised leaf). Concurrent splits may move records
  /// between leaves mid-scan; the iterator guarantees strictly
  /// increasing key order and never fabricates records, and degenerates
  /// to an exact scan whenever the tree is quiescent.
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    const std::string& key() const { return key_; }
    const std::string& value() const { return value_; }
    /// Advances to the next record in key order.
    void Next();

   private:
    friend class BTree;
    Iterator(const BTree* tree, PageNo leaf, uint16_t slot,
             uint64_t mod_snapshot, std::string bound, bool bound_inclusive,
             bool latched);
    // Loads key_/value_ from (leaf_, slot_), hopping over empty leaves;
    // falls back to Reposition() when the tree changed under us.
    void Load();
    // Re-derives the position by key: first record >= bound_ (or >
    // bound_ when !bound_inclusive_). Latched mode only.
    void Reposition();

    const BTree* tree_ = nullptr;
    PageNo leaf_ = kInvalidPageNo;
    uint16_t slot_ = 0;
    bool valid_ = false;
    std::string key_;
    std::string value_;
    // Write-invalidation guard: tree_->mods_ value this position is
    // valid for, and the key bound to re-seek from when it moves on.
    uint64_t mod_snapshot_ = 0;
    std::string bound_;
    bool bound_inclusive_ = true;
    // False only for CheckIntegrity's internal walk, which runs on a
    // quiescent tree and needs no page latches.
    bool latched_ = true;
  };

  /// Iterator at the first record with key >= `key`.
  Iterator Seek(std::string_view key) const;
  /// Iterator at the smallest key.
  Iterator Begin() const;

  /// Full structural validation: node consistency, key ordering within
  /// and across nodes, leaf chain coverage. O(tree). The caller must
  /// quiesce the tree: no concurrent operations or iterator steps.
  Status CheckIntegrity() const;

  /// Height of the tree (1 = root is a leaf). For tests/diagnostics.
  uint32_t Height() const {
    return static_cast<uint32_t>(
        root_word_.load(std::memory_order_acquire) >> 32);
  }

 private:
  // root_word_ packs (height << 32) | root page: a root's height never
  // changes while it is the root (splits below it cannot move the leaf
  // level; only a new root adds one), so one atomic word gives every
  // descent a consistent (root, height) pair. Descents latch the root
  // and re-validate the word; if it moved on (a root split), they
  // restart. An old root is never re-used as root, so there is no ABA.
  static uint64_t PackRoot(PageNo root, uint32_t height) {
    return (static_cast<uint64_t>(height) << 32) | root;
  }

  void AssertLive() const;

  // Latched descents (crabbing: child latched before parent released).
  // DescendShared returns the shared-latched leaf for `key`;
  // DescendLeftmost the shared-latched first leaf; DescendForWrite the
  // exclusive-latched leaf (shared latches on the way down);
  // DescendExclusive fills `path` with exclusive-latched refs root->leaf
  // for the split path.
  PageRef DescendShared(std::string_view key) const;
  PageRef DescendLeftmost() const;
  PageRef DescendForWrite(std::string_view key);
  void DescendExclusive(std::string_view key, std::vector<PageRef>* path);

  // Pessimistic write path: full exclusive descent, then insert or
  // overwrite (`overwrite`), splitting as needed over the held refs.
  Status WritePessimistic(std::string_view key, std::string_view value,
                          bool overwrite);
  // Inserts `key`/`value` into the latched leaf path->back() (known to
  // need a split), then propagates separators up the held path.
  Status SplitAndInsert(std::vector<PageRef>* path, std::string_view key,
                        std::string_view value);

  // Unlatched walk for quiescent validation.
  PageNo DescendToLeaf(std::string_view key,
                       std::vector<PageNo>* path) const;
  // Routing decision within an internal node.
  static PageNo RouteChild(const NodeView& node, std::string_view key);

  Status CheckSubtree(PageNo page, std::string_view lo, std::string_view hi,
                      uint32_t depth, uint32_t* leaf_depth,
                      uint64_t* records) const;

  BufferPool* pool_;
  std::atomic<uint64_t> root_word_{0};
  std::atomic<uint64_t> size_{0};
  // Bumped (under the exclusive leaf latch) by every successful
  // mutation; iterators snapshot it to detect intervening writes.
  std::atomic<uint64_t> mods_{0};
};

}  // namespace lss

#endif  // LSS_BTREE_BTREE_H_
