#include "btree/btree.h"

#include <cassert>
#include <mutex>
#include <utility>

namespace lss {

BTree::BTree(BufferPool* pool) : pool_(pool) {
  uint8_t* data = nullptr;
  const PageNo root = pool_->AllocatePinned(&data);
  NodeView::Init(data, NodeView::kLeaf);
  pool_->Unpin(root, /*dirty=*/true);
  root_word_.store(PackRoot(root, 1), std::memory_order_release);
}

BTree::BTree(BTree&& o) noexcept
    : pool_(o.pool_),
      root_word_(o.root_word_.load(std::memory_order_relaxed)),
      size_(o.size_.load(std::memory_order_relaxed)),
      mods_(o.mods_.load(std::memory_order_relaxed)) {
  o.pool_ = nullptr;
}

BTree& BTree::operator=(BTree&& o) noexcept {
  if (this != &o) {
    pool_ = o.pool_;
    root_word_.store(o.root_word_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    size_.store(o.size_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    mods_.store(o.mods_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    o.pool_ = nullptr;
  }
  return *this;
}

void BTree::AssertLive() const {
  assert(pool_ != nullptr && "operation on a moved-from BTree");
}

PageNo BTree::RouteChild(const NodeView& node, std::string_view key) {
  const uint16_t n = node.count();
  assert(n > 0);
  const uint16_t lb = node.LowerBound(key);
  if (lb < n && node.Key(lb) == key) return node.Child(lb);
  if (lb == 0) return node.leftmost_child();
  return node.Child(lb - 1);
}

// --- Latched descents ---------------------------------------------------
//
// Every descent starts by latching the current root and re-validating
// root_word_: a root split installs a fresh page and bumps the word, so
// a stale start is detected and restarted (an old root is never root
// again — no ABA). Crabbing invariant: a child is latched before its
// parent's latch is released (PageRef move-assignment acquires the new
// ref first, then releases the old), so the routed-to child cannot be
// reorganised between the routing decision and the arrival.

PageRef BTree::DescendShared(std::string_view key) const {
  for (;;) {
    const uint64_t rw = root_word_.load(std::memory_order_acquire);
    PageRef ref(pool_, static_cast<PageNo>(rw), LatchMode::kShared);
    if (root_word_.load(std::memory_order_acquire) != rw) continue;
    NodeView node(ref.data());
    while (!node.IsLeaf()) {
      PageRef child(pool_, RouteChild(node, key), LatchMode::kShared);
      ref = std::move(child);
      node = NodeView(ref.data());
    }
    return ref;
  }
}

PageRef BTree::DescendLeftmost() const {
  for (;;) {
    const uint64_t rw = root_word_.load(std::memory_order_acquire);
    PageRef ref(pool_, static_cast<PageNo>(rw), LatchMode::kShared);
    if (root_word_.load(std::memory_order_acquire) != rw) continue;
    NodeView node(ref.data());
    while (!node.IsLeaf()) {
      PageRef child(pool_, node.leftmost_child(), LatchMode::kShared);
      ref = std::move(child);
      node = NodeView(ref.data());
    }
    return ref;
  }
}

PageRef BTree::DescendForWrite(std::string_view key) {
  for (;;) {
    const uint64_t rw = root_word_.load(std::memory_order_acquire);
    const uint32_t height = static_cast<uint32_t>(rw >> 32);
    // The leaf level is known from the packed height, so the leaf child
    // can be latched exclusively directly — no shared->exclusive upgrade
    // (which would deadlock two upgraders) is ever needed. Splits below
    // a node never change the distance from that node to its leaves, so
    // the depth arithmetic stays valid even if the root splits after our
    // latch moved past it.
    PageRef ref(pool_, static_cast<PageNo>(rw),
                height == 1 ? LatchMode::kExclusive : LatchMode::kShared);
    if (root_word_.load(std::memory_order_acquire) != rw) continue;
    NodeView node(ref.data());
    for (uint32_t depth = 1; !node.IsLeaf(); ++depth) {
      const bool leaf_next = depth + 1 == height;
      PageRef child(pool_, RouteChild(node, key),
                    leaf_next ? LatchMode::kExclusive : LatchMode::kShared);
      ref = std::move(child);
      node = NodeView(ref.data());
      assert(leaf_next == node.IsLeaf());
    }
    return ref;
  }
}

void BTree::DescendExclusive(std::string_view key,
                             std::vector<PageRef>* path) {
  for (;;) {
    path->clear();
    const uint64_t rw = root_word_.load(std::memory_order_acquire);
    PageRef ref(pool_, static_cast<PageNo>(rw), LatchMode::kExclusive);
    if (root_word_.load(std::memory_order_acquire) != rw) continue;
    path->push_back(std::move(ref));
    NodeView node(path->back().data());
    while (!node.IsLeaf()) {
      const PageNo child = RouteChild(node, key);
      path->emplace_back(pool_, child, LatchMode::kExclusive);
      node = NodeView(path->back().data());
    }
    return;
  }
}

// --- Unlatched walk (quiescent validation) ------------------------------

PageNo BTree::DescendToLeaf(std::string_view key,
                            std::vector<PageNo>* path) const {
  PageNo cur = root();
  for (;;) {
    PageRef ref(pool_, cur);
    NodeView node(ref.data());
    if (node.IsLeaf()) return cur;
    if (path != nullptr) path->push_back(cur);
    cur = RouteChild(node, key);
    assert(cur != kInvalidPageNo);
  }
}

// --- Writes -------------------------------------------------------------

Status BTree::Insert(std::string_view key, std::string_view value) {
  AssertLive();
  if (key.size() + value.size() > NodeView::kMaxPayload || key.empty()) {
    return Status::InvalidArgument("key/value payload out of bounds");
  }
  {
    PageRef leaf_ref = DescendForWrite(key);
    NodeView leaf(leaf_ref.data());
    uint16_t slot;
    if (leaf.Find(key, &slot)) {
      return Status::InvalidArgument("key already exists");
    }
    const uint32_t cell = NodeView::LeafCellSize(key, value);
    if (leaf.HasRoomFor(cell)) {
      leaf.InsertLeaf(leaf.LowerBound(key), key, value);
      leaf_ref.MarkDirty();
      size_.fetch_add(1, std::memory_order_release);
      mods_.fetch_add(1, std::memory_order_release);
      return Status::OK();
    }
  }
  // The leaf is full: restart pessimistically with the whole path held
  // exclusively so the split can propagate without re-latching.
  return WritePessimistic(key, value, /*overwrite=*/false);
}

Status BTree::Put(std::string_view key, std::string_view value) {
  AssertLive();
  if (key.size() + value.size() > NodeView::kMaxPayload || key.empty()) {
    return Status::InvalidArgument("key/value payload out of bounds");
  }
  {
    PageRef leaf_ref = DescendForWrite(key);
    NodeView leaf(leaf_ref.data());
    uint16_t slot;
    if (leaf.Find(key, &slot)) {
      const size_t old_size = leaf.Value(slot).size();
      if (value.size() <= old_size ||
          leaf.HasRoomFor(static_cast<uint32_t>(value.size() - old_size))) {
        leaf.UpdateLeafValue(slot, value);
        leaf_ref.MarkDirty();
        mods_.fetch_add(1, std::memory_order_release);
        return Status::OK();
      }
      // Grown beyond this node's free space: fall through to the
      // pessimistic path, which removes and re-inserts (splitting) while
      // holding the whole path — never leaving a window where the record
      // is absent under only a leaf latch.
    } else {
      const uint32_t cell = NodeView::LeafCellSize(key, value);
      if (leaf.HasRoomFor(cell)) {
        leaf.InsertLeaf(leaf.LowerBound(key), key, value);
        leaf_ref.MarkDirty();
        size_.fetch_add(1, std::memory_order_release);
        mods_.fetch_add(1, std::memory_order_release);
        return Status::OK();
      }
    }
  }
  return WritePessimistic(key, value, /*overwrite=*/true);
}

Status BTree::WritePessimistic(std::string_view key, std::string_view value,
                               bool overwrite) {
  std::vector<PageRef> path;
  DescendExclusive(key, &path);
  NodeView leaf(path.back().data());
  uint16_t slot;
  if (leaf.Find(key, &slot)) {
    // Re-examine under the exclusive path: the state may have changed
    // between the optimistic attempt and this descent.
    if (!overwrite) return Status::InvalidArgument("key already exists");
    const size_t old_size = leaf.Value(slot).size();
    if (value.size() <= old_size ||
        leaf.HasRoomFor(static_cast<uint32_t>(value.size() - old_size))) {
      leaf.UpdateLeafValue(slot, value);
      path.back().MarkDirty();
      mods_.fetch_add(1, std::memory_order_release);
      return Status::OK();
    }
    leaf.Remove(slot);
    path.back().MarkDirty();
    size_.fetch_sub(1, std::memory_order_release);
  }
  const uint32_t cell = NodeView::LeafCellSize(key, value);
  if (leaf.HasRoomFor(cell)) {
    leaf.InsertLeaf(leaf.LowerBound(key), key, value);
    path.back().MarkDirty();
    size_.fetch_add(1, std::memory_order_release);
    mods_.fetch_add(1, std::memory_order_release);
    return Status::OK();
  }
  Status s = SplitAndInsert(&path, key, value);
  if (s.ok()) {
    size_.fetch_add(1, std::memory_order_release);
    mods_.fetch_add(1, std::memory_order_release);
  }
  return s;
}

Status BTree::SplitAndInsert(std::vector<PageRef>* path, std::string_view key,
                             std::string_view value) {
  // Split the leaf. The new right page is pinned but not latched: it is
  // unreachable until the separator is published into the (exclusively
  // latched) parent or the left leaf's sibling pointer, and both of
  // those stores happen after its bytes are complete — the latch-release
  // on the publishing page carries the happens-before edge to readers.
  PageRef& leaf_ref = path->back();
  uint8_t* right_data = nullptr;
  const PageNo right_no = pool_->AllocatePinned(&right_data);
  NodeView::Init(right_data, NodeView::kLeaf);
  NodeView right(right_data);
  NodeView left(leaf_ref.data());
  std::string sep = left.SplitInto(right);
  right.set_right_sibling(left.right_sibling());
  left.set_right_sibling(right_no);
  // Insert the record into the proper half (routing sends
  // key >= separator right).
  NodeView& target = (key < sep) ? left : right;
  assert(target.HasRoomFor(NodeView::LeafCellSize(key, value)));
  target.InsertLeaf(target.LowerBound(key), key, value);
  leaf_ref.MarkDirty();
  pool_->Unpin(right_no, /*dirty=*/true);

  // Propagate the separator up the held path (leaf-1 .. root).
  PageNo new_child = right_no;
  for (size_t i = path->size() - 1; i-- > 0;) {
    PageRef& ref = (*path)[i];
    NodeView parent(ref.data());
    assert(!parent.IsLeaf());
    const uint32_t cell = NodeView::InternalCellSize(sep);
    if (parent.HasRoomFor(cell)) {
      parent.InsertInternal(parent.LowerBound(sep), sep, new_child);
      ref.MarkDirty();
      return Status::OK();
    }
    // Split the internal node; its middle key moves up.
    uint8_t* pr_data = nullptr;
    const PageNo pr_no = pool_->AllocatePinned(&pr_data);
    NodeView::Init(pr_data, NodeView::kInternal);
    NodeView pright(pr_data);
    std::string up = parent.SplitInto(pright);
    NodeView& t = (sep < up) ? parent : pright;
    t.InsertInternal(t.LowerBound(sep), sep, new_child);
    ref.MarkDirty();
    pool_->Unpin(pr_no, /*dirty=*/true);
    sep = std::move(up);
    new_child = pr_no;
  }

  // The root itself split: grow the tree by one level. Only this thread
  // can be here (a root split requires the exclusive root latch we
  // hold), so reading the current height is race-free; the release store
  // publishes the fully initialised new root to starting descents.
  const PageNo old_root = (*path)[0].page();
  const uint32_t height = Height();
  uint8_t* nr_data = nullptr;
  const PageNo new_root = pool_->AllocatePinned(&nr_data);
  NodeView::Init(nr_data, NodeView::kInternal);
  NodeView nroot(nr_data);
  nroot.set_leftmost_child(old_root);
  nroot.InsertInternal(0, sep, new_child);
  pool_->Unpin(new_root, /*dirty=*/true);
  root_word_.store(PackRoot(new_root, height + 1),
                   std::memory_order_release);
  return Status::OK();
}

// --- Reads --------------------------------------------------------------

bool BTree::Get(std::string_view key, std::string* value) const {
  AssertLive();
  PageRef ref = DescendShared(key);
  NodeView leaf(ref.data());
  uint16_t slot;
  if (!leaf.Find(key, &slot)) return false;
  if (value != nullptr) value->assign(leaf.Value(slot));
  return true;
}

bool BTree::Delete(std::string_view key) {
  AssertLive();
  PageRef ref = DescendForWrite(key);
  NodeView leaf(ref.data());
  uint16_t slot;
  if (!leaf.Find(key, &slot)) return false;
  leaf.Remove(slot);
  ref.MarkDirty();
  size_.fetch_sub(1, std::memory_order_release);
  mods_.fetch_add(1, std::memory_order_release);
  return true;
}

// --- Iterator -----------------------------------------------------------

BTree::Iterator::Iterator(const BTree* tree, PageNo leaf, uint16_t slot,
                          uint64_t mod_snapshot, std::string bound,
                          bool bound_inclusive, bool latched)
    : tree_(tree), leaf_(leaf), slot_(slot), mod_snapshot_(mod_snapshot),
      bound_(std::move(bound)), bound_inclusive_(bound_inclusive),
      latched_(latched) {
  Load();
}

void BTree::Iterator::Load() {
  valid_ = false;
  if (latched_) {
    while (leaf_ != kInvalidPageNo) {
      PageRef ref(tree_->pool_, leaf_, LatchMode::kShared);
      if (tree_->mods_.load(std::memory_order_acquire) != mod_snapshot_) {
        // A write landed somewhere in the tree since this position was
        // derived: (leaf_, slot_) may point into a reorganised page.
        // Re-seek from the last returned key instead of trusting it.
        ref.Release();
        Reposition();
        return;
      }
      NodeView node(ref.data());
      assert(node.IsLeaf());
      if (slot_ < node.count()) {
        key_.assign(node.Key(slot_));
        value_.assign(node.Value(slot_));
        valid_ = true;
        return;
      }
      leaf_ = node.right_sibling();
      slot_ = 0;
    }
    return;
  }
  // Quiescent walk (CheckIntegrity's caller keeps the tree quiescent):
  // plain pins, no counter check.
  while (leaf_ != kInvalidPageNo) {
    PageRef ref(tree_->pool_, leaf_);
    NodeView node(ref.data());
    assert(node.IsLeaf());
    if (slot_ < node.count()) {
      key_.assign(node.Key(slot_));
      value_.assign(node.Value(slot_));
      valid_ = true;
      return;
    }
    leaf_ = node.right_sibling();
    slot_ = 0;
  }
}

void BTree::Iterator::Reposition() {
  // Runs with no page latch held. The snapshot is taken before the
  // descent: if yet another write lands mid-descent, the NEXT Load
  // detects it and re-seeks again — but the record loaded here is still
  // read consistently under its leaf latch, so forward progress is
  // guaranteed per call.
  const uint64_t snap = tree_->mods_.load(std::memory_order_acquire);
  PageRef ref = tree_->DescendShared(bound_);
  NodeView node(ref.data());
  uint16_t slot = node.LowerBound(bound_);
  for (;;) {
    if (slot < node.count()) {
      const std::string_view k = node.Key(slot);
      if (bound_inclusive_ || k != bound_) {
        key_.assign(k);
        value_.assign(node.Value(slot));
        leaf_ = ref.page();
        slot_ = slot;
        mod_snapshot_ = snap;
        valid_ = true;
        return;
      }
      ++slot;
      continue;
    }
    const PageNo next = node.right_sibling();
    if (next == kInvalidPageNo) {
      leaf_ = kInvalidPageNo;
      mod_snapshot_ = snap;
      return;
    }
    // Leaf-chain hop, latch-coupled: the next leaf is latched before the
    // current one is released, and pages are never returned to the
    // pager, so the sibling link read under the current latch stays
    // valid for the hop.
    PageRef nref(tree_->pool_, next, LatchMode::kShared);
    ref = std::move(nref);
    node = NodeView(ref.data());
    slot = 0;
  }
}

void BTree::Iterator::Next() {
  assert(valid_);
  bound_ = key_;
  bound_inclusive_ = false;
  ++slot_;
  Load();
}

BTree::Iterator BTree::Seek(std::string_view key) const {
  AssertLive();
  uint64_t snap;
  PageNo leaf_no;
  uint16_t slot;
  {
    snap = mods_.load(std::memory_order_acquire);
    PageRef ref = DescendShared(key);
    NodeView leaf(ref.data());
    slot = leaf.LowerBound(key);
    leaf_no = ref.page();
  }
  return Iterator(this, leaf_no, slot, snap, std::string(key),
                  /*bound_inclusive=*/true, /*latched=*/true);
}

BTree::Iterator BTree::Begin() const {
  AssertLive();
  uint64_t snap;
  PageNo leaf_no;
  {
    snap = mods_.load(std::memory_order_acquire);
    PageRef ref = DescendLeftmost();
    leaf_no = ref.page();
  }
  return Iterator(this, leaf_no, 0, snap, std::string(),
                  /*bound_inclusive=*/true, /*latched=*/true);
}

// --- Validation -----------------------------------------------------------

Status BTree::CheckSubtree(PageNo page, std::string_view lo,
                           std::string_view hi, uint32_t depth,
                           uint32_t* leaf_depth, uint64_t* records) const {
  PageRef ref(pool_, page);
  NodeView node(ref.data());
  if (!node.CheckConsistent()) {
    return Status::Corruption("node failed self-check");
  }
  // Keys must lie within (lo, hi]. Empty bounds mean unbounded.
  for (uint16_t i = 0; i < node.count(); ++i) {
    const std::string_view k = node.Key(i);
    if (!lo.empty() && k < lo) return Status::Corruption("key below bound");
    if (!hi.empty() && k >= hi) return Status::Corruption("key above bound");
  }
  if (node.IsLeaf()) {
    if (*leaf_depth == 0) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Corruption("leaves at differing depths");
    }
    *records += node.count();
    return Status::OK();
  }
  if (node.count() == 0) return Status::Corruption("empty internal node");
  // leftmost child: keys < key[0].
  Status s = CheckSubtree(node.leftmost_child(), lo, node.Key(0), depth + 1,
                          leaf_depth, records);
  if (!s.ok()) return s;
  for (uint16_t i = 0; i < node.count(); ++i) {
    const std::string_view child_lo = node.Key(i);
    const std::string_view child_hi =
        (i + 1 < node.count()) ? node.Key(i + 1) : hi;
    s = CheckSubtree(node.Child(i), child_lo, child_hi, depth + 1, leaf_depth,
                     records);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status BTree::CheckIntegrity() const {
  AssertLive();
  // The caller guarantees quiescence, so the walk below sees a frozen
  // tree and needs no page latches.
  uint32_t leaf_depth = 0;
  uint64_t records = 0;
  Status s = CheckSubtree(root(), {}, {}, 1, &leaf_depth, &records);
  if (!s.ok()) return s;
  if (records != size_.load(std::memory_order_acquire)) {
    return Status::Corruption("record count mismatch");
  }
  if (leaf_depth != Height()) {
    return Status::Corruption("packed height disagrees with leaf depth");
  }
  // Leaf chain must visit exactly `records` keys in strictly increasing
  // order.
  const PageNo first = DescendToLeaf({}, nullptr);
  uint64_t seen = 0;
  std::string prev;
  for (Iterator it(this, first, 0, 0, std::string(), true,
                   /*latched=*/false);
       it.Valid(); it.Next()) {
    if (seen > 0 && !(prev < it.key())) {
      return Status::Corruption("leaf chain out of order");
    }
    prev = it.key();
    ++seen;
  }
  if (seen != records) {
    return Status::Corruption("leaf chain missed records");
  }
  return Status::OK();
}

}  // namespace lss
