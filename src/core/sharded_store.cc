#include "core/sharded_store.h"

#include <algorithm>
#include <string>

namespace lss {

void ShardedStore::DrainInbox(Shard& s) {
  s.inbox.Drain([&s](const DeferredWrite& w) {
    // The arguments were checked when the write was deferred, so a
    // failure here is the shard's sticky error or its closing.
    const Status st = s.shard->Write(w.page, w.bytes);
    NoteFailure(s, st);
  });
}

Status ShardedStore::CheckWriteArgs(PageId page, uint32_t bytes) const {
  if (bytes == 0) bytes = shard_config_.page_bytes;
  if (bytes > shard_config_.segment_bytes) {
    return Status::InvalidArgument("page larger than a segment");
  }
  if (!PageTable::Addressable(page)) {
    return Status::InvalidArgument("page id past the page table's capacity");
  }
  return Status::OK();
}

std::unique_ptr<ShardedStore> ShardedStore::Create(
    const StoreConfig& config, uint32_t num_shards,
    const PolicyFactory& policy_factory, Status* status,
    const BackendFactory& backend_factory) {
  return Build(config, num_shards, policy_factory, backend_factory,
               /*recover=*/false, status);
}

std::unique_ptr<ShardedStore> ShardedStore::Open(
    const StoreConfig& config, uint32_t num_shards,
    const PolicyFactory& policy_factory, Status* status) {
  Status s = ValidateReopenConfig(config);
  if (!s.ok()) {
    if (status != nullptr) *status = std::move(s);
    return nullptr;
  }
  return Build(config, num_shards, policy_factory, nullptr,
               /*recover=*/true, status);
}

Status ShardedStore::Close() {
  Status result = Status::OK();
  for (auto& s : shards_) {
    LockedShard locked(*s);
    s->poisoned.store(true, std::memory_order_relaxed);
    Status st = locked->Close();
    if (!st.ok() && result.ok()) result = std::move(st);
  }
  return result;
}

std::unique_ptr<ShardedStore> ShardedStore::Build(
    const StoreConfig& config, uint32_t num_shards,
    const PolicyFactory& policy_factory,
    const BackendFactory& backend_factory, bool recover, Status* status) {
  auto fail = [status](Status s) -> std::unique_ptr<ShardedStore> {
    if (status != nullptr) *status = std::move(s);
    return nullptr;
  };
  if (num_shards < 1 || num_shards > 1024) {
    return fail(Status::InvalidArgument("num_shards must be in [1, 1024]"));
  }
  if (!policy_factory) {
    return fail(Status::InvalidArgument("policy factory must not be null"));
  }
  Status s = config.Validate();
  if (!s.ok()) return fail(std::move(s));

  // Split the device evenly; any remainder segments are dropped rather
  // than creating unequal shards (at most num_shards - 1 segments, noise
  // at any realistic device size). The clean trigger is a device-wide
  // free-pool reserve (paper §6.1.1) and is split the same way, so N
  // shards do not hold back N full reserves. Batch and write buffer stay
  // per shard: MDC separates pages by sorting large batches (§5.3).
  StoreConfig shard_cfg = config;
  shard_cfg.num_segments = config.num_segments / num_shards;
  shard_cfg.clean_trigger_segments =
      std::max(1u, config.clean_trigger_segments / num_shards);
  s = shard_cfg.Validate();
  if (!s.ok()) {
    return fail(Status::InvalidArgument(
        "per-shard geometry invalid (device too small for " +
        std::to_string(num_shards) + " shards): " + s.message()));
  }

  auto store = std::unique_ptr<ShardedStore>(new ShardedStore());
  store->shard_config_ = shard_cfg;
  store->shards_.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    auto policy = policy_factory();
    if (policy == nullptr) {
      return fail(Status::InvalidArgument("policy factory returned null"));
    }
    std::unique_ptr<SegmentBackend> backend =
        backend_factory ? backend_factory(i) : MakeBackend(shard_cfg);
    auto slot = std::make_unique<Shard>();
    slot->shard = std::make_unique<StoreShard>(shard_cfg, std::move(policy),
                                               &store->table_, i, num_shards,
                                               std::move(backend));
    s = slot->shard->OpenBackend(recover);
    if (s.ok() && recover) s = slot->shard->Recover();
    if (!s.ok()) {
      return fail(Status(s.code(), "shard " + std::to_string(i) + ": " +
                                       s.message()));
    }
    store->shards_.push_back(std::move(slot));
  }
  if (status != nullptr) *status = Status::OK();
  return store;
}

void ShardedStore::SetExactFrequencyOracle(const ExactFrequencyFn& oracle) {
  for (auto& s : shards_) {
    LockedShard locked(*s);
    locked->SetExactFrequencyOracle(oracle);
  }
}

Status ShardedStore::Write(PageId page, uint32_t bytes) {
  Shard& s = *shards_[ShardOf(page)];
  if (!s.mu.try_lock()) return WriteContended(s, page, bytes);
  return WriteLocked(s, page, bytes);
}

Status ShardedStore::WriteLocked(Shard& s, PageId page, uint32_t bytes) {
  LockedShard locked(s, std::adopt_lock);
  Status st = locked->Write(page, bytes);
  // An argument error is this call's alone; any other failure is sticky.
  if (!st.ok() && CheckWriteArgs(page, bytes).ok()) NoteFailure(s, st);
  return st;
}

Status ShardedStore::WriteContended(Shard& s, PageId page, uint32_t bytes) {
  // The holder may be mid-flush for milliseconds: leave the write in the
  // inbox rather than wait. The next operation on the shard applies it;
  // a second try_lock here to apply it at once measured slower.
  if (!s.poisoned.load(std::memory_order_relaxed)) {
    Status st = CheckWriteArgs(page, bytes);
    if (!st.ok()) return st;
    if (s.inbox.TryPush({page, bytes})) return Status::OK();
  }
  // Full inbox (backpressure) or a failed shard, whose error this call
  // must return: wait for the lock.
  s.mu.lock();
  return WriteLocked(s, page, bytes);
}

Status ShardedStore::Delete(PageId page) {
  Shard& s = *shards_[ShardOf(page)];
  LockedShard locked(s);
  Status st = locked->Delete(page);
  if (st.code() != Status::Code::kNotFound) NoteFailure(s, st);
  return st;
}

Status ShardedStore::Flush() {
  // Attempt every shard even after a failure so healthy shards still
  // drain their buffers; report the first error.
  Status result = Status::OK();
  for (auto& s : shards_) {
    LockedShard locked(*s);
    Status st = locked->Flush();
    NoteFailure(*s, st);
    if (!st.ok() && result.ok()) result = std::move(st);
  }
  return result;
}

Status ShardedStore::Checkpoint() {
  Status result = Status::OK();
  for (auto& s : shards_) {
    LockedShard locked(*s);
    Status st = locked->Checkpoint();
    NoteFailure(*s, st);
    if (!st.ok() && result.ok()) result = std::move(st);
  }
  return result;
}

Status ShardedStore::ReadPage(PageId page, std::vector<uint8_t>* out) const {
  LockedShard locked(*shards_[ShardOf(page)]);
  return locked->ReadPage(page, out);
}

bool ShardedStore::Contains(PageId page) const {
  LockedShard locked(*shards_[ShardOf(page)]);
  return locked->Contains(page);
}

uint32_t ShardedStore::PageSize(PageId page) const {
  LockedShard locked(*shards_[ShardOf(page)]);
  return locked->PageSize(page);
}

StoreStats ShardedStore::AggregatedStats() const {
  StoreStats total;
  for (const auto& s : shards_) {
    LockedShard locked(*s);
    // Snapshot, not stats(): async mode keeps device and group-fsync
    // counters on the shard's I/O thread.
    total.Merge(locked->StatsSnapshot());
  }
  return total;
}

void ShardedStore::ResetMeasurement() {
  for (auto& s : shards_) {
    LockedShard locked(*s);
    locked->ResetMeasurement();
  }
}

std::vector<double> ShardedStore::PerShardWriteAmplification() const {
  std::vector<double> wamp;
  wamp.reserve(shards_.size());
  for (const auto& s : shards_) {
    LockedShard locked(*s);
    wamp.push_back(locked->stats().WriteAmplification());
  }
  return wamp;
}

double ShardedStore::CurrentFillFactor() const {
  double fill_sum = 0.0;
  for (const auto& s : shards_) {
    LockedShard locked(*s);
    fill_sum += locked->CurrentFillFactor();
  }
  // Shards have identical device sizes, so the aggregate fill is the mean.
  return shards_.empty() ? 0.0 : fill_sum / static_cast<double>(shards_.size());
}

size_t ShardedStore::LivePageCount() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    LockedShard locked(*s);
    n += locked->LivePageCount();
  }
  return n;
}

Status ShardedStore::CheckInvariants() const {
  for (const auto& s : shards_) {
    LockedShard locked(*s);
    Status st = locked->CheckInvariants();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace lss
