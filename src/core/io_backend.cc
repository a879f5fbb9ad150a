#include "core/io_backend.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#endif

#include <cerrno>

namespace lss {

void FillPagePayload(PageId page, uint32_t bytes, uint8_t* out) {
  uint64_t word_index = 0;
  uint32_t off = 0;
  while (off + 8 <= bytes) {
    const uint64_t w = PagePatternWord(page, word_index++);
    std::memcpy(out + off, &w, 8);
    off += 8;
  }
  if (off < bytes) {
    const uint64_t w = PagePatternWord(page, word_index);
    std::memcpy(out + off, &w, bytes - off);
  }
}

bool VerifyPagePayload(PageId page, uint32_t bytes, const uint8_t* data) {
  uint64_t word_index = 0;
  uint32_t off = 0;
  while (off + 8 <= bytes) {
    const uint64_t w = PagePatternWord(page, word_index++);
    if (std::memcmp(data + off, &w, 8) != 0) return false;
    off += 8;
  }
  if (off < bytes) {
    const uint64_t w = PagePatternWord(page, word_index);
    if (std::memcmp(data + off, &w, bytes - off) != 0) return false;
  }
  return true;
}

std::unique_ptr<SegmentBackend> MakeBackend(const StoreConfig& config) {
  switch (config.backend) {
    case BackendKind::kNull:
      return std::make_unique<NullBackend>();
    case BackendKind::kFile:
      return std::make_unique<FileBackend>();
  }
  return std::make_unique<NullBackend>();
}

Status ValidateReopenConfig(const StoreConfig& config) {
  if (config.backend == BackendKind::kNull) {
    return Status::InvalidArgument(
        "reopen requires a durable backend (the null backend persists "
        "nothing)");
  }
  return Status::OK();
}

#ifdef _WIN32

// The file backend is POSIX-only for now; the interface compiles
// everywhere so the rest of the store stays portable.
FileBackend::~FileBackend() {}
Status FileBackend::Open(const StoreConfig&, uint32_t, uint32_t, StoreStats*,
                         bool) {
  return Status::InvalidArgument("file backend requires a POSIX platform");
}
Status FileBackend::SealSegment(const BackendSegmentRecord&) {
  return Status::InvalidArgument("file backend not open");
}
Status FileBackend::Checkpoint(const BackendSegmentRecord&) {
  return Status::InvalidArgument("file backend not open");
}
Status FileBackend::CheckpointDelta(const BackendSegmentRecord&) {
  return Status::InvalidArgument("file backend not open");
}
Status FileBackend::RehomeEntries(const BackendSegmentRecord&) {
  return Status::InvalidArgument("file backend not open");
}
Status FileBackend::WriteSegmentRecord(const BackendSegmentRecord&, bool) {
  return Status::InvalidArgument("file backend not open");
}
Status FileBackend::Sync() {
  return Status::InvalidArgument("file backend not open");
}
void FileBackend::Abandon() {}
void FileBackend::ReleaseFds() {}
Status FileBackend::ReclaimSegment(SegmentId, UpdateCount) {
  return Status::InvalidArgument("file backend not open");
}
Status FileBackend::RecordDelete(PageId, uint64_t, UpdateCount) {
  return Status::InvalidArgument("file backend not open");
}
Status FileBackend::ReadPagePayload(SegmentId, uint64_t, PageId, uint32_t,
                                    std::vector<uint8_t>*) {
  return Status::InvalidArgument("file backend not open");
}
Status FileBackend::Scan(BackendRecovery*) {
  return Status::InvalidArgument("file backend not open");
}
Status FileBackend::Close() { return Status::OK(); }
std::string FileBackend::DataPath(const std::string& dir, uint32_t shard_id) {
  (void)shard_id;
  return dir;
}
std::string FileBackend::MetaPath(const std::string& dir, uint32_t shard_id) {
  (void)shard_id;
  return dir;
}

#else  // POSIX

namespace {

// Binary metadata-log format. Records are appended in operation order
// and replayed front to back by Scan; a truncated tail (crash mid
// append) simply ends the replay. All fields are fixed-width and the
// structs are laid out padding-free, so a record written on one run
// reads back identically on the next (same-machine durability, which is
// all a per-shard segment file can promise anyway).
constexpr uint32_t kMetaMagic = 0x4C535331;  // "LSS1"

enum MetaType : uint16_t {
  kMetaSeal = 1,
  kMetaFree = 2,
  kMetaDelete = 3,
  kMetaGeometry = 4,
  kMetaCheckpoint = 5,       // open-segment snapshot; SealBody layout
  kMetaRehome = 6,           // re-homed victim entries; SealBody layout
  kMetaCheckpointDelta = 7,  // suffix-only checkpoint; DeltaBody layout
};

// Metadata-log format version, recorded in the geometry record.
//   0  PR 3: seal / free / delete records only.
//   1  adds kMetaCheckpoint (same body layout as a seal record).
//   2  adds kMetaRehome (same body layout; segment_id names the victim
//      slot, no payload accompanies the record).
//   3  adds kMetaCheckpointDelta (DeltaBody): a checkpoint that rewrote
//      only the payload suffix appended since the slot's previous
//      checkpoint record, to which it chains by replay ordinal.
// An older log simply lacks the newer record types, so the current
// reader accepts all four (io_backend_test pins that compatibility).
// The geometry record is written once at create time and never
// rewritten, so a new writer appending to an old log leaves the old
// stamp in place — a crash mid-upgrade yields an older-stamped log
// containing newer records, which the reader therefore parses
// regardless of the stamped format.
constexpr uint32_t kMetaFormatPr3 = 0;
constexpr uint32_t kMetaFormatCheckpoint = 1;
constexpr uint32_t kMetaFormatRehome = 2;
constexpr uint32_t kMetaFormatDelta = 3;

struct MetaHeader {
  uint32_t magic;
  uint16_t type;
  uint16_t reserved;
  uint64_t body_len;
  /// FNV-1a over (type, body_len, body). Detects torn records — a seal
  /// record spans pages and unordered writeback can persist a valid
  /// header whose entry tail never reached the device.
  uint64_t checksum;
};
static_assert(sizeof(MetaHeader) == 24, "MetaHeader must pack to 24 bytes");

uint64_t Fnv1a(uint64_t h, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

uint64_t RecordChecksum(uint16_t type, const void* body, uint64_t body_len) {
  uint64_t h = 0xCBF29CE484222325ull;
  h = Fnv1a(h, &type, sizeof(type));
  h = Fnv1a(h, &body_len, sizeof(body_len));
  return Fnv1a(h, body, body_len);
}

struct SealBody {
  uint32_t segment_id;
  uint32_t log;
  uint64_t source;  // SegmentSource widened for alignment
  uint64_t open_time;
  uint64_t seal_time;
  uint64_t unow;
  uint64_t entry_count;
};
static_assert(sizeof(SealBody) == 48, "SealBody must pack to 48 bytes");

struct EntryRec {
  uint64_t page;
  uint32_t bytes;
  uint32_t reserved;
  uint64_t seq;
  uint64_t last_update;
  double up2;
  double exact_upf;
};
static_assert(sizeof(EntryRec) == 48, "EntryRec must pack to 48 bytes");

// Body of a kMetaCheckpointDelta record: the SealBody fields plus the
// chain linkage. `entry_count` counts only the suffix entries serialised
// after the body (EntryRec array, exactly as in a seal record);
// `prefix_entries` is how many entries of the assembled chain survive
// below this delta — replay truncates to that count, then appends the
// suffix. The whole record is covered by the standard header FNV.
struct DeltaBody {
  uint32_t segment_id;
  uint32_t log;
  uint64_t source;
  uint64_t open_time;
  uint64_t seal_time;
  uint64_t unow;
  uint64_t entry_count;
  uint64_t generation;      // slot fill generation the chain belongs to
  uint64_t base_ordinal;    // replay ordinal of the previous chain record
  uint64_t prefix_entries;  // chain entries retained below this delta
  uint64_t suffix_offset;   // payload byte range this record rewrote:
  uint64_t suffix_length;   //   [suffix_offset, suffix_offset + length)
};
static_assert(sizeof(DeltaBody) == 88, "DeltaBody must pack to 88 bytes");

struct FreeBody {
  uint32_t segment_id;
  uint32_t reserved;
  uint64_t unow;
};
static_assert(sizeof(FreeBody) == 16, "FreeBody must pack to 16 bytes");

struct DeleteBody {
  uint64_t page;
  uint64_t seq;
  uint64_t unow;
};
static_assert(sizeof(DeleteBody) == 24, "DeleteBody must pack to 24 bytes");

// Written once, first, at create time; recovery refuses a file whose
// geometry does not match the reopening store (different shard count,
// segment size or device size silently corrupts page routing) or whose
// format version is newer than this reader.
struct GeometryBody {
  uint32_t shard_id;
  uint32_t num_shards;
  uint32_t num_segments;
  uint32_t segment_bytes;
  uint32_t page_bytes;
  uint32_t format;  // kMetaFormat*; was reserved (== 0) in PR 3 logs
};
static_assert(sizeof(GeometryBody) == 24, "GeometryBody must pack to 24 bytes");

// Serialises one checksummed metadata record (header + body).
std::vector<uint8_t> BuildRecord(uint16_t type, const void* body,
                                 uint64_t body_len) {
  std::vector<uint8_t> rec(sizeof(MetaHeader) + body_len);
  MetaHeader hdr{kMetaMagic, type, 0, body_len,
                 RecordChecksum(type, body, body_len)};
  std::memcpy(rec.data(), &hdr, sizeof(hdr));
  std::memcpy(rec.data() + sizeof(hdr), body, body_len);
  return rec;
}

// ENOSPC is the device's out-of-space, the same condition the simulator
// reports when cleaning cannot reclaim room; everything else is an
// environment failure the caller cannot reason about.
Status ErrnoStatus(const char* what, int err) {
  const std::string msg =
      std::string(what) + ": " + std::strerror(err);
  if (err == ENOSPC || err == EDQUOT) return Status::OutOfSpace(msg);
  return Status::Corruption(msg);
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Full-length pwrite (retries partial writes and EINTR).
Status PwriteAll(int fd, const void* data, size_t len, uint64_t offset) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pwrite", errno);
    }
    p += n;
    offset += static_cast<uint64_t>(n);
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status PreadAll(int fd, void* data, size_t len, uint64_t offset) {
  uint8_t* p = static_cast<uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::pread(fd, p, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread", errno);
    }
    if (n == 0) return Status::Corruption("pread: unexpected end of file");
    p += n;
    offset += static_cast<uint64_t>(n);
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

FileBackend::~FileBackend() { Close(); }

std::string FileBackend::DataPath(const std::string& dir, uint32_t shard_id) {
  char name[32];
  std::snprintf(name, sizeof(name), "/shard-%04u.dat", shard_id);
  return dir + name;
}

std::string FileBackend::MetaPath(const std::string& dir, uint32_t shard_id) {
  char name[32];
  std::snprintf(name, sizeof(name), "/shard-%04u.meta", shard_id);
  return dir + name;
}

Status FileBackend::Open(const StoreConfig& config, uint32_t shard_id,
                         uint32_t num_shards, StoreStats* stats,
                         bool recover) {
  if (data_fd_ >= 0) return Status::InvalidArgument("backend already open");
  config_ = config;
  stats_ = stats;
  shard_id_ = shard_id;
  num_shards_ = num_shards;
  const std::string data_path = DataPath(config.backend_dir, shard_id);
  const std::string meta_path = MetaPath(config.backend_dir, shard_id);

  int flags = O_RDWR;
  if (recover) {
    // Reopen requires the files a previous run left behind.
    struct stat st;
    if (::stat(data_path.c_str(), &st) != 0 ||
        ::stat(meta_path.c_str(), &st) != 0) {
      return Status::NotFound("no durable state to recover in " +
                              config.backend_dir);
    }
  } else {
    flags |= O_CREAT | O_TRUNC;
  }

  direct_io_ = config.backend_direct_io;
  int data_flags = flags;
#ifdef O_DIRECT
  if (direct_io_) data_flags |= O_DIRECT;
#endif
  data_fd_ = ::open(data_path.c_str(), data_flags, 0644);
  if (data_fd_ < 0 && direct_io_ && (errno == EINVAL || errno == EOPNOTSUPP)) {
    // Filesystem refuses O_DIRECT (e.g. tmpfs): fall back to buffered.
    direct_io_ = false;
    data_fd_ = ::open(data_path.c_str(), flags, 0644);
  }
  if (data_fd_ < 0) return ErrnoStatus("open data file", errno);
#ifndef O_DIRECT
  direct_io_ = false;
#endif

  if (direct_io_) {
    // Page reads are sub-segment and unaligned; give them a buffered fd.
    read_fd_ = ::open(data_path.c_str(), O_RDONLY);
    if (read_fd_ < 0) {
      const Status s = ErrnoStatus("open data file for reads", errno);
      Close();
      return s;
    }
  }

  meta_fd_ = ::open(meta_path.c_str(), flags, 0644);
  if (meta_fd_ < 0) {
    const Status s = ErrnoStatus("open meta file", errno);
    Close();
    return s;
  }

  if (!recover) {
    // Reserve the full payload extent so slot offsets are always valid.
    const uint64_t extent = static_cast<uint64_t>(config.num_segments) *
                            config.segment_bytes;
    if (::ftruncate(data_fd_, static_cast<off_t>(extent)) != 0) {
      const Status s = ErrnoStatus("ftruncate data file", errno);
      Close();
      return s;
    }
    meta_offset_ = 0;
  } else {
    struct stat st;
    if (::fstat(meta_fd_, &st) != 0) {
      const Status s = ErrnoStatus("fstat meta file", errno);
      Close();
      return s;
    }
    meta_offset_ = static_cast<uint64_t>(st.st_size);
  }

  // One whole-segment write buffer, page-aligned for O_DIRECT.
  void* buf = nullptr;
  if (::posix_memalign(&buf, 4096, config.segment_bytes) != 0) {
    Close();
    return Status::Corruption("posix_memalign failed");
  }
  payload_buf_ = static_cast<uint8_t*>(buf);

  // Writer-side replay numbering and checkpoint-chain state. On recover
  // the following Scan() re-derives next_ordinal_ from the surviving
  // records; chains always start closed — the first checkpoint of any
  // slot after (re)open is a full one.
  next_ordinal_ = 0;
  chain_tip_ordinal_.assign(config_.num_segments, -1);
  chain_generation_.assign(config_.num_segments, 0);

  if (!recover) {
    // First record: the geometry fingerprint recovery validates against.
    GeometryBody body{shard_id_,           num_shards_,
                      config_.num_segments, config_.segment_bytes,
                      config_.page_bytes,   kMetaFormatDelta};
    const std::vector<uint8_t> rec =
        BuildRecord(kMetaGeometry, &body, sizeof(body));
    Status s = AppendMeta(rec.data(), rec.size());
    if (!s.ok()) {
      Close();
      return s;
    }
  }
  return Status::OK();
}

Status FileBackend::AppendMeta(const void* data, size_t len) {
  const auto t0 = std::chrono::steady_clock::now();
  Status s = PwriteAll(meta_fd_, data, len, meta_offset_);
  if (!s.ok()) return s;
  meta_offset_ += len;
  ++next_ordinal_;
  if (stats_ != nullptr) {
    stats_->device_bytes_written += len;
    stats_->device_write_ops += 1;
    stats_->device_write_seconds += SecondsSince(t0);
  }
  return Status::OK();
}

// A blocking full-length pwrite, timed into the device counters.
Status FileBackend::WritePayload(const uint8_t* buf, uint64_t len,
                                 uint64_t offset) {
  const auto t0 = std::chrono::steady_clock::now();
  Status s = PwriteAll(data_fd_, buf, len, offset);
  if (!s.ok()) return s;
  if (stats_ != nullptr) {
    stats_->device_bytes_written += len;
    stats_->device_write_ops += 1;
    stats_->device_write_seconds += SecondsSince(t0);
  }
  return Status::OK();
}

Status FileBackend::SyncBoth() {
  if (!config_.backend_fsync) return Status::OK();
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t synced = 0;
  if (data_fd_ >= 0) {
    if (::fsync(data_fd_) != 0) return ErrnoStatus("fsync data file", errno);
    ++synced;
  }
  if (meta_fd_ >= 0) {
    if (::fsync(meta_fd_) != 0) return ErrnoStatus("fsync meta file", errno);
    ++synced;
  }
  if (stats_ != nullptr && synced > 0) {
    stats_->device_fsyncs += synced;
    stats_->device_fsync_seconds += SecondsSince(t0);
  }
  return Status::OK();
}

// Reclaimed segments drain in two stages so the *punch* can never
// destroy payload the durable metadata still references (the caller is
// responsible for the complementary ordering: StoreShard withholds
// ReclaimSegment until the victim's relocated pages are in sealed
// segments, so the free record cannot erase the only durable copy):
//   stage 1  the free record is appended to the metadata log — ordered
//            *before* the seal record being written now, so a reclaimed
//            slot that was reallocated and resealed replays correctly;
//   stage 2  only after an fsync has made the free record durable is the
//            payload slot hole-punched (a punch is journalled by the
//            filesystem independently of our unsynced appends, so
//            punching earlier could leave a durable seal record pointing
//            at vanished payload).
// A pending punch for a slot the new seal overwrites is dropped — the
// fresh payload replaces the old bytes anyway.
Status FileBackend::DrainReclaims(bool punching_allowed) {
  for (PendingReclaim& pr : pending_reclaims_) {
    if (pr.record_appended) continue;
    FreeBody body{pr.id, 0, pr.unow};
    const std::vector<uint8_t> rec = BuildRecord(kMetaFree, &body, sizeof(body));
    Status s = AppendMeta(rec.data(), rec.size());
    if (!s.ok()) return s;
    pr.record_appended = true;
    // The free record supersedes every earlier record of the slot; a
    // later checkpoint of the reused slot must start a fresh chain.
    chain_tip_ordinal_[pr.id] = -1;
    // With fsync off we make no crash promises; treat appended as done.
    if (!config_.backend_fsync) pr.record_durable = true;
  }
  if (!punching_allowed) return Status::OK();
  size_t kept = 0;
  for (size_t i = 0; i < pending_reclaims_.size(); ++i) {
    PendingReclaim& pr = pending_reclaims_[i];
    if (!pr.record_durable) {
      pending_reclaims_[kept++] = pr;
      continue;
    }
#ifdef FALLOC_FL_PUNCH_HOLE
    // Filesystems without hole support just skip the punch — the free
    // record is what actually reclaims the segment.
    if (pr.punch &&
        ::fallocate(data_fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                    static_cast<off_t>(static_cast<uint64_t>(pr.id) *
                                       config_.segment_bytes),
                    static_cast<off_t>(config_.segment_bytes)) == 0) {
      if (stats_ != nullptr) {
        stats_->device_bytes_punched += config_.segment_bytes;
      }
    }
#endif
  }
  pending_reclaims_.resize(kept);
  return Status::OK();
}

Status FileBackend::SealSegment(const BackendSegmentRecord& record) {
  return WriteSegmentRecord(record, /*checkpoint=*/false);
}

// A checkpoint is a seal record for a segment that is still open: the
// payload prefix written so far plus a kMetaCheckpoint metadata record.
// Replay treats it as the segment's latest state until a real seal (or
// free record) supersedes it, so a crash after the checkpoint loses only
// the appends since — the partial-segment persistence that closes the
// reseal-while-GC-open crash window (see StoreShard::reclaim_queue_).
Status FileBackend::Checkpoint(const BackendSegmentRecord& record) {
  return WriteSegmentRecord(record, /*checkpoint=*/true);
}

// A delta checkpoint rewrites only the payload suffix appended since the
// shard's durable watermark and appends a kMetaCheckpointDelta record
// chained by ordinal to the slot's previous checkpoint record. Two
// invariants make the partial rewrite safe: the bytes below
// suffix_offset were covered by earlier records of the same chain and
// are never touched, and any overlap between consecutive deltas (the
// shard bases each on the *durable* watermark, so an unsynced delta's
// range may be rewritten) is byte-identical — dead entries keep their
// orig_page pattern, exactly as in a full rewrite.
Status FileBackend::CheckpointDelta(const BackendSegmentRecord& record) {
  if (data_fd_ < 0) return Status::InvalidArgument("backend not open");
  if (record.id >= config_.num_segments) {
    return Status::InvalidArgument("delta checkpoint: segment id out of range");
  }
  if (record.suffix_offset > config_.segment_bytes ||
      record.suffix_length > config_.segment_bytes - record.suffix_offset) {
    return Status::InvalidArgument("delta checkpoint: suffix out of range");
  }
  // Same pre-write ordering as a full rewrite: drop any pending punch of
  // this slot and put queued free records on the log first (a queued
  // free record for this very slot also closes its chain, so the guard
  // below must run after the drain).
  for (PendingReclaim& pr : pending_reclaims_) {
    if (pr.id == record.id) pr.punch = false;
  }
  Status s = DrainReclaims(/*punching_allowed=*/false);
  if (!s.ok()) return s;

  if (chain_tip_ordinal_[record.id] < 0 ||
      chain_generation_[record.id] != record.generation) {
    // The shard must fall back to a full checkpoint whenever the slot
    // generation changed or no prior checkpoint exists; reaching here is
    // a caller bug, not a device state we can write through.
    return Status::InvalidArgument(
        "delta checkpoint without a matching chain base");
  }

  // Suffix payload, built at buffer offset (entry.offset - suffix_offset).
  // Entries must tile the declared range exactly — a mismatch means the
  // caller's watermark bookkeeping is broken.
  uint8_t* buf = payload_buf_;
  uint64_t cursor = record.suffix_offset;
  for (const Segment::Entry& e : record.entries) {
    if (e.offset != cursor ||
        cursor + e.bytes > record.suffix_offset + record.suffix_length) {
      return Status::Corruption("delta checkpoint: entries do not tile suffix");
    }
    const PageId payload_page = e.page != kInvalidPage ? e.page : e.orig_page;
    if (payload_page != kInvalidPage) {
      FillPagePayload(payload_page, e.bytes,
                      buf + (cursor - record.suffix_offset));
    } else {
      std::memset(buf + (cursor - record.suffix_offset), 0, e.bytes);
    }
    cursor += e.bytes;
  }
  if (cursor != record.suffix_offset + record.suffix_length) {
    return Status::Corruption("delta checkpoint: entries do not tile suffix");
  }

  if (record.suffix_length > 0) {
    s = WritePayload(buf, record.suffix_length,
                     static_cast<uint64_t>(record.id) * config_.segment_bytes +
                         record.suffix_offset);
    if (!s.ok()) return s;
  }

  std::vector<uint8_t> meta_body(sizeof(DeltaBody) +
                                 record.entries.size() * sizeof(EntryRec));
  DeltaBody body{};
  body.segment_id = record.id;
  body.log = record.log;
  body.source = static_cast<uint64_t>(record.source);
  body.open_time = record.open_time;
  body.seal_time = record.seal_time;
  body.unow = record.unow;
  body.entry_count = record.entries.size();
  body.generation = record.generation;
  body.base_ordinal =
      static_cast<uint64_t>(chain_tip_ordinal_[record.id]);
  body.prefix_entries = record.prefix_entries;
  body.suffix_offset = record.suffix_offset;
  body.suffix_length = record.suffix_length;
  std::memcpy(meta_body.data(), &body, sizeof(body));
  uint8_t* p = meta_body.data() + sizeof(body);
  for (const Segment::Entry& e : record.entries) {
    EntryRec er{};
    er.page = e.page;
    er.bytes = e.bytes;
    er.seq = e.seq;
    er.last_update = e.last_update;
    er.up2 = e.up2;
    er.exact_upf = e.exact_upf;
    std::memcpy(p, &er, sizeof(er));
    p += sizeof(er);
  }
  const std::vector<uint8_t> rec =
      BuildRecord(kMetaCheckpointDelta, meta_body.data(), meta_body.size());
  s = AppendMeta(rec.data(), rec.size());
  if (!s.ok()) return s;
  chain_tip_ordinal_[record.id] = static_cast<int64_t>(next_ordinal_ - 1);
  if (stats_ != nullptr) {
    stats_->checkpoint_bytes_written += record.suffix_length + rec.size();
  }
  if (deferred_sync_) return Status::OK();
  s = SyncBoth();
  if (!s.ok()) return s;
  for (PendingReclaim& pr : pending_reclaims_) {
    if (pr.record_appended) pr.record_durable = true;
  }
  return DrainReclaims(/*punching_allowed=*/true);
}

// A re-homing record carries the still-needed entries of a withheld
// victim slot (`record.id`) and NO payload — those entries' payloads are
// pattern-reconstructible, and the victim slot's own payload is about to
// be overwritten by its new occupant. The record must be DURABLE before
// the shard reuses the slot, even in group-commit mode: a crashing
// rewrite of the slot may tear the victim's payload while a batch-end
// Sync never arrives, and replay would otherwise still resolve the
// victim's pages to its stale (now torn) seal record. Hence the forced
// SyncBoth here — which also makes every earlier append (the records
// superseding the entries NOT re-homed, and the stage-1 free records)
// durable, completing the re-homing invariant in one barrier. With
// backend_fsync off no crash promises exist and SyncBoth is a no-op.
Status FileBackend::RehomeEntries(const BackendSegmentRecord& record) {
  if (meta_fd_ < 0) return Status::InvalidArgument("backend not open");
  if (record.id >= config_.num_segments) {
    return Status::InvalidArgument("rehome: segment id out of range");
  }
  // Stage-1 drain: queued free records (including, typically, the
  // victim's own) land before the re-homing record, matching emission
  // order = log order.
  Status s = DrainReclaims(/*punching_allowed=*/false);
  if (!s.ok()) return s;

  std::vector<uint8_t> meta_body(sizeof(SealBody) +
                                 record.entries.size() * sizeof(EntryRec));
  SealBody body{};
  body.segment_id = record.id;
  body.log = record.log;
  body.source = static_cast<uint64_t>(record.source);
  body.open_time = record.open_time;
  body.seal_time = record.seal_time;
  body.unow = record.unow;
  body.entry_count = record.entries.size();
  std::memcpy(meta_body.data(), &body, sizeof(body));
  uint8_t* p = meta_body.data() + sizeof(body);
  for (const Segment::Entry& e : record.entries) {
    EntryRec er{};
    er.page = e.page;
    er.bytes = e.bytes;
    er.seq = e.seq;
    er.last_update = e.last_update;
    er.up2 = e.up2;
    er.exact_upf = e.exact_upf;
    std::memcpy(p, &er, sizeof(er));
    p += sizeof(er);
  }
  const std::vector<uint8_t> rec =
      BuildRecord(kMetaRehome, meta_body.data(), meta_body.size());
  s = AppendMeta(rec.data(), rec.size());
  if (!s.ok()) return s;
  // Durability barrier, deliberately ignoring deferred_sync_.
  s = SyncBoth();
  if (!s.ok()) return s;
  for (PendingReclaim& pr : pending_reclaims_) {
    if (pr.record_appended) pr.record_durable = true;
  }
  return DrainReclaims(/*punching_allowed=*/true);
}

Status FileBackend::WriteSegmentRecord(const BackendSegmentRecord& record,
                                       bool checkpoint) {
  if (data_fd_ < 0) return Status::InvalidArgument("backend not open");
  if (record.id >= config_.num_segments) {
    return Status::InvalidArgument("seal: segment id out of range");
  }

  // A punch pending against the slot we are about to rewrite would
  // destroy the new payload; the overwrite supersedes it.
  for (PendingReclaim& pr : pending_reclaims_) {
    if (pr.id == record.id) pr.punch = false;
  }
  // Stage-1 drain: free records land before this seal record.
  Status s = DrainReclaims(/*punching_allowed=*/false);
  if (!s.ok()) return s;

  // Payload: live entries carry the deterministic pattern; entries that
  // died in place keep their ORIGINAL pattern (orig_page) so every
  // rewrite of this slot produces byte-identical content for regions an
  // earlier durable record (a checkpoint of the same segment) may still
  // reference — a torn rewrite then only garbles the new suffix, whose
  // only referencing record dies with the crash. Only entries whose
  // original page is unknown (recovery-reconstructed dead entries, never
  // rewritten) and the unused tail are zero-filled.
  uint8_t* buf = payload_buf_;
  uint64_t cursor = 0;
  for (const Segment::Entry& e : record.entries) {
    if (cursor + e.bytes > config_.segment_bytes) {
      return Status::Corruption("seal: entries overflow segment capacity");
    }
    const PageId payload_page = e.page != kInvalidPage ? e.page : e.orig_page;
    if (payload_page != kInvalidPage) {
      FillPagePayload(payload_page, e.bytes, buf + cursor);
    } else {
      std::memset(buf + cursor, 0, e.bytes);
    }
    cursor += e.bytes;
  }
  std::memset(buf + cursor, 0, config_.segment_bytes - cursor);

  s = WritePayload(buf, config_.segment_bytes,
                   static_cast<uint64_t>(record.id) * config_.segment_bytes);
  if (!s.ok()) return s;

  // Metadata record: body + entry array, checksummed as one record.
  std::vector<uint8_t> meta_body(sizeof(SealBody) +
                                 record.entries.size() * sizeof(EntryRec));
  SealBody body{};
  body.segment_id = record.id;
  body.log = record.log;
  body.source = static_cast<uint64_t>(record.source);
  body.open_time = record.open_time;
  body.seal_time = record.seal_time;
  body.unow = record.unow;
  body.entry_count = record.entries.size();
  std::memcpy(meta_body.data(), &body, sizeof(body));
  uint8_t* p = meta_body.data() + sizeof(body);
  for (const Segment::Entry& e : record.entries) {
    EntryRec er{};
    er.page = e.page;
    er.bytes = e.bytes;
    er.seq = e.seq;
    er.last_update = e.last_update;
    er.up2 = e.up2;
    er.exact_upf = e.exact_upf;
    std::memcpy(p, &er, sizeof(er));
    p += sizeof(er);
  }
  const std::vector<uint8_t> rec = BuildRecord(
      checkpoint ? kMetaCheckpoint : kMetaSeal, meta_body.data(),
      meta_body.size());
  s = AppendMeta(rec.data(), rec.size());
  if (!s.ok()) return s;
  if (checkpoint) {
    // This record is now the slot's chain tip: deltas may chain onto it
    // as long as the shard stays in the same fill generation.
    chain_tip_ordinal_[record.id] = static_cast<int64_t>(next_ordinal_ - 1);
    chain_generation_[record.id] = record.generation;
    if (stats_ != nullptr) {
      stats_->checkpoint_bytes_written += config_.segment_bytes + rec.size();
    }
  } else {
    // A real seal supersedes the chain; the slot re-records in full next.
    chain_tip_ordinal_[record.id] = -1;
  }
  // Group-commit mode: durability (and the punches that require it)
  // arrives with the pipeline's next explicit Sync().
  if (deferred_sync_) return Status::OK();
  s = SyncBoth();
  if (!s.ok()) return s;
  // Everything appended so far — including the stage-1 free records —
  // is now durable; stage-2 punches are safe.
  for (PendingReclaim& pr : pending_reclaims_) {
    if (pr.record_appended) pr.record_durable = true;
  }
  return DrainReclaims(/*punching_allowed=*/true);
}

Status FileBackend::Sync() {
  if (data_fd_ < 0 && meta_fd_ < 0) {
    return Status::InvalidArgument("backend not open");
  }
  // Free records queued since the last seal must be on the log before
  // the fsync that this group commit promises covers them.
  Status s = DrainReclaims(/*punching_allowed=*/false);
  if (!s.ok()) return s;
  s = SyncBoth();
  if (!s.ok()) return s;
  for (PendingReclaim& pr : pending_reclaims_) {
    if (pr.record_appended) pr.record_durable = true;
  }
  return DrainReclaims(/*punching_allowed=*/true);
}

Status FileBackend::ReclaimSegment(SegmentId id, UpdateCount unow) {
  if (data_fd_ < 0) return Status::InvalidArgument("backend not open");
  if (id >= config_.num_segments) {
    return Status::InvalidArgument("reclaim: segment id out of range");
  }
  // Deferred: the free record and the hole punch happen on the next
  // seal/close (see DrainReclaims). Losing a queued reclaim to a crash
  // is benign — recovery sees the victim still sealed, and its stale
  // entries lose newest-wins to the relocated copies, or faithfully
  // restore the pre-clean state if those copies' seal was lost too.
  pending_reclaims_.push_back(PendingReclaim{id, unow, false, false, true});
  return Status::OK();
}

Status FileBackend::RecordDelete(PageId page, uint64_t seq, UpdateCount unow) {
  if (meta_fd_ < 0) return Status::InvalidArgument("backend not open");
  DeleteBody body{page, seq, unow};
  const std::vector<uint8_t> rec = BuildRecord(kMetaDelete, &body, sizeof(body));
  Status s = AppendMeta(rec.data(), rec.size());
  if (!s.ok()) return s;
  // In fsync mode an acknowledged delete must survive a crash, exactly
  // like an acknowledged seal; only the metadata log needs syncing. (A
  // lost *reclaim* record, by contrast, is benign: recovery then sees
  // the victim still sealed, and its stale entries lose newest-wins to
  // the relocated copies — or faithfully restore the pre-clean state if
  // those copies' seal was lost too.) In group-commit mode the
  // pipeline's next Sync() covers the tombstone instead.
  if (config_.backend_fsync && !deferred_sync_) {
    const auto t0 = std::chrono::steady_clock::now();
    if (::fsync(meta_fd_) != 0) return ErrnoStatus("fsync meta file", errno);
    if (stats_ != nullptr) {
      stats_->device_fsyncs += 1;
      stats_->device_fsync_seconds += SecondsSince(t0);
    }
  }
  return Status::OK();
}

Status FileBackend::ReadPagePayload(SegmentId id, uint64_t offset, PageId page,
                                    uint32_t bytes, std::vector<uint8_t>* out) {
  if (read_fd_ < 0 && data_fd_ < 0) {
    return Status::InvalidArgument("backend not open");
  }
  if (id >= config_.num_segments ||
      offset + bytes > config_.segment_bytes) {
    return Status::InvalidArgument("read: location out of range");
  }
  // Reads go through the buffered fd: page reads are sub-segment and
  // unaligned, which O_DIRECT rejects.
  const int fd = read_fd_ >= 0 ? read_fd_ : data_fd_;
  out->resize(bytes);
  Status s = PreadAll(fd, out->data(), bytes,
                      static_cast<uint64_t>(id) * config_.segment_bytes +
                          offset);
  if (!s.ok()) return s;
  if (!VerifyPagePayload(page, bytes, out->data())) {
    return Status::Corruption("read: payload does not match page pattern");
  }
  return Status::OK();
}

Status FileBackend::Scan(BackendRecovery* out) {
  if (meta_fd_ < 0) return Status::InvalidArgument("backend not open");
  *out = BackendRecovery{};

  struct stat st;
  if (::fstat(meta_fd_, &st) != 0) return ErrnoStatus("fstat meta", errno);
  std::vector<uint8_t> log(static_cast<size_t>(st.st_size));
  if (!log.empty()) {
    Status s = PreadAll(meta_fd_, log.data(), log.size(), 0);
    if (!s.ok()) return s;
  }

  // The log must lead with a geometry record matching the reopening
  // store, or recovery would silently misroute pages.
  {
    if (log.size() < sizeof(MetaHeader) + sizeof(GeometryBody)) {
      return Status::Corruption("recovery: metadata log has no geometry");
    }
    MetaHeader hdr;
    std::memcpy(&hdr, log.data(), sizeof(hdr));
    if (hdr.magic != kMetaMagic || hdr.type != kMetaGeometry ||
        hdr.body_len != sizeof(GeometryBody) ||
        hdr.checksum != RecordChecksum(hdr.type, log.data() + sizeof(hdr),
                                       hdr.body_len)) {
      return Status::Corruption("recovery: metadata log has no geometry");
    }
    GeometryBody gb;
    std::memcpy(&gb, log.data() + sizeof(hdr), sizeof(gb));
    if (gb.shard_id != shard_id_ || gb.num_shards != num_shards_ ||
        gb.num_segments != config_.num_segments ||
        gb.segment_bytes != config_.segment_bytes ||
        gb.page_bytes != config_.page_bytes) {
      return Status::Corruption(
          "recovery: store geometry mismatch (created with " +
          std::to_string(gb.num_shards) + " shards, " +
          std::to_string(gb.num_segments) + " segments of " +
          std::to_string(gb.segment_bytes) + " bytes)");
    }
    // Older logs (format 0/1) simply lack the newer record types and
    // replay unchanged; a format newer than this reader could hold
    // records we would misparse as a torn tail and silently truncate.
    // Note the stamp is a lower bound only: a new writer appending to a
    // reopened old log never rewrites the geometry record, so the
    // replay below parses every known record type regardless of stamp.
    if (gb.format != kMetaFormatPr3 && gb.format != kMetaFormatCheckpoint &&
        gb.format != kMetaFormatRehome && gb.format != kMetaFormatDelta) {
      return Status::Corruption(
          "recovery: metadata log format " + std::to_string(gb.format) +
          " is newer than this build supports");
    }
  }

  // Replay: the latest record per segment wins. Replay stops at the
  // first bad record (missing magic, impossible length, checksum
  // mismatch) — the standard WAL rule: a torn tail is expected after a
  // crash, and nothing after a corrupt record can be trusted because
  // replay is order-sensitive.
  std::vector<int64_t> latest_seal(config_.num_segments, -1);
  std::vector<BackendSegmentRecord> seals;
  size_t off = 0;
  uint64_t valid_end = 0;
  // Replay position of each record; recovery breaks equal-seq ties
  // between page versions toward the later record (see
  // BackendSegmentRecord::ordinal).
  uint64_t ordinal = 0;
  while (off + sizeof(MetaHeader) <= log.size()) {
    MetaHeader hdr;
    std::memcpy(&hdr, log.data() + off, sizeof(hdr));
    if (hdr.magic != kMetaMagic) break;
    // Overflow-safe bounds check: a corrupt body_len must truncate the
    // replay, not wrap the sum past log.size().
    if (hdr.body_len > log.size() - off - sizeof(hdr)) break;
    const uint8_t* body = log.data() + off + sizeof(hdr);
    // Torn-write detection: unordered page writeback can persist a valid
    // header whose body tail never reached the device.
    if (hdr.checksum != RecordChecksum(hdr.type, body, hdr.body_len)) break;
    if (hdr.type == kMetaSeal || hdr.type == kMetaCheckpoint ||
        hdr.type == kMetaRehome) {
      if (hdr.body_len < sizeof(SealBody)) break;
      SealBody sb;
      std::memcpy(&sb, body, sizeof(sb));
      if (sb.entry_count > (hdr.body_len - sizeof(SealBody)) / sizeof(EntryRec))
        break;
      if (hdr.body_len != sizeof(SealBody) + sb.entry_count * sizeof(EntryRec))
        break;
      if (sb.segment_id >= config_.num_segments) break;
      BackendSegmentRecord rec;
      rec.id = sb.segment_id;
      rec.log = sb.log;
      rec.source = static_cast<SegmentSource>(sb.source);
      rec.open_time = sb.open_time;
      rec.seal_time = sb.seal_time;
      rec.unow = sb.unow;
      rec.checkpoint = hdr.type == kMetaCheckpoint;
      rec.ordinal = ordinal;
      rec.entries.reserve(sb.entry_count);
      const uint8_t* ep = body + sizeof(sb);
      for (uint64_t i = 0; i < sb.entry_count; ++i) {
        EntryRec er;
        std::memcpy(&er, ep + i * sizeof(er), sizeof(er));
        Segment::Entry e;
        e.page = er.page;
        e.bytes = er.bytes;
        e.seq = er.seq;
        e.last_update = er.last_update;
        e.up2 = er.up2;
        e.exact_upf = er.exact_upf;
        out->max_seq = std::max(out->max_seq, e.seq);
        rec.entries.push_back(e);
      }
      out->unow = std::max(out->unow, sb.unow);
      if (hdr.type == kMetaRehome) {
        // Every re-homing record is kept, in replay order: records for
        // the same slot name different victim incarnations, and a free
        // record for the slot must not clear them (the victim's free
        // record lands alongside its re-homing record by design).
        // Recovery resolves the entries per page, newest-wins.
        out->rehomed.push_back(std::move(rec));
      } else {
        latest_seal[sb.segment_id] = static_cast<int64_t>(seals.size());
        seals.push_back(std::move(rec));
      }
    } else if (hdr.type == kMetaCheckpointDelta) {
      if (hdr.body_len < sizeof(DeltaBody)) break;
      DeltaBody db;
      std::memcpy(&db, body, sizeof(db));
      if (db.entry_count > (hdr.body_len - sizeof(DeltaBody)) / sizeof(EntryRec))
        break;
      if (hdr.body_len != sizeof(DeltaBody) + db.entry_count * sizeof(EntryRec))
        break;
      if (db.segment_id >= config_.num_segments) break;
      if (db.suffix_offset > config_.segment_bytes ||
          db.suffix_length > config_.segment_bytes - db.suffix_offset) {
        break;
      }
      BackendSegmentRecord rec;
      rec.id = db.segment_id;
      rec.log = db.log;
      rec.source = static_cast<SegmentSource>(db.source);
      rec.open_time = db.open_time;
      rec.seal_time = db.seal_time;
      rec.unow = db.unow;
      rec.checkpoint = true;
      rec.delta = true;
      rec.ordinal = ordinal;
      rec.generation = db.generation;
      rec.base_ordinal = db.base_ordinal;
      rec.prefix_entries = db.prefix_entries;
      rec.suffix_offset = db.suffix_offset;
      rec.suffix_length = db.suffix_length;
      rec.entries.reserve(db.entry_count);
      const uint8_t* ep = body + sizeof(db);
      uint64_t suffix_bytes = 0;
      for (uint64_t i = 0; i < db.entry_count; ++i) {
        EntryRec er;
        std::memcpy(&er, ep + i * sizeof(er), sizeof(er));
        Segment::Entry e;
        e.page = er.page;
        e.bytes = er.bytes;
        e.seq = er.seq;
        e.last_update = er.last_update;
        e.up2 = er.up2;
        e.exact_upf = er.exact_upf;
        out->max_seq = std::max(out->max_seq, e.seq);
        suffix_bytes += e.bytes;
        rec.entries.push_back(e);
      }
      if (suffix_bytes != db.suffix_length) break;
      out->unow = std::max(out->unow, db.unow);
      // Deltas are NOT last-record-per-slot resolved: recovery walks the
      // chain from the surviving base record, and a delta orphaned by a
      // later seal/free/full-checkpoint never matches any chain tip.
      out->deltas.push_back(std::move(rec));
    } else if (hdr.type == kMetaFree) {
      if (hdr.body_len != sizeof(FreeBody)) break;
      FreeBody fb;
      std::memcpy(&fb, body, sizeof(fb));
      if (fb.segment_id >= config_.num_segments) break;
      latest_seal[fb.segment_id] = -1;
      out->unow = std::max(out->unow, fb.unow);
    } else if (hdr.type == kMetaDelete) {
      if (hdr.body_len != sizeof(DeleteBody)) break;
      DeleteBody db;
      std::memcpy(&db, body, sizeof(db));
      out->deletes.emplace_back(db.page, db.seq);
      out->max_seq = std::max(out->max_seq, db.seq);
      out->unow = std::max(out->unow, db.unow);
    } else if (hdr.type == kMetaGeometry) {
      // Validated above; nothing to replay.
    } else {
      break;
    }
    off += sizeof(hdr) + hdr.body_len;
    valid_end = off;
    ++ordinal;
  }

  for (SegmentId id = 0; id < config_.num_segments; ++id) {
    if (latest_seal[id] >= 0) {
      out->segments.push_back(std::move(seals[latest_seal[id]]));
    }
  }
  // Future appends continue after the last whole record, numbered where
  // the replay left off; every checkpoint chain is closed (the recovered
  // segments are rebuilt as sealed, so the first checkpoint of any slot
  // in the new run is a full one).
  next_ordinal_ = ordinal;
  chain_tip_ordinal_.assign(config_.num_segments, -1);
  // The truncated tail is cut off the file, not just skipped: stale
  // bytes past the new append position could otherwise be misparsed as
  // records by the *next* recovery once fresh appends stop short of them.
  meta_offset_ = valid_end;
  if (valid_end < log.size() &&
      ::ftruncate(meta_fd_, static_cast<off_t>(valid_end)) != 0) {
    return ErrnoStatus("ftruncate meta tail", errno);
  }
  return Status::OK();
}

Status FileBackend::Close() {
  Status result = Status::OK();
  if (data_fd_ >= 0 && meta_fd_ >= 0) {
    // Flush queued reclaims: records first, sync, then punches.
    result = DrainReclaims(/*punching_allowed=*/false);
    if (result.ok()) result = SyncBoth();
    if (result.ok()) {
      for (PendingReclaim& pr : pending_reclaims_) {
    if (pr.record_appended) pr.record_durable = true;
  }
      result = DrainReclaims(/*punching_allowed=*/true);
    }
  } else if (data_fd_ >= 0 || meta_fd_ >= 0) {
    result = SyncBoth();
  }
  ReleaseFds();
  return result;
}

// Power-loss simulation: the queued free records and any unsynced
// appends simply never happen, exactly as if the process died here.
void FileBackend::Abandon() {
  pending_reclaims_.clear();
  ReleaseFds();
}

void FileBackend::ReleaseFds() {
  if (data_fd_ >= 0) {
    ::close(data_fd_);
    data_fd_ = -1;
  }
  if (read_fd_ >= 0) {
    ::close(read_fd_);
    read_fd_ = -1;
  }
  if (meta_fd_ >= 0) {
    ::close(meta_fd_);
    meta_fd_ = -1;
  }
  std::free(payload_buf_);
  payload_buf_ = nullptr;
}

#endif  // POSIX

// --- FaultInjectionBackend crash simulation --------------------------------

void FaultInjectionBackend::CrashAfterOps(int64_t ops, uint64_t seed) {
  crash_seed_ = seed;
  crash_budget_.store(ops, std::memory_order_release);
}

bool FaultInjectionBackend::CrashGate(Status* out,
                                      const BackendSegmentRecord* record) {
  if (crashed_.load(std::memory_order_acquire)) {
    *out = CrashedStatus();
    return false;
  }
  // Mutating ops are serialised (one thread drives a backend at a time),
  // but CrashAfterOps may arm from another thread mid-run; the atomics
  // make that handoff race-free.
  if (crash_budget_.load(std::memory_order_relaxed) == kCrashDisarmed) {
    return true;
  }
  if (crash_budget_.fetch_sub(1, std::memory_order_acq_rel) > 0) return true;
  TearAndDie(record);
  *out = CrashedStatus();
  return false;
}

void FaultInjectionBackend::TearAndDie(const BackendSegmentRecord* record) {
  const bool file_base =
      base_->name() == "file" && config_.backend == BackendKind::kFile;
  // Drop the base first: its queued free records and any other pending
  // work die with the "process", never reaching the files we tear below.
  base_->Abandon();
  crashed_.store(true, std::memory_order_release);
  if (!file_base) return;
#ifndef _WIN32
  Rng rng(crash_seed_);
  const std::string meta_path =
      FileBackend::MetaPath(config_.backend_dir, shard_id_);
  const std::string data_path =
      FileBackend::DataPath(config_.backend_dir, shard_id_);

  // The crashing record was mid-append: leave the log tail the way an
  // interrupted writeback would — a clean cut, loose garbage, or a
  // valid-looking header whose body never fully landed (the torn-record
  // case Scan's checksums must catch).
  const uint64_t style = rng.NextBounded(4);
  int mfd = ::open(meta_path.c_str(), O_WRONLY | O_APPEND);
  if (mfd >= 0) {
    if (style == 1 || style == 3) {
      struct TornHeader {
        uint32_t magic;
        uint16_t type;
        uint16_t reserved;
        uint64_t body_len;
        uint64_t checksum;
      } hdr{0x4C535331u, 1, 0, 64 + rng.NextBounded(4096), rng()};
      (void)!::write(mfd, &hdr, sizeof(hdr));
      uint8_t junk[512];
      const size_t body = static_cast<size_t>(
          rng.NextBounded(std::min<uint64_t>(hdr.body_len, sizeof(junk))));
      for (size_t i = 0; i < body; ++i) {
        junk[i] = static_cast<uint8_t>(rng());
      }
      (void)!::write(mfd, junk, body);
    } else if (style == 2) {
      uint8_t junk[96];
      const size_t n = 1 + static_cast<size_t>(rng.NextBounded(sizeof(junk)));
      for (size_t i = 0; i < n; ++i) {
        junk[i] = static_cast<uint8_t>(rng());
      }
      (void)!::write(mfd, junk, n);
    }
    ::close(mfd);
  }

  // A seal or checkpoint that died mid-payload leaves its slot partially
  // overwritten. A real torn pwrite leaves every byte at either its old
  // or its NEW value — so the tear must write a prefix of the payload
  // the crashing op would actually have produced (same reconstruction as
  // FileBackend::WriteSegmentRecord), not arbitrary junk: regions an
  // earlier durable record of this slot references are byte-identical in
  // the rewrite (Segment::Entry::orig_page keeps dead entries stable),
  // so only bytes no surviving metadata record describes can change.
  // For a delta checkpoint only the suffix range was in flight: the tear
  // writes a random prefix of the suffix payload at suffix_offset and
  // never touches the bytes below it — those belong to earlier durable
  // records of the chain and real hardware was not writing them.
  if (record != nullptr && (style == 3 || rng.NextBounded(2) == 0)) {
    int dfd = ::open(data_path.c_str(), O_WRONLY);
    if (dfd >= 0) {
      const uint64_t range_base = record->delta ? record->suffix_offset : 0;
      const uint64_t range_len =
          record->delta ? record->suffix_length : config_.segment_bytes;
      std::vector<uint8_t> payload(static_cast<size_t>(range_len), 0);
      uint64_t cursor = range_base;
      for (const Segment::Entry& e : record->entries) {
        const uint64_t at = record->delta ? e.offset : cursor;
        if (at < range_base || at + e.bytes > range_base + range_len) break;
        const PageId payload_page =
            e.page != kInvalidPage ? e.page : e.orig_page;
        if (payload_page != kInvalidPage) {
          FillPagePayload(payload_page, e.bytes,
                          payload.data() + (at - range_base));
        }
        cursor = at + e.bytes;
      }
      const size_t len = static_cast<size_t>(rng.NextBounded(range_len + 1));
      if (len > 0) {
        (void)!::pwrite(dfd, payload.data(), len,
                        static_cast<off_t>(static_cast<uint64_t>(record->id) *
                                               config_.segment_bytes +
                                           range_base));
      }
      ::close(dfd);
    }
  }
#else
  (void)record;
#endif
}

}  // namespace lss
