#include "rdb/wal.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <unordered_map>
#include <vector>

#include "rdb/database.h"
#include "rdb/table.h"
#include "rdb/vfs.h"

namespace xupd::rdb {

namespace {

constexpr char kWalMagic[8] = {'X', 'U', 'P', 'D', 'W', 'A', 'L', '1'};
constexpr uint32_t kWalFormatVersion = 2;
/// magic + u32 version + u64 epoch.
constexpr size_t kWalHeaderSize = 8 + 4 + 8;
/// A frame length beyond this is treated as garbage (torn tail), not an
/// allocation request.
constexpr uint32_t kMaxFramePayload = 1u << 30;

enum class RecordKind : uint8_t {
  kInsert = 1,
  kDelete = 2,
  kUpdate = 3,
  kDdl = 4,
  kCommit = 5,
  /// Interns a table name: u16 id | str name. Emitted once per WAL file
  /// before the first data record naming the table; every insert/delete/
  /// update record carries the u16 id instead of the name (~30% wal_bytes
  /// on narrow tables).
  kTableDef = 6,
};

}  // namespace

const char* ToString(SyncMode mode) {
  switch (mode) {
    case SyncMode::kNone:
      return "none";
    case SyncMode::kCommit:
      return "commit";
    case SyncMode::kBatched:
      return "batched";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// binio

namespace binio {

namespace {

/// Slice-by-8 tables of the reflected CRC-32 polynomial 0xEDB88320:
/// t[0] is the bytewise table, and t[k][b] is the CRC of byte b
/// followed by k zero bytes, so one step folds in eight bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

/// Little-endian 32-bit load (one mov on x86).
uint32_t LoadU32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t prev) {
  static const CrcTables kT = MakeCrcTables();
  uint32_t c = prev ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; size >= 8; size -= 8, p += 8) {
    const uint32_t lo = LoadU32(p) ^ c;
    const uint32_t hi = LoadU32(p + 4);
    c = kT[7][lo & 0xFFu] ^ kT[6][(lo >> 8) & 0xFFu] ^
        kT[5][(lo >> 16) & 0xFFu] ^ kT[4][lo >> 24] ^ kT[3][hi & 0xFFu] ^
        kT[2][(hi >> 8) & 0xFFu] ^ kT[1][(hi >> 16) & 0xFFu] ^ kT[0][hi >> 24];
  }
  for (; size > 0; --size, ++p) {
    c = kT[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xFFu));
  out->push_back(static_cast<char>((v >> 8) & 0xFFu));
}

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) {
    b[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
  out->append(b, 8);
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

void PutValue(std::string* out, const Value& v) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      PutI64(out, v.AsInt());
      break;
    case ValueType::kString:
      PutString(out, v.AsString());
      break;
  }
}

bool Reader::Need(size_t n) {
  if (!ok_ || remaining() < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t Reader::U8() {
  if (!Need(1)) return 0;
  return static_cast<uint8_t>(*p_++);
}

uint16_t Reader::U16() {
  if (!Need(2)) return 0;
  uint16_t v = static_cast<uint16_t>(static_cast<unsigned char>(*p_++));
  v = static_cast<uint16_t>(
      v | static_cast<uint16_t>(static_cast<unsigned char>(*p_++)) << 8);
  return v;
}

uint32_t Reader::U32() {
  if (!Need(4)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(*p_++)) << (8 * i);
  }
  return v;
}

uint64_t Reader::U64() {
  if (!Need(8)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(*p_++)) << (8 * i);
  }
  return v;
}

int64_t Reader::I64() { return static_cast<int64_t>(U64()); }

std::string Reader::String() {
  uint32_t len = U32();
  if (!Need(len)) return {};
  std::string s(p_, len);
  p_ += len;
  return s;
}

Value Reader::ReadValue() {
  switch (U8()) {
    case static_cast<uint8_t>(ValueType::kNull):
      return Value::Null();
    case static_cast<uint8_t>(ValueType::kInt):
      return Value::Int(I64());
    case static_cast<uint8_t>(ValueType::kString):
      return Value::Str(String());
    default:
      ok_ = false;
      return Value::Null();
  }
}

}  // namespace binio

// ---------------------------------------------------------------------------
// WalWriter

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    Vfs* vfs, const std::string& path, uint64_t epoch, uint64_t resume_offset,
    const DurabilityOptions& options, Stats* stats,
    const std::vector<std::pair<std::string, uint16_t>>* table_ids,
    Histogram* fsync_hist) {
  int err = 0;
  std::unique_ptr<VfsFile> file = vfs->Open(path, Vfs::OpenMode::kWrite, &err);
  if (file == nullptr) return ErrnoStatus("cannot open WAL", path, err);
  if ((err = file->Truncate(resume_offset)) != 0) {
    return ErrnoStatus("cannot truncate WAL", path, err);
  }
  std::unique_ptr<WalWriter> w(new WalWriter());
  w->file_ = std::move(file);
  w->path_ = path;
  w->epoch_ = epoch;
  w->options_ = options;
  w->stats_ = stats;
  w->fsync_hist_ = fsync_hist;
  if (resume_offset > 0 && table_ids != nullptr) {
    for (const auto& [name, id] : *table_ids) {
      w->table_ids_.emplace(name, id);
      if (id >= w->next_table_id_) {
        w->next_table_id_ = static_cast<uint16_t>(id + 1);
      }
    }
  }
  if (resume_offset == 0) {
    std::string header(kWalMagic, sizeof(kWalMagic));
    binio::PutU32(&header, kWalFormatVersion);
    binio::PutU64(&header, epoch);
    XUPD_RETURN_IF_ERROR(WriteFully(w->file_.get(), header.data(),
                                    header.size(), "cannot write WAL header",
                                    path));
    // The file's directory entry must be durable before any commit unit
    // can claim to be: fsyncing the file alone does not persist a freshly
    // created name. kNone makes no power-loss promise, so it skips this.
    if (options.sync_mode != SyncMode::kNone) {
      if ((err = vfs->SyncDir(path)) != 0) {
        return ErrnoStatus("cannot fsync WAL directory", path, err);
      }
    }
    w->file_size_ = kWalHeaderSize;
    w->dirty_ = true;
  } else {
    if ((err = w->file_->Seek(resume_offset)) != 0) {
      return ErrnoStatus("cannot seek WAL", path, err);
    }
    w->file_size_ = resume_offset;
    w->dirty_ = true;
  }
  // The reset itself (truncation of the old log + the fresh header) must be
  // durable before any commit unit can claim to be: power loss after an
  // unsynced checkpoint reset could persist the new-epoch header over the
  // old file while stale frames survive behind it, and replay would apply
  // pre-checkpoint records on top of the new snapshot. kNone makes no
  // power-loss promise and skips the fsync.
  if (options.sync_mode != SyncMode::kNone) {
    XUPD_RETURN_IF_ERROR(w->Sync());
  }
  // The prefix up to here was either just fsynced or (kNone) validated by
  // replay; either way it is the newest boundary known to be on disk.
  w->synced_size_ = w->file_size_;
  return w;
}

WalWriter::~WalWriter() {
  if (file_ != nullptr) (void)file_->Close();
  if (mem_ != nullptr && charged_pending_ != 0) {
    mem_->Release(MemoryAccountant::kWalPending, charged_pending_);
  }
}

void WalWriter::TruncatePending(const Mark& m) {
  if (m.bytes > pending_.size()) return;
  pending_.resize(m.bytes);
  pending_records_ = m.records;
  // Table defs pended after the mark never reach the file: forget them and
  // hand their ids back (pending_defs_ is offset-ascending, so the rolled
  // back defs are exactly a suffix holding the highest ids).
  while (!pending_defs_.empty() &&
         std::get<2>(pending_defs_.back()) >= m.bytes) {
    table_ids_.erase(std::get<0>(pending_defs_.back()));
    next_table_id_ = std::get<1>(pending_defs_.back());
    pending_defs_.pop_back();
  }
  SyncPendingCharge();
}

void WalWriter::DropPendingUnit() {
  pending_.clear();
  SyncPendingCharge();
  pending_records_ = 0;
  for (const auto& [name, id, offset] : pending_defs_) table_ids_.erase(name);
  pending_defs_.clear();
}

// Records serialize straight into pending_ (this sits on the per-row
// mutation hot path — no per-record temporary buffers): FrameBegin reserves
// the 8-byte length+CRC header, the payload appends in place, FrameEnd
// patches the header over the written region.
size_t WalWriter::FrameBegin() {
  size_t header_at = pending_.size();
  pending_.append(8, '\0');
  return header_at;
}

void WalWriter::FrameEnd(size_t header_at) {
  const size_t payload_start = header_at + 8;
  const uint32_t len = static_cast<uint32_t>(pending_.size() - payload_start);
  const uint32_t crc = binio::Crc32(pending_.data() + payload_start, len);
  for (int i = 0; i < 4; ++i) {
    pending_[header_at + static_cast<size_t>(i)] =
        static_cast<char>((len >> (8 * i)) & 0xFFu);
    pending_[header_at + 4 + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFFu);
  }
  ++pending_records_;
  SyncPendingCharge();
}

uint16_t WalWriter::TableId(const std::string& name) {
  auto it = table_ids_.find(name);
  if (it != table_ids_.end()) return it->second;
  if (table_ids_.size() >= 0xFFFF) {
    // u16 id space exhausted for this file (65535 unique durable table
    // names in one checkpoint interval). Fail-stop rather than wrap: a
    // wrapped id would alias an earlier table and corrupt replay silently.
    // CommitPending surfaces the error at the next unit boundary;
    // checkpointing opens a fresh file with an empty dictionary.
    MarkBroken("per-file table-id space exhausted");
    return 0xFFFF;
  }
  uint16_t id = next_table_id_++;
  size_t frame = FrameBegin();
  binio::PutU8(&pending_, static_cast<uint8_t>(RecordKind::kTableDef));
  binio::PutU16(&pending_, id);
  binio::PutString(&pending_, name);
  FrameEnd(frame);
  table_ids_.emplace(name, id);
  pending_defs_.emplace_back(name, id, frame);
  return id;
}

void WalWriter::PendInsert(const Table& table, size_t rowid) {
  uint16_t tid = TableId(table.schema().name());
  size_t frame = FrameBegin();
  binio::PutU8(&pending_, static_cast<uint8_t>(RecordKind::kInsert));
  binio::PutU16(&pending_, tid);
  binio::PutU64(&pending_, rowid);
  auto row = table.row_span(rowid);
  binio::PutU32(&pending_, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) binio::PutValue(&pending_, v);
  FrameEnd(frame);
}

void WalWriter::PendDelete(const Table& table, size_t rowid) {
  uint16_t tid = TableId(table.schema().name());
  size_t frame = FrameBegin();
  binio::PutU8(&pending_, static_cast<uint8_t>(RecordKind::kDelete));
  binio::PutU16(&pending_, tid);
  binio::PutU64(&pending_, rowid);
  FrameEnd(frame);
}

void WalWriter::PendUpdate(const Table& table, size_t rowid, int column,
                           const Value& new_value) {
  uint16_t tid = TableId(table.schema().name());
  size_t frame = FrameBegin();
  binio::PutU8(&pending_, static_cast<uint8_t>(RecordKind::kUpdate));
  binio::PutU16(&pending_, tid);
  binio::PutU64(&pending_, rowid);
  binio::PutU32(&pending_, static_cast<uint32_t>(column));
  binio::PutValue(&pending_, new_value);
  FrameEnd(frame);
}

void WalWriter::PendDdl(std::string_view sql) {
  size_t frame = FrameBegin();
  binio::PutU8(&pending_, static_cast<uint8_t>(RecordKind::kDdl));
  binio::PutString(&pending_, sql);
  FrameEnd(frame);
}

Status WalWriter::CommitPending(int64_t next_id) {
  if (pending_.empty()) return Status::OK();
  const uint64_t t0 = commit_hist_ != nullptr ? MonotonicNanos() : 0;
  // The commit unit is a span of its own (child of the enclosing statement
  // or txn span); the fsync that persists it — inline under kCommit, on the
  // flusher thread under kBatched — becomes its child via sync_handoff_.
  trace::SpanScope unit_span;
  const uint64_t unit_records = pending_records_;
  size_t frame = FrameBegin();
  binio::PutU8(&pending_, static_cast<uint8_t>(RecordKind::kCommit));
  binio::PutI64(&pending_, next_id);
  FrameEnd(frame);
  const uint64_t unit_bytes = pending_.size();

  // The file descriptor and its byte accounting are shared with the
  // group-commit flusher thread; the pending buffer itself is writer-only
  // and was framed outside the lock.
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Checked under mu_: the flusher marks a failed fsync broken before it
    // releases mu_, so no unit is appended behind a failed sync.
    if (broken()) {
      // This unit can never persist. Keeping it would fail every later unit
      // boundary on the same redo, read-only statements included.
      DropPendingUnit();
      std::string cause = broken_cause();
      return Status::Internal(
          "WAL writer is fail-stopped (" +
          (cause.empty() ? std::string("unknown cause") : cause) +
          "); the on-disk log ends at the last fully persisted unit — reopen "
          "or heal the database to resume");
    }
    Status write_status = WriteFully(file_.get(), pending_.data(),
                                     pending_.size(), "cannot append to WAL",
                                     path_);
    if (!write_status.ok()) {
      // Fail-stop: a partial write left a torn frame in the file. Truncate
      // back to the last unit boundary (best effort) and refuse further
      // appends — if garbage stayed mid-file, replay would end there and
      // silently drop every unit written after it.
      (void)file_->Truncate(file_size_);
      (void)file_->Seek(file_size_);
      MarkBroken(write_status.message());
      DropPendingUnit();
      return write_status;
    }
    file_size_ += pending_.size();
    stats_->wal_appends += pending_records_;
    stats_->wal_bytes += pending_.size();
    pending_.clear();
    SyncPendingCharge();
    pending_records_ = 0;
    pending_defs_.clear();  // the defs (and their ids) are in the file now
    dirty_ = true;
    ++commits_since_sync_;
    sync_handoff_ = unit_span.handoff();

    switch (options_.sync_mode) {
      case SyncMode::kNone:
        break;
      case SyncMode::kCommit:
        XUPD_RETURN_IF_ERROR(SyncLocked());
        break;
      case SyncMode::kBatched:
        // Group commit: the background flusher fsyncs every
        // group_commit_window_us; this unit is acknowledged now and
        // becomes power-loss durable at the window's end.
        break;
    }
  }
  if (commit_hist_ != nullptr) {
    const uint64_t dur = MonotonicNanos() - t0;
    commit_hist_->Record(dur);
    if (events_ != nullptr) {
      TraceEvent ev{TraceEvent::Kind::kWalUnit, t0, dur, unit_records,
                    unit_bytes, nullptr};
      unit_span.Annotate(&ev);
      events_->Record(ev);
    }
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

Status WalWriter::SyncLocked() {
  if (!dirty_) return Status::OK();
  const uint64_t t0 = fsync_hist_ != nullptr ? MonotonicNanos() : 0;
  const uint64_t batch = commits_since_sync_;
  if (int err = file_->Sync(); err != 0) {
    // Fail-stop on fsync failure too: the kernel may have DROPPED the dirty
    // pages (fsync-gate semantics), so a unit that reported a commit error
    // may be missing from disk — letting later units commit "successfully"
    // behind the hole would break the committed-prefix recovery guarantee.
    Status s = ErrnoStatus("cannot fsync WAL", path_, err);
    MarkBroken(s.message());
    return s;
  }
  dirty_ = false;
  commits_since_sync_ = 0;
  const trace::Handoff from_unit = sync_handoff_;
  sync_handoff_ = trace::Handoff{};
  synced_size_.store(file_size_, std::memory_order_release);
  if (batch_hist_ != nullptr && batch > 0) batch_hist_->Record(batch);
  if (fsync_hist_ != nullptr) {
    const uint64_t dur = MonotonicNanos() - t0;
    fsync_hist_->Record(dur);
    if (events_ != nullptr) {
      // `a` = group-commit batch size (units this fsync persisted). The
      // span adopts the last unit's handoff, so under kBatched the trace
      // carries a writer->flusher flow edge.
      trace::SpanScope fsync_span{from_unit};
      TraceEvent ev{TraceEvent::Kind::kFsync, t0, dur, batch, 0, nullptr};
      fsync_span.Annotate(&ev);
      events_->Record(ev);
    }
  }
  return Status::OK();
}

Status WalWriter::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::OK();
  Status s = SyncLocked();
  (void)file_->Close();
  file_ = nullptr;
  return s;
}

// ---------------------------------------------------------------------------
// Reading: one header parser and one frame walker behind replay and scrub

namespace {

/// The fixed header of a WAL image and the outcome of its checks.
struct WalHeader {
  /// 0 when the image holds no whole header (an empty file, or a crash tore
  /// the header write): nothing was ever committed through it.
  uint64_t epoch = 0;
  Status status;  // bad magic or version; OK otherwise.
};

/// The one parser of the WAL header.
WalHeader ParseWalHeader(const std::string& data, const std::string& path) {
  WalHeader h;
  if (std::memcmp(data.data(), kWalMagic,
                  std::min(data.size(), sizeof(kWalMagic))) != 0) {
    h.status = Status::Internal("'" + path + "' is not a WAL file");
    return h;
  }
  if (data.size() < kWalHeaderSize) return h;
  binio::Reader r(data.data() + sizeof(kWalMagic),
                  kWalHeaderSize - sizeof(kWalMagic));
  const uint32_t version = r.U32();
  h.epoch = r.U64();
  if (version != kWalFormatVersion) {
    h.status = Status::Internal("WAL format version mismatch: file has " +
                                std::to_string(version) +
                                ", this build reads " +
                                std::to_string(kWalFormatVersion));
  }
  return h;
}

/// One decoded data record, held until its unit's commit frame arrives.
struct WalRecord {
  RecordKind kind = RecordKind::kInsert;
  std::string table;
  uint64_t rowid = 0;
  uint32_t column = 0;
  Row values;       ///< kInsert row / kUpdate single value at [0].
  std::string sql;  ///< kDdl.
};

/// Applies one committed unit, then its commit frame's next-id counter.
using ApplyUnit =
    std::function<Status(const std::vector<WalRecord>& unit, int64_t next_id)>;

/// The one WAL walker, behind both ReplayWal and VerifyWalFile. Checks the
/// header against the snapshot's `snapshot_epoch` (>= 1), decodes every
/// frame and hands each committed unit ending past `start_offset` to `apply`
/// (null: decode only). A torn, CRC-failing or undecodable frame ends the
/// log. A bad header, a WAL epoch ahead of the snapshot's, a record naming an
/// undefined table id, a failed apply, or a committed prefix ending short of
/// `start_offset` is a hard error.
Result<WalReplayResult> WalkWal(const std::string& data,
                                const std::string& path,
                                uint64_t snapshot_epoch, uint64_t start_offset,
                                const ApplyUnit& apply) {
  const WalHeader header = ParseWalHeader(data, path);
  if (!header.status.ok()) return header.status;
  if (header.epoch > snapshot_epoch) {
    return Status::Internal("WAL epoch " + std::to_string(header.epoch) +
                            " is ahead of snapshot epoch " +
                            std::to_string(snapshot_epoch) +
                            " (snapshot file lost?)");
  }
  WalReplayResult out;
  // A headerless file, or a pre-checkpoint WAL a crash kept around (every
  // record in it is already in the snapshot), keeps nothing: valid_bytes
  // stays 0 and the writer resets the file.
  if (header.epoch == snapshot_epoch) {
    out.valid_bytes = kWalHeaderSize;
    std::vector<WalRecord> unit;
    // Per-file table-name dictionary: defs decode into `defs` in frame
    // order; data records resolve ids through it immediately (a def always
    // precedes its first use in the same or an earlier unit). Only the defs
    // seen before the last commit frame are handed to the resuming writer —
    // later ones die with their uncommitted unit.
    std::vector<std::pair<std::string, uint16_t>> defs;
    std::unordered_map<uint16_t, std::string> id_names;
    size_t committed_defs = 0;
    size_t pos = kWalHeaderSize;
    while (pos + 8 <= data.size()) {
      binio::Reader frame(data.data() + pos, 8);
      const uint32_t len = frame.U32();
      const uint32_t crc = frame.U32();
      if (len > kMaxFramePayload || pos + 8 + len > data.size()) break;
      const char* payload = data.data() + pos + 8;
      if (binio::Crc32(payload, len) != crc) break;
      binio::Reader r(payload, len);
      WalRecord rec;
      rec.kind = static_cast<RecordKind>(r.U8());
      bool known = true;
      bool names_table = true;
      uint16_t tid = 0;
      int64_t next_id = 0;
      switch (rec.kind) {
        case RecordKind::kTableDef:
          tid = r.U16();
          rec.table = r.String();
          names_table = false;
          break;
        case RecordKind::kInsert: {
          tid = r.U16();
          rec.rowid = r.U64();
          const uint32_t n = r.U32();
          for (uint32_t i = 0; r.ok() && i < n; ++i) {
            rec.values.push_back(r.ReadValue());
          }
          break;
        }
        case RecordKind::kDelete:
          tid = r.U16();
          rec.rowid = r.U64();
          break;
        case RecordKind::kUpdate:
          tid = r.U16();
          rec.rowid = r.U64();
          rec.column = r.U32();
          rec.values.push_back(r.ReadValue());
          break;
        case RecordKind::kDdl:
          rec.sql = r.String();
          names_table = false;
          break;
        case RecordKind::kCommit:
          next_id = r.I64();
          names_table = false;
          break;
        default:
          known = false;
          break;
      }
      if (!known || !r.ok()) break;  // undecodable: ends the log.
      if (names_table) {
        auto it = id_names.find(tid);
        if (it == id_names.end()) {
          return Status::Internal(
              "WAL record references undefined table id " +
              std::to_string(tid));
        }
        rec.table = it->second;
      }
      pos += 8 + len;
      if (rec.kind == RecordKind::kTableDef) {
        id_names[tid] = rec.table;
        defs.emplace_back(std::move(rec.table), tid);
      } else if (rec.kind != RecordKind::kCommit) {
        unit.push_back(std::move(rec));
      } else {
        // A unit ending at or before start_offset is already folded into
        // the snapshot (off-thread checkpoint): keep the dictionary and the
        // commit boundary, but neither re-apply it nor move next_id.
        if (pos > start_offset && apply) {
          XUPD_RETURN_IF_ERROR(apply(unit, next_id));
          out.applied_records += unit.size();
        }
        unit.clear();
        out.valid_bytes = pos;
        committed_defs = defs.size();
      }
    }
    defs.resize(committed_defs);
    out.table_ids = std::move(defs);
  }
  if (out.valid_bytes < start_offset) {
    // The snapshot (written by a background checkpoint) contains every
    // commit up to start_offset, but the WAL's valid prefix ends short of
    // it — a synced region was lost or corrupted. Resuming appends at
    // valid_bytes would alias new commits into the byte range the next
    // recovery skips as snapshot-covered, silently dropping them.
    return Status::Internal(
        "WAL valid prefix (" + std::to_string(out.valid_bytes) +
        " bytes) ends before the snapshot's recorded offset (" +
        std::to_string(start_offset) + "): a synced WAL region was lost");
  }
  return out;
}

Status ApplyRecord(Database* db, const WalRecord& rec) {
  if (rec.kind == RecordKind::kDdl) {
    return db->ExecuteQuery(rec.sql).status();
  }
  Table* table = db->FindTable(rec.table);
  if (table == nullptr) {
    return Status::Internal("WAL replay: table '" + rec.table +
                            "' not in catalog");
  }
  switch (rec.kind) {
    case RecordKind::kInsert: {
      if (rec.rowid != table->capacity()) {
        return Status::Internal(
            "WAL replay: insert row id " + std::to_string(rec.rowid) +
            " does not line up with table '" + rec.table + "' (capacity " +
            std::to_string(table->capacity()) + ")");
      }
      auto rowid = table->Insert(rec.values);
      if (!rowid.ok()) return rowid.status();
      return Status::OK();
    }
    case RecordKind::kDelete:
      return table->Delete(rec.rowid);
    case RecordKind::kUpdate:
      return table->SetColumn(rec.rowid, static_cast<int>(rec.column),
                              rec.values[0]);
    default:
      return Status::Internal("WAL replay: unexpected record kind");
  }
}

/// The WAL file's bytes; a missing file reads as empty (nothing committed).
Result<std::string> ReadWal(Vfs* vfs, const std::string& path) {
  auto read = ReadWholeFile(vfs, path);
  if (!read.ok() && read.status().code() == StatusCode::kNotFound) {
    return std::string();
  }
  return read;
}

}  // namespace

Result<WalReplayResult> ReplayWal(Database* db, Vfs* vfs,
                                  const std::string& path,
                                  uint64_t snapshot_epoch,
                                  uint64_t start_offset) {
  // Read the whole file (WALs are truncated at every checkpoint; between
  // checkpoints they are bounded by the update volume since the last one).
  auto data = ReadWal(vfs, path);
  if (!data.ok()) return data.status();
  // Records after the last commit frame (an uncommitted or torn unit) are
  // discarded; the caller truncates the file back to valid_bytes.
  return WalkWal(data.value(), path, snapshot_epoch, start_offset,
                 [db](const std::vector<WalRecord>& unit, int64_t next_id) {
                   for (const WalRecord& rec : unit) {
                     XUPD_RETURN_IF_ERROR(ApplyRecord(db, rec));
                   }
                   db->set_next_id(next_id);
                   return Status::OK();
                 });
}

std::vector<std::string> VerifyWalFile(Vfs* vfs, const std::string& path,
                                       uint64_t snapshot_epoch,
                                       uint64_t snapshot_wal_offset,
                                       uint64_t writer_epoch,
                                       uint64_t writer_bytes) {
  if (writer_epoch != 0 && !vfs->Exists(path)) {
    return {"WAL file missing: '" + path + "'"};
  }
  auto data = ReadWal(vfs, path);
  if (!data.ok()) return {"WAL unreadable: " + data.status().message()};
  // Recovery anchors a WAL without a snapshot at epoch 1.
  const uint64_t anchor = std::max<uint64_t>(snapshot_epoch, 1);
  auto walk = WalkWal(data.value(), path, anchor, snapshot_wal_offset,
                      nullptr);
  if (!walk.ok()) return {walk.status().message()};
  // The open writer knows how many bytes it durably committed; recovery
  // keeping fewer loses committed units. Only meaningful when the writer's
  // epoch is the one recovery replays (a writer fail-stopped by a checkpoint
  // that renamed a newer snapshot has every unit in that snapshot).
  const uint64_t kept =
      std::max<uint64_t>(walk.value().valid_bytes, kWalHeaderSize);
  if (writer_epoch == anchor && writer_bytes > kept) {
    return {"WAL lost committed data: recovery keeps " +
            std::to_string(kept) + " bytes, writer committed " +
            std::to_string(writer_bytes) + " bytes"};
  }
  return {};
}

}  // namespace xupd::rdb
