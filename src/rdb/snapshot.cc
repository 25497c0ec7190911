#include "rdb/snapshot.h"

#include <cstring>
#include <vector>

#include "rdb/database.h"
#include "rdb/table.h"
#include "rdb/vfs.h"
#include "rdb/wal.h"

namespace xupd::rdb {

namespace {

constexpr char kSnapshotMagic[8] = {'X', 'U', 'P', 'D', 'S', 'N', 'A', 'P'};
// v2 added the u64 wal_offset field after next_id (off-thread checkpoints
// keep the WAL and record how much of it the snapshot already folds in).
constexpr uint32_t kSnapshotFormatVersion = 2;

// Magic, version, then the fixed header fields: epoch, next-id, WAL offset.
constexpr size_t kPayloadStart = sizeof(kSnapshotMagic) + 4 + 8 + 8 + 8;
// The serializer's buffer: a checkpoint costs this much memory, whatever
// the store size.
constexpr size_t kWriteChunkBytes = 64 << 10;

/// The fixed header of a snapshot image and the outcome of its magic,
/// version and whole-file CRC checks.
struct SnapshotHeader {
  uint64_t epoch = 0;  // 0 when the image is too short or not a snapshot.
  int64_t next_id = 0;
  uint64_t wal_offset = 0;
  Status status;  // the first failed check; OK when the image is intact.
};

/// The one parser of the snapshot header. The header fields are filled in
/// whenever the magic matches, even when the version or CRC check fails.
SnapshotHeader ParseSnapshotHeader(const std::string& data,
                                   const std::string& path) {
  SnapshotHeader h;
  if (data.size() < kPayloadStart + 4 ||
      std::memcmp(data.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    h.status = Status::Internal("'" + path + "' is not a snapshot file");
    return h;
  }
  binio::Reader r(data.data() + sizeof(kSnapshotMagic),
                  kPayloadStart - sizeof(kSnapshotMagic));
  const uint32_t version = r.U32();
  h.epoch = r.U64();
  h.next_id = r.I64();
  h.wal_offset = r.U64();
  if (version != kSnapshotFormatVersion) {
    h.status = Status::Internal(
        "snapshot format version mismatch: file has " +
        std::to_string(version) + ", this build reads " +
        std::to_string(kSnapshotFormatVersion));
    return h;
  }
  binio::Reader c(data.data() + data.size() - 4, 4);
  if (c.U32() != binio::Crc32(data.data(), data.size() - 4)) {
    h.status = Status::Internal("snapshot '" + path +
                                "' failed its CRC check (truncated or corrupt)");
  }
  return h;
}

/// The snapshot image on its way to the temp file: bytes accumulate in
/// `buf`, folded into the running CRC and written out whenever a full chunk
/// is buffered, and once more with the CRC trailer at the end.
struct SnapshotStream {
  Status Flush(bool last) {
    if (!last && buf.size() < kWriteChunkBytes) return Status::OK();
    crc = binio::Crc32(buf.data(), buf.size(), crc);
    if (last) binio::PutU32(&buf, crc);
    Status s = WriteFully(file, buf.data(), buf.size(),
                          "cannot write snapshot", path);
    buf.clear();
    return s;
  }

  VfsFile* file;
  const std::string& path;
  std::string buf;
  uint32_t crc = 0;
};

}  // namespace

Status WriteSnapshot(const Database& db, Vfs* vfs, const std::string& path,
                     const std::string& tmp_path,
                     const CheckpointCapture& capture, bool* renamed) {
  const uint64_t t0 = MonotonicNanos();
  if (renamed != nullptr) *renamed = false;
  for (const std::string& sql : capture.trigger_sql) {
    if (sql.empty()) {
      return Status::Internal(
          "trigger has no CREATE TRIGGER text to checkpoint");
    }
  }
  int err = 0;
  std::unique_ptr<VfsFile> file =
      vfs->Open(tmp_path, Vfs::OpenMode::kTruncate, &err);
  if (file == nullptr) {
    return ErrnoStatus("cannot create snapshot", tmp_path, err);
  }
  SnapshotStream stream{file.get(), tmp_path, {}};
  stream.buf.reserve(kWriteChunkBytes);
  std::string* out = &stream.buf;
  out->append(kSnapshotMagic, sizeof(kSnapshotMagic));
  binio::PutU32(out, kSnapshotFormatVersion);
  binio::PutU64(out, capture.epoch);
  binio::PutI64(out, capture.next_id);
  binio::PutU64(out, capture.wal_offset);

  binio::PutU32(out, static_cast<uint32_t>(capture.tables.size()));
  Row staging;
  for (const auto& [t, slot_count] : capture.tables) {
    const TableSchema& schema = t->schema();
    binio::PutString(out, schema.name());
    binio::PutU32(out, static_cast<uint32_t>(schema.column_count()));
    for (const ColumnDef& c : schema.columns()) {
      binio::PutString(out, c.name);
      binio::PutU8(out, static_cast<uint8_t>(c.type));
    }
    // Exactly the slot count captured at the boundary: slots appended
    // later are covered by WAL replay past capture.wal_offset, whose insert
    // records assume rowid == slot count at this point. Dead slots keep
    // their positions and cells — row ids are physical WAL addresses.
    binio::PutU64(out, static_cast<uint64_t>(slot_count));
    for (size_t rowid = 0; rowid < slot_count; ++rowid) {
      const bool live = t->SnapshotReadSlot(rowid, capture.pin_epoch, &staging);
      binio::PutU8(out, live ? 1 : 0);
      for (const Value& v : staging) binio::PutValue(out, v);
      XUPD_RETURN_IF_ERROR(stream.Flush(/*last=*/false));
    }
    binio::PutU32(out, static_cast<uint32_t>(t->indexes().size()));
    for (const auto& index : t->indexes()) {
      binio::PutString(out, index->name());
      binio::PutU32(out, static_cast<uint32_t>(index->column()));
    }
  }
  binio::PutU32(out, static_cast<uint32_t>(capture.trigger_sql.size()));
  for (const std::string& sql : capture.trigger_sql) {
    binio::PutString(out, sql);
  }
  XUPD_RETURN_IF_ERROR(stream.Flush(/*last=*/true));

  if ((err = file->Sync()) != 0) {
    return ErrnoStatus("cannot fsync snapshot", tmp_path, err);
  }
  if ((err = file->Close()) != 0) {
    return ErrnoStatus("cannot close snapshot", tmp_path, err);
  }
  if ((err = vfs->Rename(tmp_path, path)) != 0) {
    return ErrnoStatus("cannot rename snapshot into place", path, err);
  }
  if (renamed != nullptr) *renamed = true;
  if ((err = vfs->SyncDir(path)) != 0) {
    return ErrnoStatus("cannot fsync snapshot directory", path, err);
  }
  db.metrics().GetHistogram("snapshot.write")->Record(MonotonicNanos() - t0);
  return Status::OK();
}

Result<SnapshotLoadInfo> LoadSnapshot(Database* db, Vfs* vfs,
                                      const std::string& path) {
  XUPD_ASSIGN_OR_RETURN(std::string data, ReadWholeFile(vfs, path));
  SnapshotHeader header = ParseSnapshotHeader(data, path);
  XUPD_RETURN_IF_ERROR(header.status);
  binio::Reader r(data.data() + kPayloadStart,
                  data.size() - kPayloadStart - 4);
  uint32_t table_count = r.U32();
  for (uint32_t ti = 0; r.ok() && ti < table_count; ++ti) {
    std::string name = r.String();
    uint32_t ncols = r.U32();
    std::vector<ColumnDef> cols;
    for (uint32_t ci = 0; r.ok() && ci < ncols; ++ci) {
      ColumnDef def;
      def.name = r.String();
      def.type = static_cast<ColumnType>(r.U8());
      cols.push_back(std::move(def));
    }
    if (!r.ok()) break;
    auto table = db->CreateTableDirect(TableSchema(name, std::move(cols)),
                                       /*durable=*/true);
    if (!table.ok()) return table.status();
    uint64_t slots = r.U64();
    for (uint64_t s = 0; r.ok() && s < slots; ++s) {
      bool live = r.U8() != 0;
      Row row;
      row.reserve(ncols);
      for (uint32_t ci = 0; r.ok() && ci < ncols; ++ci) {
        row.push_back(r.ReadValue());
      }
      if (!r.ok()) break;
      table.value()->LoadSlot(std::move(row), live);
    }
    uint32_t index_count = r.U32();
    for (uint32_t ii = 0; r.ok() && ii < index_count; ++ii) {
      std::string index_name = r.String();
      uint32_t column = r.U32();
      if (!r.ok()) break;
      XUPD_RETURN_IF_ERROR(
          table.value()->CreateIndex(index_name, static_cast<int>(column)));
    }
  }
  uint32_t trigger_count = r.U32();
  for (uint32_t ti = 0; r.ok() && ti < trigger_count; ++ti) {
    std::string sql = r.String();
    if (!r.ok()) break;
    XUPD_RETURN_IF_ERROR(db->ExecuteQuery(sql).status());
  }
  if (!r.ok()) {
    return Status::Internal("snapshot '" + path + "' is malformed");
  }
  db->set_next_id(header.next_id);
  return SnapshotLoadInfo{header.epoch, header.wal_offset};
}

SnapshotScrub VerifySnapshotFile(Vfs* vfs, const std::string& path) {
  SnapshotScrub scrub;
  auto read = ReadWholeFile(vfs, path);
  if (!read.ok()) {
    if (read.status().code() != StatusCode::kNotFound) {
      scrub.violations.push_back("snapshot unreadable: " +
                                 read.status().message());
    }
    return scrub;
  }
  SnapshotHeader header = ParseSnapshotHeader(read.value(), path);
  scrub.epoch = header.epoch;
  scrub.wal_offset = header.wal_offset;
  if (!header.status.ok()) scrub.violations.push_back(header.status.message());
  return scrub;
}

}  // namespace xupd::rdb
