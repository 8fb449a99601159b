#include "store/durability.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <unistd.h>

#include "gov/memory_budget.h"
#include "io/spill_file.h"
#include "obs/metrics.h"
#include "table/append.h"

namespace shareinsights {

namespace {

namespace fs = std::filesystem;

/// File magics for the two non-WAL durable file kinds. Both carry one
/// length + FNV-1a framed payload after the magic, so they share the
/// WAL's framing reader.
constexpr char kManifestMagic[8] = {'S', 'I', 'D', 'A', 'S', 'H', '0', '1'};
constexpr char kSnapshotMagic[8] = {'S', 'I', 'S', 'N', 'A', 'P', '0', '1'};

/// Directory-safe file stem for a user-chosen name: sanitized for
/// readability plus an FNV-1a suffix so distinct names never collide
/// ("a/b" and "a_b" map to different stems). The raw name lives inside
/// the file.
std::string FileStem(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '_') {
      c = '_';
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(
                    wire::Fnv1a(name.data(), name.size())));
  return out + "-" + hex;
}

/// Writes `content` to `path` via temp file + fsync + atomic rename.
/// ENOSPC → kResourceExhausted; nothing torn is ever left at `path`.
/// `crash_point` (nullable) fires between fsync and rename — the window
/// the crash-recovery matrix targets.
Status WriteFileAtomic(const std::string& path, const std::string& content,
                       const char* crash_point) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + tmp +
                           "' for writing: " + std::strerror(errno));
  }
  errno = 0;
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  int flush_err = std::fflush(f);
  bool nospace = errno == ENOSPC;
  int sync_err = ::fsync(fileno(f));
  std::fclose(f);
  std::error_code ec;
  if (written != content.size() || flush_err != 0 || sync_err != 0) {
    fs::remove(tmp, ec);
    if (nospace) {
      return Status::ResourceExhausted("no space left on device writing '" +
                                       path + "'");
    }
    return Status::IoError("short write to '" + tmp + "' (" +
                           std::to_string(written) + " of " +
                           std::to_string(content.size()) + " bytes)");
  }
  if (crash_point != nullptr) MaybeCrashAtPoint(crash_point);
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return Status::IoError("cannot rename '" + tmp + "' over '" + path +
                           "': " + ec.message());
  }
  return Status::OK();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  std::string data;
  char buf[64 * 1024];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError("read error on '" + path + "'");
  return data;
}

Status FileCorruptError(const char* kind, const std::string& path) {
  return Status::IoError(std::string(kind) + " file '" + path +
                         "' is corrupt (truncated or checksum mismatch)");
}

/// Sorted file names (not paths) in `dir` with extension `ext`; an
/// absent directory is an empty listing.
std::vector<std::string> ListFiles(const std::string& dir,
                                   const std::string& ext) {
  std::vector<std::string> out;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return out;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    std::string name = entry.path().filename().string();
    if (name.size() > ext.size() &&
        name.compare(name.size() - ext.size(), ext.size(), ext) == 0) {
      out.push_back(std::move(name));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

Counter* SnapshotsCounter() {
  static Counter* counter = MetricsRegistry::Default().GetCounter(
      "snapshots_written_total", "object snapshot files written durably");
  return counter;
}

}  // namespace

std::optional<DurabilityOptions::FsyncPolicy> ParseFsyncPolicy(
    const std::string& text) {
  if (text == "always") return DurabilityOptions::FsyncPolicy::kAlways;
  if (text == "interval") return DurabilityOptions::FsyncPolicy::kInterval;
  if (text == "off") return DurabilityOptions::FsyncPolicy::kOff;
  return std::nullopt;
}

std::unique_ptr<DurabilityManager> DurabilityManager::Open(Options options) {
  if (options.retry.max_attempts <= 1) options.retry = DefaultSpillRetryPolicy();
  auto manager =
      std::unique_ptr<DurabilityManager>(new DurabilityManager(options));
  std::error_code ec;
  for (const char* sub : {"manifests", "wal", "snapshots"}) {
    fs::create_directories(fs::path(options.dir) / sub, ec);
    if (ec) {
      manager->MarkReadOnly("cannot create durable store directory '" +
                            (fs::path(options.dir) / sub).string() +
                            "': " + ec.message());
      return manager;
    }
  }
  return manager;
}

bool DurabilityManager::read_only() const {
  std::lock_guard<std::mutex> lock(mu_);
  return read_only_;
}

std::string DurabilityManager::read_only_reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return read_only_reason_;
}

void DurabilityManager::MarkReadOnly(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  MarkReadOnlyLocked(reason);
}

void DurabilityManager::MarkReadOnlyLocked(const std::string& reason) {
  if (read_only_) return;  // first reason wins
  read_only_ = true;
  read_only_reason_ = reason;
  MetricsRegistry::Default()
      .GetCounter("storage_read_only_total",
                  "times the durable store degraded to read-only")
      ->Increment();
}

std::string DurabilityManager::WalPath(const std::string& dashboard) const {
  return (fs::path(options_.dir) / "wal" / (FileStem(dashboard) + ".wal"))
      .string();
}

std::string DurabilityManager::ManifestPath(
    const std::string& dashboard) const {
  return (fs::path(options_.dir) / "manifests" /
          (FileStem(dashboard) + ".dash"))
      .string();
}

std::string DurabilityManager::SnapshotDir(const std::string& dashboard) const {
  return (fs::path(options_.dir) / "snapshots" / FileStem(dashboard)).string();
}

Status DurabilityManager::PersistDashboard(const std::string& name,
                                           const std::string& flow_text) {
  std::lock_guard<std::mutex> lock(mu_);
  if (read_only_) {
    return Status::Unavailable("durable store is read-only: " +
                               read_only_reason_);
  }
  std::string payload;
  wire::PutString(&payload, name);
  wire::PutString(&payload, flow_text);
  std::string content(kManifestMagic, sizeof(kManifestMagic));
  wire::PutVarint(&content, payload.size());
  wire::PutFixed64(&content, wire::Fnv1a(payload.data(), payload.size()));
  content.append(payload);
  Status written = WriteFileAtomic(ManifestPath(name), content, nullptr);
  if (!written.ok()) {
    MarkReadOnlyLocked("persisting dashboard '" + name +
                       "' failed: " + written.message());
    return Status::Unavailable("durable store is read-only: " +
                               read_only_reason_);
  }
  std::error_code ec;
  fs::create_directories(SnapshotDir(name), ec);
  return Status::OK();
}

Result<DurabilityManager::DashState*> DurabilityManager::EnsureWriterLocked(
    const std::string& dashboard) {
  DashState& state = dashes_[dashboard];
  if (state.writer == nullptr) {
    SI_ASSIGN_OR_RETURN(state.writer,
                        WalWriter::Open(WalPath(dashboard), options_.retry));
    state.last_fsync = std::chrono::steady_clock::now();
  }
  return &state;
}

Status DurabilityManager::SyncPerPolicyLocked(DashState* state) {
  switch (options_.fsync_policy) {
    case Options::FsyncPolicy::kAlways:
      return state->writer->Sync();
    case Options::FsyncPolicy::kInterval: {
      auto now = std::chrono::steady_clock::now();
      double since_ms =
          std::chrono::duration<double, std::milli>(now - state->last_fsync)
              .count();
      if (!state->synced_once || since_ms >= options_.fsync_interval_ms) {
        SI_RETURN_IF_ERROR(state->writer->Sync());
        state->last_fsync = now;
        state->synced_once = true;
      }
      return Status::OK();
    }
    case Options::FsyncPolicy::kOff:
      return Status::OK();
  }
  return Status::OK();
}

Status DurabilityManager::LogAppendCycle(
    const std::string& dashboard, const std::vector<LoggedChange>& changes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (read_only_) {
    return Status::Unavailable("durable store is read-only: " +
                               read_only_reason_);
  }
  auto fail = [&](const Status& error) {
    MarkReadOnlyLocked("WAL append for dashboard '" + dashboard +
                       "' failed: " + error.message());
    return Status::Unavailable("durable store is read-only: " +
                               read_only_reason_);
  };
  Result<DashState*> state = EnsureWriterLocked(dashboard);
  if (!state.ok()) return fail(state.status());
  for (const LoggedChange& change : changes) {
    WalRecord record;
    if (change.delta != nullptr) {
      record.type = WalRecord::Type::kAppend;
      record.table = change.delta;
    } else {
      record.type = WalRecord::Type::kPublish;
      record.table = change.table;
    }
    record.object = change.object;
    record.version = change.version;
    record.prev_version = change.prev_version;
    record.publisher = dashboard;
    Result<size_t> appended = (*state)->writer->Append(record);
    if (!appended.ok()) return fail(appended.status());
  }
  WalRecord commit;
  commit.type = WalRecord::Type::kCommit;
  commit.publisher = dashboard;
  Result<size_t> committed = (*state)->writer->Append(commit);
  if (!committed.ok()) return fail(committed.status());
  Status synced = SyncPerPolicyLocked(*state);
  if (!synced.ok()) return fail(synced);
  return Status::OK();
}

bool DurabilityManager::ShouldSnapshot(const std::string& dashboard) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dashes_.find(dashboard);
  return it != dashes_.end() && it->second.writer != nullptr &&
         it->second.writer->appended_bytes() > options_.snapshot_wal_bytes;
}

Status DurabilityManager::SnapshotDashboard(
    const std::string& dashboard, const std::map<std::string, TablePtr>& objects) {
  std::lock_guard<std::mutex> lock(mu_);
  if (read_only_) {
    return Status::Unavailable("durable store is read-only: " +
                               read_only_reason_);
  }
  Status snapped = SnapshotDashboardLocked(dashboard, objects);
  if (!snapped.ok()) {
    MarkReadOnlyLocked("snapshot of dashboard '" + dashboard +
                       "' failed: " + snapped.message());
    return Status::Unavailable("durable store is read-only: " +
                               read_only_reason_);
  }
  return Status::OK();
}

Status DurabilityManager::SnapshotDashboardLocked(
    const std::string& dashboard, const std::map<std::string, TablePtr>& objects) {
  const std::string snap_dir = SnapshotDir(dashboard);
  std::error_code ec;
  fs::create_directories(snap_dir, ec);
  if (ec) {
    return Status::IoError("cannot create snapshot directory '" + snap_dir +
                           "': " + ec.message());
  }

  DashState& state = dashes_[dashboard];
  std::map<std::string, std::string> live_files;  // file name -> object
  for (const auto& [object, table] : objects) {
    const std::string file_name = FileStem(object) + ".snap";
    live_files[file_name] = object;
    auto held = state.snapshot_versions.find(file_name);
    if (held != state.snapshot_versions.end() &&
        held->second == table->version()) {
      continue;  // that file already holds this exact table
    }
    WalRecord record;
    record.type = WalRecord::Type::kPublish;
    record.object = object;
    record.version = table->version();
    record.publisher = dashboard;
    record.table = table;
    std::string content(kSnapshotMagic, sizeof(kSnapshotMagic));
    AppendFramedRecord(record, &content);
    SI_RETURN_IF_ERROR(WriteFileAtomic(snap_dir + "/" + file_name, content,
                                       "snapshot.before_rename"));
    state.snapshot_versions[file_name] = table->version();
    ++snapshots_written_;
    SnapshotsCounter()->Increment();
  }

  // Drop snapshots of objects that no longer exist, plus stray temp
  // files from an interrupted earlier snapshot.
  for (const std::string& name : ListFiles(snap_dir, ".snap")) {
    if (live_files.count(name) == 0) {
      fs::remove(snap_dir + "/" + name, ec);
      state.snapshot_versions.erase(name);
    }
  }
  for (const std::string& name : ListFiles(snap_dir, ".tmp")) {
    fs::remove(snap_dir + "/" + name, ec);
  }

  // With every object safely snapshotted, the WAL can restart empty.
  MaybeCrashAtPoint("snapshot.before_truncate");
  state.writer.reset();  // close before replace
  SI_RETURN_IF_ERROR(ResetWalFile(WalPath(dashboard), options_.retry));
  return Status::OK();
}

Result<DurabilityManager::RecoveryReport> DurabilityManager::Recover(
    CancellationToken* cancel) {
  std::lock_guard<std::mutex> lock(mu_);
  auto start = std::chrono::steady_clock::now();
  RecoveryReport report;
  MemoryBudget replay_budget("recovery", options_.replay_mem_budget_bytes,
                             &MemoryBudget::Process());

  const std::string manifest_dir =
      (fs::path(options_.dir) / "manifests").string();
  for (const std::string& manifest_file : ListFiles(manifest_dir, ".dash")) {
    const std::string manifest_path = manifest_dir + "/" + manifest_file;
    Result<std::string> data = ReadWholeFile(manifest_path);
    if (!data.ok()) {
      MarkReadOnlyLocked(data.status().message());
      continue;
    }
    RecoveredDashboard dash;
    {
      const std::string& buf = *data;
      const char* p = buf.data();
      const char* end = buf.data() + buf.size();
      uint64_t len = 0;
      uint64_t stored = 0;
      if (buf.size() < sizeof(kManifestMagic) ||
          std::memcmp(p, kManifestMagic, sizeof(kManifestMagic)) != 0 ||
          (p += sizeof(kManifestMagic), !wire::GetVarint(&p, end, &len)) ||
          !wire::GetFixed64(&p, end, &stored) ||
          static_cast<uint64_t>(end - p) < len ||
          stored != wire::Fnv1a(p, static_cast<size_t>(len))) {
        MarkReadOnlyLocked(
            FileCorruptError("manifest", manifest_path).message());
        continue;
      }
      const char* payload_end = p + len;
      if (!wire::GetString(&p, payload_end, &dash.name) ||
          !wire::GetString(&p, payload_end, &dash.flow_text)) {
        MarkReadOnlyLocked(
            FileCorruptError("manifest", manifest_path).message());
        continue;
      }
    }

    // Snapshots: the object states the WAL tail grows from.
    const std::string snap_dir = SnapshotDir(dash.name);
    bool dash_corrupt = false;
    for (const std::string& snap_file : ListFiles(snap_dir, ".snap")) {
      const std::string snap_path = snap_dir + "/" + snap_file;
      Result<std::string> snap = ReadWholeFile(snap_path);
      Status error = Status::OK();
      if (!snap.ok()) {
        error = snap.status();
      } else if (snap->size() < sizeof(kSnapshotMagic) ||
                 std::memcmp(snap->data(), kSnapshotMagic,
                             sizeof(kSnapshotMagic)) != 0) {
        error = FileCorruptError("snapshot", snap_path);
      } else {
        const char* p = snap->data() + sizeof(kSnapshotMagic);
        const char* end = snap->data() + snap->size();
        Result<std::optional<WalRecord>> record =
            ReadFramedRecord(&p, end, snap_path);
        if (!record.ok()) {
          error = record.status();
        } else if (!record->has_value() ||
                   (*record)->type != WalRecord::Type::kPublish ||
                   (*record)->table == nullptr) {
          // Snapshots are written atomically; a torn frame here is real
          // corruption, not a crash artifact.
          error = FileCorruptError("snapshot", snap_path);
        } else {
          WalRecord rec = std::move(**record);
          Table::RestampVersionForRecovery(rec.table, rec.version);
          dashes_[dash.name].snapshot_versions[snap_file] = rec.version;
          dash.base_tables[rec.object] = rec.table;
          dash.objects[rec.object] = std::move(rec.table);
        }
      }
      if (!error.ok()) {
        MarkReadOnlyLocked(error.message());
        dash_corrupt = true;
      }
    }

    // WAL tail: committed cycles only, applied in order.
    Result<WalReadResult> wal = ReadWalFile(WalPath(dash.name), options_.retry);
    if (!wal.ok()) {
      MarkReadOnlyLocked(wal.status().message());
      dash_corrupt = true;
    } else {
      report.torn_bytes_dropped += wal->torn_bytes;
      std::vector<WalRecord> cycle;
      for (WalRecord& record : wal->records) {
        if (cancel != nullptr) SI_RETURN_IF_ERROR(cancel->Check());
        if (record.type != WalRecord::Type::kCommit) {
          cycle.push_back(std::move(record));
          continue;
        }
        for (WalRecord& rec : cycle) {
          size_t charge =
              rec.table != nullptr ? rec.table->ApproxBytes() : 0;
          Result<MemoryReservation> reserved = replay_budget.Reserve(
              charge, "recovery:" + dash.name + "/" + rec.object);
          if (!reserved.ok()) {
            MarkReadOnlyLocked("WAL replay for dashboard '" + dash.name +
                               "' ran out of memory budget: " +
                               reserved.status().message());
            dash_corrupt = true;
            break;
          }
          auto current = dash.objects.find(rec.object);
          uint64_t current_version =
              current != dash.objects.end() ? current->second->version() : 0;
          if (rec.type == WalRecord::Type::kDelete) {
            dash.objects.erase(rec.object);
            continue;
          }
          // Records at or below the snapshot's version were compacted
          // into it already; replaying them again would double-apply.
          if (rec.version <= current_version) continue;
          RecoveredEvent event;
          event.object = rec.object;
          event.version = rec.version;
          event.prev_version = rec.prev_version;
          if (rec.type == WalRecord::Type::kAppend) {
            if (current == dash.objects.end()) {
              MarkReadOnlyLocked("WAL for dashboard '" + dash.name +
                                 "' appends to unknown object '" +
                                 rec.object + "'");
              dash_corrupt = true;
              break;
            }
            Result<TablePtr> grown = ConcatTables(current->second, rec.table);
            if (!grown.ok()) {
              MarkReadOnlyLocked("WAL replay for '" + dash.name + "/" +
                                 rec.object +
                                 "' failed: " + grown.status().message());
              dash_corrupt = true;
              break;
            }
            Table::RestampVersionForRecovery(*grown, rec.version);
            event.delta = std::move(rec.table);
            event.table = *grown;
            dash.objects[rec.object] = std::move(*grown);
          } else {  // kPublish: full rewrite
            Table::RestampVersionForRecovery(rec.table, rec.version);
            event.table = rec.table;
            dash.objects[rec.object] = std::move(rec.table);
          }
          dash.tail.push_back(std::move(event));
          ++dash.replayed_records;
          ++report.replayed_records;
        }
        cycle.clear();
        if (dash_corrupt) break;
      }
      // Records after the last commit marker belong to an unfinished
      // cycle: dropped, so no append is ever half-visible.
    }

    report.dashboards.push_back(std::move(dash));
  }

  // Compact what recovered into fresh snapshots and empty WALs: torn
  // tails are cleared and the next recovery starts from a new bound.
  if (!read_only_) {
    for (const RecoveredDashboard& dash : report.dashboards) {
      Status snapped = SnapshotDashboardLocked(dash.name, dash.objects);
      if (!snapped.ok()) {
        MarkReadOnlyLocked("post-recovery snapshot of '" + dash.name +
                           "' failed: " + snapped.message());
        break;
      }
    }
  }

  report.recovery_ms = ElapsedMs(start);
  recovery_ms_ = report.recovery_ms;
  recovery_replayed_ = report.replayed_records;
  MetricsRegistry& metrics = MetricsRegistry::Default();
  metrics
      .GetCounter("recovery_replayed_records_total",
                  "WAL records replayed during crash recovery")
      ->Increment(static_cast<int64_t>(report.replayed_records));
  metrics
      .GetHistogram("recovery_ms", Histogram::LatencyBoundsMs(),
                    "wall time of one durable-store recovery")
      ->Observe(report.recovery_ms);
  return report;
}

DurabilityManager::Stats DurabilityManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsRegistry& metrics = MetricsRegistry::Default();
  Stats stats;
  stats.read_only = read_only_;
  stats.read_only_reason = read_only_reason_;
  stats.wal_records_written =
      metrics
          .GetCounter("wal_records_written_total",
                      "records appended to write-ahead logs")
          ->Value();
  stats.wal_bytes_written =
      metrics
          .GetCounter("wal_bytes_written_total",
                      "bytes appended to write-ahead logs")
          ->Value();
  stats.wal_fsyncs =
      metrics.GetCounter("wal_fsyncs_total", "fsync calls on write-ahead logs")
          ->Value();
  stats.snapshots_written = snapshots_written_;
  stats.recovery_replayed_records =
      static_cast<int64_t>(recovery_replayed_);
  stats.recovery_ms = recovery_ms_;
  return stats;
}

}  // namespace shareinsights
