#ifndef SHAREINSIGHTS_STORE_DURABILITY_H_
#define SHAREINSIGHTS_STORE_DURABILITY_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "gov/cancellation.h"
#include "io/wal_file.h"
#include "table/table.h"

namespace shareinsights {

/// Configuration of the durable object store. An empty `dir` means
/// durability is off (the pre-durability in-memory behavior).
struct DurabilityOptions {
  /// Root directory of the durable state: `manifests/` (dashboard name +
  /// flow text), `wal/` (one write-ahead log per dashboard), and
  /// `snapshots/<dashboard>/` (one checksummed file per object).
  std::string dir;

  /// When the WAL is fsynced. kAlways syncs once per append cycle (every
  /// acknowledged append survives power loss); kInterval syncs at most
  /// once per fsync_interval_ms (a crash may lose the last interval's
  /// acknowledged appends, but never tears or reorders them — the
  /// recovered state is always a committed prefix); kOff leaves syncing
  /// to the OS (restart-safe, not power-loss-safe).
  enum class FsyncPolicy { kAlways, kInterval, kOff };
  FsyncPolicy fsync_policy = FsyncPolicy::kInterval;
  double fsync_interval_ms = 50;

  /// WAL size that triggers a snapshot + WAL truncation, bounding replay
  /// cost at recovery.
  size_t snapshot_wal_bytes = 8 * 1024 * 1024;

  /// Retry schedule for WAL/snapshot I/O (DefaultSpillRetryPolicy unless
  /// set): transient kIoError retries, ENOSPC fails fast.
  RetryPolicy retry;

  /// Cap of the MemoryBudget child ("recovery", parented to the process
  /// budget) that replay charges per-record transient reservations to.
  size_t replay_mem_budget_bytes = 256 * 1024 * 1024;
};

/// Parses "always" / "interval" / "off"; nullopt otherwise.
std::optional<DurabilityOptions::FsyncPolicy> ParseFsyncPolicy(
    const std::string& text);

/// The durable object store behind Dashboard and ApiServer: every
/// publish/append/delete of a materialized data object is written ahead
/// to a per-dashboard WAL (SISPILL1-encoded records, length + FNV-1a
/// framed, with a commit marker closing each atomic append cycle), and
/// periodically compacted into per-object checksummed snapshot files
/// written via atomic rename, after which the WAL is truncated.
/// Recover() replays snapshot + committed WAL tail, truncating torn
/// trailing records, restamping Table versions so ETags and
/// `prev_version` cursors stay valid across the restart.
///
/// Failure semantics: any WAL or snapshot write failure that survives
/// the retry policy (ENOSPC, persistent I/O error, injected `io.wal`
/// faults) flips the store to sticky read-only with a named reason —
/// writes answer kUnavailable, reads keep working, nothing crashes or
/// corrupts. Unrecoverable corruption found at recovery (bad manifest or
/// snapshot checksum, a committed WAL record that no longer decodes)
/// does the same: the server comes up read-only serving whatever state
/// recovered cleanly.
///
/// Thread-safe; one instance serves every dashboard of one server.
class DurabilityManager {
 public:
  using Options = DurabilityOptions;

  /// Opens the durable store, creating the directory layout. Never
  /// returns null: an unusable directory yields a manager already in
  /// read-only mode with the reason recorded.
  static std::unique_ptr<DurabilityManager> Open(Options options);

  bool read_only() const;
  std::string read_only_reason() const;
  const Options& options() const { return options_; }

  /// Persists a dashboard's identity (name + flow text) so recovery can
  /// recreate it before replaying its objects.
  Status PersistDashboard(const std::string& name,
                          const std::string& flow_text);

  /// One object's part of an atomic append cycle. `delta` non-null means
  /// the object grew by those rows (logged as a kAppend record); null
  /// means it was fully rewritten (logged as kPublish with the whole
  /// `table`).
  struct LoggedChange {
    std::string object;
    TablePtr table;  // state after the change
    TablePtr delta;  // appended rows, or null for a full rewrite
    uint64_t version = 0;
    uint64_t prev_version = 0;
  };

  /// Logs one append cycle (the target's delta plus every downstream
  /// delta/rewrite) followed by a commit marker, then fsyncs per policy.
  /// Failure marks the store read-only and returns kUnavailable.
  Status LogAppendCycle(const std::string& dashboard,
                        const std::vector<LoggedChange>& changes);

  /// True when `dashboard`'s WAL has outgrown snapshot_wal_bytes.
  bool ShouldSnapshot(const std::string& dashboard) const;

  /// Writes a checksummed snapshot of every object (temp file + atomic
  /// rename each, stale snapshot files of vanished objects removed),
  /// then truncates the dashboard's WAL. An object whose snapshot file
  /// already holds its current version (written earlier by this manager
  /// or read back by Recover) is not rewritten. Failure marks the store
  /// read-only and returns kUnavailable.
  Status SnapshotDashboard(const std::string& dashboard,
                           const std::map<std::string, TablePtr>& objects);

  /// One replayed WAL-tail event, for re-seeding changelogs.
  struct RecoveredEvent {
    std::string object;
    TablePtr table;  // object state after this event (version restamped)
    TablePtr delta;  // appended rows; null = full rewrite
    uint64_t version = 0;
    uint64_t prev_version = 0;
  };

  struct RecoveredDashboard {
    std::string name;
    std::string flow_text;
    /// Final object states (snapshot + committed WAL tail), versions
    /// restamped to their pre-crash values.
    std::map<std::string, TablePtr> objects;
    /// Object states as of the snapshot, before the WAL tail applied.
    std::map<std::string, TablePtr> base_tables;
    /// Committed WAL-tail events in replay order.
    std::vector<RecoveredEvent> tail;
    size_t replayed_records = 0;
  };

  struct RecoveryReport {
    std::vector<RecoveredDashboard> dashboards;
    size_t replayed_records = 0;
    size_t torn_bytes_dropped = 0;
    double recovery_ms = 0;
  };

  /// Replays manifests + snapshots + committed WAL tails. Cancellation
  /// is probed between records; memory is charged transiently to a
  /// "recovery" MemoryBudget child. Corruption degrades to read-only
  /// (the report still carries everything that recovered cleanly);
  /// cancellation returns kCancelled. Ends by re-snapshotting recovered
  /// state and truncating the WALs, so torn tails are cleared and the
  /// next recovery starts from a fresh bound.
  Result<RecoveryReport> Recover(CancellationToken* cancel = nullptr);

  /// Marks the store read-only (first reason wins; sticky).
  void MarkReadOnly(const std::string& reason);

  /// Storage-block counters for the run/health envelopes. WAL counters
  /// are process-wide (read from the metrics registry); the rest are
  /// this manager's.
  struct Stats {
    bool read_only = false;
    std::string read_only_reason;
    int64_t wal_records_written = 0;
    int64_t wal_bytes_written = 0;
    int64_t wal_fsyncs = 0;
    int64_t snapshots_written = 0;
    int64_t recovery_replayed_records = 0;
    double recovery_ms = 0;
  };
  Stats stats() const;

 private:
  explicit DurabilityManager(Options options)
      : options_(std::move(options)) {}

  struct DashState {
    std::unique_ptr<WalWriter> writer;
    std::chrono::steady_clock::time_point last_fsync{};
    bool synced_once = false;
    // Snapshot file name -> the object version that file holds.
    std::map<std::string, uint64_t> snapshot_versions;
  };

  std::string DashboardDirName(const std::string& dashboard) const;
  std::string WalPath(const std::string& dashboard) const;
  std::string ManifestPath(const std::string& dashboard) const;
  std::string SnapshotDir(const std::string& dashboard) const;

  Result<DashState*> EnsureWriterLocked(const std::string& dashboard);
  Status SyncPerPolicyLocked(DashState* state);
  Status SnapshotDashboardLocked(const std::string& dashboard,
                                 const std::map<std::string, TablePtr>& objects);
  void MarkReadOnlyLocked(const std::string& reason);

  Options options_;
  mutable std::mutex mu_;
  bool read_only_ = false;
  std::string read_only_reason_;
  std::map<std::string, DashState> dashes_;
  int64_t snapshots_written_ = 0;
  size_t recovery_replayed_ = 0;
  double recovery_ms_ = 0;
};

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_STORE_DURABILITY_H_
