#ifndef SHAREINSIGHTS_SHARE_SHARED_REGISTRY_H_
#define SHAREINSIGHTS_SHARE_SHARED_REGISTRY_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "compile/plan.h"
#include "exec/executor.h"

namespace shareinsights {

class Dashboard;

/// The platform's shared data object catalog (section 3.4.1 "Enable
/// Group Access"): dashboards publish processed data objects under a
/// name; other dashboards reference them by that name and "the platform
/// searches for this data object in the shared objects list". The
/// registry implements both the compile-time (schema) and run-time
/// (table) lookup interfaces.
class SharedDataRegistry : public SharedSchemaSource,
                           public SharedTableSource {
 public:
  struct Entry {
    std::string name;
    std::string publisher;  // dashboard that published it
    size_t num_rows = 0;
    size_t approx_bytes = 0;
  };

  /// One versioned change to a shared data object. `version` is the
  /// Table::version() of the object AFTER the change, so it is both the
  /// subscriber's resume cursor and the object's ETag.
  struct ChangeEvent {
    uint64_t version = 0;
    /// Version the object had just before this change (0 = unknown).
    /// Lets a subscriber whose cursor predates the retained log still
    /// patch contiguously when the first retained event grew from
    /// exactly their cursor.
    uint64_t prev_version = 0;
    /// The appended rows when `append` is true; null for a full rewrite
    /// (subscribers must refetch).
    TablePtr delta;
    bool append = false;
  };

  /// What ChangesSince found. When `contiguous` is false the retained
  /// changelog no longer reaches back to the requested cursor (or the
  /// object was fully republished in between) and the caller must refetch
  /// the whole object instead of patching.
  struct Changes {
    std::vector<ChangeEvent> events;  // oldest first, versions > since
    bool contiguous = false;
  };

  /// Callback invoked after every publish/append, outside the registry
  /// lock. Must be thread-safe; keep it cheap (it runs on the
  /// publisher's thread).
  using SubscriberFn =
      std::function<void(const std::string& name, const ChangeEvent& event)>;

  /// Publishes (or republishes) a table under `name`. Records a
  /// full-rewrite ChangeEvent and wakes subscribers/waiters. Handed the
  /// table already current under `name` (same version), it is a no-op:
  /// no event, no wake-up, publisher unchanged.
  Status Publish(const std::string& name, TablePtr table,
                 const std::string& publisher);

  /// Streaming publication: `grown` is the previous table plus the rows
  /// in `delta` (the executor's append outcome). Subscribers receive the
  /// delta and can patch their copies — including ResultCache users, who
  /// patch or precisely invalidate instead of discarding — in
  /// milliseconds instead of refetching the object.
  /// `prev_version` (when non-zero) records the version the object grew
  /// from; otherwise it is inferred from the registry's current entry.
  Status PublishAppend(const std::string& name, TablePtr grown,
                       TablePtr delta, const std::string& publisher,
                       uint64_t prev_version = 0);

  /// Current version of an object (its table's version), 0 when absent.
  uint64_t Version(const std::string& name) const;

  /// The changes to `name` strictly after version `since`, oldest first.
  Changes ChangesSince(const std::string& name, uint64_t since) const;

  /// Blocks until Version(name) > since, a change event lands, or
  /// `timeout_ms` elapses — the long-poll primitive behind the
  /// /changes?since= API route. Returns the (possibly empty /
  /// non-contiguous) changes at wake-up time.
  Changes WaitForChange(const std::string& name, uint64_t since,
                        int64_t timeout_ms) const;

  /// Registers a subscriber; returns an id for Unsubscribe.
  int Subscribe(SubscriberFn fn);
  void Unsubscribe(int id);

  Status Unpublish(const std::string& name);
  void Clear();

  std::optional<Schema> SharedSchema(const std::string& name) const override;
  Result<TablePtr> SharedTable(const std::string& name) const override;

  bool Contains(const std::string& name) const;
  std::vector<Entry> List() const;

  /// A shared data object that could enrich a pipeline consuming data of
  /// shape `schema` — §6's future-work dataset discovery ("since data is
  /// published on the platform, it potentially allows for discovery of
  /// data-sets to enrich an existing data pipeline").
  struct DiscoveryMatch {
    std::string name;
    std::string publisher;
    /// Columns shared with the probe schema — candidate join keys.
    std::vector<std::string> join_columns;
    /// Columns the shared object would add.
    std::vector<std::string> new_columns;
  };

  /// Ranks shared objects by how many columns they share with `schema`
  /// (at least one required — something to join on), most joinable
  /// first.
  std::vector<DiscoveryMatch> Discover(const Schema& schema) const;

  /// Changelog retention is byte-based: each object's log is trimmed
  /// oldest-first once the retained deltas exceed this cap, so retention
  /// tracks actual memory held (a thousand one-row appends are cheap to
  /// keep; a handful of wide ones are not) instead of a fixed event
  /// count. The newest event always survives, whatever its size —
  /// subscribers at the previous version must still be able to patch.
  /// Trimmed-away history pushes lagging subscribers onto the refetch
  /// path (ChangesSince reports non-contiguous), never into corruption.
  void set_changelog_retention_bytes(size_t bytes);
  size_t changelog_retention_bytes() const;

  /// Approximate bytes currently retained in `name`'s changelog
  /// (0 when absent) — observability for the retention tests and the
  /// /shared listing.
  size_t ChangeLogBytes(const std::string& name) const;
  /// Events currently retained in `name`'s changelog (0 when absent).
  size_t ChangeLogDepth(const std::string& name) const;

  /// Default per-object changelog retention (see
  /// set_changelog_retention_bytes).
  static constexpr size_t kDefaultChangeLogRetentionBytes = 4 * 1024 * 1024;

 private:
  /// Ledger charge of one retained event: the delta's payload plus a
  /// fixed overhead so delta-less full-rewrite markers still age out.
  static size_t EventBytes(const ChangeEvent& event);

  mutable std::mutex mu_;
  mutable std::condition_variable change_cv_;
  struct Published {
    TablePtr table;
    std::string publisher;
    /// Versions this object moved through, oldest first. The head's
    /// `append` flag also tells whether history is patchable from just
    /// before it.
    std::deque<ChangeEvent> changelog;
    /// Sum of EventBytes over `changelog` (maintained incrementally).
    size_t changelog_bytes = 0;
  };
  /// Trims `entry.changelog` oldest-first to the retention cap, always
  /// keeping the newest event. Callers hold `mu_`.
  void TrimChangeLog(Published* entry);

  size_t changelog_retention_bytes_ = kDefaultChangeLogRetentionBytes;
  std::map<std::string, Published> entries_;
  std::map<int, SubscriberFn> subscribers_;
  int next_subscriber_id_ = 1;
};

/// Publishes every `publish:`-flagged output of a ran dashboard into the
/// registry — the handoff step of a flow-file group (section 4.5.3).
Status PublishDashboardOutputs(const Dashboard& dashboard,
                               SharedDataRegistry* registry);

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_SHARE_SHARED_REGISTRY_H_
