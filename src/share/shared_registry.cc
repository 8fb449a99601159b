#include "share/shared_registry.h"

#include <algorithm>
#include <chrono>

#include "dashboard/dashboard.h"
#include "obs/metrics.h"

namespace shareinsights {

size_t SharedDataRegistry::EventBytes(const ChangeEvent& event) {
  // Fixed overhead keeps delta-less full-rewrite markers from pinning
  // the log forever; the delta payload is what retention really bounds.
  constexpr size_t kEventOverheadBytes = 64;
  return kEventOverheadBytes +
         (event.delta != nullptr ? event.delta->ApproxBytes() : 0);
}

void SharedDataRegistry::TrimChangeLog(Published* entry) {
  // Oldest events fall off first; the newest always survives so a
  // subscriber at the immediately preceding version can still patch.
  int64_t trimmed = 0;
  while (entry->changelog.size() > 1 &&
         entry->changelog_bytes > changelog_retention_bytes_) {
    entry->changelog_bytes -= EventBytes(entry->changelog.front());
    entry->changelog.pop_front();
    ++trimmed;
  }
  if (trimmed > 0) {
    // Growth of this counter means subscribers polling slower than the
    // retention window are being pushed onto the refetch path.
    MetricsRegistry::Default()
        .GetCounter("changelog_trimmed_events_total",
                    "change events dropped from retention-bounded changelogs")
        ->Increment(trimmed);
  }
}

void SharedDataRegistry::set_changelog_retention_bytes(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  changelog_retention_bytes_ = bytes;
  for (auto& [name, entry] : entries_) TrimChangeLog(&entry);
}

size_t SharedDataRegistry::changelog_retention_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return changelog_retention_bytes_;
}

size_t SharedDataRegistry::ChangeLogBytes(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.changelog_bytes;
}

size_t SharedDataRegistry::ChangeLogDepth(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.changelog.size();
}

Status SharedDataRegistry::Publish(const std::string& name, TablePtr table,
                                   const std::string& publisher) {
  if (table == nullptr) {
    return Status::InvalidArgument("cannot publish a null table as '" + name +
                                   "'");
  }
  ChangeEvent event;
  event.version = table->version();
  event.append = false;
  std::vector<SubscriberFn> fns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Published& entry = entries_[name];
    // Republishing the current table (a run whose sources were unchanged
    // kept its outputs) changes nothing a subscriber could see.
    if (entry.table != nullptr && entry.table->version() == event.version) {
      return Status::OK();
    }
    entry.table = std::move(table);
    entry.publisher = publisher;
    entry.changelog.push_back(event);
    entry.changelog_bytes += EventBytes(event);
    TrimChangeLog(&entry);
    for (const auto& [id, fn] : subscribers_) fns.push_back(fn);
  }
  change_cv_.notify_all();
  for (const SubscriberFn& fn : fns) fn(name, event);
  return Status::OK();
}

Status SharedDataRegistry::PublishAppend(const std::string& name,
                                         TablePtr grown, TablePtr delta,
                                         const std::string& publisher,
                                         uint64_t prev_version) {
  if (grown == nullptr || delta == nullptr) {
    return Status::InvalidArgument(
        "PublishAppend of '" + name + "' needs the grown table and its delta");
  }
  ChangeEvent event;
  event.version = grown->version();
  event.prev_version = prev_version;
  event.delta = std::move(delta);
  event.append = true;
  std::vector<SubscriberFn> fns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Published& entry = entries_[name];
    if (event.prev_version == 0 && entry.table != nullptr) {
      event.prev_version = entry.table->version();
    }
    entry.table = std::move(grown);
    entry.publisher = publisher;
    entry.changelog.push_back(event);
    entry.changelog_bytes += EventBytes(event);
    TrimChangeLog(&entry);
    for (const auto& [id, fn] : subscribers_) fns.push_back(fn);
  }
  change_cv_.notify_all();
  for (const SubscriberFn& fn : fns) fn(name, event);
  return Status::OK();
}

uint64_t SharedDataRegistry::Version(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.table->version();
}

namespace {

SharedDataRegistry::Changes ChangesFromLog(
    const std::deque<SharedDataRegistry::ChangeEvent>& changelog,
    uint64_t current_version, uint64_t since) {
  SharedDataRegistry::Changes out;
  if (since == current_version) {
    out.contiguous = true;  // caught up; nothing to replay
    return out;
  }
  // The cursor must itself appear in the retained changelog (or be the
  // current version, handled above) for the replay to be complete.
  bool cursor_found = false;
  for (const SharedDataRegistry::ChangeEvent& event : changelog) {
    if (event.version == since) {
      cursor_found = true;
      continue;
    }
    // An append that grew from exactly the cursor also anchors it.
    if (event.prev_version != 0 && event.prev_version == since) {
      cursor_found = true;
    }
    if (event.version > since) out.events.push_back(event);
  }
  out.contiguous = cursor_found;
  return out;
}

}  // namespace

SharedDataRegistry::Changes SharedDataRegistry::ChangesSince(
    const std::string& name, uint64_t since) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return Changes{};
  return ChangesFromLog(it->second.changelog, it->second.table->version(),
                        since);
}

SharedDataRegistry::Changes SharedDataRegistry::WaitForChange(
    const std::string& name, uint64_t since, int64_t timeout_ms) const {
  std::unique_lock<std::mutex> lock(mu_);
  change_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    auto it = entries_.find(name);
    // A vanished object is a change too; the caller sees non-contiguous
    // empty history and refetches (getting the 404).
    return it == entries_.end() || it->second.table->version() != since;
  });
  auto it = entries_.find(name);
  if (it == entries_.end()) return Changes{};
  return ChangesFromLog(it->second.changelog, it->second.table->version(),
                        since);
}

int SharedDataRegistry::Subscribe(SubscriberFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  int id = next_subscriber_id_++;
  subscribers_[id] = std::move(fn);
  return id;
}

void SharedDataRegistry::Unsubscribe(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  subscribers_.erase(id);
}

Status SharedDataRegistry::Unpublish(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.erase(name) == 0) {
      return Status::NotFound("no shared data object named '" + name + "'");
    }
  }
  change_cv_.notify_all();
  return Status::OK();
}

void SharedDataRegistry::Clear() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }
  change_cv_.notify_all();
}

std::optional<Schema> SharedDataRegistry::SharedSchema(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return std::nullopt;
  return it->second.table->schema();
}

Result<TablePtr> SharedDataRegistry::SharedTable(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no shared data object named '" + name + "'");
  }
  return it->second.table;
}

bool SharedDataRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(name) > 0;
}

std::vector<SharedDataRegistry::Entry> SharedDataRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  for (const auto& [name, published] : entries_) {
    Entry entry;
    entry.name = name;
    entry.publisher = published.publisher;
    entry.num_rows = published.table->num_rows();
    entry.approx_bytes = published.table->ApproxBytes();
    out.push_back(std::move(entry));
  }
  return out;
}

std::vector<SharedDataRegistry::DiscoveryMatch> SharedDataRegistry::Discover(
    const Schema& schema) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DiscoveryMatch> matches;
  for (const auto& [name, published] : entries_) {
    DiscoveryMatch match;
    match.name = name;
    match.publisher = published.publisher;
    for (const Field& field : published.table->schema().fields()) {
      if (schema.Contains(field.name)) {
        match.join_columns.push_back(field.name);
      } else {
        match.new_columns.push_back(field.name);
      }
    }
    // Something to join on AND something new to gain.
    if (!match.join_columns.empty() && !match.new_columns.empty()) {
      matches.push_back(std::move(match));
    }
  }
  std::sort(matches.begin(), matches.end(),
            [](const DiscoveryMatch& a, const DiscoveryMatch& b) {
              if (a.join_columns.size() != b.join_columns.size()) {
                return a.join_columns.size() > b.join_columns.size();
              }
              return a.name < b.name;
            });
  return matches;
}

Status PublishDashboardOutputs(const Dashboard& dashboard,
                               SharedDataRegistry* registry) {
  for (const auto& [publish_name, data_name] : dashboard.plan().published) {
    Result<TablePtr> table = dashboard.store().Get(data_name);
    if (!table.ok()) {
      return table.status().WithContext(
          "publishing '" + publish_name +
          "' (run the dashboard before publishing)");
    }
    SI_RETURN_IF_ERROR(registry->Publish(publish_name, std::move(*table),
                                         dashboard.flow_file().name));
  }
  return Status::OK();
}

}  // namespace shareinsights
