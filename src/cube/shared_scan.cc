#include "cube/shared_scan.h"

#include <utility>

#include "common/fingerprint.h"

namespace shareinsights {

std::string CanonicalFilterKey(const std::vector<DataCube::Filter>& filters) {
  std::string out = "filters/v1";
  for (const DataCube::Filter& filter : filters) {
    // An empty allowed list is "no constraint" (DataCube::SelectRows skips
    // it), so dropping it here lets otherwise-identical queries share.
    if (filter.allowed.empty()) continue;
    out += ';';
    out += Fingerprinter::Field(filter.column);
    out += filter.is_range ? 'r' : 'v';
    out += '[';
    for (const Value& value : filter.allowed) {
      out += Fingerprinter::Field(Fingerprinter::FingerprintValueKey(value));
    }
    out += ']';
  }
  return out;
}

uint64_t FilterFingerprint(const std::vector<DataCube::Filter>& filters) {
  Fingerprinter fp;
  fp.Add(CanonicalFilterKey(filters));
  return fp.Digest();
}

uint64_t QueryFingerprint(const DataCube::Query& query) {
  Fingerprinter fp;
  fp.Add("cube_query/v1");
  fp.Add(CanonicalFilterKey(query.filters));
  fp.Add(static_cast<uint64_t>(query.group_by.size()));
  for (const std::string& key : query.group_by) fp.Add(key);
  fp.Add(static_cast<uint64_t>(query.aggregates.size()));
  for (const AggregateSpec& agg : query.aggregates) {
    fp.Add(agg.op);
    fp.Add(agg.apply_on);
    fp.Add(agg.out_field);
  }
  fp.Add(static_cast<uint64_t>(query.orderby_aggregates ? 1 : 0));
  fp.Add(static_cast<uint64_t>(query.order_by.size()));
  for (const SortKey& key : query.order_by) {
    fp.Add(key.column);
    fp.Add(static_cast<uint64_t>(key.descending ? 1 : 0));
  }
  fp.Add(static_cast<uint64_t>(query.limit));
  return fp.Digest();
}

SharedScanBatcher::SharedScanBatcher(std::shared_ptr<const DataCube> cube,
                                     ResultCache* cache)
    : cube_(std::move(cube)), cache_(cache) {}

void SharedScanBatcher::RunBatchLocked(std::unique_lock<std::mutex>& lock,
                                       const ExecContext& ctx) {
  std::vector<Pending*> batch = std::move(queue_);
  queue_.clear();
  lock.unlock();

  std::vector<const DataCube::Query*> queries;
  queries.reserve(batch.size());
  for (Pending* pending : batch) queries.push_back(pending->query);
  Result<std::vector<TablePtr>> results = cube_->ExecuteBatch(queries, ctx);

  if (results.ok() && cache_ != nullptr) {
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i]->key.has_value()) {
        cache_->Insert(*batch[i]->key, (*results)[i]);
      }
    }
  }

  lock.lock();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (results.ok()) {
      batch[i]->outcome = (*results)[i];
    } else {
      batch[i]->outcome = results.status();
    }
  }
  cv_.notify_all();
}

Result<TablePtr> SharedScanBatcher::Execute(const DataCube::Query& query,
                                            const ExecContext& ctx,
                                            bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;

  Pending pending;
  pending.query = &query;
  if (cache_ != nullptr) {
    ResultCache::Key key;
    key.plan_hash = QueryFingerprint(query);
    key.input_versions.push_back(cube_->table()->version());
    if (std::optional<TablePtr> hit = cache_->Lookup(key)) {
      if (cache_hit != nullptr) *cache_hit = true;
      return *hit;
    }
    pending.key = std::move(key);
  }
  // Honor the caller's cancellation before committing to a batch; once
  // enqueued, the scan runs under the leader's context.
  SI_RETURN_IF_ERROR(ctx.CheckCancelled());

  std::unique_lock<std::mutex> lock(mu_);
  queue_.push_back(&pending);
  if (leader_active_) {
    // A leader is mid-scan; it will pick this entry up on its next drain.
    cv_.wait(lock, [&] { return pending.outcome.has_value(); });
    return *std::move(pending.outcome);
  }
  // Become the leader: drain the queue (including our own entry) until it
  // stays empty, so queries arriving during a scan join the next batch
  // instead of starting their own.
  leader_active_ = true;
  while (!queue_.empty()) RunBatchLocked(lock, ctx);
  leader_active_ = false;
  cv_.notify_all();  // wake any thread waiting to observe leader exit
  return *std::move(pending.outcome);
}

}  // namespace shareinsights
