#include "exec/executor.h"

#include <chrono>
#include <condition_variable>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/fault.h"
#include "common/logging.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "ops/exec_context.h"
#include "ops/spill.h"
#include "table/append.h"

namespace shareinsights {

void DataStore::Put(const std::string& name, TablePtr table) {
  std::lock_guard<std::mutex> lock(mu_);
  tables_[name] = std::move(table);
  source_digests_.erase(name);
}

void DataStore::PutSource(const std::string& name, TablePtr table,
                          uint64_t digest) {
  std::lock_guard<std::mutex> lock(mu_);
  tables_[name] = std::move(table);
  source_digests_[name] = digest;
}

PreviousLoad DataStore::LastLoad(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto digest = source_digests_.find(name);
  if (digest == source_digests_.end()) return {};
  return PreviousLoad{digest->second, tables_.at(name)};
}

Result<TablePtr> DataStore::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("data object '" + name +
                            "' is not materialized");
  }
  return it->second;
}

bool DataStore::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(name) > 0;
}

void DataStore::Erase(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  tables_.erase(name);
  source_digests_.erase(name);
}

void DataStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  tables_.clear();
  source_digests_.clear();
}

std::vector<std::string> DataStore::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, table] : tables_) out.push_back(name);
  return out;
}

std::string ExecutionStats::ToString() const {
  std::ostringstream out;
  out << "sources=" << sources_loaded;
  if (sources_reused > 0) out << " reused=" << sources_reused;
  out << " flows=" << flows_executed
      << " skipped=" << flows_skipped << " rows=" << rows_produced;
  if (flows_cached > 0) out << " cached=" << flows_cached;
  out << " endpoint_bytes=" << endpoint_bytes << " wall_ms=" << wall_ms;
  if (io_retries > 0) out << " io_retries=" << io_retries;
  if (flow_retries > 0) out << " flow_retries=" << flow_retries;
  if (sources_degraded > 0) out << " degraded=" << sources_degraded;
  if (rows_quarantined > 0) out << " quarantined=" << rows_quarantined;
  if (flows_cancelled > 0) out << " cancelled=" << flows_cancelled;
  if (mem_rejections > 0) out << " mem_rejections=" << mem_rejections;
  if (spills > 0) {
    out << " spills=" << spills << " spill_written=" << spill_bytes_written
        << " spill_read=" << spill_bytes_read;
  }
  if (flows_delta > 0) out << " delta=" << flows_delta;
  if (flows_full_fallback > 0) out << " full_fallback=" << flows_full_fallback;
  return out.str();
}

std::string ExecutionStats::ProfileString() const {
  std::vector<FlowTiming> sorted = flow_timings;
  std::sort(sorted.begin(), sorted.end(),
            [](const FlowTiming& a, const FlowTiming& b) {
              return a.ms > b.ms;
            });
  double total = 0;
  for (const FlowTiming& timing : sorted) total += timing.ms;
  std::ostringstream out;
  out << "flow profile (total " << total << " ms):\n";
  double cumulative = 0;
  for (const FlowTiming& timing : sorted) {
    cumulative += timing.ms;
    out << "  " << timing.ms << " ms  (" << timing.rows << " rows, "
        << (total > 0 ? static_cast<int>(100.0 * cumulative / total) : 0)
        << "% cum)  " << timing.flow << "\n";
  }
  return out.str();
}

Executor::Executor(ExecuteOptions options) : options_(std::move(options)) {}

Result<ExecutionStats> Executor::Execute(const ExecutionPlan& plan,
                                         DataStore* store) {
  return Run(plan, store, nullptr);
}

Result<ExecutionStats> Executor::ExecuteIncremental(
    const ExecutionPlan& plan, DataStore* store,
    const std::set<std::string>& dirty) {
  return Run(plan, store, &dirty);
}

Result<ExecutionStats> Executor::Run(const ExecutionPlan& plan,
                                     DataStore* store,
                                     const std::set<std::string>* dirty) {
  auto start = std::chrono::steady_clock::now();
  ExecutionStats stats;
  Tracer* tracer = options_.tracer;
  ScopedSpan run_span(tracer, "exec.run", options_.trace_parent);
  run_span.AddAttribute("flows", static_cast<int64_t>(plan.flows.size()));
  run_span.AddAttribute("mode", dirty == nullptr ? "full" : "incremental");

  // ------------------------------------------------------------------
  // Decide which flows must run. A full run executes everything; an
  // incremental run propagates dirtiness through the DAG.
  // ------------------------------------------------------------------
  size_t n = plan.flows.size();
  std::vector<bool> must_run(n, dirty == nullptr);
  std::set<std::string> dirty_objects;
  if (dirty != nullptr) {
    dirty_objects = *dirty;
    // plan.flows is topologically ordered, so one forward sweep settles
    // transitive dirtiness.
    for (size_t i = 0; i < n; ++i) {
      const CompiledFlow& flow = plan.flows[i];
      bool run = false;
      for (const std::string& input : flow.inputs) {
        if (dirty_objects.count(input) > 0) run = true;
      }
      for (const std::string& output : flow.outputs) {
        if (!store->Has(output) || dirty_objects.count(output) > 0) {
          run = true;
        }
      }
      if (run) {
        must_run[i] = true;
        for (const std::string& output : flow.outputs) {
          dirty_objects.insert(output);
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // Load sources (all on a full run; dirty/missing ones incrementally).
  // ------------------------------------------------------------------
  {
    ScopedSpan load_span(tracer, "exec.load_sources", run_span.id());
    for (const auto& [name, decl] : plan.sources) {
      // Source loads can block on slow providers; probe the token between
      // them so a cancelled run stops ingesting.
      if (options_.cancel != nullptr) {
        Status live = options_.cancel->Check();
        if (!live.ok()) {
          run_span.AddAttribute("cancelled", options_.cancel->reason());
          MetricsRegistry::Default()
              .GetCounter("queries_cancelled_total",
                          "runs/queries aborted by cooperative cancellation")
              ->Increment();
          return live;
        }
      }
      bool need = dirty == nullptr || !store->Has(name) ||
                  dirty->count(name) > 0;
      if (!need) continue;
      ScopedSpan source_span(tracer, "exec.source:" + name, load_span.id());
      DataSourceParams params = decl.params;
      if (!params.Has("base_dir") && !options_.base_dir.empty()) {
        params.Set("base_dir", options_.base_dir);
      }
      std::optional<Schema> declared;
      if (!decl.columns.empty()) declared = decl.DeclaredSchema();
      PreviousLoad previous = store->LastLoad(name);
      LoadReport report;
      Result<TablePtr> table = LoadDataObject(
          params, declared, decl.columns, options_.connectors,
          options_.formats, tracer, source_span.id(), &report, &previous);
      stats.io_retries += report.attempts - 1;
      if (report.attempts > 1) {
        source_span.AddAttribute("attempts",
                                 static_cast<int64_t>(report.attempts));
      }
      if (!table.ok()) {
        // Degraded mode: an `optional: true` source that is down after
        // all retries continues as an empty table with the compiled
        // schema, so downstream flows still run end to end.
        bool optional_source = params.Get("optional") == "true";
        if (optional_source && options_.degrade_optional_sources) {
          auto schema_it = plan.schemas.find(name);
          Schema schema = schema_it != plan.schemas.end()
                              ? schema_it->second
                              : decl.DeclaredSchema();
          store->Put(name, Table::Empty(std::move(schema)));
          store->Erase(name + kQuarantineSuffix);
          ++stats.sources_degraded;
          source_span.AddAttribute("degraded", "true");
          source_span.AddAttribute("error", table.status().ToString());
          MetricsRegistry::Default()
              .GetCounter("sources_degraded_total",
                          "optional sources continued as empty tables")
              ->Increment();
          SI_LOG(kWarning) << "source '" << name
                           << "' degraded to empty table: " << table.status();
          continue;
        }
        return table.status().WithContext("loading source '" + name + "'");
      }
      source_span.AddAttribute("rows",
                               static_cast<int64_t>((*table)->num_rows()));
      if (report.rows_quarantined > 0) {
        // Not remembered for reuse: a kept table would need its side
        // table kept in step.
        stats.rows_quarantined += report.rows_quarantined;
        source_span.AddAttribute("rows_quarantined", report.rows_quarantined);
        store->Put(name + kQuarantineSuffix, report.quarantine);
        store->Put(name, std::move(*table));
      } else {
        // A clean load leaves no side table from an earlier payload.
        store->Erase(name + kQuarantineSuffix);
        store->PutSource(name, std::move(*table), report.digest);
      }
      if (report.reused) {
        source_span.AddAttribute("reused", "true");
        ++stats.sources_reused;
      }
      ++stats.sources_loaded;
    }
  }

  // Resolve shared inputs through the platform catalog.
  {
    ScopedSpan shared_span(tracer, "exec.resolve_shared", run_span.id());
    for (const std::string& name : plan.shared_inputs) {
      if (dirty != nullptr && store->Has(name) && dirty->count(name) == 0) {
        continue;
      }
      if (options_.shared == nullptr) {
        return Status::NotFound("flow needs shared data object '" + name +
                                "' but no shared catalog is configured");
      }
      Result<TablePtr> table = options_.shared->SharedTable(name);
      if (!table.ok()) {
        return table.status().WithContext("resolving shared data object '" +
                                          name + "'");
      }
      store->Put(name, std::move(*table));
    }
  }

  // ------------------------------------------------------------------
  // Schedule flows over the pool, releasing dependents as inputs land.
  // ------------------------------------------------------------------
  std::unordered_map<std::string, size_t> producer;
  for (size_t i = 0; i < n; ++i) {
    for (const std::string& output : plan.flows[i].outputs) {
      producer[output] = i;
    }
  }
  std::vector<std::vector<size_t>> dependents(n);
  std::vector<int> pending(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (const std::string& input : plan.flows[i].inputs) {
      auto it = producer.find(input);
      if (it != producer.end()) {
        dependents[it->second].push_back(i);
        ++pending[i];
      }
    }
  }

  size_t threads = options_.num_threads;
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  ThreadPool pool(threads);

  // Memory account for this run: a dedicated per-query budget parented to
  // the process budget when a cap is configured, else the process budget
  // itself (pure accounting). Stack-local is safe — Run blocks until every
  // submitted flow has completed.
  MemoryBudget query_budget("query", options_.mem_budget_bytes,
                            &MemoryBudget::Process());
  MemoryBudget* budget = options_.mem_budget_bytes > 0
                             ? &query_budget
                             : &MemoryBudget::Process();

  // Per-run spill area: when enabled, operators facing a refused
  // reservation degrade to compressed on-disk partitions instead of
  // failing (ops/spill.h). Stack-local like the budget; its scratch
  // directory — and any partitions an error or cancel left behind — is
  // removed when the run returns.
  std::unique_ptr<SpillScratch> spill_scratch;
  if (options_.enable_spill) {
    SpillScratch::Options spill_options;
    spill_options.base_dir = options_.spill_dir;
    spill_options.chunk_rows = options_.spill_chunk_rows;
    spill_scratch = std::make_unique<SpillScratch>(spill_options);
  }

  std::mutex mu;
  std::condition_variable done_cv;
  size_t completed = 0;
  Status first_error;

  // Stage span covering every flow execution; started/ended manually
  // because the scheduling block below has early returns.
  SpanId flows_stage = tracer != nullptr
                           ? tracer->StartSpan("exec.flows", run_span.id())
                           : 0;

  // Set by run_flow when the flow was answered by the result cache
  // (single writer per index; read after completion under `mu`).
  std::vector<uint8_t> flow_was_cached(n, 0);

  // Runs one flow; returns its row count on success.
  auto run_flow = [&](size_t index) -> Result<int64_t> {
    const CompiledFlow& flow = plan.flows[index];
    ScopedSpan flow_span(tracer, "exec.flow:" + Join(flow.outputs, ","),
                         flows_stage);
    std::vector<TablePtr> inputs;
    for (const std::string& input : flow.inputs) {
      SI_ASSIGN_OR_RETURN(TablePtr table, store->Get(input));
      inputs.push_back(std::move(table));
    }
    // Result-cache lookup: a fingerprintable flow over exactly these
    // input table instances may have run before (shared tables, repeated
    // incremental runs, sibling dashboards). Operators are pure, so a hit
    // is byte-identical to re-execution.
    std::optional<ResultCache::Key> cache_key;
    if (options_.result_cache != nullptr && flow.fingerprint != 0) {
      ResultCache::Key key;
      key.plan_hash = flow.fingerprint;
      for (const TablePtr& input : inputs) {
        key.input_versions.push_back(input->version());
      }
      if (std::optional<TablePtr> hit =
              options_.result_cache->Lookup(key)) {
        for (const std::string& output : flow.outputs) {
          store->Put(output, *hit);
        }
        flow_was_cached[index] = 1;
        flow_span.AddAttribute("cache", "hit");
        flow_span.AddAttribute("rows_out",
                               static_cast<int64_t>((*hit)->num_rows()));
        return static_cast<int64_t>((*hit)->num_rows());
      }
      cache_key = std::move(key);
    }
    TablePtr current;
    for (size_t t = 0; t < flow.ops.size(); ++t) {
      std::vector<TablePtr> stage_inputs =
          t == 0 ? inputs : std::vector<TablePtr>{current};
      // Cooperative cancellation point at the DAG-node boundary: a fired
      // token stops the flow before its next task starts.
      if (options_.cancel != nullptr) {
        SI_RETURN_IF_ERROR(options_.cancel->Check());
      }
      ScopedSpan task_span(tracer, "exec.task:" + flow.task_names[t],
                           flow_span.id());
      if (tracer != nullptr) {
        task_span.AddAttribute("op", flow.ops[t]->name());
        int64_t rows_in = 0;
        for (const TablePtr& input : stage_inputs) {
          rows_in += static_cast<int64_t>(input->num_rows());
        }
        task_span.AddAttribute("rows_in", rows_in);
      }
      // `exec.node` injection site: one task of one flow. An injected
      // transient status bubbles up as this task's failure so the flow
      // retry path gets exercised exactly like a real node fault.
      std::optional<Status> injected =
          FaultInjector::Get().Check(kFaultExecNode);
      if (injected.has_value()) {
        MetricsRegistry::Default()
            .GetCounter("faults_injected_total",
                        "faults fired by the injection harness")
            ->Increment();
        return injected->WithContext("executing task '" +
                                     flow.task_names[t] + "' of flow '" +
                                     flow.ToString() + "'");
      }
      ExecContext exec_ctx;
      exec_ctx.pool = &pool;
      if (options_.morsel_rows > 0) exec_ctx.morsel_rows = options_.morsel_rows;
      exec_ctx.tracer = tracer;
      exec_ctx.trace_parent = task_span.id();
      exec_ctx.cancel = options_.cancel;
      exec_ctx.budget = budget;
      exec_ctx.spill = spill_scratch.get();
      Result<TablePtr> out = flow.ops[t]->Execute(stage_inputs, exec_ctx);
      if (!out.ok()) {
        return out.status().WithContext("executing task '" +
                                        flow.task_names[t] + "' of flow '" +
                                        flow.ToString() + "'");
      }
      current = std::move(*out);
      task_span.AddAttribute("rows_out",
                             static_cast<int64_t>(current->num_rows()));
    }
    for (const std::string& output : flow.outputs) {
      store->Put(output, current);
    }
    if (cache_key.has_value()) {
      options_.result_cache->Insert(*cache_key, current);
    }
    flow_span.AddAttribute("rows_out",
                           static_cast<int64_t>(current->num_rows()));
    return static_cast<int64_t>(current->num_rows());
  };

  // The scheduling closure: submit a flow (or mark a skipped one done).
  std::function<void(size_t)> submit = [&](size_t index) {
    pool.Submit([&, index] {
      Result<int64_t> rows(static_cast<int64_t>(0));
      bool ran = false;
      double flow_ms = 0;
      int retries = 0;
      if (must_run[index]) {
        auto flow_start = std::chrono::steady_clock::now();
        int max_attempts = std::max(1, options_.flow_retry_attempts);
        for (int attempt = 1;; ++attempt) {
          rows = run_flow(index);
          if (rows.ok() || attempt >= max_attempts ||
              !IsRetryable(rows.status())) {
            break;
          }
          ++retries;
          MetricsRegistry::Default()
              .GetCounter("flow_retries_total",
                          "flows re-run after transient failures")
              ->Increment();
          SI_LOG(kWarning) << "retrying flow '"
                           << plan.flows[index].ToString()
                           << "' after transient failure: " << rows.status();
        }
        flow_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - flow_start)
                      .count();
        ran = true;
      }
      std::unique_lock<std::mutex> lock(mu);
      stats.flow_retries += retries;
      if (!rows.ok()) {
        if (rows.status().code() == StatusCode::kCancelled) {
          ++stats.flows_cancelled;
        } else if (rows.status().code() == StatusCode::kResourceExhausted) {
          ++stats.mem_rejections;
        }
        if (first_error.ok()) first_error = rows.status();
      } else {
        if (ran && flow_was_cached[index]) {
          ++stats.flows_cached;
          stats.rows_produced += *rows;
        } else if (ran) {
          ++stats.flows_executed;
          stats.rows_produced += *rows;
          stats.flow_timings.push_back(
              FlowTiming{plan.flows[index].ToString(), flow_ms, *rows});
        } else {
          ++stats.flows_skipped;
        }
        for (size_t dep : dependents[index]) {
          if (--pending[dep] == 0 && first_error.ok()) submit(dep);
        }
      }
      ++completed;
      done_cv.notify_all();
    });
  };

  {
    std::unique_lock<std::mutex> lock(mu);
    size_t roots = 0;
    for (size_t i = 0; i < n; ++i) {
      if (pending[i] == 0) {
        submit(i);
        ++roots;
      }
    }
    if (n > 0 && roots == 0) {
      if (tracer != nullptr) tracer->EndSpan(flows_stage);
      return Status::Internal("plan has flows but no runnable roots");
    }
    done_cv.wait(lock, [&] {
      if (!first_error.ok()) return true;
      return completed == n;
    });
  }
  pool.WaitIdle();
  if (tracer != nullptr) tracer->EndSpan(flows_stage);
  if (!first_error.ok()) {
    if (first_error.code() == StatusCode::kCancelled) {
      run_span.AddAttribute("cancelled",
                            options_.cancel != nullptr
                                ? options_.cancel->reason()
                                : first_error.message());
      MetricsRegistry::Default()
          .GetCounter("queries_cancelled_total",
                      "runs/queries aborted by cooperative cancellation")
          ->Increment();
    }
    if (first_error.code() == StatusCode::kResourceExhausted) {
      MetricsRegistry::Default()
          .GetCounter("mem_budget_failed_runs_total",
                      "runs aborted by a refused memory reservation")
          ->Increment();
    }
    return first_error;
  }

  // Endpoint transfer accounting.
  {
    ScopedSpan endpoints_span(tracer, "exec.endpoints", run_span.id());
    for (const std::string& endpoint : plan.endpoints) {
      Result<TablePtr> table = store->Get(endpoint);
      if (table.ok()) {
        stats.endpoint_bytes +=
            static_cast<int64_t>((*table)->ApproxBytes());
      }
    }
    endpoints_span.AddAttribute("endpoint_bytes", stats.endpoint_bytes);
  }

  if (spill_scratch != nullptr && spill_scratch->spills() > 0) {
    stats.spills = static_cast<int>(spill_scratch->spills());
    stats.spill_bytes_written = spill_scratch->bytes_written();
    stats.spill_bytes_read = spill_scratch->bytes_read();
    run_span.AddAttribute("spills",
                          static_cast<int64_t>(spill_scratch->spills()));
  }

  stats.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  run_span.AddAttribute("flows_executed",
                        static_cast<int64_t>(stats.flows_executed));
  run_span.AddAttribute("rows_produced", stats.rows_produced);

  MetricsRegistry& metrics = MetricsRegistry::Default();
  metrics.GetCounter("runs_total", "executor runs (full + incremental)")
      ->Increment();
  metrics
      .GetCounter("flows_executed_total", "flows executed across all runs")
      ->Increment(stats.flows_executed);
  metrics
      .GetCounter("flows_skipped_total",
                  "flows reused unchanged by incremental runs")
      ->Increment(stats.flows_skipped);
  metrics
      .GetCounter("flows_cached_total",
                  "flows answered by the shared result cache")
      ->Increment(stats.flows_cached);
  metrics
      .GetCounter("sources_loaded_total", "source data objects materialized")
      ->Increment(stats.sources_loaded);
  metrics.GetCounter("rows_produced_total", "rows produced by all flows")
      ->Increment(stats.rows_produced);
  metrics
      .GetHistogram("run_ms", Histogram::LatencyBoundsMs(),
                    "wall time of one executor run")
      ->Observe(stats.wall_ms);
  Histogram* flow_ms_hist = metrics.GetHistogram(
      "flow_ms", Histogram::LatencyBoundsMs(), "wall time of one flow");
  for (const FlowTiming& timing : stats.flow_timings) {
    flow_ms_hist->Observe(timing.ms);
  }

  SI_LOG(kInfo) << "executed plan: " << stats.ToString();
  return stats;
}

Result<AppendOutcome> Executor::ExecuteAppend(const ExecutionPlan& plan,
                                              DataStore* store,
                                              const std::string& object,
                                              const TablePtr& delta_rows,
                                              IncrementalState* inc) {
  auto start = std::chrono::steady_clock::now();
  AppendOutcome outcome;
  ExecutionStats& stats = outcome.stats;
  Tracer* tracer = options_.tracer;
  ScopedSpan run_span(tracer, "exec.append", options_.trace_parent);
  run_span.AddAttribute("object", object);

  if (delta_rows == nullptr) {
    return Status::InvalidArgument("append batch is null");
  }
  SI_ASSIGN_OR_RETURN(TablePtr base, store->Get(object));
  if (!(delta_rows->schema() == base->schema())) {
    return Status::SchemaError("append batch does not match the schema of '" +
                               object + "'");
  }
  run_span.AddAttribute("rows",
                        static_cast<int64_t>(delta_rows->num_rows()));
  if (delta_rows->num_rows() == 0) {
    // Nothing to do — and nothing to invalidate: ConcatTables would hand
    // back the base instance, so replacing it would retire a version that
    // is in fact still live.
    return outcome;
  }

  // Accumulator state is only valid against the plan it was seeded from;
  // a recompiled plan (new ops, reordered flows) resets it, and the next
  // append re-seeds from the store.
  if (inc != nullptr) {
    std::vector<std::string> tags;
    tags.reserve(plan.flows.size());
    for (const CompiledFlow& flow : plan.flows) tags.push_back(flow.ToString());
    if (inc->flow_tags != tags) {
      inc->Clear();
      inc->flow_tags = std::move(tags);
    }
  }

  // Same memory account as Run(): a dedicated per-query budget when a cap
  // is configured, else the process budget.
  MemoryBudget query_budget("query", options_.mem_budget_bytes,
                            &MemoryBudget::Process());
  MemoryBudget* budget = options_.mem_budget_bytes > 0
                             ? &query_budget
                             : &MemoryBudget::Process();

  // Spill area, as in Run(): pressured materializations on the delta or
  // fallback paths degrade to on-disk partitions instead of failing.
  std::unique_ptr<SpillScratch> spill_scratch;
  if (options_.enable_spill) {
    SpillScratch::Options spill_options;
    spill_options.base_dir = options_.spill_dir;
    spill_options.chunk_rows = options_.spill_chunk_rows;
    spill_scratch = std::make_unique<SpillScratch>(spill_options);
  }

  // Unified failure tail: mirrors Run()'s cancellation / budget metrics so
  // callers observe appends and full runs identically.
  auto fail = [&](Status status) -> Status {
    if (status.code() == StatusCode::kCancelled) {
      run_span.AddAttribute("cancelled", options_.cancel != nullptr
                                             ? options_.cancel->reason()
                                             : status.message());
      MetricsRegistry::Default()
          .GetCounter("queries_cancelled_total",
                      "runs/queries aborted by cooperative cancellation")
          ->Increment();
    }
    if (status.code() == StatusCode::kResourceExhausted) {
      MetricsRegistry::Default()
          .GetCounter("mem_budget_failed_runs_total",
                      "runs aborted by a refused memory reservation")
          ->Increment();
    }
    return status;
  };
  auto check_cancel = [&]() -> Status {
    return options_.cancel != nullptr ? options_.cancel->Check()
                                      : Status::OK();
  };
  SI_RETURN_IF_ERROR(fail(check_cancel()));

  // The delta itself is a materialization this run is responsible for;
  // charge it up front so a flood of appends hits the budget before the
  // allocator.
  Result<MemoryReservation> delta_res =
      budget->Reserve(delta_rows->ApproxBytes(), "append:delta");
  if (!delta_res.ok()) return fail(delta_res.status());

  // Tables replaced by this append: pre-append instance (for seeding) and
  // dead version (for precise result-cache invalidation).
  std::map<std::string, TablePtr> prev_tables;
  std::vector<uint64_t> dead_versions;
  auto replace_object = [&](const std::string& name, TablePtr table) {
    Result<TablePtr> old = store->Get(name);
    if (old.ok()) {
      prev_tables.emplace(name, *old);
      outcome.prev_versions.emplace(name, (*old)->version());
      dead_versions.push_back((*old)->version());
    }
    store->Put(name, std::move(table));
  };

  {
    // Concat transiently holds base + delta alongside the result.
    Result<MemoryReservation> concat_res = budget->Reserve(
        base->ApproxBytes() + delta_rows->ApproxBytes(), "append:concat");
    if (!concat_res.ok()) return fail(concat_res.status());
    Result<TablePtr> grown = ConcatTables(base, delta_rows);
    if (!grown.ok()) return fail(grown.status());
    replace_object(object, std::move(*grown));
  }
  outcome.deltas[object] = delta_rows;

  size_t threads = options_.num_threads;
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  ThreadPool pool(threads);
  auto make_ctx = [&](SpanId parent) {
    ExecContext ctx;
    ctx.pool = &pool;
    if (options_.morsel_rows > 0) ctx.morsel_rows = options_.morsel_rows;
    ctx.tracer = tracer;
    ctx.trace_parent = parent;
    ctx.cancel = options_.cancel;
    ctx.budget = budget;
    ctx.spill = spill_scratch.get();
    return ctx;
  };

  // Full re-run of one flow over the (already grown) store contents — the
  // always-correct fallback; same task loop as Run()'s run_flow.
  auto run_full = [&](size_t index) -> Result<TablePtr> {
    const CompiledFlow& flow = plan.flows[index];
    ScopedSpan flow_span(tracer, "exec.flow:" + Join(flow.outputs, ","),
                         run_span.id());
    std::vector<TablePtr> inputs;
    for (const std::string& input : flow.inputs) {
      SI_ASSIGN_OR_RETURN(TablePtr table, store->Get(input));
      inputs.push_back(std::move(table));
    }
    std::optional<ResultCache::Key> cache_key;
    if (options_.result_cache != nullptr && flow.fingerprint != 0) {
      ResultCache::Key key;
      key.plan_hash = flow.fingerprint;
      for (const TablePtr& input : inputs) {
        key.input_versions.push_back(input->version());
      }
      if (std::optional<TablePtr> hit = options_.result_cache->Lookup(key)) {
        flow_span.AddAttribute("cache", "hit");
        return *hit;
      }
      cache_key = std::move(key);
    }
    TablePtr current;
    for (size_t t = 0; t < flow.ops.size(); ++t) {
      std::vector<TablePtr> stage_inputs =
          t == 0 ? inputs : std::vector<TablePtr>{current};
      SI_RETURN_IF_ERROR(check_cancel());
      std::optional<Status> injected =
          FaultInjector::Get().Check(kFaultExecNode);
      if (injected.has_value()) {
        MetricsRegistry::Default()
            .GetCounter("faults_injected_total",
                        "faults fired by the injection harness")
            ->Increment();
        return injected->WithContext("executing task '" + flow.task_names[t] +
                                     "' of flow '" + flow.ToString() + "'");
      }
      ScopedSpan task_span(tracer, "exec.task:" + flow.task_names[t],
                           flow_span.id());
      Result<TablePtr> out =
          flow.ops[t]->Execute(stage_inputs, make_ctx(task_span.id()));
      if (!out.ok()) {
        return out.status().WithContext("executing task '" +
                                        flow.task_names[t] + "' of flow '" +
                                        flow.ToString() + "'");
      }
      current = std::move(*out);
    }
    if (cache_key.has_value()) {
      options_.result_cache->Insert(*cache_key, current);
    }
    return current;
  };

  // Delta propagation through one flow's operator chain. Returns nullopt
  // when the chain hits a non-incrementalizable node (caller re-runs
  // fully); otherwise {table, is_delta}: an output delta to concatenate
  // (all pass-through) or the whole new output (an accumulator re-emit).
  auto run_delta =
      [&](size_t index) -> Result<std::optional<std::pair<TablePtr, bool>>> {
    const CompiledFlow& flow = plan.flows[index];
    ScopedSpan flow_span(tracer, "exec.delta:" + Join(flow.outputs, ","),
                         run_span.id());
    std::vector<TablePtr> stage_inputs;
    std::vector<bool> changed(flow.inputs.size(), false);
    for (size_t j = 0; j < flow.inputs.size(); ++j) {
      auto it = outcome.deltas.find(flow.inputs[j]);
      if (it != outcome.deltas.end()) {
        changed[j] = true;
        stage_inputs.push_back(it->second);
      } else {
        SI_ASSIGN_OR_RETURN(TablePtr table, store->Get(flow.inputs[j]));
        stage_inputs.push_back(std::move(table));
      }
    }
    TablePtr current;
    bool is_delta = true;
    for (size_t t = 0; t < flow.ops.size(); ++t) {
      if (t > 0) {
        stage_inputs = {current};
        changed = {true};
      }
      SI_RETURN_IF_ERROR(check_cancel());
      // Same `exec.node` injection site as the full path: a fault on the
      // delta path aborts it, and the caller falls back to a full re-run.
      std::optional<Status> injected =
          FaultInjector::Get().Check(kFaultExecNode);
      if (injected.has_value()) {
        MetricsRegistry::Default()
            .GetCounter("faults_injected_total",
                        "faults fired by the injection harness")
            ->Increment();
        return injected->WithContext("delta task '" + flow.task_names[t] +
                                     "' of flow '" + flow.ToString() + "'");
      }
      ScopedSpan task_span(tracer, "exec.delta_task:" + flow.task_names[t],
                           flow_span.id());
      ExecContext ctx = make_ctx(task_span.id());
      if (!is_delta) {
        // An upstream accumulator already re-emitted the full table; the
        // rest of the chain runs normally over it.
        Result<TablePtr> out = flow.ops[t]->Execute(stage_inputs, ctx);
        if (!out.ok()) {
          return out.status().WithContext("delta task '" + flow.task_names[t] +
                                          "' of flow '" + flow.ToString() +
                                          "'");
        }
        current = std::move(*out);
        continue;
      }
      DeltaMode mode = flow.ops[t]->delta_mode(changed);
      if (mode == DeltaMode::kNone) {
        return std::optional<std::pair<TablePtr, bool>>();
      }
      OperatorStatePtr op_state;
      if (mode == DeltaMode::kAccumulate) {
        std::pair<size_t, size_t> key{index, t};
        if (inc != nullptr) {
          auto it = inc->op_states.find(key);
          if (it != inc->op_states.end()) op_state = it->second;
        }
        if (op_state == nullptr) {
          // Seed from the PRE-append inputs: replay the (pass-through)
          // prefix of the chain over the previous table instances.
          std::vector<TablePtr> seed_inputs;
          for (const std::string& input : flow.inputs) {
            auto prev = prev_tables.find(input);
            if (prev != prev_tables.end()) {
              seed_inputs.push_back(prev->second);
            } else {
              SI_ASSIGN_OR_RETURN(TablePtr table, store->Get(input));
              seed_inputs.push_back(std::move(table));
            }
          }
          TablePtr seed_current;
          for (size_t u = 0; u < t; ++u) {
            Result<TablePtr> out = flow.ops[u]->Execute(
                u == 0 ? seed_inputs : std::vector<TablePtr>{seed_current},
                ctx);
            if (!out.ok()) return out.status();
            seed_current = std::move(*out);
          }
          Result<OperatorStatePtr> seeded = flow.ops[t]->SeedDeltaState(
              t == 0 ? seed_inputs : std::vector<TablePtr>{seed_current},
              ctx);
          if (!seeded.ok()) return seeded.status();
          op_state = std::move(*seeded);
          if (inc != nullptr) inc->op_states[key] = op_state;
        }
        // Accumulator growth is retained memory; account for it.
        Result<MemoryReservation> state_res =
            budget->Reserve(op_state->ApproxBytes(), "append:state");
        if (!state_res.ok()) return state_res.status();
        is_delta = false;
      }
      Result<TablePtr> out = flow.ops[t]->ExecuteDelta(stage_inputs, changed,
                                                       op_state.get(), ctx);
      if (!out.ok()) {
        return out.status().WithContext("delta task '" + flow.task_names[t] +
                                        "' of flow '" + flow.ToString() +
                                        "'");
      }
      current = std::move(*out);
    }
    return std::optional<std::pair<TablePtr, bool>>(
        std::make_pair(std::move(current), is_delta));
  };

  // Forward sweep over the topologically ordered flows, propagating
  // deltas (or full-change marks) object by object.
  for (size_t i = 0; i < plan.flows.size(); ++i) {
    const CompiledFlow& flow = plan.flows[i];
    bool any_delta = false;
    bool any_full = false;
    for (const std::string& input : flow.inputs) {
      if (outcome.deltas.count(input) > 0) any_delta = true;
      if (outcome.full_changed.count(input) > 0) any_full = true;
    }
    bool outputs_ok = true;
    for (const std::string& output : flow.outputs) {
      if (!store->Has(output)) outputs_ok = false;
    }
    if (!any_delta && !any_full && outputs_ok) {
      ++stats.flows_skipped;
      continue;
    }
    SI_RETURN_IF_ERROR(fail(check_cancel()));

    // A full-changed or missing input rules the delta path out; a fault
    // or transient failure on the delta path falls back to a full re-run
    // (the state for this flow is dropped so the next append re-seeds
    // from consistent store contents).
    bool fell_back = false;
    if (any_delta && !any_full && outputs_ok) {
      Result<std::optional<std::pair<TablePtr, bool>>> maintained =
          run_delta(i);
      if (maintained.ok() && maintained->has_value()) {
        auto& [table, is_delta] = **maintained;
        if (is_delta) {
          Result<TablePtr> prev_out = store->Get(flow.outputs[0]);
          if (!prev_out.ok()) return fail(prev_out.status());
          Result<MemoryReservation> concat_res = budget->Reserve(
              (*prev_out)->ApproxBytes() + table->ApproxBytes(),
              "append:concat");
          if (!concat_res.ok()) return fail(concat_res.status());
          Result<TablePtr> grown = ConcatTables(*prev_out, table);
          if (!grown.ok()) return fail(grown.status());
          for (const std::string& output : flow.outputs) {
            replace_object(output, *grown);
            outcome.deltas[output] = table;
          }
          stats.rows_produced += static_cast<int64_t>(table->num_rows());
        } else {
          for (const std::string& output : flow.outputs) {
            replace_object(output, table);
            outcome.full_changed.insert(output);
          }
          stats.rows_produced += static_cast<int64_t>(table->num_rows());
        }
        ++stats.flows_delta;
        if (options_.result_cache != nullptr && flow.fingerprint != 0) {
          // The maintained output is byte-identical to a cold run over
          // the grown inputs, so it is a valid entry under the new input
          // versions — sibling dashboards get append-fresh cache hits.
          ResultCache::Key key;
          key.plan_hash = flow.fingerprint;
          bool keyable = true;
          for (const std::string& input : flow.inputs) {
            Result<TablePtr> in_table = store->Get(input);
            if (!in_table.ok()) {
              keyable = false;
              break;
            }
            key.input_versions.push_back((*in_table)->version());
          }
          Result<TablePtr> out_table = store->Get(flow.outputs[0]);
          if (keyable && out_table.ok()) {
            options_.result_cache->Insert(key, *out_table);
          }
        }
        continue;
      }
      if (!maintained.ok() && !IsRetryable(maintained.status())) {
        return fail(maintained.status());
      }
      fell_back = true;
    }

    // Full re-run fallback (with the same transient-retry loop as Run).
    if (inc != nullptr) {
      for (size_t t = 0; t < flow.ops.size(); ++t) {
        inc->op_states.erase({i, t});
      }
    }
    if (fell_back || any_delta) ++stats.flows_full_fallback;
    int max_attempts = std::max(1, options_.flow_retry_attempts);
    Result<TablePtr> full(nullptr);
    for (int attempt = 1;; ++attempt) {
      full = run_full(i);
      if (full.ok() || attempt >= max_attempts ||
          !IsRetryable(full.status())) {
        break;
      }
      ++stats.flow_retries;
      MetricsRegistry::Default()
          .GetCounter("flow_retries_total",
                      "flows re-run after transient failures")
          ->Increment();
      SI_LOG(kWarning) << "retrying flow '" << flow.ToString()
                       << "' after transient failure: " << full.status();
    }
    if (!full.ok()) return fail(full.status());
    for (const std::string& output : flow.outputs) {
      replace_object(output, *full);
      outcome.full_changed.insert(output);
    }
    stats.rows_produced += static_cast<int64_t>((*full)->num_rows());
    ++stats.flows_executed;
  }

  // Precise invalidation: every table instance this append replaced is
  // dead as a cache input; entries over still-live versions survive.
  if (options_.result_cache != nullptr) {
    for (uint64_t version : dead_versions) {
      options_.result_cache->InvalidateInputVersion(version);
    }
  }

  if (spill_scratch != nullptr && spill_scratch->spills() > 0) {
    stats.spills = static_cast<int>(spill_scratch->spills());
    stats.spill_bytes_written = spill_scratch->bytes_written();
    stats.spill_bytes_read = spill_scratch->bytes_read();
    run_span.AddAttribute("spills",
                          static_cast<int64_t>(spill_scratch->spills()));
  }
  stats.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  run_span.AddAttribute("flows_delta",
                        static_cast<int64_t>(stats.flows_delta));
  run_span.AddAttribute("flows_full_fallback",
                        static_cast<int64_t>(stats.flows_full_fallback));
  MetricsRegistry& metrics = MetricsRegistry::Default();
  metrics.GetCounter("appends_total", "streaming append batches applied")
      ->Increment();
  metrics
      .GetCounter("flows_delta_total",
                  "flows maintained by delta propagation")
      ->Increment(stats.flows_delta);
  metrics
      .GetHistogram("append_ms", Histogram::LatencyBoundsMs(),
                    "wall time of one streaming append")
      ->Observe(stats.wall_ms);
  SI_LOG(kInfo) << "applied append to '" << object
                << "': " << stats.ToString();
  return outcome;
}

}  // namespace shareinsights
