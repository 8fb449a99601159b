#include "layers.h"

#include <cstdio>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "compile/compiler.h"
#include "cube/data_cube.h"
#include "dashboard/dashboard.h"
#include "flow/flow_file.h"
#include "io/csv.h"
#include "io/json.h"
#include "ops/filter.h"
#include "ops/groupby.h"
#include "share/shared_registry.h"
#include "store/durability.h"
#include "table/append.h"

namespace perfbench {

using shareinsights::AggregateSpec;
using shareinsights::CompileFlowFile;
using shareinsights::ConcatTables;
using shareinsights::CsvOptions;
using shareinsights::Dashboard;
using shareinsights::DataCube;
using shareinsights::DurabilityManager;
using shareinsights::ExecContext;
using shareinsights::FilterCompareOp;
using shareinsights::GroupByOp;
using shareinsights::MakeAppendBatch;
using shareinsights::ParseFlowFile;
using shareinsights::ParseJson;
using shareinsights::ParseJsonRecords;
using shareinsights::ReadCsvString;
using shareinsights::Result;
using shareinsights::SharedDataRegistry;
using shareinsights::TablePtr;
using shareinsights::TableToJson;
using shareinsights::Value;

namespace {

/// Median wall time of `reps` calls of `fn`, ms. `fn` returns false on
/// failure, which is recorded once.
template <typename Fn>
double MedianMs(int reps, const std::string& what, Outcome* outcome, Fn fn) {
  Samples samples;
  for (int i = 0; i < reps; ++i) {
    Clock::time_point start = Clock::now();
    bool ok = fn(i);
    samples.Add(MsSince(start));
    if (!ok) {
      outcome->RequestFailed("layer call failed: " + what);
      return 0;
    }
  }
  return samples.Median();
}

/// The first `n` rows of `table` as an append batch of its own schema.
TablePtr HeadBatch(const TablePtr& table, size_t n) {
  std::vector<std::vector<Value>> rows;
  for (size_t r = 0; r < std::min(n, table->num_rows()); ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < table->num_columns(); ++c) {
      row.push_back(table->at(r, c));
    }
    rows.push_back(std::move(row));
  }
  Result<TablePtr> batch = MakeAppendBatch(*table, std::move(rows));
  return batch.ok() ? *batch : nullptr;
}

std::vector<Value> RowValues(const SalesRow& row) {
  return {Value(RegionName(row.region)), Value(ProductName(row.product)),
          Value(StoreName(row.store)), Value(static_cast<int64_t>(row.cust)),
          Value(static_cast<int64_t>(row.qty)),
          Value(static_cast<int64_t>(row.amount))};
}

/// Seeded cube queries over columns every workload's endpoint has.
std::vector<DataCube::Query> CubeQueries(uint64_t seed, size_t n) {
  Rng rng(seed ^ 0xc0be);
  std::vector<DataCube::Query> queries;
  for (size_t i = 0; i < n; ++i) {
    DataCube::Query q;
    q.filters.push_back(DataCube::Filter{
        "region",
        {Value(RegionName(static_cast<int>(rng.NextBelow(kRegions))))},
        false});
    if (rng.NextBelow(2) == 0) {
      q.filters.push_back(DataCube::Filter{
          "store",
          {Value(StoreName(static_cast<int>(rng.NextBelow(kStores))))},
          false});
    }
    q.group_by = {"store"};
    q.aggregates = {AggregateSpec{"sum", "amount", "sum_amount"}};
    queries.push_back(std::move(q));
  }
  return queries;
}

double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

}  // namespace

void MeasureLayers(const LayerInputs& in, const TracedRun& run,
                   Outcome* out) {
  const Args& args = *run.args;
  auto counter = [&](const std::string& name) {
    return Delta(run.metrics_before, run.metrics_after, name);
  };
  Result<Dashboard*> dashboard = in.server->GetDashboard(in.dashboard);
  if (!dashboard.ok()) {
    out->RequestFailed("no dashboard " + in.dashboard);
    return;
  }
  Result<TablePtr> endpoint = (*dashboard)->EndpointData(in.endpoint);
  if (!endpoint.ok()) {
    out->RequestFailed("no endpoint " + in.endpoint);
    return;
  }
  TablePtr table = *endpoint;
  const double rows = static_cast<double>(table->num_rows());

  // io: parse the workload's own payloads; fetch from the program's spans.
  out->Add("io.fetch_ms", run.spans->Durations("io.fetch").Median(), "ms");
  double csv_ms = MedianMs(3, "ReadCsvString", out, [&](int) {
    return ReadCsvString(in.csv_payload, CsvOptions(), std::nullopt).ok();
  });
  out->Add("io.csv_parse_ms", csv_ms, "ms");
  out->Add("io.csv_parse_mb_per_s",
           Ratio(static_cast<double>(in.csv_payload.size()) / 1e6,
                 csv_ms / 1000.0),
           "MB/s");
  out->Add("io.json_parse_ms", MedianMs(3, "ParseJsonRecords", out, [&](int) {
             return ParseJsonRecords(in.json_payload).ok();
           }),
           "ms");
  out->Add("io.append_body_parse_ms",
           MedianMs(static_cast<int>(in.append_bodies.size()), "ParseJson",
                    out,
                    [&](int i) { return ParseJson(in.append_bodies[i]).ok(); }),
           "ms");

  // compile
  out->Add("compile.flow_ms", MedianMs(5, "CompileFlowFile", out, [&](int) {
             auto file = ParseFlowFile(in.flow_text, in.dashboard);
             return file.ok() && CompileFlowFile(*file).ok();
           }),
           "ms");
  out->Add("compile.dashboard_create_ms",
           MedianMs(5, "Dashboard::Create", out, [&](int) {
             auto file = ParseFlowFile(in.flow_text, in.dashboard);
             return file.ok() && Dashboard::Create(std::move(*file)).ok();
           }),
           "ms");

  // Layer self time within a run, from the program's run spans: the
  // traced runs when the workload runs (author_run), else its set-up run.
  int roots = 0;
  std::map<std::string, double> self =
      run.spans->LayerSelfMs("bench.run", &roots);
  if (roots == 0) self = run.spans->LayerSelfMs("bench.setup_run", &roots);
  double run_total = 0;
  for (const auto& [layer, ms] : self) run_total += ms;
  double per_run = roots > 0 ? 1.0 / roots : 0;
  for (const char* layer : {"exec", "io", "ops", "cube", "dashboard"}) {
    out->Add(std::string(layer) + ".run_self_ms", self[layer] * per_run, "ms");
  }
  out->Add("io.run_share_pct", 100.0 * Ratio(self["io"], run_total), "%");
  out->Add("exec.flows_executed", counter("flows_executed_total"), "count");
  out->Add("exec.flows_cached", counter("flows_cached_total"), "count");
  out->Add("exec.flows_delta", counter("flows_delta_total"), "count");

  // ops on the endpoint table
  ExecContext ctx;
  FilterCompareOp filter("qty", FilterCompareOp::Cmp::kGt,
                         Value(static_cast<int64_t>(4)));
  double filter_ms = MedianMs(5, "FilterCompareOp", out, [&](int) {
    return filter.Execute({table}, ctx).ok();
  });
  out->Add("ops.filter_rows_per_s", Ratio(rows, filter_ms / 1000.0), "rows/s");
  auto groupby = GroupByOp::Create(
      {"store"}, {AggregateSpec{"sum", "amount", "sum_amount"}});
  double groupby_ms = MedianMs(5, "GroupByOp", out, [&](int) {
    return groupby.ok() && (*groupby)->Execute({table}, ctx).ok();
  });
  out->Add("ops.groupby_rows_per_s", Ratio(rows, groupby_ms / 1000.0),
           "rows/s");

  // cube
  std::shared_ptr<const DataCube> cube;
  out->Add("cube.build_ms", MedianMs(3, "DataCube::Build", out, [&](int) {
             auto built = DataCube::Build(table);
             if (built.ok()) cube = *built;
             return built.ok();
           }),
           "ms");
  TablePtr delta = HeadBatch(table, 100);
  if (cube == nullptr || delta == nullptr) {
    out->RequestFailed("cube or delta unavailable");
    return;
  }
  Result<TablePtr> grown = ConcatTables(table, delta);
  out->Add("cube.append_ms", MedianMs(5, "DataCube::Append", out, [&](int) {
             return grown.ok() && DataCube::Append(cube, *grown).ok();
           }),
           "ms");
  std::vector<DataCube::Query> queries = CubeQueries(args.seed, 50);
  out->Add("cube.query_ms", MedianMs(50, "DataCube::Execute", out, [&](int i) {
             return cube->Execute(queries[i]).ok();
           }),
           "ms");
  out->Add("dashboard.cube_query_ms",
           MedianMs(50, "Dashboard::CubeQuery", out, [&](int i) {
             return (*dashboard)->CubeQuery(in.endpoint, queries[i]).ok();
           }),
           "ms");

  // share
  double hits = counter("cache_hits_total");
  double lookups = hits + counter("cache_misses_total");
  out->Add("share.cache_hit_ratio", Ratio(hits, lookups), "ratio");
  out->Add("share.cache_lookups", lookups, "count");
  out->Add("share.cache_evictions", counter("cache_evictions_total"), "count");
  double dedup = counter("shared_scan_dedup_total");
  double scans = counter("shared_scan_batches_total");
  out->Add("share.scan_dedup_ratio", Ratio(dedup, dedup + scans), "ratio");
  out->Add("share.shared_scans", scans, "count");
  {
    SharedDataRegistry registry;
    registry.Publish("object", table, "bench");
    Samples waits;
    for (int i = 0; i < 20; ++i) {
      Result<TablePtr> next = ConcatTables(table, delta);
      if (!next.ok()) break;
      uint64_t since = registry.Version("object");
      Clock::time_point woke;
      std::thread waiter([&] {
        registry.WaitForChange("object", since, 1000);
        woke = Clock::now();
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      Clock::time_point published = Clock::now();
      registry.PublishAppend("object", *next, delta, "bench", since);
      waiter.join();
      waits.Add(MsBetween(published, woke));
    }
    out->Add("share.change_wait_ms", waits.Median(), "ms");
  }

  // render: one large page of the endpoint, as the browse route renders it
  size_t bytes = 0;
  double render_ms = MedianMs(3, "TableToJson", out, [&](int) {
    JsonValue body = JsonValue::MakeObject();
    body.Set("rows", TableToJson(*table, 10000, 0));
    bytes = body.SerializePretty().size();
    return true;
  });
  out->Add("render.json_ms", render_ms, "ms");
  out->Add("render.json_mb_per_s",
           Ratio(static_cast<double>(bytes) / 1e6, render_ms / 1000.0), "MB/s");

  // store: the workload's 100-row deltas through a scratch write-ahead log
  {
    std::string dir = args.work_dir + "/wal-" + std::to_string(::getpid());
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    shareinsights::DurabilityOptions options;
    options.dir = dir;
    std::unique_ptr<DurabilityManager> store = DurabilityManager::Open(options);
    const int cycles = 30;
    double log_ms = MedianMs(cycles, "LogAppendCycle", out, [&](int) {
      DurabilityManager::LoggedChange change;
      change.object = in.endpoint;
      change.table = *grown;
      change.delta = delta;
      change.version = (*grown)->version();
      change.prev_version = table->version();
      return store->LogAppendCycle("bench", {change}).ok();
    });
    out->Add("store.append_log_ms", log_ms, "ms");
    out->Add("store.wal_bytes_per_append",
             static_cast<double>(store->stats().wal_bytes_written) / cycles,
             "bytes");
    store.reset();
    std::filesystem::remove_all(dir, ignored);
  }
  out->Add("store.wal_fsyncs", counter("wal_fsyncs_total"), "count");
  out->Add("store.snapshots_written", counter("snapshots_written_total"),
           "count");

  // dashboard: appends of the workload's own rows to its source object
  // (after the oracles ran, so the extra rows change no checked answer)
  out->Add("dashboard.append_ms",
           MedianMs(5, "Dashboard::AppendToObject", out, [&](int) {
             std::vector<std::vector<Value>> batch;
             for (const SalesRow& row : in.delta_rows) {
               batch.push_back(RowValues(row));
             }
             return (*dashboard)
                 ->AppendToObject(in.source_object, batch)
                 .ok();
           }),
           "ms");

  // server, gov, trace
  out->Add("server.unattributed_ms", run.traced->unattributed.Median(), "ms");
  out->Add("gov.mem_reserved_peak_bytes", run.mem_reserved_peak_bytes,
           "bytes");
  double plain = run.plain->Median(run.main_class);
  double traced = run.traced->Median(run.main_class);
  out->Add("trace.overhead_pct", 100.0 * Ratio(traced - plain, plain), "%");
  Samples main;
  {
    std::lock_guard<std::mutex> lock(run.plain->mu);
    main = run.plain->classes[run.main_class];
  }
  double level = main.TailLevel();
  out->Add("e2e.main_tail_ms", level > 0 ? main.Percentile(level) : 0, "ms");
  out->Add("e2e.main_tail_pct", level, "pct");
}

}  // namespace perfbench
