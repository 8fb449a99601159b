// Unchanged sources: a full run whose fetched bytes and parse inputs did
// not change keeps the stored Table, so flows hit the result cache and
// endpoint cubes are not rebuilt. Anything that could make a parse come
// out differently — a changed byte, a changed parse param, a changed
// declared schema — re-parses; so does a source whose stored table was
// replaced since (an append) or whose load quarantined rows. A reused
// run's store is byte-identical to a cold run's.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/fault.h"
#include "compile/compiler.h"
#include "dashboard/dashboard.h"
#include "exec/executor.h"
#include "flow/flow_file.h"
#include "io/circuit_breaker.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "share/result_cache.h"

namespace shareinsights {
namespace {

constexpr const char* kSalesUrl = "http://reuse.test/sales.csv";
constexpr const char* kEventsUrl = "http://reuse.test/events.json";

// Sales CSV: region/product text, qty int, amount double.
std::string SalesCsv(int rows, int salt = 0) {
  std::string out = "region,product,qty,amount\n";
  for (int i = 0; i < rows; ++i) {
    out += "r" + std::to_string((i * 7 + salt) % 5) + ",p" +
           std::to_string(i % 13) + "," + std::to_string(1 + i % 9) + "," +
           std::to_string(i % 100) + "." + std::to_string(i % 10) + "\n";
  }
  return out;
}

std::string EventsJson(int rows) {
  std::string out;
  for (int i = 0; i < rows; ++i) {
    out += "{\"user\": {\"id\": \"u" + std::to_string(i % 17) +
           "\"}, \"event\": {\"kind\": \"k" + std::to_string(i % 3) +
           "\", \"value\": " + std::to_string(i % 11) + "}}\n";
  }
  return out;
}

// `sales` feeds a filter->groupby and a join against the JSON `events`
// rolled up per kind; three endpoints.
std::string FlowText(const std::string& sales_details = "",
                     const std::string& sales_columns =
                         "[region, product, qty, amount]") {
  return std::string("D:\n  sales: ") + sales_columns +
         "\n"
         "  events: [\n"
         "    user => user.id,\n"
         "    kind => event.kind,\n"
         "    value => event.value\n"
         "  ]\n"
         "D.sales:\n"
         "  source: " +
         kSalesUrl + "\n  format: csv\n" + sales_details +
         "D.events:\n"
         "  source: " +
         kEventsUrl +
         "\n"
         "  format: json\n"
         "F:\n"
         "  D.by_region: D.sales | T.big | T.region_totals\n"
         "  D.by_kind: D.events | T.kind_totals\n"
         "  D.region_kinds: (D.by_region, D.by_kind) | T.cross\n"
         "D.by_region:\n"
         "  endpoint: true\n"
         "D.by_kind:\n"
         "  endpoint: true\n"
         "D.region_kinds:\n"
         "  endpoint: true\n"
         "T:\n"
         "  big:\n"
         "    type: filter_by\n"
         "    filter_expression: 'qty >= 3'\n"
         "  region_totals:\n"
         "    type: groupby\n"
         "    groupby: [region]\n"
         "    aggregates:\n"
         "      - operator: sum\n"
         "        apply_on: amount\n"
         "        out_field: total\n"
         "      - operator: count\n"
         "        apply_on: qty\n"
         "        out_field: n\n"
         "  kind_totals:\n"
         "    type: groupby\n"
         "    groupby: [kind]\n"
         "    aggregates:\n"
         "      - operator: sum\n"
         "        apply_on: value\n"
         "        out_field: n\n"
         "  cross:\n"
         "    type: join\n"
         "    left: by_region by n\n"
         "    right: by_kind by n\n"
         "    join_condition: left_outer\n"
         "    project:\n"
         "      by_region_region: region\n"
         "      by_region_total: total\n"
         "      by_kind_kind: kind\n";
}

ExecutionPlan Compile(const std::string& text) {
  auto file = ParseFlowFile(text, "reuse");
  EXPECT_TRUE(file.ok()) << file.status();
  auto plan = CompileFlowFile(*file);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

// Byte identity of two tables: schema, encodings, null maps, raw arrays
// (doubles bit for bit) and dictionary contents.
void ExpectByteIdentical(const Table& a, const Table& b,
                         const std::string& what) {
  ASSERT_EQ(a.schema(), b.schema()) << what;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const ColumnData& x = a.typed_column(c);
    const ColumnData& y = b.typed_column(c);
    ASSERT_EQ(x.encoding(), y.encoding()) << what << " column " << c;
    EXPECT_EQ(x.nulls(), y.nulls()) << what << " column " << c;
    EXPECT_EQ(x.ints(), y.ints()) << what << " column " << c;
    ASSERT_EQ(x.doubles().size(), y.doubles().size()) << what;
    EXPECT_TRUE(x.doubles().empty() ||
                std::memcmp(x.doubles().data(), y.doubles().data(),
                            x.doubles().size() * sizeof(double)) == 0)
        << what << " column " << c;
    EXPECT_EQ(x.bools(), y.bools()) << what << " column " << c;
    EXPECT_EQ(x.codes(), y.codes()) << what << " column " << c;
    if (x.encoding() == ColumnEncoding::kDict) {
      EXPECT_EQ(x.dict(), y.dict()) << what << " column " << c;
    }
    EXPECT_EQ(x.generic(), y.generic()) << what << " column " << c;
  }
}

void ExpectStoresByteIdentical(const DataStore& a, const DataStore& b,
                               const std::string& what) {
  ASSERT_EQ(a.Names(), b.Names()) << what;
  for (const std::string& name : a.Names()) {
    ExpectByteIdentical(**a.Get(name), **b.Get(name), what + " " + name);
  }
}

uint64_t VersionOf(const DataStore& store, const std::string& name) {
  Result<TablePtr> table = store.Get(name);
  EXPECT_TRUE(table.ok()) << table.status();
  return table.ok() ? (*table)->version() : 0;
}

class SourceReuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimulatedRemoteStore::Get().Publish(kSalesUrl, SalesCsv(300));
    SimulatedRemoteStore::Get().Publish(kEventsUrl, EventsJson(120));
  }
  void TearDown() override {
    FaultInjector::Get().Reset();
    SimulatedRemoteStore::Get().Clear();
    CircuitBreakerRegistry::Default().ResetAll();
  }
};

TEST_F(SourceReuseTest, IdenticalBytesKeepVersionsHitCacheAndSkipCubes) {
  auto file = ParseFlowFile(FlowText(), "reuse");
  ASSERT_TRUE(file.ok()) << file.status();
  ResultCache cache;
  Dashboard::Options options;
  options.result_cache = &cache;
  auto dashboard = Dashboard::Create(std::move(*file), options);
  ASSERT_TRUE(dashboard.ok()) << dashboard.status();

  Tracer first_trace;
  auto first = (*dashboard)->Run(&first_trace);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->sources_reused, 0);
  const DataStore& store = (*dashboard)->store();
  const uint64_t sales = VersionOf(store, "sales");
  const uint64_t events = VersionOf(store, "events");
  const uint64_t endpoint = VersionOf(store, "region_kinds");

  Counter* reused_total =
      MetricsRegistry::Default().GetCounter("io_sources_reused_total");
  const int64_t reused_before = reused_total->Value();
  Tracer trace;
  auto second = (*dashboard)->Run(&trace);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->sources_loaded, 2);
  EXPECT_EQ(second->sources_reused, 2);
  EXPECT_EQ(reused_total->Value() - reused_before, 2);
  EXPECT_EQ(second->flows_executed, 0);
  EXPECT_EQ(second->flows_cached, 3);
  EXPECT_EQ(VersionOf(store, "sales"), sales);
  EXPECT_EQ(VersionOf(store, "events"), events);
  EXPECT_EQ(VersionOf(store, "region_kinds"), endpoint);

  int cube_builds = 0;
  int reused_parses = 0;
  for (const Span& span : trace.Spans()) {
    if (span.name.rfind("cube.build:", 0) == 0) ++cube_builds;
    if (span.name != "io.parse") continue;
    for (const auto& [key, value] : span.attributes) {
      if (key == "reused" && value == "true") ++reused_parses;
    }
  }
  EXPECT_EQ(cube_builds, 0);
  EXPECT_EQ(reused_parses, 2);
  int first_cube_builds = 0;
  for (const Span& span : first_trace.Spans()) {
    if (span.name.rfind("cube.build:", 0) == 0) ++first_cube_builds;
  }
  EXPECT_EQ(first_cube_builds, 3);
}

TEST_F(SourceReuseTest, OneChangedByteReparses) {
  ExecutionPlan plan = Compile(FlowText());
  DataStore store;
  ASSERT_TRUE(Executor().Execute(plan, &store).ok());
  const uint64_t sales = VersionOf(store, "sales");
  const uint64_t events = VersionOf(store, "events");

  std::string payload = SalesCsv(300);
  payload[payload.size() - 2] = payload[payload.size() - 2] == '1' ? '2' : '1';
  SimulatedRemoteStore::Get().Publish(kSalesUrl, payload);
  auto stats = Executor().Execute(plan, &store);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->sources_reused, 1);  // events only
  EXPECT_NE(VersionOf(store, "sales"), sales);
  EXPECT_EQ(VersionOf(store, "events"), events);

  DataStore cold;
  ASSERT_TRUE(Executor().Execute(plan, &cold).ok());
  ExpectStoresByteIdentical(store, cold, "after a one-byte change");
}

// Each variant parses the same bytes under different inputs; the first
// run of a variant must never reuse the table another variant built.
TEST_F(SourceReuseTest, ChangedParseInputsReparse) {
  SimulatedRemoteStore::Get().Publish(
      kSalesUrl,
      "region,product,qty,amount\nr1,p1,3,1.5\nr2,p2,4\nr3,p3,5,2.5\n");
  struct Variant {
    const char* what;
    std::string details;
    std::string columns;
  };
  const std::string all = "[region, product, qty, amount]";
  // The key is the params as written, so even a separator equal to the
  // default counts as a change.
  const Variant variants[] = {
      {"baseline", "", all},
      {"separator", "  separator: ','\n", all},
      {"error_policy", "  error_policy: skip\n", all},
      {"declared schema", "  error_policy: skip\n",
       "[product, region, qty, amount]"},
  };
  DataStore store;
  uint64_t previous = 0;
  for (const Variant& variant : variants) {
    ExecutionPlan plan = Compile(FlowText(variant.details, variant.columns));
    auto changed = Executor().Execute(plan, &store);
    ASSERT_TRUE(changed.ok()) << variant.what << ": " << changed.status();
    EXPECT_EQ(changed->sources_reused, variant.what == std::string("baseline")
                                           ? 0
                                           : 1)  // events stays the same
        << variant.what;
    EXPECT_NE(VersionOf(store, "sales"), previous) << variant.what;
    previous = VersionOf(store, "sales");

    DataStore cold;
    ASSERT_TRUE(Executor().Execute(plan, &cold).ok()) << variant.what;
    ExpectStoresByteIdentical(store, cold, variant.what);

    auto again = Executor().Execute(plan, &store);
    ASSERT_TRUE(again.ok()) << variant.what;
    EXPECT_EQ(again->sources_reused, 2) << variant.what;
    EXPECT_EQ(VersionOf(store, "sales"), previous) << variant.what;
  }
  // The skip policy really dropped the short row, so the variants did
  // parse differently.
  EXPECT_EQ((*store.Get("sales"))->num_rows(), 2u);
}

TEST_F(SourceReuseTest, AppendedSourceIsReparsedAndLosesTheAppendedRows) {
  auto file = ParseFlowFile(FlowText(), "reuse");
  ASSERT_TRUE(file.ok()) << file.status();
  auto dashboard = Dashboard::Create(std::move(*file));
  ASSERT_TRUE(dashboard.ok()) << dashboard.status();
  ASSERT_TRUE((*dashboard)->Run().ok());
  const DataStore& store = (*dashboard)->store();
  const size_t rows = (*store.Get("sales"))->num_rows();

  auto appended = (*dashboard)->AppendToObject(
      "sales", {{Value("r9"), Value("p9"), Value(static_cast<int64_t>(7)),
                 Value(9.5)}});
  ASSERT_TRUE(appended.ok()) << appended.status();
  EXPECT_EQ((*store.Get("sales"))->num_rows(), rows + 1);

  auto rerun = (*dashboard)->Run();
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  EXPECT_EQ(rerun->sources_reused, 1);  // events only
  EXPECT_EQ((*store.Get("sales"))->num_rows(), rows);
  EXPECT_NE(VersionOf(store, "sales"), appended->version);
}

TEST_F(SourceReuseTest, QuarantiningLoadIsNeverReused) {
  SimulatedRemoteStore::Get().Publish(
      kSalesUrl, "region,product,qty,amount\nr1,p1,3,1.5\nragged\n");
  ExecutionPlan plan = Compile(FlowText("  error_policy: quarantine\n"));
  DataStore store;
  const std::string side = std::string("sales") + kQuarantineSuffix;
  ASSERT_TRUE(Executor().Execute(plan, &store).ok());
  const uint64_t sales = VersionOf(store, "sales");
  const uint64_t quarantine = VersionOf(store, side);

  auto again = Executor().Execute(plan, &store);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->sources_reused, 1);  // events only
  EXPECT_EQ(again->rows_quarantined, 1);
  EXPECT_NE(VersionOf(store, "sales"), sales);
  EXPECT_NE(VersionOf(store, side), quarantine);
}

TEST_F(SourceReuseTest, ReusedRunMatchesColdRunAcrossThreads) {
  SimulatedRemoteStore::Get().Publish(kSalesUrl, SalesCsv(5000, 3));
  SimulatedRemoteStore::Get().Publish(kEventsUrl, EventsJson(3000));
  ExecutionPlan plan = Compile(FlowText());
  for (size_t threads : {1, 4, 8}) {
    for (bool cached : {false, true}) {
      const std::string what = "threads=" + std::to_string(threads) +
                               (cached ? " cached" : " uncached");
      ResultCache cache;
      ExecuteOptions options;
      options.num_threads = threads;
      options.morsel_rows = 512;
      if (cached) options.result_cache = &cache;
      DataStore reused;
      ASSERT_TRUE(Executor(options).Execute(plan, &reused).ok()) << what;
      auto second = Executor(options).Execute(plan, &reused);
      ASSERT_TRUE(second.ok()) << what << ": " << second.status();
      EXPECT_EQ(second->sources_reused, 2) << what;
      EXPECT_EQ(second->flows_executed, cached ? 0 : 3) << what;

      ExecuteOptions cold_options;
      cold_options.num_threads = threads;
      cold_options.morsel_rows = 512;
      DataStore cold;
      ASSERT_TRUE(Executor(cold_options).Execute(plan, &cold).ok()) << what;
      ExpectStoresByteIdentical(reused, cold, what);
    }
  }
}

// The reuse check sits after the io.parse fault site, so a seeded fault
// sequence fires at the same attempts whether or not a previous load
// exists, and a retried load still ends in reuse.
TEST_F(SourceReuseTest, ParseFaultSeedFiresAtTheSameAttempts) {
  ExecutionPlan plan = Compile(FlowText());
  for (auto& [name, decl] : plan.sources) {
    decl.params.Set("retry.max_attempts", "6");
  }
  int64_t fired = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    FaultSpec spec;
    spec.probability = 0.5;
    spec.max_fires = 4;
    spec.seed = seed;

    FaultInjector::Get().Reset();
    FaultInjector::Get().Arm(kFaultIoParse, spec);
    DataStore fresh;
    auto cold = Executor().Execute(plan, &fresh);
    const int64_t cold_fires = FaultInjector::Get().fires(kFaultIoParse);
    const int64_t cold_passes = FaultInjector::Get().passes(kFaultIoParse);
    fired += cold_fires;

    FaultInjector::Get().Reset();
    DataStore warm;
    ASSERT_TRUE(Executor().Execute(plan, &warm).ok());
    FaultInjector::Get().Arm(kFaultIoParse, spec);
    auto reused = Executor().Execute(plan, &warm);
    EXPECT_EQ(FaultInjector::Get().fires(kFaultIoParse), cold_fires)
        << "seed " << seed;
    EXPECT_EQ(FaultInjector::Get().passes(kFaultIoParse), cold_passes)
        << "seed " << seed;
    ASSERT_EQ(cold.ok(), reused.ok()) << "seed " << seed;
    if (!cold.ok()) continue;
    EXPECT_EQ(reused->io_retries, cold->io_retries) << "seed " << seed;
    EXPECT_EQ(reused->sources_reused, 2) << "seed " << seed;
  }
  EXPECT_GT(fired, 0);
}

}  // namespace
}  // namespace shareinsights
