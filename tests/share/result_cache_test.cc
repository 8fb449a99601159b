// Result-cache suite: LRU/eviction mechanics, version-keyed
// invalidation (republish makes a new Table instance, so stale entries
// can never be served), and the executor-level equivalence contract —
// a cached run is byte-identical to an uncached oracle run.

#include "share/result_cache.h"

#include <gtest/gtest.h>

#include <string>

#include "compile/compiler.h"
#include "exec/executor.h"
#include "flow/flow_file.h"
#include "share/shared_registry.h"
#include "table/table.h"

namespace shareinsights {
namespace {

TablePtr RowsTable(int n, const std::string& tag) {
  TableBuilder builder(Schema::FromNames({"k", "v"}));
  for (int i = 0; i < n; ++i) {
    (void)builder.AppendRow(
        {Value(tag + std::to_string(i)), Value(static_cast<int64_t>(i))});
  }
  return *builder.Finish();
}

ResultCache::Key KeyOf(uint64_t hash, std::vector<uint64_t> versions) {
  ResultCache::Key key;
  key.plan_hash = hash;
  key.input_versions = std::move(versions);
  return key;
}

TEST(ResultCacheTest, HitMissAndStats) {
  ResultCache cache;
  TablePtr table = RowsTable(10, "a");
  ResultCache::Key key = KeyOf(1, {table->version()});
  EXPECT_FALSE(cache.Lookup(key).has_value());
  cache.Insert(key, table);
  auto hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, table);  // the exact same instance, not a copy
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ResultCacheTest, KeyIncludesInputVersions) {
  ResultCache cache;
  TablePtr table = RowsTable(5, "a");
  cache.Insert(KeyOf(7, {1, 2}), table);
  EXPECT_TRUE(cache.Lookup(KeyOf(7, {1, 2})).has_value());
  // Same plan over different input versions is a different computation.
  EXPECT_FALSE(cache.Lookup(KeyOf(7, {1, 3})).has_value());
  EXPECT_FALSE(cache.Lookup(KeyOf(7, {2, 1})).has_value());
  EXPECT_FALSE(cache.Lookup(KeyOf(8, {1, 2})).has_value());
}

TEST(ResultCacheTest, LruEvictionUnderCapacity) {
  TablePtr table = RowsTable(64, "x");
  size_t one = table->ApproxBytes();
  ResultCache cache(/*capacity_bytes=*/one * 2 + one / 2);  // holds 2
  cache.Insert(KeyOf(1, {}), table);
  cache.Insert(KeyOf(2, {}), table);
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.Insert(KeyOf(3, {}), table);  // evicts key 1 (LRU)
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_FALSE(cache.Lookup(KeyOf(1, {})).has_value());
  // Touch key 2 so key 3 becomes the LRU victim of the next insert.
  EXPECT_TRUE(cache.Lookup(KeyOf(2, {})).has_value());
  cache.Insert(KeyOf(4, {}), table);
  EXPECT_TRUE(cache.Lookup(KeyOf(2, {})).has_value());
  EXPECT_FALSE(cache.Lookup(KeyOf(3, {})).has_value());
}

TEST(ResultCacheTest, OversizeTableIsNotCached) {
  TablePtr table = RowsTable(256, "big");
  ResultCache cache(/*capacity_bytes=*/table->ApproxBytes() / 2);
  cache.Insert(KeyOf(1, {}), table);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.Lookup(KeyOf(1, {})).has_value());
}

TEST(ResultCacheTest, ShrinkingCapacityEvictsAndClearEmpties) {
  TablePtr table = RowsTable(64, "x");
  ResultCache cache;
  cache.Insert(KeyOf(1, {}), table);
  cache.Insert(KeyOf(2, {}), table);
  cache.set_capacity(table->ApproxBytes());  // room for one entry
  EXPECT_EQ(cache.stats().entries, 1u);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// ---------------------------------------------------------------------
// Executor integration
// ---------------------------------------------------------------------

constexpr const char* kDiamond = R"(
D:
  src: [key, value]
D.src:
  protocol: inline
  format: csv
  data: "key,value
a,1
a,2
b,5
"
F:
  D.sums: D.src | T.sum_by_key
  D.counts: D.src | T.count_by_key
  D.joined: (D.sums, D.counts) | T.join_both
D.joined:
  endpoint: true
T:
  sum_by_key:
    type: groupby
    groupby: [key]
    aggregates:
      - operator: sum
        apply_on: value
        out_field: total
  count_by_key:
    type: groupby
    groupby: [key]
    aggregates:
      - operator: count
        apply_on: value
        out_field: n
  join_both:
    type: join
    left: sums by key
    right: counts by key
    join_condition: inner
    project:
      sums_key: key
      sums_total: total
      counts_n: n
)";

ExecutionPlan DiamondPlan() {
  auto file = ParseFlowFile(kDiamond, "diamond");
  EXPECT_TRUE(file.ok()) << file.status();
  auto plan = CompileFlowFile(*file);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

void ExpectTablesIdentical(const TablePtr& a, const TablePtr& b) {
  ASSERT_EQ(a->num_rows(), b->num_rows());
  ASSERT_EQ(a->num_columns(), b->num_columns());
  for (size_t r = 0; r < a->num_rows(); ++r) {
    for (size_t c = 0; c < a->num_columns(); ++c) {
      EXPECT_EQ(a->at(r, c), b->at(r, c)) << "cell " << r << "," << c;
    }
  }
}

// Re-running dirty flows over unchanged inputs is where flow-level
// caching pays: the flow re-runs (it is dirty), but its plan fingerprint
// and input versions match the previous execution, so the cache answers.
TEST(ResultCacheExecTest, DirtyRerunOverUnchangedInputsHitsCache) {
  ExecutionPlan plan = DiamondPlan();
  // Uncached oracle.
  DataStore oracle_store;
  ASSERT_TRUE(Executor().Execute(plan, &oracle_store).ok());

  ResultCache cache;
  ExecuteOptions options;
  options.result_cache = &cache;
  Executor executor(options);
  DataStore store;
  auto first = executor.Execute(plan, &store);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->flows_executed, 3);
  EXPECT_EQ(first->flows_cached, 0);

  // Dirty everything downstream of src without touching src itself: all
  // three flows re-run, every one answered by the cache.
  auto second = executor.ExecuteIncremental(plan, &store, {"sums"});
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->flows_executed, 0);
  EXPECT_EQ(second->flows_cached, 2);  // sums + joined; counts clean
  EXPECT_EQ(second->flows_skipped, 1);
  EXPECT_GE(cache.stats().hits, 2);

  ExpectTablesIdentical(*store.Get("joined"), *oracle_store.Get("joined"));
}

// kDiamond with its inline source swapped for a remote one, so a test
// can change the payload while the flow stays the same.
ExecutionPlan RemoteDiamondPlan(const std::string& url) {
  std::string text = kDiamond;
  size_t begin = text.find("  protocol: inline");
  size_t end = text.find("F:");
  text.replace(begin, end - begin, "  source: " + url + "\n  format: csv\n");
  auto file = ParseFlowFile(text, "diamond");
  EXPECT_TRUE(file.ok()) << file.status();
  auto plan = CompileFlowFile(*file);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

// A full run re-fetches every source. Identical bytes keep the source's
// Table (same version), so every flow is answered by the cache; changed
// bytes make a new Table with a new version, so nothing stale can be
// served — invalidation is structural, not time-based.
TEST(ResultCacheExecTest, ReloadedSourcesInvalidateByVersion) {
  const std::string url = "http://cache.test/diamond.csv";
  SimulatedRemoteStore::Get().Publish(url, "key,value\na,1\na,2\nb,5\n");
  ExecutionPlan plan = RemoteDiamondPlan(url);
  ResultCache cache;
  ExecuteOptions options;
  options.result_cache = &cache;
  Executor executor(options);
  DataStore store;
  ASSERT_TRUE(executor.Execute(plan, &store).ok());
  const uint64_t src_version = (*store.Get("src"))->version();
  const uint64_t joined_version = (*store.Get("joined"))->version();

  auto same = executor.Execute(plan, &store);
  ASSERT_TRUE(same.ok()) << same.status();
  EXPECT_EQ(same->sources_reused, 1);
  EXPECT_EQ(same->flows_executed, 0);
  EXPECT_EQ(same->flows_cached, 3);
  EXPECT_EQ((*store.Get("src"))->version(), src_version);
  EXPECT_EQ((*store.Get("joined"))->version(), joined_version);

  SimulatedRemoteStore::Get().Publish(url, "key,value\na,1\na,2\nb,6\n");
  auto changed = executor.Execute(plan, &store);
  ASSERT_TRUE(changed.ok()) << changed.status();
  EXPECT_EQ(changed->sources_reused, 0);
  EXPECT_EQ(changed->flows_executed, 3);
  EXPECT_EQ(changed->flows_cached, 0);
  EXPECT_NE((*store.Get("src"))->version(), src_version);
  EXPECT_NE((*store.Get("joined"))->version(), joined_version);

  // What the cache left in the store is what a cold run over the new
  // bytes builds.
  DataStore oracle;
  ASSERT_TRUE(Executor().Execute(plan, &oracle).ok());
  ExpectTablesIdentical(*store.Get("joined"), *oracle.Get("joined"));
  EXPECT_EQ((*store.Get("joined"))->at(1, 1), Value(static_cast<int64_t>(6)));
}

// Consumer flows over a published shared table: the registry hands out
// the same Table instance every run, so repeated runs hit the cache;
// republishing (or appending, which also republishes a new instance)
// switches the version and forces fresh execution.
TEST(ResultCacheExecTest, RepublishInvalidatesSharedConsumers) {
  SharedDataRegistry registry;
  ASSERT_TRUE(registry.Publish("catalog", RowsTable(20, "p"), "prod").ok());

  auto file = ParseFlowFile(R"(
F:
  D.report: D.catalog | T.agg
D.report:
  endpoint: true
T:
  agg:
    type: groupby
    groupby: [k]
    aggregates:
      - operator: sum
        apply_on: v
        out_field: total
)",
                            "consumer");
  ASSERT_TRUE(file.ok()) << file.status();
  CompileOptions compile_options;
  compile_options.shared = &registry;
  auto plan = CompileFlowFile(*file, compile_options);
  ASSERT_TRUE(plan.ok()) << plan.status();

  ResultCache cache;
  ExecuteOptions options;
  options.result_cache = &cache;
  options.shared = &registry;
  Executor executor(options);

  DataStore store;
  auto first = executor.Execute(*plan, &store);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->flows_executed, 1);

  // Same shared instance -> cache hit.
  auto second = executor.Execute(*plan, &store);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->flows_executed, 0);
  EXPECT_EQ(second->flows_cached, 1);

  // Republish (content may even be equal — it is a new table instance,
  // e.g. after an append): the consumer must re-execute.
  ASSERT_TRUE(registry.Publish("catalog", RowsTable(25, "p"), "prod").ok());
  auto third = executor.Execute(*plan, &store);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->flows_executed, 1);
  EXPECT_EQ(third->flows_cached, 0);

  // Oracle check for the post-republish result.
  DataStore oracle_store;
  ASSERT_TRUE(Executor(options).Execute(*plan, &oracle_store).ok());
  ExpectTablesIdentical(*store.Get("report"), *oracle_store.Get("report"));
}

// Eviction path of the equivalence contract: with a cache too small to
// hold anything, every run recomputes and results stay correct.
TEST(ResultCacheExecTest, TinyCacheStaysCorrect) {
  ExecutionPlan plan = DiamondPlan();
  ResultCache cache(/*capacity_bytes=*/1);
  ExecuteOptions options;
  options.result_cache = &cache;
  Executor executor(options);
  DataStore store;
  ASSERT_TRUE(executor.Execute(plan, &store).ok());
  auto rerun = executor.ExecuteIncremental(plan, &store, {"sums"});
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun->flows_cached, 0);
  EXPECT_EQ(rerun->flows_executed, 2);
  EXPECT_EQ(cache.stats().entries, 0u);

  DataStore oracle_store;
  ASSERT_TRUE(Executor().Execute(plan, &oracle_store).ok());
  ExpectTablesIdentical(*store.Get("joined"), *oracle_store.Get("joined"));
}

}  // namespace
}  // namespace shareinsights
