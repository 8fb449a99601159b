// Shared-scan suite: query fingerprint stability, ExecuteBatch's
// one-scan-per-filter-set grouping, the SharedScanBatcher leader/follower
// protocol under real concurrency (the ThreadSanitizer CI job runs this
// binary), and cache memoization with version-based invalidation.

#include "cube/shared_scan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cube/data_cube.h"
#include "datagen/datagen.h"
#include "share/result_cache.h"

namespace shareinsights {
namespace {

std::shared_ptr<const DataCube> BuildCube(size_t rows = 800) {
  auto cube = DataCube::Build(GenerateBenchTable(rows, 8, 21));
  EXPECT_TRUE(cube.ok()) << cube.status();
  return *cube;
}

DataCube::Query GroupQuery(const std::string& key_value) {
  DataCube::Query query;
  if (!key_value.empty()) {
    query.filters.push_back({"key", {Value(key_value)}, false});
  }
  query.group_by = {"key"};
  query.aggregates = {AggregateSpec{"sum", "value", "total"}};
  return query;
}

std::string TableRows(const Table& table) {
  std::string out;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      out += table.at(r, c).ToString();
      out += "|";
    }
    out += "\n";
  }
  return out;
}

TEST(QueryFingerprintTest, StableAndSensitive) {
  DataCube::Query a = GroupQuery("group_1");
  DataCube::Query b = GroupQuery("group_1");
  EXPECT_EQ(QueryFingerprint(a), QueryFingerprint(b));
  EXPECT_NE(QueryFingerprint(a), 0u);

  b.filters[0].allowed[0] = Value("group_2");
  EXPECT_NE(QueryFingerprint(a), QueryFingerprint(b));

  DataCube::Query c = GroupQuery("group_1");
  c.limit = 5;
  EXPECT_NE(QueryFingerprint(a), QueryFingerprint(c));
  DataCube::Query d = GroupQuery("group_1");
  d.aggregates[0].op = "avg";
  EXPECT_NE(QueryFingerprint(a), QueryFingerprint(d));
}

TEST(QueryFingerprintTest, UnconstrainedFiltersDoNotChangeKey) {
  DataCube::Query a = GroupQuery("group_1");
  DataCube::Query b = GroupQuery("group_1");
  b.filters.push_back({"other", {}, false});  // no constraint
  EXPECT_EQ(CanonicalFilterKey(a.filters), CanonicalFilterKey(b.filters));
  EXPECT_EQ(QueryFingerprint(a), QueryFingerprint(b));
}

TEST(QueryFingerprintTest, FilterKeyAvoidsBoundaryAliasing) {
  DataCube::Filter ab{"a", {Value("bc")}, false};
  DataCube::Filter a_bc{"ab", {Value("c")}, false};
  EXPECT_NE(CanonicalFilterKey({ab}), CanonicalFilterKey({a_bc}));
}

TEST(ExecuteBatchTest, MatchesIndividualExecution) {
  auto cube = BuildCube();
  std::vector<DataCube::Query> queries;
  queries.push_back(GroupQuery(""));
  queries.push_back(GroupQuery("group_1"));
  queries.push_back(GroupQuery("group_2"));
  // Same filter set as [1] but different tail: shares its scan.
  DataCube::Query topn = GroupQuery("group_1");
  topn.order_by = {SortKey{"total", true}};
  topn.limit = 3;
  queries.push_back(topn);

  std::vector<const DataCube::Query*> batch;
  for (const DataCube::Query& query : queries) batch.push_back(&query);
  ExecContext ctx;
  auto results = cube->ExecuteBatch(batch, ctx);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto solo = cube->Execute(queries[i], ctx);
    ASSERT_TRUE(solo.ok()) << solo.status();
    EXPECT_EQ(TableRows(*(*results)[i]), TableRows(**solo))
        << "batch result " << i << " diverged from solo execution";
  }
}

TEST(SharedScanBatcherTest, SolitaryQueryMatchesDirectExecute) {
  auto cube = BuildCube();
  SharedScanBatcher batcher(cube);
  ExecContext ctx;
  auto batched = batcher.Execute(GroupQuery("group_3"), ctx);
  auto direct = cube->Execute(GroupQuery("group_3"), ctx);
  ASSERT_TRUE(batched.ok() && direct.ok());
  EXPECT_EQ(TableRows(**batched), TableRows(**direct));
}

TEST(SharedScanBatcherTest, CacheHitSkipsScanAndInvalidatesByVersion) {
  auto cube = BuildCube();
  ResultCache cache;
  SharedScanBatcher batcher(cube, &cache);
  ExecContext ctx;
  bool hit = true;
  auto first = batcher.Execute(GroupQuery("group_1"), ctx, &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);
  auto second = batcher.Execute(GroupQuery("group_1"), ctx, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  // A cache hit returns the memoized table instance itself.
  EXPECT_EQ(*first, *second);

  // A rebuilt cube (new underlying table instance = new version) cannot
  // be answered by results cached against the old one.
  auto rebuilt = BuildCube();
  SharedScanBatcher fresh(rebuilt, &cache);
  auto third = fresh.Execute(GroupQuery("group_1"), ctx, &hit);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(TableRows(**first), TableRows(**third));
}

// N threads issue a mix of queries through one batcher; every result must
// be byte-identical to a solo Execute of the same query. Run under TSan
// this also proves the leader/follower protocol race-free.
TEST(SharedScanBatcherTest, ConcurrentMixedQueriesAreByteIdentical) {
  auto cube = BuildCube(2000);
  ResultCache cache;
  SharedScanBatcher batcher(cube, &cache);

  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  std::vector<std::string> expected;  // per distinct query
  std::vector<DataCube::Query> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(GroupQuery("group_" + std::to_string(i)));
    auto solo = cube->Execute(queries.back(), ExecContext());
    ASSERT_TRUE(solo.ok());
    expected.push_back(TableRows(**solo));
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ExecContext ctx;
      for (int round = 0; round < kRounds; ++round) {
        size_t pick = static_cast<size_t>((t + round) % queries.size());
        auto result = batcher.Execute(queries[pick], ctx);
        if (!result.ok()) {
          ++failures;
          continue;
        }
        if (TableRows(**result) != expected[pick]) ++mismatches;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // With 4 distinct queries and 200 executions, the cache must have
  // answered most of them.
  EXPECT_GT(cache.stats().hits, 0);
}

// Batching without a cache still coalesces correctly (every execution
// scans, but concurrent ones share).
TEST(SharedScanBatcherTest, ConcurrentWithoutCacheStillCorrect) {
  auto cube = BuildCube(1000);
  SharedScanBatcher batcher(cube, nullptr);
  auto solo = cube->Execute(GroupQuery("group_2"), ExecContext());
  ASSERT_TRUE(solo.ok());
  std::string expected = TableRows(**solo);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 6; ++t) {
    workers.emplace_back([&] {
      ExecContext ctx;
      for (int round = 0; round < 20; ++round) {
        auto result = batcher.Execute(GroupQuery("group_2"), ctx);
        if (!result.ok() || TableRows(**result) != expected) ++mismatches;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace shareinsights
