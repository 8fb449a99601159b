#include "cube/data_cube.h"

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "ops/filter.h"
#include "ops/groupby.h"
#include "table/append.h"

namespace shareinsights {
namespace {

TablePtr Endpoint() { return GenerateBenchTable(500, 8, 21); }

TEST(DataCubeTest, BuildIndexesLowCardinalityColumns) {
  auto cube = DataCube::Build(Endpoint());
  ASSERT_TRUE(cube.ok()) << cube.status();
  // key (8 distinct) certainly indexed; all columns fit under the default
  // cap for 500 rows.
  EXPECT_GE((*cube)->num_indexed_columns(), 1u);
}

TEST(DataCubeTest, CardinalityCapSkipsWideColumns) {
  auto cube = DataCube::Build(Endpoint(), /*max_index_cardinality=*/4);
  ASSERT_TRUE(cube.ok());
  // 'key' has 8 distinct values > 4, so nothing indexable remains except
  // possibly none.
  EXPECT_EQ((*cube)->num_indexed_columns(), 0u);
}

TEST(DataCubeTest, EmptyQueryReturnsWholeTable) {
  auto cube = *DataCube::Build(Endpoint());
  auto out = cube->Execute(DataCube::Query{});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), Endpoint()->num_rows());
}

TEST(DataCubeTest, MembershipFilter) {
  auto cube = *DataCube::Build(Endpoint());
  DataCube::Query query;
  query.filters.push_back({"key", {Value("group_2")}, false});
  auto out = cube->Execute(query);
  ASSERT_TRUE(out.ok());
  for (size_t r = 0; r < (*out)->num_rows(); ++r) {
    EXPECT_EQ((*out)->at(r, 0), Value("group_2"));
  }
  EXPECT_GT((*out)->num_rows(), 0u);
}

TEST(DataCubeTest, EmptyFilterValuesMeanNoConstraint) {
  auto cube = *DataCube::Build(Endpoint());
  DataCube::Query query;
  query.filters.push_back({"key", {}, false});
  auto out = cube->Execute(query);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), Endpoint()->num_rows());
}

TEST(DataCubeTest, GroupByWithAggregates) {
  auto cube = *DataCube::Build(Endpoint());
  DataCube::Query query;
  query.group_by = {"key"};
  query.aggregates = {AggregateSpec{"sum", "value", "total"}};
  auto out = cube->Execute(query);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_LE((*out)->num_rows(), 8u);
  EXPECT_EQ((*out)->schema().names(),
            (std::vector<std::string>{"key", "total"}));
}

TEST(DataCubeTest, OrderByAndLimit) {
  auto cube = *DataCube::Build(Endpoint());
  DataCube::Query query;
  query.group_by = {"key"};
  query.aggregates = {AggregateSpec{"sum", "value", "total"}};
  query.order_by = {SortKey{"total", true}};
  query.limit = 3;
  auto out = cube->Execute(query);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->num_rows(), 3u);
  EXPECT_GE((*out)->at(0, 1), (*out)->at(1, 1));
  EXPECT_GE((*out)->at(1, 1), (*out)->at(2, 1));
}

TEST(DataCubeTest, UnknownFilterColumnErrors) {
  auto cube = *DataCube::Build(Endpoint());
  DataCube::Query query;
  query.filters.push_back({"nope", {Value("x")}, false});
  EXPECT_FALSE(cube->Execute(query).ok());
}

TEST(DataCubeTest, RangeFilterExcludesNulls) {
  TableBuilder builder(Schema({Field{"v", ValueType::kInt64}}));
  (void)builder.AppendRow({Value(static_cast<int64_t>(5))});
  (void)builder.AppendRow({Value::Null()});
  (void)builder.AppendRow({Value(static_cast<int64_t>(15))});
  auto cube = *DataCube::Build(*builder.Finish());
  DataCube::Query query;
  query.filters.push_back({"v",
                           {Value(static_cast<int64_t>(0)),
                            Value(static_cast<int64_t>(10))},
                           true});
  auto out = cube->Execute(query);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 1u);
}

// A cube over a cached table must not leave decoded Value copies of whole
// columns behind: they are resident for the table's lifetime and charged
// nowhere.
TEST(DataCubeTest, BuildLeavesNoDecodedColumnView) {
  constexpr size_t kRows = 1000;
  ColumnData::Arrays ids, amounts, nullable;
  nullable.nulls.assign(kRows, 0);
  for (size_t r = 0; r < kRows; ++r) {
    ids.ints.push_back(static_cast<int64_t>(r % 7));
    amounts.ints.push_back(static_cast<int64_t>(r * 3));  // too wide
    nullable.ints.push_back(r % 5 == 0 ? 0 : static_cast<int64_t>(r % 3));
    nullable.nulls[r] = r % 5 == 0 ? 1 : 0;
  }
  std::vector<ColumnData> columns;
  for (ColumnData::Arrays* arrays : {&ids, &amounts, &nullable}) {
    columns.push_back(ColumnData::FromArrays(ColumnEncoding::kInt64, kRows,
                                             std::move(*arrays)));
  }
  TablePtr table =
      *Table::FromColumnData(Schema({Field{"id", ValueType::kInt64},
                                     Field{"amount", ValueType::kInt64},
                                     Field{"n", ValueType::kInt64}}),
                             std::move(columns));
  ASSERT_EQ(table->typed_column(0).encoding(), ColumnEncoding::kInt64);
  auto cube = DataCube::Build(table, /*max_index_cardinality=*/16);
  ASSERT_TRUE(cube.ok()) << cube.status();
  EXPECT_EQ(table->decoded_view_bytes(), 0u);

  // The columnar filters answer the query without a decode either.
  DataCube::Query query;
  query.filters.push_back({"id", {Value(static_cast<int64_t>(3))}, false});
  query.filters.push_back({"n", {Value::Null()}, false});
  auto out = (*cube)->Execute(query);
  ASSERT_TRUE(out.ok()) << out.status();
  size_t expected = 0;
  for (size_t r = 0; r < kRows; ++r) {
    if (r % 7 == 3 && r % 5 == 0) ++expected;
  }
  EXPECT_EQ((*out)->num_rows(), expected);

  // The observer does see a decode.
  (void)table->at(0, 1);
  EXPECT_EQ(table->decoded_view_bytes(), kRows * sizeof(Value));
}

// A streaming append reads dictionary codes only: the grown table (the
// one the next readers query) must not gain decoded Value views of its
// numeric columns.
TEST(DataCubeTest, AppendLeavesNoDecodedColumnView) {
  TableBuilder builder(Schema({Field{"key", ValueType::kString},
                               Field{"id", ValueType::kInt64},
                               Field{"score", ValueType::kDouble}}));
  for (int r = 0; r < 600; ++r) {
    ASSERT_TRUE(builder
                    .AppendRow({Value("k" + std::to_string(r % 6)),
                                Value(static_cast<int64_t>(r % 11)),
                                Value(static_cast<double>(r % 13) / 2)})
                    .ok());
  }
  TablePtr base = *builder.Finish();
  auto cube = DataCube::Build(base);
  ASSERT_TRUE(cube.ok()) << cube.status();
  std::vector<std::vector<Value>> rows;
  for (int r = 0; r < 100; ++r) {
    rows.push_back({Value("k" + std::to_string(r % 8)),
                    Value(static_cast<int64_t>(r)), Value(r * 0.25)});
  }
  TablePtr grown = *ConcatTables(base, *MakeAppendBatch(*base, rows));
  ASSERT_EQ(grown->typed_column(1).encoding(), ColumnEncoding::kInt64);
  ASSERT_EQ(grown->typed_column(2).encoding(), ColumnEncoding::kDouble);
  auto appended = DataCube::Append(*cube, grown);
  ASSERT_TRUE(appended.ok()) << appended.status();
  EXPECT_EQ(grown->decoded_view_bytes(), 0u);
  EXPECT_EQ((*appended)->num_indexed_columns(), 1u);  // only `key`

  // Numeric membership answers without a decode, as the operator would.
  DataCube::Query query;
  query.filters.push_back({"key", {Value("k7"), Value("k1")}, false});
  query.filters.push_back({"id", {Value(3.0), Value(int64_t{71})}, false});
  auto out = (*appended)->Execute(query);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(grown->decoded_view_bytes(), 0u);
  auto expected = FilterValuesOp(query.filters).Execute({grown});
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ((*out)->num_rows(), (*expected)->num_rows());
  EXPECT_GT((*out)->num_rows(), 0u);
  for (size_t r = 0; r < (*out)->num_rows(); ++r) {
    for (size_t c = 0; c < (*out)->num_columns(); ++c) {
      EXPECT_EQ((*out)->at(r, c), (*expected)->at(r, c));
    }
  }
}

// Property: cube answers match direct operator execution exactly.
class CubeEquivalenceProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CubeEquivalenceProperty, MatchesOperatorPipeline) {
  auto [rows, groups] = GetParam();
  TablePtr table = GenerateBenchTable(static_cast<size_t>(rows),
                                      static_cast<size_t>(groups),
                                      static_cast<uint64_t>(rows + groups));
  auto cube = *DataCube::Build(table);
  std::vector<AggregateSpec> aggregates = {
      AggregateSpec{"sum", "value", "total"},
      AggregateSpec{"count", "value", "n"}};

  std::vector<std::vector<DataCube::Filter>> filter_sets = {
      // Posted membership on `key`, narrowed by a range on `value`.
      {{"key", {Value("group_0"), Value("group_2")}, false},
       {"value",
        {Value(static_cast<int64_t>(100)), Value(static_cast<int64_t>(800))},
        true}},
      // Numeric membership (no postings), with Value::Compare's
      // cross-type equality: int64 cells match 250.0, never 500.5.
      {{"value",
        {Value(int64_t{7}), Value(250.0), Value(500.5), Value(int64_t{999}),
         Value::Null()},
        false}},
  };
  for (const std::vector<DataCube::Filter>& filters : filter_sets) {
    DataCube::Query query;
    query.filters = filters;
    query.group_by = {"key"};
    query.aggregates = aggregates;
    auto via_cube = cube->Execute(query);
    ASSERT_TRUE(via_cube.ok()) << via_cube.status();

    // Same computation through the batch operators.
    auto filtered = FilterValuesOp(filters).Execute({table});
    ASSERT_TRUE(filtered.ok());
    auto via_ops =
        (*GroupByOp::Create({"key"}, aggregates))->Execute({*filtered});
    ASSERT_TRUE(via_ops.ok());

    ASSERT_EQ((*via_cube)->num_rows(), (*via_ops)->num_rows());
    for (size_t r = 0; r < (*via_cube)->num_rows(); ++r) {
      for (size_t c = 0; c < (*via_cube)->num_columns(); ++c) {
        EXPECT_EQ((*via_cube)->at(r, c), (*via_ops)->at(r, c))
            << "row " << r << " col " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CubeEquivalenceProperty,
                         ::testing::Combine(::testing::Values(0, 1, 64, 999,
                                                              4096),
                                            ::testing::Values(1, 8, 64)));

}  // namespace
}  // namespace shareinsights
