// Interactive-latency bench (section 3.5.1 / 4.1): a widget interaction
// (selection-driven filter + group-by) answered three ways —
//   1. DataCube: dictionary postings + compiled filters (the generated
//      client-side cube),
//   2. direct operator execution over the endpoint table,
//   3. full batch-pipeline re-run (what a stack without the cube does).
// The paper's design point is that interaction must not re-run the batch
// pipeline; the crossover and gap sizes here quantify that.

#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "cube/data_cube.h"
#include "datagen/datagen.h"
#include "ops/filter.h"
#include "ops/groupby.h"

using namespace shareinsights;

namespace {

TablePtr Endpoint(int64_t rows) {
  static std::map<int64_t, TablePtr> cache;
  auto it = cache.find(rows);
  if (it == cache.end()) {
    it = cache.emplace(rows, GenerateBenchTable(static_cast<size_t>(rows),
                                                64, 3))
             .first;
  }
  return it->second;
}

std::shared_ptr<const DataCube> Cube(int64_t rows) {
  static std::map<int64_t, std::shared_ptr<const DataCube>> cache;
  auto it = cache.find(rows);
  if (it == cache.end()) {
    it = cache.emplace(rows, *DataCube::Build(Endpoint(rows))).first;
  }
  return it->second;
}

DataCube::Query SelectionQuery() {
  DataCube::Query query;
  query.filters.push_back(
      DataCube::Filter{"key", {Value("group_3"), Value("group_7")}, false});
  query.group_by = {"key"};
  query.aggregates = {AggregateSpec{"sum", "value", "total"}};
  return query;
}

void BM_WidgetViaCube(benchmark::State& state) {
  auto cube = Cube(state.range(0));
  DataCube::Query query = SelectionQuery();
  for (auto _ : state) {
    auto out = cube->Execute(query);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WidgetViaCube)->Range(1 << 12, 1 << 19);

void BM_WidgetViaOps(benchmark::State& state) {
  TablePtr endpoint = Endpoint(state.range(0));
  FilterValuesOp filter({FilterValuesOp::ColumnFilter{
      "key", {Value("group_3"), Value("group_7")}, false}});
  auto groupby =
      GroupByOp::Create({"key"}, {AggregateSpec{"sum", "value", "total"}});
  for (auto _ : state) {
    auto filtered = filter.Execute({endpoint});
    auto out = (*groupby)->Execute({*filtered});
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_WidgetViaOps)->Range(1 << 12, 1 << 19);

void BM_WidgetViaBatchRerun(benchmark::State& state) {
  // Without a cube the stack recomputes the endpoint from raw data
  // (10x the endpoint size) before answering the interaction.
  TablePtr raw = Endpoint(state.range(0) * 8);
  auto pre_group = GroupByOp::Create(
      {"key", "value"}, {AggregateSpec{"sum", "value", "value_total"}});
  FilterValuesOp filter({FilterValuesOp::ColumnFilter{
      "key", {Value("group_3"), Value("group_7")}, false}});
  auto groupby = GroupByOp::Create(
      {"key"}, {AggregateSpec{"sum", "value_total", "total"}});
  for (auto _ : state) {
    auto endpoint = (*pre_group)->Execute({raw});
    auto filtered = filter.Execute({*endpoint});
    auto out = (*groupby)->Execute({*filtered});
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_WidgetViaBatchRerun)->Range(1 << 12, 1 << 16);

void BM_CubeBuild(benchmark::State& state) {
  TablePtr endpoint = Endpoint(state.range(0));
  for (auto _ : state) {
    auto cube = DataCube::Build(endpoint);
    benchmark::DoNotOptimize(cube);
  }
}
BENCHMARK(BM_CubeBuild)->Range(1 << 12, 1 << 17);

void BM_CubeRangeFilter(benchmark::State& state) {
  auto cube = Cube(state.range(0));
  DataCube::Query query;
  query.filters.push_back(DataCube::Filter{
      "value",
      {Value(static_cast<int64_t>(100)), Value(static_cast<int64_t>(300))},
      true});
  query.group_by = {"key"};
  query.aggregates = {AggregateSpec{"count", "key", "n"}};
  for (auto _ : state) {
    auto out = cube->Execute(query);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CubeRangeFilter)->Range(1 << 12, 1 << 18);

}  // namespace

SI_BENCH_JSON_MAIN();
