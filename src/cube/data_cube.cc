#include "cube/data_cube.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/string_util.h"
#include "cube/shared_scan.h"
#include "obs/metrics.h"

namespace shareinsights {

Result<std::shared_ptr<const DataCube>> DataCube::Build(
    TablePtr table, size_t max_index_cardinality) {
  if (table == nullptr) {
    return Status::InvalidArgument("DataCube::Build requires a table");
  }
  auto cube = std::shared_ptr<DataCube>(new DataCube(std::move(table)));
  const Table& t = *cube->table_;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const ColumnData& col = t.typed_column(c);
    if (col.encoding() != ColumnEncoding::kDict) continue;
    // The dictionary holds exactly the distinct strings present, so the
    // column's cardinality (null counting as one distinct value) is
    // known before scanning.
    size_t cardinality = col.dict().size() + (col.has_nulls() ? 1 : 0);
    if (cardinality > max_index_cardinality) continue;
    DictIndex index;
    index.code_rows.resize(col.dict().size());
    const std::vector<uint32_t>& codes = col.codes();
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (col.IsNull(r)) {
        index.null_rows.push_back(static_cast<uint32_t>(r));
      } else {
        index.code_rows[codes[r]].push_back(static_cast<uint32_t>(r));
      }
    }
    cube->dict_indexes_.emplace(c, std::move(index));
  }
  MetricsRegistry::Default()
      .GetCounter("cube_builds_total", "DataCube (re)builds")
      ->Increment();
  return std::shared_ptr<const DataCube>(cube);
}

Result<std::shared_ptr<const DataCube>> DataCube::Append(
    const std::shared_ptr<const DataCube>& base, TablePtr grown,
    size_t max_index_cardinality) {
  if (base == nullptr || grown == nullptr) {
    return Status::InvalidArgument("DataCube::Append requires a base and a "
                                   "grown table");
  }
  const size_t base_rows = base->table_->num_rows();
  if (grown->num_rows() < base_rows ||
      !(grown->schema() == base->table_->schema())) {
    return Status::InvalidArgument(
        "DataCube::Append: grown table is not base plus appended rows");
  }
  auto cube = std::shared_ptr<DataCube>(new DataCube(std::move(grown)));
  const Table& t = *cube->table_;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const ColumnData& col = t.typed_column(c);
    if (col.encoding() != ColumnEncoding::kDict) continue;
    const ColumnData& base_col = base->table_->typed_column(c);
    size_t cardinality = col.dict().size() + (col.has_nulls() ? 1 : 0);
    if (cardinality > max_index_cardinality) continue;
    auto base_index = base->dict_indexes_.find(c);
    if (base_index == base->dict_indexes_.end() &&
        base_col.encoding() == ColumnEncoding::kDict) {
      // Over the cardinality cap before the append; dictionaries only
      // grow, so it still is (the check above caught shrinkage cases).
      continue;
    }
    DictIndex index;
    index.code_rows.resize(col.dict().size());
    const std::vector<uint32_t>& codes = col.codes();
    size_t scan_from = 0;
    if (base_index != base->dict_indexes_.end()) {
      // Copy-extend: base postings land at their remapped codes (the
      // merged dictionary is a sorted superset, so old code -> new code
      // is a binary search per DISTINCT value, not per row).
      const ColumnData::Dictionary& old_dict = base_col.dict();
      std::vector<uint32_t> remap(old_dict.size());
      for (size_t code = 0; code < old_dict.size(); ++code) {
        remap[code] = col.FindCode(old_dict[code]);
      }
      for (size_t code = 0; code < old_dict.size(); ++code) {
        index.code_rows[remap[code]] = base_index->second.code_rows[code];
      }
      index.null_rows = base_index->second.null_rows;
      scan_from = base_rows;
    }
    // Only the appended rows (or every row when the column just became
    // dict-encoded, e.g. an all-null column that received strings).
    for (size_t r = scan_from; r < t.num_rows(); ++r) {
      if (col.IsNull(r)) {
        index.null_rows.push_back(static_cast<uint32_t>(r));
      } else {
        index.code_rows[codes[r]].push_back(static_cast<uint32_t>(r));
      }
    }
    cube->dict_indexes_.emplace(c, std::move(index));
  }
  MetricsRegistry::Default()
      .GetCounter("cube_appends_total",
                  "DataCube streaming appends (copy-extended postings)")
      ->Increment();
  return std::shared_ptr<const DataCube>(cube);
}

Result<std::vector<size_t>> DataCube::SelectRows(
    const std::vector<Filter>& filters, const ExecContext& ctx) const {
  SI_ASSIGN_OR_RETURN(std::vector<CompiledFilter> compiled,
                      CompiledFilter::CompileAll(*table_, filters));
  // Membership filters on posted columns: the union of their postings,
  // intersected across filters.
  std::optional<std::vector<uint32_t>> posted;
  std::vector<const CompiledFilter*> rest;
  for (const CompiledFilter& filter : compiled) {
    auto index = filter.is_dict_set()
                     ? dict_indexes_.find(filter.column_index())
                     : dict_indexes_.end();
    if (index == dict_indexes_.end()) {
      rest.push_back(&filter);
      continue;
    }
    // A row carries one code (or null), so the postings are disjoint.
    std::vector<uint32_t> rows;
    size_t lists = 0;
    auto add = [&](const std::vector<uint32_t>& list) {
      if (list.empty()) return;
      rows.insert(rows.end(), list.begin(), list.end());
      ++lists;
    };
    if (filter.null_allowed()) add(index->second.null_rows);
    const std::vector<uint8_t>& allowed = filter.allowed_codes();
    for (size_t code = 0; code < index->second.code_rows.size(); ++code) {
      if (allowed[code] != 0) add(index->second.code_rows[code]);
    }
    if (lists > 1) std::sort(rows.begin(), rows.end());
    if (posted.has_value()) {
      std::vector<uint32_t> both;
      std::set_intersection(posted->begin(), posted->end(), rows.begin(),
                            rows.end(), std::back_inserter(both));
      rows = std::move(both);
    }
    posted = std::move(rows);
  }
  if (!posted.has_value()) return SelectRowsMatching(*table_, compiled, ctx);
  // Every other filter narrows the posted rows one row at a time.
  std::vector<size_t> selected;
  selected.reserve(posted->size());
  for (uint32_t r : *posted) {
    bool keep = true;
    for (const CompiledFilter* filter : rest) {
      if (!filter->Keep(r)) {
        keep = false;
        break;
      }
    }
    if (keep) selected.push_back(r);
  }
  return selected;
}

Result<TablePtr> DataCube::Execute(const Query& query, Tracer* tracer,
                                   SpanId trace_parent) const {
  ExecContext ctx;
  ctx.tracer = tracer;
  ctx.trace_parent = trace_parent;
  return Execute(query, ctx);
}

namespace {

// Cooperative-cancellation probe shared by the query stages; increments
// the cancellation metric once per aborted probe.
Status CheckQueryCancelled(const ExecContext& ctx) {
  Status live = ctx.CheckCancelled();
  if (!live.ok()) {
    MetricsRegistry::Default()
        .GetCounter("queries_cancelled_total",
                    "runs/queries aborted by cooperative cancellation")
        ->Increment();
  }
  return live;
}

}  // namespace

Result<DataCube::Slice> DataCube::MaterializeSlice(
    const std::vector<Filter>& filters, const ExecContext& ctx) const {
  SI_RETURN_IF_ERROR(CheckQueryCancelled(ctx));
  SI_ASSIGN_OR_RETURN(std::vector<size_t> rows, SelectRows(filters, ctx));

  // Materialize the filtered slice; charge the slice against the memory
  // budget first (rows_selected x all columns is the cube's dominant
  // per-query allocation).
  SI_RETURN_IF_ERROR(CheckQueryCancelled(ctx));
  Slice slice;
  if (ctx.budget != nullptr) {
    SI_ASSIGN_OR_RETURN(
        slice.reservation,
        ctx.budget->Reserve(
            ApproxCellBytes(rows.size(), table_->num_columns()),
            "cube:filter"));
  }
  // Typed column-wise gather of the slice (already charged above as
  // "cube:filter", so this does not route through GatherRows and its
  // separate "gather" charge).
  std::vector<ColumnData> slice_columns;
  slice_columns.reserve(table_->num_columns());
  for (size_t c = 0; c < table_->num_columns(); ++c) {
    slice_columns.push_back(
        ColumnData::AllocateLike(table_->typed_column(c), rows.size()));
  }
  SI_RETURN_IF_ERROR(ForEachMorsel(
      ctx, rows.size(), [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t c = 0; c < table_->num_columns(); ++c) {
          slice_columns[c].GatherFrom(table_->typed_column(c), rows, begin,
                                      end);
        }
        return Status::OK();
      }));
  SI_ASSIGN_OR_RETURN(
      slice.table,
      Table::FromColumnData(table_->schema(), std::move(slice_columns)));
  return slice;
}

Result<TablePtr> DataCube::FinishQuery(TablePtr slice, const Query& query,
                                       const ExecContext& ctx) const {
  TablePtr current = std::move(slice);
  if (!query.group_by.empty()) {
    SI_RETURN_IF_ERROR(CheckQueryCancelled(ctx));
    SI_ASSIGN_OR_RETURN(TableOperatorPtr groupby,
                        GroupByOp::Create(query.group_by, query.aggregates,
                                          query.orderby_aggregates));
    SI_ASSIGN_OR_RETURN(current, groupby->Execute({current}, ctx));
  }
  if (!query.order_by.empty()) {
    SI_RETURN_IF_ERROR(CheckQueryCancelled(ctx));
    SortOp sort(query.order_by);
    SI_ASSIGN_OR_RETURN(current, sort.Execute({current}, ctx));
  }
  if (query.limit > 0) {
    SI_RETURN_IF_ERROR(CheckQueryCancelled(ctx));
    LimitOp limit(query.limit);
    SI_ASSIGN_OR_RETURN(current, limit.Execute({current}, ctx));
  }
  return current;
}

Result<TablePtr> DataCube::Execute(const Query& query,
                                   const ExecContext& ctx) const {
  Tracer* tracer = ctx.tracer;
  auto query_start = std::chrono::steady_clock::now();
  ScopedSpan query_span(tracer, "cube.query", ctx.trace_parent);
  if (tracer != nullptr) {
    query_span.AddAttribute("filters",
                            static_cast<int64_t>(query.filters.size()));
    if (!query.group_by.empty()) {
      query_span.AddAttribute("group_by", Join(query.group_by, ","));
    }
    query_span.AddAttribute("rows_in",
                            static_cast<int64_t>(table_->num_rows()));
  }
  SI_ASSIGN_OR_RETURN(Slice slice, MaterializeSlice(query.filters, ctx));
  query_span.AddAttribute("rows_selected",
                          static_cast<int64_t>(slice.table->num_rows()));
  SI_ASSIGN_OR_RETURN(TablePtr current,
                      FinishQuery(slice.table, query, ctx));
  query_span.AddAttribute("rows_out",
                          static_cast<int64_t>(current->num_rows()));
  MetricsRegistry& metrics = MetricsRegistry::Default();
  metrics.GetCounter("cube_queries_total", "DataCube query evaluations")
      ->Increment();
  metrics
      .GetHistogram("cube_query_ms", Histogram::LatencyBoundsMs(),
                    "wall time of one cube query")
      ->Observe(std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - query_start)
                    .count());
  return current;
}

Result<std::vector<TablePtr>> DataCube::ExecuteBatch(
    const std::vector<const Query*>& queries, const ExecContext& ctx) const {
  std::vector<TablePtr> results(queries.size());
  if (queries.empty()) return results;
  ScopedSpan batch_span(ctx.tracer, "cube.batch", ctx.trace_parent);

  // Group queries by their canonical filter serialization (collision-free
  // by construction, unlike a hash) — each group shares one select+gather.
  std::unordered_map<std::string, std::vector<size_t>> groups;
  std::vector<const std::string*> order;  // deterministic group order
  std::vector<std::string> keys(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    keys[i] = CanonicalFilterKey(queries[i]->filters);
    auto [it, inserted] = groups.emplace(keys[i], std::vector<size_t>{});
    if (inserted) order.push_back(&it->first);
    it->second.push_back(i);
  }

  for (const std::string* key : order) {
    const std::vector<size_t>& members = groups[*key];
    SI_ASSIGN_OR_RETURN(
        Slice slice, MaterializeSlice(queries[members[0]]->filters, ctx));
    for (size_t i : members) {
      SI_ASSIGN_OR_RETURN(results[i],
                          FinishQuery(slice.table, *queries[i], ctx));
    }
  }

  batch_span.AddAttribute("queries", static_cast<int64_t>(queries.size()));
  batch_span.AddAttribute("scans", static_cast<int64_t>(order.size()));
  MetricsRegistry& metrics = MetricsRegistry::Default();
  metrics
      .GetCounter("shared_scan_batches_total",
                  "shared-scan batch executions")
      ->Increment();
  metrics
      .GetCounter("shared_scan_dedup_total",
                  "scans saved by shared-scan filter grouping")
      ->Increment(static_cast<int64_t>(queries.size() - order.size()));
  metrics
      .GetHistogram("shared_scan_batch_size",
                    {1, 2, 4, 8, 16, 32, 64, 128},
                    "queries coalesced into one shared-scan batch")
      ->Observe(static_cast<double>(queries.size()));
  metrics
      .GetCounter("cube_queries_total", "DataCube query evaluations")
      ->Increment(static_cast<int64_t>(queries.size()));
  return results;
}

}  // namespace shareinsights
