#include "cube/data_cube.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

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
    if (col.encoding() == ColumnEncoding::kDict) {
      // Code-addressed index. The dictionary holds exactly the distinct
      // strings present, so the column's cardinality (including null as
      // one distinct value, like the generic index counts it) is known
      // before scanning.
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
      continue;
    }
    // Cells are read from the typed storage one at a time: going through
    // t.at() would leave a decoded Value copy of the whole column on the
    // table, uncharged and resident for as long as the table is cached.
    std::unordered_map<Value, std::vector<uint32_t>, ValueHash> index;
    const bool generic = col.encoding() == ColumnEncoding::kGeneric;
    bool too_wide = false;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      std::vector<uint32_t>& rows =
          generic ? index[col.generic()[r]] : index[col.GetValue(r)];
      rows.push_back(static_cast<uint32_t>(r));
      if (index.size() > max_index_cardinality) {
        too_wide = true;
        break;
      }
    }
    if (!too_wide) cube->indexes_.emplace(c, std::move(index));
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
    const ColumnData& base_col = base->table_->typed_column(c);
    if (col.encoding() == ColumnEncoding::kDict) {
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
      continue;
    }
    auto base_index = base->indexes_.find(c);
    std::unordered_map<Value, std::vector<uint32_t>, ValueHash> index;
    size_t scan_from = 0;
    if (base_index != base->indexes_.end()) {
      index = base_index->second;  // copy-extend
      scan_from = base_rows;
    } else if (base_col.encoding() == col.encoding()) {
      // Same encoding and no base index: the column was too wide to
      // index before the append and can only have grown.
      continue;
    }
    // Unlike Build, this scan keeps t.at(): the grown table is the one
    // the next readers query, and their generic-path operators decode its
    // columns anyway. Decoding here once keeps that cost off the readers
    // (reading cells through GetValue made appends faster but moved the
    // full-column decode onto the first reader after every append).
    bool too_wide = false;
    for (size_t r = scan_from; r < t.num_rows(); ++r) {
      index[t.at(r, c)].push_back(static_cast<uint32_t>(r));
      if (index.size() > max_index_cardinality) {
        too_wide = true;
        break;
      }
    }
    if (!too_wide) cube->indexes_.emplace(c, std::move(index));
  }
  MetricsRegistry::Default()
      .GetCounter("cube_appends_total",
                  "DataCube streaming appends (copy-extended indexes)")
      ->Increment();
  return std::shared_ptr<const DataCube>(cube);
}

Result<std::vector<uint32_t>> DataCube::SelectRows(
    const std::vector<Filter>& filters) const {
  const Table& t = *table_;
  // Start with "all rows" implicitly; intersect filter by filter.
  std::vector<uint32_t> selected;
  bool initialized = false;

  auto intersect_with = [&](std::vector<uint32_t> rows) {
    if (!initialized) {
      selected = std::move(rows);
      initialized = true;
      return;
    }
    std::vector<uint32_t> out;
    std::set_intersection(selected.begin(), selected.end(), rows.begin(),
                          rows.end(), std::back_inserter(out));
    selected = std::move(out);
  };

  // Scans with a per-row predicate, narrowing the current selection (or
  // the whole table on the first filter). Row order stays ascending.
  auto scan_keep = [&](auto keep) {
    std::vector<uint32_t> rows;
    if (initialized) {
      for (uint32_t r : selected) {
        if (keep(r)) rows.push_back(r);
      }
    } else {
      for (size_t r = 0; r < t.num_rows(); ++r) {
        if (keep(r)) rows.push_back(static_cast<uint32_t>(r));
      }
      initialized = true;
    }
    selected = std::move(rows);
  };

  for (const Filter& filter : filters) {
    if (filter.values.empty()) continue;  // no constraint
    SI_ASSIGN_OR_RETURN(size_t col_idx,
                        t.schema().RequireIndex(filter.column));
    const ColumnData& col = t.typed_column(col_idx);
    if (filter.is_range) {
      if (filter.values.size() != 2) {
        return Status::InvalidArgument("range filter on '" + filter.column +
                                       "' needs exactly 2 bounds");
      }
      const Value& lo = filter.values[0];
      const Value& hi = filter.values[1];
      switch (col.encoding()) {
        case ColumnEncoding::kDict: {
          // The sorted dictionary turns the Value range into a contiguous
          // code interval. Non-string bounds resolve by cross-type rank:
          // strings sit above null/bool/numeric, so a non-string low
          // bound keeps all strings and a non-string high bound none.
          uint32_t lo_code =
              lo.is_string() ? col.LowerBoundCode(lo.string_value()) : 0;
          uint32_t hi_code =
              hi.is_string() ? col.UpperBoundCode(hi.string_value()) : 0;
          if (!hi.is_string()) lo_code = hi_code;  // empty interval
          const uint32_t* codes = col.codes().data();
          scan_keep([&, codes, lo_code, hi_code](size_t r) {
            return !col.IsNull(r) && codes[r] >= lo_code &&
                   codes[r] < hi_code;
          });
          break;
        }
        case ColumnEncoding::kInt64: {
          const int64_t* data = col.ints().data();
          scan_keep([&, data](size_t r) {
            return !col.IsNull(r) && CompareInt64Cell(data[r], lo) >= 0 &&
                   CompareInt64Cell(data[r], hi) <= 0;
          });
          break;
        }
        case ColumnEncoding::kDouble: {
          const double* data = col.doubles().data();
          scan_keep([&, data](size_t r) {
            return !col.IsNull(r) && CompareDoubleCell(data[r], lo) >= 0 &&
                   CompareDoubleCell(data[r], hi) <= 0;
          });
          break;
        }
        default:
          scan_keep([&](size_t r) {
            const Value& v = t.at(r, col_idx);
            return !v.is_null() && v >= lo && v <= hi;
          });
      }
      continue;
    }
    // Membership filter: use the inverted index when available.
    auto dict_it = dict_indexes_.find(col_idx);
    if (dict_it != dict_indexes_.end()) {
      // Row lists addressed by dictionary code; non-string filter values
      // (other than null) can never match a string cell.
      const DictIndex& index = dict_it->second;
      std::vector<uint32_t> rows;
      for (const Value& v : filter.values) {
        if (v.is_null()) {
          rows.insert(rows.end(), index.null_rows.begin(),
                      index.null_rows.end());
        } else if (v.is_string()) {
          uint32_t code = col.FindCode(v.string_value());
          if (code != ColumnData::kNoCode) {
            rows.insert(rows.end(), index.code_rows[code].begin(),
                        index.code_rows[code].end());
          }
        }
      }
      std::sort(rows.begin(), rows.end());
      rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
      intersect_with(std::move(rows));
      continue;
    }
    auto index_it = indexes_.find(col_idx);
    if (index_it != indexes_.end()) {
      std::vector<uint32_t> rows;
      for (const Value& v : filter.values) {
        auto rows_it = index_it->second.find(v);
        if (rows_it != index_it->second.end()) {
          rows.insert(rows.end(), rows_it->second.begin(),
                      rows_it->second.end());
        }
      }
      std::sort(rows.begin(), rows.end());
      rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
      intersect_with(std::move(rows));
    } else if (col.encoding() == ColumnEncoding::kDict) {
      // Too-wide dictionary column (no index): test membership on raw
      // codes via a per-code verdict bitmap.
      std::vector<uint8_t> allowed_codes(col.dict().size(), 0);
      bool null_allowed = false;
      for (const Value& v : filter.values) {
        if (v.is_null()) {
          null_allowed = true;
        } else if (v.is_string()) {
          uint32_t code = col.FindCode(v.string_value());
          if (code != ColumnData::kNoCode) allowed_codes[code] = 1;
        }
      }
      const uint32_t* codes = col.codes().data();
      scan_keep([&, codes](size_t r) {
        return col.IsNull(r) ? null_allowed : allowed_codes[codes[r]] != 0;
      });
    } else {
      std::unordered_set<Value, ValueHash> allowed(filter.values.begin(),
                                                   filter.values.end());
      scan_keep(
          [&](size_t r) { return allowed.count(t.at(r, col_idx)) > 0; });
    }
  }

  if (!initialized) {
    selected.resize(t.num_rows());
    for (size_t r = 0; r < t.num_rows(); ++r) {
      selected[r] = static_cast<uint32_t>(r);
    }
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
  SI_ASSIGN_OR_RETURN(std::vector<uint32_t> rows, SelectRows(filters));

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
  std::vector<size_t> row_idx(rows.begin(), rows.end());
  std::vector<ColumnData> slice_columns;
  slice_columns.reserve(table_->num_columns());
  for (size_t c = 0; c < table_->num_columns(); ++c) {
    slice_columns.push_back(
        ColumnData::AllocateLike(table_->typed_column(c), row_idx.size()));
  }
  SI_RETURN_IF_ERROR(ForEachMorsel(
      ctx, row_idx.size(), [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t c = 0; c < table_->num_columns(); ++c) {
          slice_columns[c].GatherFrom(table_->typed_column(c), row_idx, begin,
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
