#ifndef SHAREINSIGHTS_CUBE_DATA_CUBE_H_
#define SHAREINSIGHTS_CUBE_DATA_CUBE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "gov/memory_budget.h"
#include "obs/trace.h"
#include "ops/aggregate.h"
#include "ops/filter.h"
#include "ops/groupby.h"
#include "ops/sort_ops.h"
#include "table/column.h"
#include "table/table.h"

namespace shareinsights {

/// In-memory cube over one endpoint data object.
///
/// The paper compiles widget interaction flows into "a data cube (in
/// JavaScript) - for ad-hoc widget interaction (group, filter etc)"
/// evaluated in the browser; this class is that runtime in C++. It holds
/// the endpoint table plus, for each dictionary-encoded string column,
/// row postings addressed by dictionary code, so a selection of a few
/// values out of thousands touches only the matching rows instead of
/// re-running the batch pipeline (bench_cube_latency quantifies the
/// difference). Every other filter runs through FilterValuesOp's
/// compiled filters (CompiledFilter, ops/filter.h).
class DataCube {
 public:
  /// One filter of a query. `allowed` non-empty: membership test (or an
  /// inclusive [min,max] when `is_range`). Empty `allowed`: no
  /// constraint, mirroring "nothing selected shows everything".
  using Filter = FilterValuesOp::ColumnFilter;

  /// A compiled interaction query: filters, then optional group-by with
  /// aggregates, then optional ordering and limit. This is the target
  /// the dashboard runtime lowers widget flows into.
  struct Query {
    std::vector<Filter> filters;
    std::vector<std::string> group_by;
    std::vector<AggregateSpec> aggregates;  // used when group_by non-empty
    bool orderby_aggregates = false;
    std::vector<SortKey> order_by;
    size_t limit = 0;  // 0 = unlimited
  };

  /// Builds the cube, posting every dictionary column whose distinct-value
  /// count (null counting as one) is at most `max_index_cardinality`
  /// (wider columns fall back to the columnar filters; postings for them
  /// would cost more than they save).
  static Result<std::shared_ptr<const DataCube>> Build(
      TablePtr table, size_t max_index_cardinality = 10000);

  /// Streaming rebuild: `grown` must be `base->table()` plus appended rows
  /// (the executor's encoding-preserving concat). Returns a NEW immutable
  /// cube whose postings are copy-extended — base postings are copied
  /// (remapped through the merged dictionary where it grew) and only the
  /// appended rows are scanned — instead of re-indexing every row. Reads
  /// only dictionary codes, never decoded cells. Queries against the
  /// result are byte-identical to queries against Build(grown); columns
  /// crossing `max_index_cardinality` drop their postings exactly as a
  /// cold build would skip them.
  static Result<std::shared_ptr<const DataCube>> Append(
      const std::shared_ptr<const DataCube>& base, TablePtr grown,
      size_t max_index_cardinality = 10000);

  const TablePtr& table() const { return table_; }

  /// Executes a query against the cube. With a tracer, evaluation is
  /// recorded as a `cube.query` span under `trace_parent` (filter count,
  /// rows selected, rows out); every query feeds the cube_* metrics.
  Result<TablePtr> Execute(const Query& query, Tracer* tracer = nullptr,
                           SpanId trace_parent = 0) const;

  /// Same, but the group-by / sort / limit stages run morsel-parallel on
  /// `ctx.pool` (results identical to the sequential overload).
  Result<TablePtr> Execute(const Query& query, const ExecContext& ctx) const;

  /// Executes several queries as shared scans: queries with the same
  /// filter set (canonical serialization, cube/shared_scan.h) are grouped
  /// so the select + slice-gather — the dominant per-query cost — runs
  /// once per distinct filter set instead of once per query; each group
  /// member then applies its own group-by / sort / limit to the shared
  /// slice. Results are positionally aligned with `queries` and byte-
  /// identical to calling Execute on each query alone. Feeds the
  /// shared_scan_batches_total / shared_scan_dedup_total counters and the
  /// shared_scan_batch_size histogram.
  Result<std::vector<TablePtr>> ExecuteBatch(
      const std::vector<const Query*>& queries, const ExecContext& ctx) const;

  /// Number of columns with postings (exposed for tests/benches).
  size_t num_indexed_columns() const { return dict_indexes_.size(); }

 private:
  explicit DataCube(TablePtr table) : table_(std::move(table)) {}

  /// Postings of a dictionary-encoded column: row lists addressed by
  /// dictionary code (a vector lookup, no Value hashing).
  struct DictIndex {
    std::vector<std::vector<uint32_t>> code_rows;  // code -> sorted row ids
    std::vector<uint32_t> null_rows;
  };

  /// Rows selected by the query's filters, in ascending order: membership
  /// filters on posted columns intersect their postings and the other
  /// filters narrow that row by row; with no postings to start from, all
  /// filters run as one columnar pass (SelectRowsMatching).
  Result<std::vector<size_t>> SelectRows(const std::vector<Filter>& filters,
                                         const ExecContext& ctx) const;

  /// The filtered slice of the cube table, gathered column-wise, with the
  /// memory charge held for as long as the slice is referenced.
  struct Slice {
    TablePtr table;
    MemoryReservation reservation;
  };

  /// Select + budget charge + typed gather for one filter set — the part
  /// of a query that shared scans run once per distinct filter set.
  Result<Slice> MaterializeSlice(const std::vector<Filter>& filters,
                                 const ExecContext& ctx) const;

  /// The per-query tail: group-by / sort / limit applied to a slice.
  Result<TablePtr> FinishQuery(TablePtr slice, const Query& query,
                               const ExecContext& ctx) const;

  TablePtr table_;
  // column index -> code-addressed postings; dict columns only
  std::unordered_map<size_t, DictIndex> dict_indexes_;
};

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_CUBE_DATA_CUBE_H_
