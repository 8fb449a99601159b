#ifndef SHAREINSIGHTS_OPS_FILTER_H_
#define SHAREINSIGHTS_OPS_FILTER_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "expr/expr.h"
#include "ops/operator.h"

namespace shareinsights {

/// `filter_by` with a `filter_expression`, e.g. `rating < 3` (fig. 7).
/// Keeps rows where the predicate is true; schema is preserved.
class FilterExpressionOp : public TableOperator {
 public:
  /// Parses the expression eagerly so configuration errors surface at
  /// compile time, not run time.
  static Result<TableOperatorPtr> Create(const std::string& expression);

  std::string name() const override { return "filter_by"; }
  Result<Schema> OutputSchema(const std::vector<Schema>& inputs) const override;
  using TableOperator::Execute;
  Result<TablePtr> Execute(const std::vector<TablePtr>& inputs,
                           const ExecContext& ctx) const override;

  const ExprPtr& expression() const { return expr_; }
  std::string CacheKey() const override;

  /// Row-wise and order-preserving: filtering the appended rows alone
  /// yields exactly the suffix a full re-run would add.
  DeltaMode delta_mode(const std::vector<bool>&) const override {
    return DeltaMode::kPassThrough;
  }

 private:
  explicit FilterExpressionOp(ExprPtr expr) : expr_(std::move(expr)) {}
  ExprPtr expr_;
};

/// `filter_by` with explicit allowed values per column — the run-time
/// shape of an interaction-flow filter (fig. 15), where the values come
/// from another widget's current selection. An empty value list for a
/// column means "no constraint" (nothing selected = show everything),
/// matching dashboard semantics.
class FilterValuesOp : public TableOperator {
 public:
  struct ColumnFilter {
    std::string column;
    std::vector<Value> allowed;
    /// When true, `allowed` is interpreted as an inclusive [min, max]
    /// range (2 values) — how sliders and date-range widgets filter.
    bool is_range = false;
  };

  explicit FilterValuesOp(std::vector<ColumnFilter> filters)
      : filters_(std::move(filters)) {}

  std::string name() const override { return "filter_by"; }
  Result<Schema> OutputSchema(const std::vector<Schema>& inputs) const override;
  using TableOperator::Execute;
  Result<TablePtr> Execute(const std::vector<TablePtr>& inputs,
                           const ExecContext& ctx) const override;

  const std::vector<ColumnFilter>& filters() const { return filters_; }
  std::string CacheKey() const override;

  DeltaMode delta_mode(const std::vector<bool>&) const override {
    return DeltaMode::kPassThrough;
  }

 private:
  std::vector<ColumnFilter> filters_;
};

/// One FilterValuesOp::ColumnFilter compiled against its column's
/// encoding: the single value-set / range filter engine, shared by
/// FilterValuesOp and the DataCube. Typed columns test raw
/// codes/primitives with Value::Compare's semantics (an int64 cell
/// equals a numerically equal double, -0.0 equals 0.0, NaN equals NaN);
/// kGeneric and bool columns fall back to the Value path. Borrows the
/// table's column and the filter's values, which must outlive it.
class CompiledFilter {
 public:
  /// Compiles every constraining filter of `filters` against `table`.
  /// Empty value lists ("nothing selected") are skipped; an unknown
  /// column, or a range without exactly 2 bounds, is an error.
  static Result<std::vector<CompiledFilter>> CompileAll(
      const Table& table,
      const std::vector<FilterValuesOp::ColumnFilter>& filters);

  size_t column_index() const { return column_index_; }

  /// Membership filter on a dictionary column: the one shape whose rows
  /// are the union of code-addressed postings. `allowed_codes()[code]`
  /// is the per-code verdict and `null_allowed()` that of null cells.
  bool is_dict_set() const { return kind_ == Kind::kDictSet; }
  const std::vector<uint8_t>& allowed_codes() const { return allowed_codes_; }
  bool null_allowed() const { return null_allowed_; }

  /// Per-row verdict, for narrowing an existing row selection.
  bool Keep(size_t row) const;

  /// One columnar AND pass over rows [begin, end) into `sel` (one byte
  /// per row, non-zero = selected), with the kind dispatch hoisted out of
  /// the row loop.
  void ApplyColumnar(size_t begin, size_t end, uint8_t* sel) const;

 private:
  enum class Kind {
    kGenericSet,    // Value hash-set membership (fallback)
    kGenericRange,  // Value range compare (fallback)
    kDictSet,       // membership via per-code bitmap
    kDictRange,     // contiguous code range [lo_code, hi_code)
    kInt64Set,
    kInt64Range,
    kDoubleSet,
    kDoubleRange,
  };

  static CompiledFilter Compile(const ColumnData& column, size_t column_index,
                                const FilterValuesOp::ColumnFilter& filter);

  const ColumnData* column_ = nullptr;
  size_t column_index_ = 0;
  const FilterValuesOp::ColumnFilter* filter_ = nullptr;
  Kind kind_ = Kind::kGenericSet;
  // kGenericSet
  std::unordered_set<Value, ValueHash> allowed_;
  // kDictSet: allowed_codes_[code] != 0 keeps the row (padded for the
  // AndCodeSet gather, see simd::kCodeSetPadding)
  std::vector<uint8_t> allowed_codes_;
  bool null_allowed_ = false;
  // kDictRange
  uint32_t lo_code_ = 0;
  uint32_t hi_code_ = 0;
  // kInt64Set / kDoubleSet (doubles as normalized bit patterns)
  std::unordered_set<int64_t> allowed_ints_;
  std::unordered_set<uint64_t> allowed_bits_;
};

/// Rows of `table` that pass every filter, ascending: per morsel, one
/// columnar AND pass per filter over a selection mask, compressed back to
/// row ids. Identical for any thread count or morsel size.
Result<std::vector<size_t>> SelectRowsMatching(
    const Table& table, const std::vector<CompiledFilter>& filters,
    const ExecContext& ctx);

/// Single-column comparison filter — the run-time form of one
/// `/filter/<col>/<op>/<value>` segment of the REST path query language
/// (extended fig. 30 grammar). Comparisons use Value::Compare, so numeric
/// literals match numeric columns; `contains` does substring match on the
/// cell's string form. Null cells never match.
class FilterCompareOp : public TableOperator {
 public:
  enum class Cmp { kEq, kNe, kLt, kLe, kGt, kGe, kContains };

  /// Parses "eq", "ne", "lt", "le", "gt", "ge", "contains".
  static Result<Cmp> ParseCmp(const std::string& text);

  FilterCompareOp(std::string column, Cmp cmp, Value literal)
      : column_(std::move(column)), cmp_(cmp), literal_(std::move(literal)) {}

  std::string name() const override { return "filter_by"; }
  Result<Schema> OutputSchema(const std::vector<Schema>& inputs) const override;
  using TableOperator::Execute;
  Result<TablePtr> Execute(const std::vector<TablePtr>& inputs,
                           const ExecContext& ctx) const override;

  std::string CacheKey() const override;

  DeltaMode delta_mode(const std::vector<bool>&) const override {
    return DeltaMode::kPassThrough;
  }

 private:
  std::string column_;
  Cmp cmp_;
  Value literal_;
};

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_OPS_FILTER_H_
