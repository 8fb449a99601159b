#include "ops/filter.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/fingerprint.h"
#include "common/string_util.h"
#include "simd/kernels.h"
#include "table/column.h"

namespace shareinsights {

Result<TableOperatorPtr> FilterExpressionOp::Create(
    const std::string& expression) {
  SI_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpression(expression));
  return TableOperatorPtr(new FilterExpressionOp(std::move(expr)));
}

Result<Schema> FilterExpressionOp::OutputSchema(
    const std::vector<Schema>& inputs) const {
  if (inputs.size() != 1) {
    return Status::SchemaError("filter_by expects exactly 1 input");
  }
  // Validate column references against the input schema now.
  SI_RETURN_IF_ERROR(BoundExpr::Bind(expr_, inputs[0]).status());
  return inputs[0];
}

namespace {

/// Shared morsel skeleton for selection-style filters: `keep(r)` decides
/// per row; per-morsel selections concatenate in morsel order, so the
/// output row order matches the sequential scan exactly.
Result<TablePtr> SelectRows(
    const TablePtr& input, const ExecContext& ctx,
    const std::function<Result<bool>(size_t row)>& keep) {
  std::vector<MorselRange> ranges = MorselRanges(input->num_rows(), ctx);
  std::vector<std::vector<size_t>> selections(ranges.size());
  SI_RETURN_IF_ERROR(ForEachMorsel(
      ctx, input->num_rows(),
      [&](size_t m, size_t begin, size_t end) -> Status {
        std::vector<size_t>& selected = selections[m];
        for (size_t r = begin; r < end; ++r) {
          SI_ASSIGN_OR_RETURN(bool hit, keep(r));
          if (hit) selected.push_back(r);
        }
        return Status::OK();
      }));
  return GatherRows(input, ConcatSelections(selections), ctx);
}

/// Columnar row selection: `apply(begin, end, sel)` ANDs its verdicts
/// into a byte-per-row selection mask (pre-set to all-selected) one morsel
/// at a time; the mask then compresses back to row ids. Selects the same
/// rows as SelectRows for any `apply` computing the same per-row verdicts,
/// across thread counts (per-morsel selections concatenate in morsel
/// order).
template <typename Apply>
Result<std::vector<size_t>> SelectByMask(size_t num_rows,
                                         const ExecContext& ctx,
                                         Apply apply) {
  std::vector<MorselRange> ranges = MorselRanges(num_rows, ctx);
  std::vector<std::vector<size_t>> selections(ranges.size());
  SI_RETURN_IF_ERROR(ForEachMorsel(
      ctx, num_rows, [&](size_t m, size_t begin, size_t end) -> Status {
        std::vector<uint8_t> sel(end - begin, 1);
        apply(begin, end, sel.data());
        simd::CompressMask(sel.data(), end - begin, begin, selections[m]);
        return Status::OK();
      }));
  return ConcatSelections(selections);
}

/// SelectByMask, then the gather of the selected rows.
template <typename Apply>
Result<TablePtr> SelectRowsColumnar(const TablePtr& input,
                                    const ExecContext& ctx, Apply apply) {
  SI_ASSIGN_OR_RETURN(std::vector<size_t> rows,
                      SelectByMask(input->num_rows(), ctx, apply));
  return GatherRows(input, rows, ctx);
}

// Which Compare outcomes (-1 / 0 / +1) a comparator keeps.
struct CmpMask {
  bool lt = false, eq = false, gt = false;
  bool Keeps(int cmp) const { return cmp < 0 ? lt : cmp > 0 ? gt : eq; }
};

CmpMask MaskFor(FilterCompareOp::Cmp cmp) {
  using Cmp = FilterCompareOp::Cmp;
  switch (cmp) {
    case Cmp::kEq:
      return {false, true, false};
    case Cmp::kNe:
      return {true, false, true};
    case Cmp::kLt:
      return {true, false, false};
    case Cmp::kLe:
      return {true, true, false};
    case Cmp::kGt:
      return {false, false, true};
    case Cmp::kGe:
      return {false, true, true};
    case Cmp::kContains:
      break;
  }
  return {};
}

/// Columnar plan for `column <cmp> literal`: one kernel pass per morsel
/// with all per-row dispatch hoisted to compile time. The mode encodes
/// Value::Compare's cross-type rules — cases a lane-replicated compare
/// can't express exactly (int64 cells converting to double, NaN literals
/// against double cells) compile to typed scalar loops instead of
/// kernels, so the result is bit-identical to the per-row oracle.
struct ColumnarCompare {
  enum class Mode {
    kConst,        // verdict decided by type rank alone
    kInt64Lit,     // int64 cells vs int64 literal (kernel)
    kInt64Value,   // int64 cells vs double literal: CompareInt64Cell
                   // converts the cell to double — scalar loop
    kDoubleLit,    // double cells vs non-NaN numeric literal (kernel)
    kDoubleValue,  // double cells vs NaN literal — total-order scalar
    kCode,         // dict codes vs string literal, code threshold (kernel)
    kBool,         // bool cells vs any literal — scalar loop
  };
  Mode mode = Mode::kConst;
  const ColumnData* col = nullptr;
  CmpMask mask;
  bool null_keep = false;
  bool const_keep = false;
  int64_t int_lit = 0;
  double dbl_lit = 0.0;
  uint32_t lower_bound = 0;
  bool has_exact = false;
  Value literal;

  void Apply(size_t begin, size_t end, uint8_t* sel) const {
    const size_t n = end - begin;
    const uint8_t* nulls =
        col->has_nulls() ? col->nulls().data() + begin : nullptr;
    switch (mode) {
      case Mode::kConst:
        simd::AndConst(nulls, null_keep, const_keep, sel, n);
        return;
      case Mode::kInt64Lit:
        simd::AndInt64Cmp(col->ints().data() + begin, nulls, null_keep,
                          int_lit, mask.lt, mask.eq, mask.gt, sel, n);
        return;
      case Mode::kInt64Value: {
        const int64_t* v = col->ints().data() + begin;
        for (size_t i = 0; i < n; ++i) {
          bool keep = nulls != nullptr && nulls[i] != 0
                          ? null_keep
                          : mask.Keeps(CompareInt64Cell(v[i], literal));
          if (!keep) sel[i] = 0;
        }
        return;
      }
      case Mode::kDoubleLit:
        simd::AndDoubleCmp(col->doubles().data() + begin, nulls, null_keep,
                           dbl_lit, mask.lt, mask.eq, mask.gt, sel, n);
        return;
      case Mode::kDoubleValue: {
        const double* v = col->doubles().data() + begin;
        for (size_t i = 0; i < n; ++i) {
          bool keep = nulls != nullptr && nulls[i] != 0
                          ? null_keep
                          : mask.Keeps(CompareDoubleCell(v[i], literal));
          if (!keep) sel[i] = 0;
        }
        return;
      }
      case Mode::kCode:
        simd::AndCodeCmp(col->codes().data() + begin, nulls, null_keep,
                         lower_bound, has_exact, mask.lt, mask.eq, mask.gt,
                         sel, n);
        return;
      case Mode::kBool: {
        const uint8_t* v = col->bools().data() + begin;
        for (size_t i = 0; i < n; ++i) {
          bool keep = nulls != nullptr && nulls[i] != 0
                          ? null_keep
                          : mask.Keeps(CompareBoolCell(v[i] != 0, literal));
          if (!keep) sel[i] = 0;
        }
        return;
      }
    }
  }
};

/// Compiles `column <cmp> literal` to a columnar plan, or nullopt for
/// kGeneric columns (Value path). `nulls_compare` selects the null-cell
/// semantics: true replicates expression comparisons, where null cells
/// still compare by type rank (null equals null, null below everything
/// else); false replicates FilterCompareOp, where null cells never match.
std::optional<ColumnarCompare> CompileColumnarCompare(const ColumnData& col,
                                                      CmpMask mask,
                                                      const Value& literal,
                                                      bool nulls_compare) {
  if (col.encoding() == ColumnEncoding::kGeneric) return std::nullopt;
  ColumnarCompare cc;
  cc.col = &col;
  cc.mask = mask;
  cc.literal = literal;
  cc.null_keep = nulls_compare && mask.Keeps(literal.is_null() ? 0 : -1);
  if (literal.is_null()) {
    // Non-null cells rank above the null literal: constant +1 verdict.
    cc.mode = ColumnarCompare::Mode::kConst;
    cc.const_keep = mask.gt;
    return cc;
  }
  switch (col.encoding()) {
    case ColumnEncoding::kInt64:
      if (literal.is_int64()) {
        cc.mode = ColumnarCompare::Mode::kInt64Lit;
        cc.int_lit = literal.int64_value();
        return cc;
      }
      if (literal.is_double()) {
        if (std::isnan(literal.double_value())) {
          // Converted cells are never NaN, and NaN orders after every
          // number: constant -1 verdict.
          cc.mode = ColumnarCompare::Mode::kConst;
          cc.const_keep = mask.lt;
          return cc;
        }
        cc.mode = ColumnarCompare::Mode::kInt64Value;
        return cc;
      }
      // bool/string literal: the outcome is fixed by type rank.
      cc.mode = ColumnarCompare::Mode::kConst;
      cc.const_keep = mask.Keeps(CompareInt64Cell(0, literal));
      return cc;
    case ColumnEncoding::kDouble:
      if (literal.is_numeric()) {
        double d = literal.AsDouble();
        if (std::isnan(d)) {
          // NaN literal: non-NaN cells order below it, NaN cells equal
          // it — two outcomes, so the total-order scalar loop decides.
          cc.mode = ColumnarCompare::Mode::kDoubleValue;
          return cc;
        }
        cc.mode = ColumnarCompare::Mode::kDoubleLit;
        cc.dbl_lit = d;
        return cc;
      }
      cc.mode = ColumnarCompare::Mode::kConst;
      cc.const_keep = mask.Keeps(CompareDoubleCell(0.0, literal));
      return cc;
    case ColumnEncoding::kDict:
      if (literal.is_string()) {
        cc.mode = ColumnarCompare::Mode::kCode;
        cc.lower_bound = col.LowerBoundCode(literal.string_value());
        cc.has_exact =
            col.FindCode(literal.string_value()) != ColumnData::kNoCode;
        return cc;
      }
      // Strings rank above null/bool/numeric literals: constant +1.
      cc.mode = ColumnarCompare::Mode::kConst;
      cc.const_keep = mask.gt;
      return cc;
    case ColumnEncoding::kBool:
      cc.mode = ColumnarCompare::Mode::kBool;
      return cc;
    case ColumnEncoding::kGeneric:
      break;
  }
  return std::nullopt;
}

/// Recognizes `column <cmp> literal` (either operand order) at the top
/// of a filter expression so the dominant filter shape can run on the
/// columnar compare plan instead of per-row expression evaluation. Any
/// other shape returns nullopt and takes the generic EvalPredicate path.
struct LoweredCompare {
  size_t col_idx = 0;
  CmpMask mask;
  Value literal;
};

std::optional<LoweredCompare> TryLowerComparison(const Expr& expr,
                                                 const Schema& schema) {
  if (expr.kind() != Expr::Kind::kBinary) return std::nullopt;
  const auto& bin = static_cast<const BinaryExpr&>(expr);
  CmpMask mask;
  switch (bin.op()) {
    case ExprOp::kEq:
      mask = {false, true, false};
      break;
    case ExprOp::kNe:
      mask = {true, false, true};
      break;
    case ExprOp::kLt:
      mask = {true, false, false};
      break;
    case ExprOp::kLe:
      mask = {true, true, false};
      break;
    case ExprOp::kGt:
      mask = {false, false, true};
      break;
    case ExprOp::kGe:
      mask = {false, true, true};
      break;
    default:
      return std::nullopt;
  }
  const Expr* l = bin.left().get();
  const Expr* r = bin.right().get();
  const ColumnExpr* column = nullptr;
  const LiteralExpr* literal = nullptr;
  if (l->kind() == Expr::Kind::kColumn &&
      r->kind() == Expr::Kind::kLiteral) {
    column = static_cast<const ColumnExpr*>(l);
    literal = static_cast<const LiteralExpr*>(r);
  } else if (l->kind() == Expr::Kind::kLiteral &&
             r->kind() == Expr::Kind::kColumn) {
    column = static_cast<const ColumnExpr*>(r);
    literal = static_cast<const LiteralExpr*>(l);
    // `lit cmp col` is `col cmp' lit` with the orientation flipped.
    std::swap(mask.lt, mask.gt);
  } else {
    return std::nullopt;
  }
  Result<size_t> idx = schema.RequireIndex(column->name());
  if (!idx.ok()) return std::nullopt;
  return LoweredCompare{*idx, mask, literal->value()};
}

}  // namespace

Result<TablePtr> FilterExpressionOp::Execute(
    const std::vector<TablePtr>& inputs, const ExecContext& ctx) const {
  const TablePtr& input = inputs[0];
  SI_ASSIGN_OR_RETURN(BoundExpr bound,
                      BoundExpr::Bind(expr_, input->schema()));
  // Expression comparisons rank null cells below every non-null value
  // (they go through Value::Compare), hence nulls_compare=true.
  if (std::optional<LoweredCompare> lowered =
          TryLowerComparison(*expr_, input->schema())) {
    std::optional<ColumnarCompare> cc = CompileColumnarCompare(
        input->typed_column(lowered->col_idx), lowered->mask,
        lowered->literal, /*nulls_compare=*/true);
    if (cc.has_value()) {
      return SelectRowsColumnar(input, ctx,
                                [&](size_t begin, size_t end, uint8_t* sel) {
                                  cc->Apply(begin, end, sel);
                                });
    }
  }
  return SelectRows(input, ctx, [&](size_t r) -> Result<bool> {
    return bound.EvalPredicate(*input, r);
  });
}

Result<Schema> FilterValuesOp::OutputSchema(
    const std::vector<Schema>& inputs) const {
  if (inputs.size() != 1) {
    return Status::SchemaError("filter_by expects exactly 1 input");
  }
  for (const ColumnFilter& f : filters_) {
    SI_RETURN_IF_ERROR(inputs[0].RequireIndex(f.column).status());
  }
  return inputs[0];
}

bool CompiledFilter::Keep(size_t r) const {
  const ColumnData& col = *column_;
  switch (kind_) {
    case Kind::kGenericSet:
      return allowed_.count(col.GetValue(r)) > 0;
    case Kind::kGenericRange: {
      Value v = col.GetValue(r);
      return !v.is_null() && v >= filter_->allowed[0] &&
             v <= filter_->allowed[1];
    }
    case Kind::kDictSet:
      if (col.IsNull(r)) return null_allowed_;
      return allowed_codes_[col.codes()[r]] != 0;
    case Kind::kDictRange: {
      if (col.IsNull(r)) return false;
      uint32_t code = col.codes()[r];
      return code >= lo_code_ && code < hi_code_;
    }
    case Kind::kInt64Set: {
      if (col.IsNull(r)) return null_allowed_;
      int64_t x = col.ints()[r];
      if (allowed_ints_.count(x) > 0) return true;
      // Value::Compare tests int64-vs-double by converting the int64
      // cell to double, so double allowed values match via bit pattern.
      return !allowed_bits_.empty() &&
             allowed_bits_.count(PackDoubleBits(static_cast<double>(x))) > 0;
    }
    case Kind::kInt64Range:
      return !col.IsNull(r) &&
             CompareInt64Cell(col.ints()[r], filter_->allowed[0]) >= 0 &&
             CompareInt64Cell(col.ints()[r], filter_->allowed[1]) <= 0;
    case Kind::kDoubleSet:
      if (col.IsNull(r)) return null_allowed_;
      return allowed_bits_.count(PackDoubleBits(col.doubles()[r])) > 0;
    case Kind::kDoubleRange:
      return !col.IsNull(r) &&
             CompareDoubleCell(col.doubles()[r], filter_->allowed[0]) >= 0 &&
             CompareDoubleCell(col.doubles()[r], filter_->allowed[1]) <= 0;
  }
  return false;
}

// Kernel-representable kinds call the simd library; set-membership and
// mixed-type range kinds keep per-row verdicts (hash probes / Value
// compares don't vectorize) but still skip already-dropped rows.
void CompiledFilter::ApplyColumnar(size_t begin, size_t end,
                                   uint8_t* sel) const {
  const ColumnData& col = *column_;
  const size_t n = end - begin;
  const uint8_t* nulls =
      col.has_nulls() ? col.nulls().data() + begin : nullptr;
  switch (kind_) {
    case Kind::kDictSet:
      simd::AndCodeSet(col.codes().data() + begin, nulls, null_allowed_,
                       allowed_codes_.data(), sel, n);
      return;
    case Kind::kDictRange:
      simd::AndCodeRange(col.codes().data() + begin, nulls,
                         /*null_keep=*/false, lo_code_, hi_code_, sel, n);
      return;
    case Kind::kInt64Range: {
      const Value& lo = filter_->allowed[0];
      const Value& hi = filter_->allowed[1];
      // CompareInt64Cell against non-int64 bounds converts the cell to
      // double, which an int64 lane compare can't replicate — those stay
      // on the scalar loop below.
      if (lo.is_int64() && hi.is_int64()) {
        simd::AndInt64Range(col.ints().data() + begin, nulls,
                            /*null_keep=*/false, lo.int64_value(),
                            hi.int64_value(), sel, n);
        return;
      }
      break;
    }
    case Kind::kDoubleRange: {
      const Value& lo = filter_->allowed[0];
      const Value& hi = filter_->allowed[1];
      // CompareDoubleCell converts numeric bounds with AsDouble, which the
      // kernel replicates exactly (NaN cells order above hi and drop); NaN
      // bounds need total-order semantics — scalar.
      if (lo.is_numeric() && hi.is_numeric()) {
        double lo_d = lo.AsDouble();
        double hi_d = hi.AsDouble();
        if (!std::isnan(lo_d) && !std::isnan(hi_d)) {
          simd::AndDoubleRange(col.doubles().data() + begin, nulls,
                               /*null_keep=*/false, lo_d, hi_d, sel, n);
          return;
        }
      }
      break;
    }
    default:
      break;
  }
  for (size_t r = begin; r < end; ++r) {
    uint8_t& s = sel[r - begin];
    if (s != 0 && !Keep(r)) s = 0;
  }
}

CompiledFilter CompiledFilter::Compile(
    const ColumnData& column, size_t column_index,
    const FilterValuesOp::ColumnFilter& filter) {
  CompiledFilter b;
  b.column_ = &column;
  b.column_index_ = column_index;
  b.filter_ = &filter;
  const bool is_dict = column.encoding() == ColumnEncoding::kDict;
  const bool is_int = column.encoding() == ColumnEncoding::kInt64;
  const bool is_dbl = column.encoding() == ColumnEncoding::kDouble;

  if (filter.is_range) {
    const Value& lo = filter.allowed[0];
    const Value& hi = filter.allowed[1];
    if (is_dict) {
      // Map the Value bounds onto a contiguous code range in the sorted
      // dictionary. Non-string bounds resolve by cross-type rank: every
      // string sorts above null/bool/numeric, so a non-string low bound
      // keeps everything and a non-string high bound keeps nothing.
      b.kind_ = Kind::kDictRange;
      b.lo_code_ =
          lo.is_string() ? column.LowerBoundCode(lo.string_value()) : 0;
      b.hi_code_ =
          hi.is_string() ? column.UpperBoundCode(hi.string_value()) : 0;
      if (!hi.is_string()) b.lo_code_ = b.hi_code_;  // empty range
      return b;
    }
    b.kind_ = is_int   ? Kind::kInt64Range
              : is_dbl ? Kind::kDoubleRange
                       : Kind::kGenericRange;
    return b;
  }

  for (const Value& v : filter.allowed) {
    if (v.is_null()) b.null_allowed_ = true;
  }
  if (is_dict) {
    b.kind_ = Kind::kDictSet;
    // Size at least 1 so the kernel's word gather at code 0 (what null
    // rows store) stays in bounds even for a degenerate empty dictionary.
    b.allowed_codes_.assign(
        std::max<size_t>(column.dict().size(), 1) + simd::kCodeSetPadding, 0);
    for (const Value& v : filter.allowed) {
      if (!v.is_string()) continue;  // non-strings never equal a string
      uint32_t code = column.FindCode(v.string_value());
      if (code != ColumnData::kNoCode) b.allowed_codes_[code] = 1;
    }
    return b;
  }
  if (is_int) {
    b.kind_ = Kind::kInt64Set;
    for (const Value& v : filter.allowed) {
      if (v.is_int64()) {
        b.allowed_ints_.insert(v.int64_value());
      } else if (v.is_double()) {
        b.allowed_bits_.insert(PackDoubleBits(v.double_value()));
      }
    }
    return b;
  }
  if (is_dbl) {
    b.kind_ = Kind::kDoubleSet;
    for (const Value& v : filter.allowed) {
      if (v.is_numeric()) b.allowed_bits_.insert(PackDoubleBits(v.AsDouble()));
    }
    return b;
  }
  b.kind_ = Kind::kGenericSet;
  b.allowed_.insert(filter.allowed.begin(), filter.allowed.end());
  return b;
}

Result<std::vector<CompiledFilter>> CompiledFilter::CompileAll(
    const Table& table,
    const std::vector<FilterValuesOp::ColumnFilter>& filters) {
  std::vector<CompiledFilter> compiled;
  for (const FilterValuesOp::ColumnFilter& f : filters) {
    if (f.allowed.empty()) continue;  // no selection = no constraint
    SI_ASSIGN_OR_RETURN(size_t idx, table.schema().RequireIndex(f.column));
    if (f.is_range && f.allowed.size() != 2) {
      return Status::InvalidArgument(
          "range filter on '" + f.column + "' needs exactly 2 bounds, got " +
          std::to_string(f.allowed.size()));
    }
    compiled.push_back(Compile(table.typed_column(idx), idx, f));
  }
  return compiled;
}

Result<std::vector<size_t>> SelectRowsMatching(
    const Table& table, const std::vector<CompiledFilter>& filters,
    const ExecContext& ctx) {
  // A conjunction is one columnar AND pass per compiled filter.
  return SelectByMask(table.num_rows(), ctx,
                      [&](size_t begin, size_t end, uint8_t* sel) {
                        for (const CompiledFilter& f : filters) {
                          f.ApplyColumnar(begin, end, sel);
                        }
                      });
}

Result<TablePtr> FilterValuesOp::Execute(
    const std::vector<TablePtr>& inputs, const ExecContext& ctx) const {
  const TablePtr& input = inputs[0];
  SI_ASSIGN_OR_RETURN(std::vector<CompiledFilter> compiled,
                      CompiledFilter::CompileAll(*input, filters_));
  SI_ASSIGN_OR_RETURN(std::vector<size_t> rows,
                      SelectRowsMatching(*input, compiled, ctx));
  return GatherRows(input, rows, ctx);
}

Result<FilterCompareOp::Cmp> FilterCompareOp::ParseCmp(
    const std::string& text) {
  std::string norm = ToLower(Trim(text));
  if (norm == "eq") return Cmp::kEq;
  if (norm == "ne") return Cmp::kNe;
  if (norm == "lt") return Cmp::kLt;
  if (norm == "le") return Cmp::kLe;
  if (norm == "gt") return Cmp::kGt;
  if (norm == "ge") return Cmp::kGe;
  if (norm == "contains") return Cmp::kContains;
  return Status::InvalidArgument(
      "unknown filter comparator '" + text +
      "' (expected eq|ne|lt|le|gt|ge|contains)");
}

Result<Schema> FilterCompareOp::OutputSchema(
    const std::vector<Schema>& inputs) const {
  if (inputs.size() != 1) {
    return Status::SchemaError("filter_by expects exactly 1 input");
  }
  SI_RETURN_IF_ERROR(inputs[0].RequireIndex(column_).status());
  return inputs[0];
}

Result<TablePtr> FilterCompareOp::Execute(
    const std::vector<TablePtr>& inputs, const ExecContext& ctx) const {
  const TablePtr& input = inputs[0];
  SI_ASSIGN_OR_RETURN(size_t idx, input->schema().RequireIndex(column_));
  const ColumnData& col = input->typed_column(idx);

  if (cmp_ == Cmp::kContains && col.encoding() == ColumnEncoding::kDict) {
    // Evaluate contains once per dictionary entry, then test rows by
    // code through the set kernel (null cells never match).
    std::string needle = literal_.ToString();
    const ColumnData::Dictionary& dict = col.dict();
    std::vector<uint8_t> verdict(
        std::max<size_t>(dict.size(), 1) + simd::kCodeSetPadding, 0);
    for (size_t c = 0; c < dict.size(); ++c) {
      verdict[c] = dict[c].find(needle) != std::string::npos ? 1 : 0;
    }
    const uint32_t* codes = col.codes().data();
    const uint8_t* nulls = col.has_nulls() ? col.nulls().data() : nullptr;
    return SelectRowsColumnar(
        input, ctx, [&](size_t begin, size_t end, uint8_t* sel) {
          simd::AndCodeSet(codes + begin,
                           nulls != nullptr ? nulls + begin : nullptr,
                           /*null_keep=*/false, verdict.data(), sel,
                           end - begin);
        });
  }

  if (cmp_ != Cmp::kContains) {
    // Comparators run on the columnar plan; null cells never match
    // (nulls_compare=false), unlike expression comparisons.
    std::optional<ColumnarCompare> cc = CompileColumnarCompare(
        col, MaskFor(cmp_), literal_, /*nulls_compare=*/false);
    if (cc.has_value()) {
      return SelectRowsColumnar(input, ctx,
                                [&](size_t begin, size_t end, uint8_t* sel) {
                                  cc->Apply(begin, end, sel);
                                });
    }
  }

  // Generic fallback: kGeneric columns, and contains over non-dict
  // encodings.
  return SelectRows(input, ctx, [&](size_t r) -> Result<bool> {
    const Value& v = input->at(r, idx);
    if (v.is_null()) return false;
    if (cmp_ == Cmp::kContains) {
      return v.ToString().find(literal_.ToString()) != std::string::npos;
    }
    int cmp = v.Compare(literal_);
    switch (cmp_) {
      case Cmp::kEq:
        return cmp == 0;
      case Cmp::kNe:
        return cmp != 0;
      case Cmp::kLt:
        return cmp < 0;
      case Cmp::kLe:
        return cmp <= 0;
      case Cmp::kGt:
        return cmp > 0;
      case Cmp::kGe:
        return cmp >= 0;
      case Cmp::kContains:
        break;
    }
    return false;
  });
}


std::string FilterExpressionOp::CacheKey() const {
  return "filter_by(" + Fingerprinter::Field(expr_->ToString()) + ")";
}

std::string FilterValuesOp::CacheKey() const {
  std::string key = "filter_values(";
  for (const ColumnFilter& filter : filters_) {
    key += Fingerprinter::Field(filter.column);
    key += filter.is_range ? "r[" : "v[";
    for (const Value& v : filter.allowed) {
      key += Fingerprinter::FingerprintValueKey(v);
      key += ',';
    }
    key += "];";
  }
  key += ')';
  return key;
}

std::string FilterCompareOp::CacheKey() const {
  return "filter_cmp(" + Fingerprinter::Field(column_) + "," +
         std::to_string(static_cast<int>(cmp_)) + "," +
         Fingerprinter::FingerprintValueKey(literal_) + ")";
}

}  // namespace shareinsights
