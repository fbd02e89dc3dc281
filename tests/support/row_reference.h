/// \file row_reference.h
/// \brief Row-at-a-time reference operators: the differential oracle for
/// the chunk-pulling rel::Operator tree.
///
/// Each reference operator pulls one boxed Row at a time (Table::row,
/// Expr::Eval) and reproduces its rel:: counterpart's semantics: output
/// schema, cells with their exact types, lineage ids, first-seen and
/// stable orders, and error messages word for word. The differential
/// tests and the row-vs-columnar benches build one plan against both
/// engines through the `Chunked` / `Rows` builders and compare the
/// tables. Test-only: never linked into the kathdb library.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "relational/expr.h"
#include "relational/ops.h"
#include "relational/table.h"

namespace kathdb::rowref {

/// Volcano pull interface: Open / Next / Close, one row per Next().
class RowOperator {
 public:
  virtual ~RowOperator() = default;

  virtual Status Open() = 0;
  /// Produces the next row into *row and its lineage id into *lid (0 when
  /// untracked). Returns false when exhausted.
  virtual Result<bool> Next(rel::Row* row, int64_t* lid) = 0;
  virtual void Close() = 0;
  virtual const rel::Schema& output_schema() const = 0;
  virtual std::string Describe() const = 0;
};

using RowOperatorPtr = std::unique_ptr<RowOperator>;

/// Runs `op` to completion into a named table, one AppendRow per row.
Result<rel::Table> Materialize(RowOperator* op, const std::string& name);

RowOperatorPtr MakeSeqScan(rel::TablePtr table);
RowOperatorPtr MakeFilter(RowOperatorPtr child, rel::ExprPtr predicate);
RowOperatorPtr MakeProject(RowOperatorPtr child,
                           std::vector<rel::ExprPtr> exprs,
                           std::vector<std::string> names);
RowOperatorPtr MakeHashJoin(RowOperatorPtr left, RowOperatorPtr right,
                            std::string left_col, std::string right_col,
                            std::string right_prefix = "r");
RowOperatorPtr MakeNestedLoopJoin(RowOperatorPtr left, RowOperatorPtr right,
                                  rel::ExprPtr predicate,
                                  std::string right_prefix = "r");
RowOperatorPtr MakeAggregate(RowOperatorPtr child,
                             std::vector<std::string> group_cols,
                             std::vector<rel::AggSpec> aggs);
RowOperatorPtr MakeSort(RowOperatorPtr child,
                        std::vector<rel::SortKey> keys);
RowOperatorPtr MakeLimit(RowOperatorPtr child, size_t limit);
RowOperatorPtr MakeDistinct(RowOperatorPtr child);

/// Plan builders with one spelling for both engines, so a plan is written
/// once as a generic lambda and run both ways:
///
///     auto plan = [](auto ops, rel::TablePtr t) {
///       return ops.Limit(ops.SeqScan(t), 3);
///     };
///     auto got = Chunked::Run(plan(Chunked{}, t));
///     auto want = Rows::Run(plan(Rows{}, t));
template <typename OpPtr, typename Api>
struct PlanBuilder {
  using Ptr = OpPtr;

  static Ptr SeqScan(rel::TablePtr t) { return Api::MakeSeqScan(std::move(t)); }
  static Ptr Filter(Ptr child, rel::ExprPtr pred) {
    return Api::MakeFilter(std::move(child), std::move(pred));
  }
  static Ptr Project(Ptr child, std::vector<rel::ExprPtr> exprs,
                     std::vector<std::string> names) {
    return Api::MakeProject(std::move(child), std::move(exprs),
                            std::move(names));
  }
  static Ptr HashJoin(Ptr left, Ptr right, std::string lcol, std::string rcol,
                      std::string right_prefix = "r") {
    return Api::MakeHashJoin(std::move(left), std::move(right),
                             std::move(lcol), std::move(rcol),
                             std::move(right_prefix));
  }
  static Ptr NestedLoopJoin(Ptr left, Ptr right, rel::ExprPtr pred,
                            std::string right_prefix = "r") {
    return Api::MakeNestedLoopJoin(std::move(left), std::move(right),
                                   std::move(pred), std::move(right_prefix));
  }
  static Ptr Aggregate(Ptr child, std::vector<std::string> groups,
                       std::vector<rel::AggSpec> aggs) {
    return Api::MakeAggregate(std::move(child), std::move(groups),
                              std::move(aggs));
  }
  static Ptr Sort(Ptr child, std::vector<rel::SortKey> keys) {
    return Api::MakeSort(std::move(child), std::move(keys));
  }
  static Ptr Limit(Ptr child, size_t limit) {
    return Api::MakeLimit(std::move(child), limit);
  }
  static Ptr Distinct(Ptr child) { return Api::MakeDistinct(std::move(child)); }
  /// Materializes the plan into a table named "out".
  static Result<rel::Table> Run(const Ptr& op) {
    return Api::Materialize(op.get(), "out");
  }
};

/// Forwards to the rel:: factories (the engine under test).
struct ChunkedApi {
  static constexpr auto MakeSeqScan = &rel::MakeSeqScan;
  static constexpr auto MakeFilter = &rel::MakeFilter;
  static constexpr auto MakeProject = &rel::MakeProject;
  static constexpr auto MakeHashJoin = &rel::MakeHashJoin;
  static constexpr auto MakeNestedLoopJoin = &rel::MakeNestedLoopJoin;
  static constexpr auto MakeAggregate = &rel::MakeAggregate;
  static constexpr auto MakeSort = &rel::MakeSort;
  static constexpr auto MakeLimit = &rel::MakeLimit;
  static constexpr auto MakeDistinct = &rel::MakeDistinct;
  static constexpr auto Materialize = &rel::Materialize;
};

/// Forwards to the row reference above.
struct RowApi {
  static constexpr auto MakeSeqScan = &rowref::MakeSeqScan;
  static constexpr auto MakeFilter = &rowref::MakeFilter;
  static constexpr auto MakeProject = &rowref::MakeProject;
  static constexpr auto MakeHashJoin = &rowref::MakeHashJoin;
  static constexpr auto MakeNestedLoopJoin = &rowref::MakeNestedLoopJoin;
  static constexpr auto MakeAggregate = &rowref::MakeAggregate;
  static constexpr auto MakeSort = &rowref::MakeSort;
  static constexpr auto MakeLimit = &rowref::MakeLimit;
  static constexpr auto MakeDistinct = &rowref::MakeDistinct;
  static constexpr auto Materialize = &rowref::Materialize;
};

using Chunked = PlanBuilder<rel::OperatorPtr, ChunkedApi>;
using Rows = PlanBuilder<RowOperatorPtr, RowApi>;

}  // namespace kathdb::rowref
