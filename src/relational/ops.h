/// \file ops.h
/// \brief Chunk-pulling physical operators over in-memory columnar tables.
///
/// These are KathDB's classical relational operators. FAO function bodies
/// of kind "SQL sub-query" lower to trees of these operators; the optimizer
/// also uses them directly for rewrites such as predicate pushdown. Every
/// operator pulls batches of up to kChunkRows rows from its children;
/// none materializes a row as a vector of Values.
///
/// \ingroup kathdb_relational

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/expr.h"
#include "relational/table.h"

namespace kathdb::rel {

/// Rows produced by one NextChunk() pull: the window [begin, end) of
/// `table`'s rows, optionally narrowed to the rows named by `sel`
/// (table-relative indices; empty = the whole dense window). The table is
/// shared, not copied — a scan chunk is a window over the scanned table
/// itself, and a filter chunk is the same window plus a selection vector.
struct Chunk {
  TablePtr table;
  size_t begin = 0;
  size_t end = 0;
  std::vector<uint32_t> sel;

  size_t size() const { return sel.empty() ? end - begin : sel.size(); }
};

/// Rows per chunk pulled by the vectorized operators (morsel-sized: the
/// working set of a chunk stays cache-resident).
inline constexpr size_t kChunkRows = 2048;

/// \brief Pull-based operator interface: Open / NextChunk / Close.
///
/// One contract for every operator: NextChunk() produces the next batch
/// of rows as a Chunk (a window or selection over a shared table, with
/// the rows' lineage ids riding in the table). Scan, filter, project,
/// the joins, limit and distinct stream; aggregate and sort block on
/// their input at Open().
class Operator {
 public:
  virtual ~Operator() = default;

  virtual Status Open() = 0;
  /// Produces the next batch of rows. Returns false when exhausted; never
  /// produces an empty chunk.
  virtual Result<bool> NextChunk(Chunk* chunk) = 0;
  virtual void Close() = 0;

  /// Output schema, valid after construction.
  virtual const Schema& output_schema() const = 0;

  /// One-line description for EXPLAIN-style rendering.
  virtual std::string Describe() const = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Opens `op`, drains it into a named table with bulk column appends
/// and closes it.
Result<Table> Materialize(Operator* op, const std::string& name);

/// Leaf scan over a materialized table.
OperatorPtr MakeSeqScan(TablePtr table);

/// Keeps rows where `predicate` evaluates to true (NULL drops the row).
OperatorPtr MakeFilter(OperatorPtr child, ExprPtr predicate);

/// Computes `exprs` per row; output columns named `names`. Output column
/// types are inferred from the first produced row (STRING when unknown).
OperatorPtr MakeProject(OperatorPtr child, std::vector<ExprPtr> exprs,
                        std::vector<std::string> names);

/// Equi-join: builds a hash table on `right_col` of the right input and
/// probes it one left chunk at a time with `left_col`. Keys match exactly
/// when `left_col = right_col` is true: NULL keys never match, INT 3
/// matches DOUBLE 3.0, a string never matches a number. Output schema is
/// Concat(left, right, right name); output rows carry the probe lids.
OperatorPtr MakeHashJoin(OperatorPtr left, OperatorPtr right,
                         std::string left_col, std::string right_col,
                         std::string right_prefix = "r");

/// General theta-join: the predicate is evaluated vectorized over blocks
/// of at most kChunkRows left x right pairs, left-major with right rows in
/// input order. Output rows carry the left lids.
OperatorPtr MakeNestedLoopJoin(OperatorPtr left, OperatorPtr right,
                               ExprPtr predicate,
                               std::string right_prefix = "r");

/// Aggregate function tags for MakeAggregate.
enum class AggFn { kCount, kSum, kAvg, kMin, kMax };

struct AggSpec {
  AggFn fn;
  /// Input column; ignored for COUNT(*) (empty name).
  std::string column;
  std::string output_name;
};

/// Hash aggregation grouped by `group_cols` (may be empty = global) over
/// typed accumulator arrays. Groups are keyed by a 64-bit hash of the key
/// cells, in first-seen output order.
OperatorPtr MakeAggregate(OperatorPtr child,
                          std::vector<std::string> group_cols,
                          std::vector<AggSpec> aggs);

struct SortKey {
  std::string column;
  bool descending = false;
};

/// Blocking stable sort: sorts an index permutation over the materialized
/// input with typed key comparators (dictionary columns compare by
/// precomputed code rank) and streams the permutation out as
/// selection-vector chunks.
OperatorPtr MakeSort(OperatorPtr child, std::vector<SortKey> keys);

/// Emits at most `limit` rows and stops pulling its input once they are
/// out.
OperatorPtr MakeLimit(OperatorPtr child, size_t limit);

/// Removes duplicate rows, keeping the first of each. Rows are keyed by
/// the same all-column hash GROUP BY uses, so DISTINCT x and GROUP BY x
/// agree on which rows are duplicates.
OperatorPtr MakeDistinct(OperatorPtr child);

}  // namespace kathdb::rel
