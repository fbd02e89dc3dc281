// Differential tests for the columnar storage engine: chunked execution
// vs the row-at-a-time reference (tests/support/row_reference.h),
// zero-copy slices, copy-on-write, and encoding-independent fingerprints.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fao/function.h"
#include "common/thread_pool.h"
#include "relational/column.h"
#include "relational/expr.h"
#include "relational/ops.h"
#include "relational/table.h"
#include "service/result_cache.h"
#include "support/row_reference.h"

namespace kathdb::rel {
namespace {

/// Deterministic mixed-type table with NULLs, repeated strings (dict
/// friendly) and per-row lids.
std::shared_ptr<Table> MakeMovies(size_t rows) {
  Schema schema;
  schema.AddColumn("mid", DataType::kInt);
  schema.AddColumn("year", DataType::kInt);
  schema.AddColumn("score", DataType::kDouble);
  schema.AddColumn("genre", DataType::kString);
  schema.AddColumn("watched", DataType::kBool);
  static const char* kGenres[] = {"action", "comedy", "drama", "horror"};
  auto t = std::make_shared<Table>("movies", schema);
  for (size_t i = 0; i < rows; ++i) {
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(i)));
    row.push_back(i % 7 == 3 ? Value::Null()
                             : Value::Int(1950 + static_cast<int64_t>(i % 70)));
    row.push_back(i % 5 == 2 ? Value::Null()
                             : Value::Double((i % 100) / 100.0));
    row.push_back(Value::Str(kGenres[i % 4]));
    row.push_back(Value::Bool(i % 3 == 0));
    t->AppendRow(std::move(row), static_cast<int64_t>(i + 1));
  }
  return t;
}

/// Cell-by-cell equality including value types and per-row lids.
void ExpectIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_TRUE(a.schema() == b.schema())
      << a.schema().ToString() << " vs " << b.schema().ToString();
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.row_lid(r), b.row_lid(r)) << "lid at row " << r;
    for (size_t c = 0; c < a.schema().num_columns(); ++c) {
      Value va = a.at(r, c);
      Value vb = b.at(r, c);
      EXPECT_EQ(va.type(), vb.type()) << "type at (" << r << "," << c << ")";
      EXPECT_EQ(va.ToString(), vb.ToString())
          << "value at (" << r << "," << c << ")";
    }
  }
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

// ------------------------------------------------- ColumnVector encoding

TEST(ColumnVectorTest, EncodingFollowsFirstNonNull) {
  ColumnVector c;
  c.AppendNull();
  c.Append(Value::Int(7));
  EXPECT_EQ(c.encoding(), ColumnEncoding::kInt);
  EXPECT_TRUE(c.Get(0).is_null());
  EXPECT_EQ(c.Get(1).type(), DataType::kInt);
  EXPECT_EQ(c.Get(1).AsInt(), 7);
}

TEST(ColumnVectorTest, MixedTypesDemoteButRoundTrip) {
  ColumnVector c;
  c.Append(Value::Int(1));
  c.Append(Value::Str("two"));
  c.Append(Value::Double(3.5));
  c.AppendNull();
  EXPECT_EQ(c.encoding(), ColumnEncoding::kMixed);
  EXPECT_EQ(c.Get(0).type(), DataType::kInt);
  EXPECT_EQ(c.Get(1).AsString(), "two");
  EXPECT_EQ(c.Get(2).type(), DataType::kDouble);
  EXPECT_TRUE(c.Get(3).is_null());
}

TEST(ColumnVectorTest, DictEncodesRepeatedStrings) {
  ColumnVector c;
  for (int i = 0; i < 100; ++i) {
    c.Append(Value::Str(i % 2 == 0 ? "even" : "odd"));
  }
  EXPECT_EQ(c.encoding(), ColumnEncoding::kDict);
  EXPECT_EQ(c.dict_size(), 2u);
  EXPECT_EQ(c.Get(40).AsString(), "even");
  EXPECT_EQ(c.Get(41).AsString(), "odd");
}

TEST(ColumnVectorTest, AppendRangeRemapsDictCodes) {
  ColumnVector a;
  a.Append(Value::Str("x"));
  a.Append(Value::Str("y"));
  ColumnVector b;
  b.Append(Value::Str("y"));  // "y" gets code 0 here, code 1 in `a`
  b.AppendRange(a, 0, 2);
  EXPECT_EQ(b.Get(1).AsString(), "x");
  EXPECT_EQ(b.Get(2).AsString(), "y");
}

TEST(ColumnVectorTest, HashAtMatchesValueHash) {
  auto t = MakeMovies(64);
  for (size_t c = 0; c < t->schema().num_columns(); ++c) {
    for (size_t r = 0; r < t->num_rows(); ++r) {
      EXPECT_EQ(t->column(c).HashAt(r), t->at(r, c).Hash())
          << "(" << r << "," << c << ")";
    }
  }
}

TEST(ColumnVectorTest, FingerprintIsEncodingIndependent) {
  // Same logical strings stored dict-encoded vs demoted to kMixed: the
  // fingerprint hashes logical cells, not the physical layout.
  ColumnVector dict;
  dict.Append(Value::Str("a"));
  dict.Append(Value::Str("b"));
  dict.Append(Value::Str("a"));
  EXPECT_EQ(dict.encoding(), ColumnEncoding::kDict);
  ColumnVector demoted;
  demoted.Append(Value::Str("a"));
  demoted.Append(Value::Str("b"));
  demoted.Append(Value::Str("a"));
  demoted.Append(Value::Int(0));  // demotes the whole column after the fact
  EXPECT_EQ(demoted.encoding(), ColumnEncoding::kMixed);
  EXPECT_EQ(dict.FingerprintRange(0, 3), demoted.FingerprintRange(0, 3));
  // Numeric cells hash equal across INT and DOUBLE storage when the
  // values compare equal (3 == 3.0), matching Value::Hash.
  ColumnVector ints;
  ints.Append(Value::Int(3));
  ColumnVector doubles;
  doubles.Append(Value::Double(3.0));
  EXPECT_EQ(ints.FingerprintRange(0, 1), doubles.FingerprintRange(0, 1));
}

// ------------------------------------------------------ Table facade

TEST(ColumnarTableTest, RoundTripPreservesTypesAndLids) {
  auto t = MakeMovies(50);
  EXPECT_EQ(t->at(0, 0).type(), DataType::kInt);
  EXPECT_EQ(t->at(0, 2).type(), DataType::kDouble);
  EXPECT_EQ(t->at(0, 3).type(), DataType::kString);
  EXPECT_EQ(t->at(0, 4).type(), DataType::kBool);
  EXPECT_TRUE(t->at(3, 1).is_null());
  EXPECT_TRUE(t->at(2, 2).is_null());
  EXPECT_EQ(t->row_lid(49), 50);
  Row r7 = t->row(7);
  ASSERT_EQ(r7.size(), 5u);
  EXPECT_EQ(r7[0].AsInt(), 7);
}

TEST(ColumnarTableTest, SliceIsZeroCopyView) {
  auto t = MakeMovies(100);
  Table s = t->Slice(10, 30);
  EXPECT_TRUE(s.is_view());
  EXPECT_EQ(s.offset(), 10u);
  EXPECT_EQ(s.num_rows(), 20u);
  // Shares the parent's column buffers: same object identity.
  EXPECT_EQ(&s.column(0), &t->column(0));
  EXPECT_EQ(s.at(0, 0).AsInt(), 10);
  EXPECT_EQ(s.row_lid(0), 11);
  EXPECT_EQ(s.table_lid(), t->table_lid());
}

TEST(ColumnarTableTest, SliceClampsOutOfRangeBounds) {
  auto t = MakeMovies(10);
  EXPECT_EQ(t->Slice(20, 30).num_rows(), 0u);  // begin past the end
  EXPECT_EQ(t->Slice(5, 100).num_rows(), 5u);  // end clamped
  EXPECT_EQ(t->Slice(7, 3).num_rows(), 0u);    // inverted window
  EXPECT_EQ(t->Head(3).num_rows(), 3u);
  EXPECT_EQ(t->Head(3).name(), "movies_sample");
  EXPECT_EQ(t->Head(99).num_rows(), 10u);
}

TEST(ColumnarTableTest, MutatingViewDetachesFromParent) {
  auto t = MakeMovies(10);
  Table s = t->Slice(0, 5);
  s.AppendRow({Value::Int(999), Value::Int(2000), Value::Double(0.5),
               Value::Str("new"), Value::Bool(false)},
              777);
  EXPECT_EQ(s.num_rows(), 6u);
  EXPECT_EQ(s.at(5, 0).AsInt(), 999);
  EXPECT_EQ(s.row_lid(5), 777);
  // Parent untouched.
  EXPECT_EQ(t->num_rows(), 10u);
  EXPECT_EQ(t->at(5, 0).AsInt(), 5);
}

TEST(ColumnarTableTest, CopyOnWritePreservesValueSemantics) {
  auto t = MakeMovies(10);
  Table copy = *t;
  copy.set_row_lid(0, 4242);
  EXPECT_EQ(copy.row_lid(0), 4242);
  EXPECT_EQ(t->row_lid(0), 1);
  copy.AppendRow(t->row(0), 0);
  EXPECT_EQ(copy.num_rows(), 11u);
  EXPECT_EQ(t->num_rows(), 10u);
}

TEST(ColumnarTableTest, AppendSliceAndGatherMatchRowAppends) {
  auto t = MakeMovies(40);
  Table by_rows("a", t->schema());
  for (size_t r = 5; r < 25; ++r) by_rows.AppendRow(t->row(r), t->row_lid(r));
  Table by_slice("a", t->schema());
  by_slice.AppendSlice(*t, 5, 25);
  ExpectIdentical(by_rows, by_slice);

  std::vector<uint32_t> sel = {3, 3, 17, 0, 39};
  Table by_rows2("g", t->schema());
  for (uint32_t r : sel) by_rows2.AppendRow(t->row(r), t->row_lid(r));
  Table by_gather("g", t->schema());
  by_gather.AppendGather(*t, sel.data(), sel.size());
  ExpectIdentical(by_rows2, by_gather);
}

TEST(ColumnarTableTest, AppendSliceFromViewTranslatesOffsets) {
  auto t = MakeMovies(30);
  Table view = t->Slice(10, 25);
  Table out("o", t->schema());
  out.AppendSlice(view, 2, 7);  // rows 12..17 of the parent
  ASSERT_EQ(out.num_rows(), 5u);
  EXPECT_EQ(out.at(0, 0).AsInt(), 12);
  EXPECT_EQ(out.row_lid(4), 17);
}

TEST(ColumnarTableTest, FingerprintSameForViewAndCopy) {
  auto t = MakeMovies(64);
  Table view = t->Slice(16, 48);
  Table copy("copy", t->schema());
  copy.AppendSlice(*t, 16, 48);
  EXPECT_EQ(view.Fingerprint(), copy.Fingerprint());
  EXPECT_NE(view.Fingerprint(), t->Fingerprint());
}

TEST(ColumnarTableTest, ValidateStillCatchesRaggedRows) {
  Schema s({{"a", DataType::kInt}, {"b", DataType::kInt}});
  Table t("rag", s);
  t.AppendRow({Value::Int(1), Value::Int(2)});
  t.AppendRow({Value::Int(3)});
  Status st = t.Validate();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("row 1"), std::string::npos);
}

// -------------------------------------------- chunked vs row execution

/// One plan, written once against the rowref builders and materialized
/// by the chunked operators and by the row-at-a-time reference.
struct OpCase {
  std::string name;
  std::function<Result<Table>(TablePtr)> chunked;
  std::function<Result<Table>(TablePtr)> rows;
};

template <typename Plan>
OpCase Case(std::string name, Plan plan) {
  return {std::move(name),
          [plan](TablePtr t) {
            return rowref::Chunked::Run(plan(rowref::Chunked{}, std::move(t)));
          },
          [plan](TablePtr t) {
            return rowref::Rows::Run(plan(rowref::Rows{}, std::move(t)));
          }};
}

ExprPtr YearFrom1990() {
  return Expr::Binary(BinaryOp::kGe, Expr::Column("year"),
                      Expr::Literal(Value::Int(1990)));
}

ExprPtr MidBelow(int64_t n) {
  return Expr::Binary(BinaryOp::kLt, Expr::Column("mid"),
                      Expr::Literal(Value::Int(n)));
}

std::vector<OpCase> DifferentialCases() {
  std::vector<OpCase> cases;
  cases.push_back(Case("scan", [](auto ops, TablePtr t) {
    return ops.SeqScan(std::move(t));
  }));
  cases.push_back(Case("filter_fast_path", [](auto ops, TablePtr t) {
    // column <cmp> literal over INT: tight-loop select.
    return ops.Filter(ops.SeqScan(std::move(t)), YearFrom1990());
  }));
  cases.push_back(Case("filter_and_or", [](auto ops, TablePtr t) {
    auto pred = Expr::Binary(
        BinaryOp::kOr,
        Expr::Binary(BinaryOp::kAnd,
                     Expr::Binary(BinaryOp::kLt, Expr::Column("score"),
                                  Expr::Literal(Value::Double(0.3))),
                     Expr::Column("watched")),
        Expr::Binary(BinaryOp::kEq, Expr::Column("genre"),
                     Expr::Literal(Value::Str("drama"))));
    return ops.Filter(ops.SeqScan(std::move(t)), pred);
  }));
  cases.push_back(Case("project_exprs", [](auto ops, TablePtr t) {
    std::vector<ExprPtr> exprs;
    exprs.push_back(Expr::Column("mid"));
    exprs.push_back(Expr::Binary(BinaryOp::kAdd, Expr::Column("score"),
                                 Expr::Literal(Value::Double(1.0))));
    exprs.push_back(Expr::Call("upper", {Expr::Column("genre")}));
    exprs.push_back(Expr::Binary(BinaryOp::kAdd, Expr::Column("genre"),
                                 Expr::Literal(Value::Str("!"))));
    return ops.Project(ops.SeqScan(std::move(t)), std::move(exprs),
                       {"mid", "s1", "g", "gx"});
  }));
  cases.push_back(Case("filter_project_stack", [](auto ops, TablePtr t) {
    auto f = ops.Filter(ops.SeqScan(std::move(t)),
                        Expr::Binary(BinaryOp::kGt, Expr::Column("score"),
                                     Expr::Literal(Value::Double(0.25))));
    std::vector<ExprPtr> exprs;
    exprs.push_back(Expr::Column("genre"));
    exprs.push_back(Expr::Binary(BinaryOp::kMul, Expr::Column("mid"),
                                 Expr::Column("mid")));
    auto p = ops.Project(std::move(f), std::move(exprs), {"genre", "mid_sq"});
    return ops.Filter(std::move(p),
                      Expr::Binary(BinaryOp::kNe, Expr::Column("genre"),
                                   Expr::Literal(Value::Str("horror"))));
  }));
  cases.push_back(Case("join_columnar_build", [](auto ops, TablePtr t) {
    // Self-join on genre: exercises the columnar build side, hash
    // collision filtering and Concat schema.
    auto right = ops.Filter(ops.SeqScan(t), MidBelow(6));
    return ops.HashJoin(ops.SeqScan(t), std::move(right), "genre", "genre");
  }));
  cases.push_back(Case("hash_join_int_double_key", [](auto ops, TablePtr t) {
    // INT year probes a DOUBLE key (year * 1.0) with ~4 matches per probe
    // row; NULL years on both sides must never match.
    std::vector<ExprPtr> exprs;
    exprs.push_back(Expr::Binary(BinaryOp::kMul, Expr::Column("year"),
                                 Expr::Literal(Value::Double(1.0))));
    exprs.push_back(Expr::Column("mid"));
    auto right = ops.Project(ops.Filter(ops.SeqScan(t), MidBelow(300)),
                             std::move(exprs), {"y", "rmid"});
    return ops.HashJoin(ops.Filter(ops.SeqScan(t), MidBelow(1000)),
                        std::move(right), "year", "y");
  }));
  cases.push_back(Case("nested_loop_join_wide_left", [](auto ops, TablePtr t) {
    // 3 right rows per left row: pairs and output span many blocks.
    return ops.NestedLoopJoin(
        ops.SeqScan(t), ops.Filter(ops.SeqScan(t), MidBelow(3)),
        Expr::Binary(BinaryOp::kGt, Expr::Column("score"),
                     Expr::Column("r.score")));
  }));
  cases.push_back(Case("nested_loop_join_wide_right", [](auto ops,
                                                         TablePtr t) {
    // Every probe row pairs with more than kChunkRows right rows, so one
    // probe row's pairs split across blocks.
    return ops.NestedLoopJoin(
        ops.Filter(ops.SeqScan(t), MidBelow(3)), ops.SeqScan(t),
        Expr::Binary(BinaryOp::kEq, Expr::Column("genre"),
                     Expr::Column("r.genre")));
  }));
  cases.push_back(Case("aggregate", [](auto ops, TablePtr t) {
    return ops.Aggregate(ops.SeqScan(std::move(t)), {"genre"},
                         {{AggFn::kCount, "", "n"},
                          {AggFn::kAvg, "score", "avg_score"},
                          {AggFn::kMax, "year", "max_year"}});
  }));
  cases.push_back(Case("sort_limit_distinct", [](auto ops, TablePtr t) {
    std::vector<ExprPtr> exprs;
    exprs.push_back(Expr::Column("genre"));
    auto p = ops.Project(ops.SeqScan(std::move(t)), std::move(exprs),
                         {"genre"});
    auto d = ops.Distinct(std::move(p));
    auto s = ops.Sort(std::move(d), {{"genre", false}});
    return ops.Limit(std::move(s), 3);
  }));
  cases.push_back(Case("limit_crosses_filtered_chunks", [](auto ops,
                                                           TablePtr t) {
    // A filtered input arrives as selection vectors; the limit lands
    // inside the second one.
    return ops.Limit(ops.Filter(ops.SeqScan(std::move(t)), YearFrom1990()),
                     kChunkRows + 100);
  }));
  cases.push_back(Case("limit_crosses_scan_windows", [](auto ops,
                                                        TablePtr t) {
    // A scan arrives as dense windows; the limit cuts the second one.
    return ops.Limit(ops.SeqScan(std::move(t)), kChunkRows + 7);
  }));
  cases.push_back(Case("limit_zero", [](auto ops, TablePtr t) {
    return ops.Limit(ops.SeqScan(std::move(t)), 0);
  }));
  cases.push_back(Case("distinct_multi_chunk", [](auto ops, TablePtr t) {
    // Duplicates recur across every chunk; NULL years form their own rows.
    std::vector<ExprPtr> exprs;
    exprs.push_back(Expr::Column("year"));
    exprs.push_back(Expr::Column("watched"));
    auto p = ops.Project(ops.SeqScan(std::move(t)), std::move(exprs),
                         {"year", "watched"});
    return ops.Distinct(std::move(p));
  }));
  return cases;
}

TEST(ChunkedExecutionTest, ByteIdenticalToRowExecution) {
  // Sized to cross several chunk boundaries (kChunkRows = 2048).
  auto t = MakeMovies(3 * kChunkRows + 123);
  for (const auto& c : DifferentialCases()) {
    SCOPED_TRACE(c.name);
    auto by_rows = c.rows(t);
    auto by_chunks = c.chunked(t);
    ASSERT_TRUE(by_rows.ok()) << by_rows.status().ToString();
    ASSERT_TRUE(by_chunks.ok()) << by_chunks.status().ToString();
    ExpectIdentical(by_rows.value(), by_chunks.value());
  }
}

TEST(ChunkedExecutionTest, EmptyInputAndEmptySelection) {
  auto t = MakeMovies(0);
  auto op = MakeFilter(MakeSeqScan(t),
                       Expr::Binary(BinaryOp::kGt, Expr::Column("mid"),
                                    Expr::Literal(Value::Int(0))));
  auto r = Materialize(op.get(), "out");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 0u);

  // Predicate selecting nothing over a non-empty table.
  auto t2 = MakeMovies(100);
  auto op2 = MakeFilter(MakeSeqScan(t2),
                        Expr::Binary(BinaryOp::kLt, Expr::Column("mid"),
                                     Expr::Literal(Value::Int(0))));
  auto r2 = Materialize(op2.get(), "out");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->num_rows(), 0u);
}

TEST(ChunkedExecutionTest, DivisionByZeroSurfacesFromChunkPath) {
  auto t = MakeMovies(10);
  std::vector<ExprPtr> exprs;
  exprs.push_back(Expr::Binary(BinaryOp::kDiv, Expr::Column("mid"),
                               Expr::Literal(Value::Int(0))));
  auto op = MakeProject(MakeSeqScan(t), std::move(exprs), {"bad"});
  auto r = Materialize(op.get(), "out");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("division by zero"),
            std::string::npos);
}

TEST(ChunkedExecutionTest, ShortCircuitHidesErrorsLikeInterpreter) {
  // mid > 0 is false for row 0 only; the rhs divides by `mid`, which is
  // zero exactly on that row. AND must not evaluate the rhs there.
  auto t = MakeMovies(50);
  auto pred = Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kGt, Expr::Column("mid"),
                   Expr::Literal(Value::Int(0))),
      Expr::Binary(BinaryOp::kGt,
                   Expr::Binary(BinaryOp::kDiv, Expr::Literal(Value::Int(100)),
                                Expr::Column("mid")),
                   Expr::Literal(Value::Int(3))));
  auto by_rows = rowref::Rows::Run(rowref::MakeFilter(
      rowref::MakeSeqScan(t), pred));
  auto op_chunks = MakeFilter(MakeSeqScan(t), pred);
  auto by_chunks = Materialize(op_chunks.get(), "out");
  ASSERT_TRUE(by_rows.ok()) << by_rows.status().ToString();
  ASSERT_TRUE(by_chunks.ok()) << by_chunks.status().ToString();
  ExpectIdentical(by_rows.value(), by_chunks.value());
}

// -------------------------------------- morsel + cache differential

TEST(ColumnarCacheTest, FingerprintInvariantAcrossLayouts) {
  auto t = MakeMovies(200);
  // A flattened copy assembled row-at-a-time.
  Table rowwise("movies", t->schema());
  for (size_t r = 0; r < t->num_rows(); ++r) {
    rowwise.AppendRow(t->row(r), t->row_lid(r));
  }
  EXPECT_EQ(service::FingerprintTable(*t),
            service::FingerprintTable(rowwise));
  // A zero-copy view over the full range keys identically too.
  Table view = t->Slice(0, t->num_rows());
  EXPECT_EQ(service::FingerprintTable(*t), service::FingerprintTable(view));
}

TEST(ColumnarCacheTest, MorselEvaluationHitRateUnchanged) {
  // Evaluate a cacheable FAO function sequentially and morsel-parallel;
  // results and warm-run cache hit counts must agree (morsel slices are
  // zero-copy views now, so this also covers view fingerprinting).
  auto t = MakeMovies(64);

  fao::FunctionSpec spec;
  spec.name = "score_keywords";
  spec.template_id = "keyword_similarity_score";
  Json kw = Json::Array();
  kw.Append(Json::Str("action"));
  spec.params.Set("keywords", std::move(kw));
  spec.params.Set("did_column", Json::Str("mid"));
  spec.params.Set("output_column", Json::Str("kw_score"));

  Catalog catalog;  // empty: every did misses, scores stay deterministic
  auto run = [&](size_t morsel_size, common::ThreadPool* pool,
                 service::ResultCache* cache) -> Result<Table> {
    fao::ExecContext ctx;
    ctx.catalog = &catalog;
    ctx.result_cache = cache;
    fao::MorselOptions morsels;
    morsels.morsel_size = morsel_size;
    morsels.pool = pool;
    return fao::EvaluateWithMorsels(spec, {t}, &ctx, morsels);
  };

  service::ResultCache cache_seq;
  auto seq_cold = run(0, nullptr, &cache_seq);
  auto seq_warm = run(0, nullptr, &cache_seq);
  ASSERT_TRUE(seq_cold.ok()) << seq_cold.status().ToString();
  ASSERT_TRUE(seq_warm.ok());

  common::ThreadPool pool(4);
  service::ResultCache cache_par;
  auto par_cold = run(16, &pool, &cache_par);
  auto par_warm = run(16, &pool, &cache_par);
  ASSERT_TRUE(par_cold.ok()) << par_cold.status().ToString();
  ASSERT_TRUE(par_warm.ok());

  ExpectIdentical(seq_cold.value(), seq_warm.value());
  ExpectIdentical(par_cold.value(), par_warm.value());
  // Same cells regardless of morsel partitioning (lids included).
  ExpectIdentical(seq_cold.value(), par_cold.value());

  // Warm hit rate: every morsel (or the whole table) hits on the rerun.
  auto seq_stats = cache_seq.stats();
  auto par_stats = cache_par.stats();
  EXPECT_GT(seq_stats.hits, 0);
  EXPECT_GT(par_stats.hits, 0);
  EXPECT_EQ(seq_stats.hits, seq_stats.insertions);
  EXPECT_EQ(par_stats.hits, par_stats.insertions);
}

}  // namespace
}  // namespace kathdb::rel
