/// \file agg_sort_test.cc
/// \brief Differential tests: the columnar aggregate/sort kernels against
/// the row-at-a-time reference (tests/support/row_reference.h).
///
/// Every case runs the SAME logical plan through the chunked operators
/// and through the row reference, and requires the two tables to be
/// byte-identical: schema, cells with their exact types, lineage ids,
/// fingerprints. The shapes sweep key/input types (int, double,
/// dictionary string, bool, type-mixed), NULLs in keys and
/// aggregate inputs, hash-collision-prone multi-key groupings, global
/// aggregates over empty and non-empty inputs, multi-chunk inputs (past
/// kChunkRows), zero-copy view inputs, NaN sort keys and stable-sort
/// ties. Error paths must match too, message for message.

#include "relational/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "relational/table.h"
#include "support/row_reference.h"

namespace kathdb::rel {
namespace {

void ExpectIdentical(const Table& a, const Table& b, const char* label) {
  ASSERT_TRUE(a.schema() == b.schema())
      << label << ": " << a.schema().ToString() << " vs "
      << b.schema().ToString();
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint()) << label;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.row_lid(r), b.row_lid(r)) << label << " row " << r;
    for (size_t c = 0; c < a.schema().num_columns(); ++c) {
      EXPECT_EQ(a.at(r, c).type(), b.at(r, c).type())
          << label << " row " << r << " col " << c;
      EXPECT_EQ(a.at(r, c), b.at(r, c))
          << label << " row " << r << " col " << c;
    }
  }
}

using rowref::Chunked;
using rowref::Rows;

/// Materializes `plan` with builder `Ops`; failures are test failures.
template <typename Ops, typename Plan>
Table RunWith(const TablePtr& input, const Plan& plan) {
  auto r = Ops::Run(plan(Ops{}, input));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : Table();
}

/// Runs `plan` through the row reference and the chunked operators and
/// requires one identical answer.
template <typename Plan>
void ExpectMatchesReference(const TablePtr& input, const Plan& plan) {
  ExpectIdentical(RunWith<Rows>(input, plan), RunWith<Chunked>(input, plan),
                  "row reference vs chunked");
}

/// Error message of `plan` under builder `Ops` (empty if it succeeded).
template <typename Ops, typename Plan>
std::string ErrorWith(const TablePtr& input, const Plan& plan) {
  auto r = Ops::Run(plan(Ops{}, input));
  EXPECT_FALSE(r.ok());
  return r.ok() ? std::string() : r.status().message();
}

auto AggPlan(std::vector<std::string> groups, std::vector<AggSpec> aggs) {
  return [groups = std::move(groups), aggs = std::move(aggs)](auto ops,
                                                              TablePtr t) {
    return ops.Aggregate(ops.SeqScan(std::move(t)), groups, aggs);
  };
}

auto SortPlan(std::vector<SortKey> keys) {
  return [keys = std::move(keys)](auto ops, TablePtr t) {
    return ops.Sort(ops.SeqScan(std::move(t)), keys);
  };
}

/// Deterministic table with every column flavor; rows % kChunkRows != 0
/// so the last chunk is ragged. NULLs land in keys and measures alike.
TablePtr MakeWideTable(size_t rows) {
  Schema schema;
  schema.AddColumn("k_int", DataType::kInt);
  schema.AddColumn("k_str", DataType::kString);
  schema.AddColumn("k_bool", DataType::kBool);
  schema.AddColumn("v_int", DataType::kInt);
  schema.AddColumn("v_dbl", DataType::kDouble);
  schema.AddColumn("v_str", DataType::kString);
  auto t = std::make_shared<Table>("wide", schema);
  static const char* kCats[] = {"alpha", "beta", "gamma", ""};
  uint64_t s = 0x9E3779B97F4A7C15ULL;
  for (size_t i = 0; i < rows; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    Row row;
    row.push_back(s % 11 == 0 ? Value::Null()
                              : Value::Int(static_cast<int64_t>(s % 7)));
    row.push_back(s % 13 == 0 ? Value::Null() : Value::Str(kCats[s % 4]));
    row.push_back(s % 17 == 0 ? Value::Null() : Value::Bool((s & 2) != 0));
    row.push_back(s % 5 == 0
                      ? Value::Null()
                      : Value::Int(static_cast<int64_t>(s % 1000) - 500));
    row.push_back(s % 6 == 0 ? Value::Null()
                             : Value::Double(static_cast<double>(s % 997) /
                                             31.0));
    row.push_back(s % 7 == 0 ? Value::Null()
                             : Value::Str("s" + std::to_string(s % 29)));
    t->AppendRow(std::move(row), static_cast<int64_t>(i + 1));
  }
  return t;
}

std::vector<AggSpec> AllAggs(const std::string& col) {
  return {{AggFn::kCount, "", "n"},
          {AggFn::kSum, col, "sum"},
          {AggFn::kAvg, col, "avg"},
          {AggFn::kMin, col, "min"},
          {AggFn::kMax, col, "max"}};
}

// ---------------------------------------------------------------------------
// Aggregate differentials

TEST(AggDifferential, IntKeyAllAggsOverDouble) {
  ExpectMatchesReference(MakeWideTable(999), AggPlan({"k_int"},
                                                     AllAggs("v_dbl")));
}

TEST(AggDifferential, DictKeyAllAggsOverInt) {
  ExpectMatchesReference(MakeWideTable(999), AggPlan({"k_str"},
                                                     AllAggs("v_int")));
}

TEST(AggDifferential, BoolKeyAllAggsOverString) {
  // SUM/AVG over strings reproduce the row semantics (strings coerce to
  // 0.0); MIN/MAX compare lexicographically.
  ExpectMatchesReference(MakeWideTable(999), AggPlan({"k_bool"},
                                                     AllAggs("v_str")));
}

TEST(AggDifferential, MultiKeyGrouping) {
  ExpectMatchesReference(
      MakeWideTable(999),
      AggPlan({"k_str", "k_int", "k_bool"}, AllAggs("v_dbl")));
}

TEST(AggDifferential, GlobalAggregateNoKeys) {
  ExpectMatchesReference(MakeWideTable(500), AggPlan({}, AllAggs("v_dbl")));
}

TEST(AggDifferential, GlobalAggregateOverEmptyInputYieldsOneRow) {
  auto empty = MakeWideTable(0);
  ExpectMatchesReference(empty, AggPlan({}, AllAggs("v_int")));
  auto op = MakeAggregate(MakeSeqScan(empty), {}, AllAggs("v_int"));
  auto r = Materialize(op.get(), "out");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->at(0, 0), Value::Int(0));   // COUNT
  EXPECT_TRUE(r->at(0, 2).is_null());      // AVG of nothing
}

TEST(AggDifferential, GroupedAggregateOverEmptyInputYieldsNoRows) {
  ExpectMatchesReference(MakeWideTable(0),
                         AggPlan({"k_int"}, AllAggs("v_dbl")));
}

TEST(AggDifferential, MultiChunkInput) {
  // > 2 chunks of kChunkRows with a ragged tail.
  ExpectMatchesReference(MakeWideTable(2 * kChunkRows + 777),
                         AggPlan({"k_str", "k_int"}, AllAggs("v_dbl")));
}

TEST(AggDifferential, ViewInputSharesParentBuffers) {
  auto full = MakeWideTable(2000);
  auto view = std::make_shared<Table>(full->Slice(311, 1777));
  ASSERT_TRUE(view->is_view());
  ExpectMatchesReference(view, AggPlan({"k_str"}, AllAggs("v_int")));
}

TEST(AggDifferential, MixedEncodingColumn) {
  Schema schema;
  schema.AddColumn("k", DataType::kString);
  schema.AddColumn("v", DataType::kString);
  auto t = std::make_shared<Table>("mixed", schema);
  t->AppendRow({Value::Int(1), Value::Int(10)});
  t->AppendRow({Value::Str("one"), Value::Double(2.5)});  // demote both
  t->AppendRow({Value::Int(1), Value::Str("zzz")});
  t->AppendRow({Value::Null(), Value::Bool(true)});
  t->AppendRow({Value::Str("one"), Value::Null()});
  ExpectMatchesReference(t, AggPlan({"k"}, AllAggs("v")));
}

TEST(AggDifferential, OutputRowsCarryNoLineage) {
  auto t = MakeWideTable(200);
  auto plan = AggPlan({"k_int"}, AllAggs("v_dbl"));
  for (const Table& r : {RunWith<Rows>(t, plan), RunWith<Chunked>(t, plan)}) {
    ASSERT_GT(r.num_rows(), 0u);
    for (size_t i = 0; i < r.num_rows(); ++i) EXPECT_EQ(r.row_lid(i), 0);
  }
}

TEST(AggDifferential, UnknownColumnErrorsMatchWordForWord) {
  auto t = MakeWideTable(10);
  auto bad_group = AggPlan({"nope"}, AllAggs("v_dbl"));
  EXPECT_EQ(ErrorWith<Rows>(t, bad_group), ErrorWith<Chunked>(t, bad_group));
  auto bad_agg = AggPlan({"k_int"}, {{AggFn::kSum, "gone", "s"}});
  EXPECT_EQ(ErrorWith<Rows>(t, bad_agg), ErrorWith<Chunked>(t, bad_agg));
}

// ---------------------------------------------------------------------------
// Sort differentials

TEST(SortDifferential, SingleIntKeyAscending) {
  ExpectMatchesReference(MakeWideTable(999), SortPlan({{"v_int", false}}));
}

TEST(SortDifferential, MultiKeyMixedDirections) {
  ExpectMatchesReference(
      MakeWideTable(999),
      SortPlan({{"k_str", false}, {"v_dbl", true}, {"v_int", false}}));
}

TEST(SortDifferential, DictKeyDescendingPreservesLids) {
  auto t = MakeWideTable(500);
  ExpectMatchesReference(t, SortPlan({{"v_str", true}}));
  auto op = MakeSort(MakeSeqScan(t), {{"v_str", true}});
  auto r = Materialize(op.get(), "out");
  ASSERT_TRUE(r.ok());
  bool any_lid = false;
  for (size_t i = 0; i < r->num_rows(); ++i) any_lid |= r->row_lid(i) != 0;
  EXPECT_TRUE(any_lid);  // sort is order-only: input lineage rides along
}

TEST(SortDifferential, StableTiesKeepInputOrder) {
  // k_bool has 2 distinct non-NULL values over 999 rows: nearly every
  // comparison ties, so any instability would reorder lids.
  ExpectMatchesReference(MakeWideTable(999), SortPlan({{"k_bool", false}}));
}

TEST(SortDifferential, NaNAndInfinityKeys) {
  Schema schema;
  schema.AddColumn("d", DataType::kDouble);
  schema.AddColumn("tag", DataType::kInt);
  auto t = std::make_shared<Table>("nan", schema);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  int64_t tag = 0;
  for (double d : {1.5, nan, -inf, 0.0, inf, nan, -0.0, 2.5}) {
    t->AppendRow({Value::Double(d), Value::Int(tag)},
                 /*lid=*/tag + 1);
    ++tag;
  }
  t->AppendRow({Value::Null(), Value::Int(tag)}, tag + 1);
  ExpectMatchesReference(t, SortPlan({{"d", false}}));
  ExpectMatchesReference(t, SortPlan({{"d", true}}));
}

TEST(SortDifferential, MixedEncodingKeyColumn) {
  Schema schema;
  schema.AddColumn("k", DataType::kString);
  auto t = std::make_shared<Table>("mixed", schema);
  t->AppendRow({Value::Int(5)});
  t->AppendRow({Value::Str("five")});
  t->AppendRow({Value::Double(4.5)});
  t->AppendRow({Value::Null()});
  t->AppendRow({Value::Bool(true)});
  t->AppendRow({Value::Int(-3)});
  ExpectMatchesReference(t, SortPlan({{"k", false}}));
  ExpectMatchesReference(t, SortPlan({{"k", true}}));
}

TEST(SortDifferential, MultiChunkViewInput) {
  auto full = MakeWideTable(2 * kChunkRows + 333);
  auto view = std::make_shared<Table>(full->Slice(100, 2 * kChunkRows));
  ASSERT_TRUE(view->is_view());
  ExpectMatchesReference(view,
                         SortPlan({{"v_dbl", true}, {"k_str", false}}));
}

TEST(SortDifferential, EmptyInput) {
  ExpectMatchesReference(MakeWideTable(0), SortPlan({{"v_int", false}}));
}

TEST(SortDifferential, UnknownColumnErrorsMatchWordForWord) {
  auto t = MakeWideTable(10);
  auto plan = SortPlan({{"missing", false}});
  EXPECT_EQ(ErrorWith<Rows>(t, plan), ErrorWith<Chunked>(t, plan));
}

TEST(SortDifferential, DescribeMatchesRowKernel) {
  auto t = MakeWideTable(5);
  auto sort = SortPlan({{"v_int", true}, {"k_str", false}});
  EXPECT_EQ(sort(Rows{}, t)->Describe(), sort(Chunked{}, t)->Describe());
  auto agg = AggPlan({"k_int"}, AllAggs("v_dbl"));
  EXPECT_EQ(agg(Rows{}, t)->Describe(), agg(Chunked{}, t)->Describe());
}

}  // namespace
}  // namespace kathdb::rel
