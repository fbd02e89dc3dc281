// Back-half vectorization research question — after PR "columnar scan"
// moved the front of the pipeline (scan/filter/project) to chunks, the
// aggregate and sort operators still boxed a Value per cell. How much do
// the chunk-native kernels (hash group-by over typed accumulator arrays,
// index-permutation sort with typed comparators) buy over the row
// kernels on 1M-row inputs, and is the output still byte-identical?
//
// Runs the same plans both ways: through the row-at-a-time reference
// operators (tests/support/row_reference.h) and through the chunked
// rel:: kernels. Every run first checks cell-for-cell identity (lids
// included) on a 20k-row table, aborting otherwise; the 1M-row headline
// table (fingerprint identity + speedup) runs only unfiltered.
// Acceptance target: >= 4x wall-clock speedup each.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "relational/ops.h"
#include "relational/table.h"
#include "support/row_reference.h"

using namespace kathdb::rel;  // NOLINT
using kathdb::rowref::Chunked;
using kathdb::rowref::Rows;

namespace {

constexpr size_t kRows = 1'000'000;
constexpr size_t kCheckRows = 20'000;  // equivalence-checked subset size

/// Deterministic fact table: mid INT, year INT, score DOUBLE, genre
/// STRING (8 distinct values -> dictionary encodes), watched BOOL.
std::shared_ptr<Table> MakeFactTable(size_t rows) {
  Schema schema;
  schema.AddColumn("mid", DataType::kInt);
  schema.AddColumn("year", DataType::kInt);
  schema.AddColumn("score", DataType::kDouble);
  schema.AddColumn("genre", DataType::kString);
  schema.AddColumn("watched", DataType::kBool);
  static const char* kGenres[] = {"action", "comedy", "drama",   "horror",
                                  "romance", "sci-fi", "western", "noir"};
  auto t = std::make_shared<Table>("facts", schema);
  uint64_t s = 0x2545F4914F6CDD1DULL;
  for (size_t i = 0; i < rows; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;  // xorshift64
    int64_t year = 1950 + static_cast<int64_t>(s % 75);
    double score = static_cast<double>(s % 10000) / 10000.0;
    t->AppendRow({Value::Int(static_cast<int64_t>(i)), Value::Int(year),
                  Value::Double(score), Value::Str(kGenres[s % 8]),
                  Value::Bool((s & 1) != 0)},
                 static_cast<int64_t>(i + 1));
  }
  return t;
}

/// GROUP BY genre, year with one aggregate of every function: 600 groups
/// out of 1M rows, dictionary + int keys.
template <typename Ops>
typename Ops::Ptr MakeGroupBy(std::shared_ptr<Table> table) {
  std::vector<AggSpec> aggs = {
      {AggFn::kCount, "", "n"},
      {AggFn::kSum, "score", "sum_score"},
      {AggFn::kAvg, "score", "avg_score"},
      {AggFn::kMin, "score", "min_score"},
      {AggFn::kMax, "mid", "max_mid"},
  };
  return Ops::Aggregate(Ops::SeqScan(std::move(table)), {"genre", "year"},
                        std::move(aggs));
}

/// ORDER BY score DESC, mid ASC: a double key with heavy ties broken by
/// a unique int key, full-width payload carried through.
template <typename Ops>
typename Ops::Ptr MakeOrderBy(std::shared_ptr<Table> table) {
  return Ops::Sort(Ops::SeqScan(std::move(table)),
                   {{"score", true}, {"mid", false}});
}

bool Identical(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() ||
      !(a.schema() == b.schema()) ||
      a.Fingerprint() != b.Fingerprint()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    if (a.row_lid(r) != b.row_lid(r)) return false;
    for (size_t c = 0; c < a.schema().num_columns(); ++c) {
      if (a.at(r, c) != b.at(r, c) ||
          a.at(r, c).type() != b.at(r, c).type()) {
        return false;
      }
    }
  }
  return true;
}

double TimedMs(const std::function<kathdb::Result<Table>()>& run,
               Table* out) {
  auto t0 = std::chrono::steady_clock::now();
  auto r = run();
  auto t1 = std::chrono::steady_clock::now();
  if (!r.ok()) {
    std::fprintf(stderr, "materialize failed: %s\n",
                 r.status().ToString().c_str());
    std::abort();
  }
  *out = std::move(r).value();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// One plan shape, run through the row reference and the chunked kernels.
struct Shape {
  const char* label;
  std::function<kathdb::Result<Table>(std::shared_ptr<Table>)> rows;
  std::function<kathdb::Result<Table>(std::shared_ptr<Table>)> chunked;
};

const Shape kGroupBy = {
    "group-by: Aggregate(genre,year; 5 aggs)",
    [](std::shared_ptr<Table> t) { return Rows::Run(MakeGroupBy<Rows>(t)); },
    [](std::shared_ptr<Table> t) {
      return Chunked::Run(MakeGroupBy<Chunked>(t));
    }};

const Shape kOrderBy = {
    "sort: Sort(score DESC, mid ASC)",
    [](std::shared_ptr<Table> t) { return Rows::Run(MakeOrderBy<Rows>(t)); },
    [](std::shared_ptr<Table> t) {
      return Chunked::Run(MakeOrderBy<Chunked>(t));
    }};

/// Byte-identity of the two paths on a table small enough to compare
/// cell by cell; aborts on any difference.
void CheckIdentity(const Shape& shape) {
  auto check = MakeFactTable(kCheckRows);
  Table by_rows;
  Table by_cols;
  TimedMs([&] { return shape.rows(check); }, &by_rows);
  TimedMs([&] { return shape.chunked(check); }, &by_cols);
  if (!Identical(by_rows, by_cols)) {
    std::fprintf(stderr, "%s: columnar result differs from row result\n",
                 shape.label);
    std::abort();
  }
}

void ComparePipeline(const Shape& shape, double target) {
  auto facts = MakeFactTable(kRows);
  std::printf("=== %s over %zu rows ===\n", shape.label, kRows);
  std::printf("%-10s %-12s %-12s %-10s %-10s\n", "path", "wall_ms",
              "out_rows", "speedup", "identical");
  Table row_out;
  Table col_out;
  double row_ms = TimedMs([&] { return shape.rows(facts); }, &row_out);
  double col_ms = TimedMs([&] { return shape.chunked(facts); }, &col_out);
  bool same = row_out.num_rows() == col_out.num_rows() &&
              row_out.Fingerprint() == col_out.Fingerprint();
  std::printf("%-10s %-12.1f %-12zu %-10s %-10s\n", "row", row_ms,
              row_out.num_rows(), "1.00", "-");
  std::printf("%-10s %-12.1f %-12zu %-10.2f %-10s\n", "columnar", col_ms,
              col_out.num_rows(), row_ms / col_ms, same ? "yes" : "NO");
  std::printf("speedup: %.2fx (target >= %.1fx)\n\n", row_ms / col_ms,
              target);
  if (!same) std::abort();
}

void BM_RowGroupBy(benchmark::State& state) {
  auto facts = MakeFactTable(static_cast<size_t>(state.range(0)));
  size_t out_rows = 0;
  for (auto _ : state) {
    auto r = kGroupBy.rows(facts);
    if (!r.ok()) std::abort();
    out_rows = r->num_rows();
    benchmark::DoNotOptimize(out_rows);
  }
  state.counters["out_rows"] = static_cast<double>(out_rows);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RowGroupBy)
    ->Arg(kCheckRows)
    ->Arg(kRows)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ColumnarGroupBy(benchmark::State& state) {
  auto facts = MakeFactTable(static_cast<size_t>(state.range(0)));
  size_t out_rows = 0;
  for (auto _ : state) {
    auto r = kGroupBy.chunked(facts);
    if (!r.ok()) std::abort();
    out_rows = r->num_rows();
    benchmark::DoNotOptimize(out_rows);
  }
  state.counters["out_rows"] = static_cast<double>(out_rows);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnarGroupBy)
    ->Arg(kCheckRows)
    ->Arg(kRows)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_RowSort(benchmark::State& state) {
  auto facts = MakeFactTable(static_cast<size_t>(state.range(0)));
  size_t out_rows = 0;
  for (auto _ : state) {
    auto r = kOrderBy.rows(facts);
    if (!r.ok()) std::abort();
    out_rows = r->num_rows();
    benchmark::DoNotOptimize(out_rows);
  }
  state.counters["out_rows"] = static_cast<double>(out_rows);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RowSort)
    ->Arg(kCheckRows)
    ->Arg(kRows)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ColumnarSort(benchmark::State& state) {
  auto facts = MakeFactTable(static_cast<size_t>(state.range(0)));
  size_t out_rows = 0;
  for (auto _ : state) {
    auto r = kOrderBy.chunked(facts);
    if (!r.ok()) std::abort();
    out_rows = r->num_rows();
    benchmark::DoNotOptimize(out_rows);
  }
  state.counters["out_rows"] = static_cast<double>(out_rows);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnarSort)
    ->Arg(kCheckRows)
    ->Arg(kRows)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  // The identity checks always run; the 1M-row headline comparison only
  // runs unfiltered (filtered smoke runs should not pay for the full
  // sweep twice).
  bool filtered = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_filter", 0) == 0) {
      filtered = true;
    }
  }
  CheckIdentity(kGroupBy);
  CheckIdentity(kOrderBy);
  if (!filtered) {
    ComparePipeline(kGroupBy, 4.0);
    ComparePipeline(kOrderBy, 4.0);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
