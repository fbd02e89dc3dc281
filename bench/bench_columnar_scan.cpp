// Columnar storage research question — the ROADMAP's "as fast as the
// hardware allows" north star starts at the storage layout: how much does
// the columnar engine (typed column arrays + vectorized predicates +
// selection-vector output assembly) buy over the row-at-a-time volcano
// path on the classical scan+filter shape, and is the output still
// byte-identical, lineage included?
//
// Drives a 1M-row synthetic fact table through SeqScan -> Filter with a
// ~5% selective numeric predicate, run two ways over the same plan: the
// row-at-a-time reference operators (tests/support/row_reference.h, one
// boxed Row per Next()) and the chunked rel:: operators (NextChunk(),
// bulk column appends). Every run first checks on a 20k-row table that
// the two results carry identical cells, lids and fingerprints (aborting
// otherwise); the 1M-row headline table runs only unfiltered.
// Acceptance target: >= 5x wall-clock speedup for the chunked path.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "relational/expr.h"
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

/// score < 0.04 AND year >= 1990: ~2% selective, numeric fast path on the
/// first conjunct, vectorized sub-selection on the second.
ExprPtr ScanPredicate() {
  return Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kLt, Expr::Column("score"),
                   Expr::Literal(Value::Double(0.04))),
      Expr::Binary(BinaryOp::kGe, Expr::Column("year"),
                   Expr::Literal(Value::Int(1990))));
}

template <typename Ops>
typename Ops::Ptr MakeScanFilter(std::shared_ptr<Table> table) {
  return Ops::Filter(Ops::SeqScan(std::move(table)), ScanPredicate());
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

/// Byte-identity of the two paths on a table small enough to compare
/// cell by cell; aborts on any difference.
void CheckIdentity() {
  auto check = MakeFactTable(kCheckRows);
  Table by_rows;
  Table by_chunks;
  TimedMs([&] { return Rows::Run(MakeScanFilter<Rows>(check)); }, &by_rows);
  TimedMs([&] { return Chunked::Run(MakeScanFilter<Chunked>(check)); },
          &by_chunks);
  if (!Identical(by_rows, by_chunks)) {
    std::fprintf(stderr, "columnar result differs from row result\n");
    std::abort();
  }
}

void PrintComparison() {
  auto facts = MakeFactTable(kRows);
  std::printf("=== columnar scan: SeqScan+Filter over %zu rows ===\n", kRows);
  std::printf("%-10s %-12s %-12s %-10s %-10s\n", "path", "wall_ms",
              "out_rows", "speedup", "identical");
  Table row_out;
  Table col_out;
  double row_ms =
      TimedMs([&] { return Rows::Run(MakeScanFilter<Rows>(facts)); },
              &row_out);
  double col_ms =
      TimedMs([&] { return Chunked::Run(MakeScanFilter<Chunked>(facts)); },
              &col_out);
  bool same = row_out.num_rows() == col_out.num_rows() &&
              row_out.Fingerprint() == col_out.Fingerprint();
  std::printf("%-10s %-12.1f %-12zu %-10s %-10s\n", "row", row_ms,
              row_out.num_rows(), "1.00", "-");
  std::printf("%-10s %-12.1f %-12zu %-10.2f %-10s\n", "columnar", col_ms,
              col_out.num_rows(), row_ms / col_ms, same ? "yes" : "NO");
  std::printf("speedup: %.2fx (target >= 5.0x)\n\n", row_ms / col_ms);
  if (!same) std::abort();
}

void BM_RowScanFilter(benchmark::State& state) {
  auto facts = MakeFactTable(static_cast<size_t>(state.range(0)));
  size_t out_rows = 0;
  for (auto _ : state) {
    auto r = Rows::Run(MakeScanFilter<Rows>(facts));
    if (!r.ok()) std::abort();
    out_rows = r->num_rows();
    benchmark::DoNotOptimize(out_rows);
  }
  state.counters["out_rows"] = static_cast<double>(out_rows);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RowScanFilter)
    ->Arg(kCheckRows)
    ->Arg(kRows)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ColumnarScanFilter(benchmark::State& state) {
  auto facts = MakeFactTable(static_cast<size_t>(state.range(0)));
  size_t out_rows = 0;
  for (auto _ : state) {
    auto r = Chunked::Run(MakeScanFilter<Chunked>(facts));
    if (!r.ok()) std::abort();
    out_rows = r->num_rows();
    benchmark::DoNotOptimize(out_rows);
  }
  state.counters["out_rows"] = static_cast<double>(out_rows);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnarScanFilter)
    ->Arg(kCheckRows)
    ->Arg(kRows)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  // The identity check always runs; the 1M-row headline comparison only
  // runs unfiltered (filtered smoke runs should not pay for the full
  // sweep twice).
  bool filtered = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_filter", 0) == 0) {
      filtered = true;
    }
  }
  CheckIdentity();
  if (!filtered) PrintComparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
