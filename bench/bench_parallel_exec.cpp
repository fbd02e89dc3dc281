// Intra-query parallelism research question — the ROADMAP north star is
// "as fast as the hardware allows": how much wall-clock does DAG-parallel
// node scheduling plus morsel-partitioned FAO evaluation buy a single
// heavy multi-branch query, and does it stay byte-for-byte equivalent to
// sequential execution?
//
// Drives a hand-built physical plan with kBranches independent
// keyword-scoring branches over one shared base selection (the shape the
// planner produces when a query ranks by several criteria at once)
// through engine::Executor across a workers x morsel-size grid, and
// checks three invariants against the sequential reference:
//   - every branch output and the final table are byte-identical,
//   - the lineage store records the same number of derivations,
//   - with a result cache attached, the warm-run hit rate is unchanged
//     (morsel partitioning is a function of morsel size, never workers).
// Acceptance target: >= 2x wall-clock speedup at 4 workers vs 1.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "engine/executor.h"
#include "engine/scheduler.h"
#include "relational/expr.h"
#include "relational/ops.h"
#include "relational/table.h"
#include "service/result_cache.h"
#include "support/row_reference.h"

using namespace kathdb;         // NOLINT
using namespace kathdb::bench;  // NOLINT

namespace {

constexpr int kCorpusMovies = 48;
// Six vision branches (latency-bound: each poster costs a simulated
// model round trip) plus two keyword branches (CPU-bound embedding
// work) — the mixed shape a query ranking by several criteria produces.
constexpr int kVisionBranches = 6;
constexpr int kKeywordBranches = 2;
constexpr int kBranches = kVisionBranches + kKeywordBranches;
constexpr double kVisionLatencyMs = 2.0;  // per-poster model round trip

const char* const kBranchKeywords[kKeywordBranches][3] = {
    {"explosion", "chase", "fight"},
    {"love", "wedding", "romance"},
};

/// kBranches independent branches fanning out of one shared selection,
/// joined back by a barrier node that depends on all of them.
opt::PhysicalPlan MultiBranchPlan() {
  opt::PhysicalPlan plan;
  {
    opt::PhysicalNode sel;
    sel.sig.name = "select_base";
    sel.sig.inputs = {"movie_table"};
    sel.sig.output = "px_base";
    sel.spec.name = "select_base";
    sel.spec.template_id = "sql";
    sel.spec.params.Set(
        "query", Json::Str("SELECT mid, title, year, did, vid FROM "
                           "movie_table"));
    sel.spec.dependency_pattern = "one_to_one";
    plan.nodes.push_back(std::move(sel));
  }
  std::vector<std::string> branch_outputs;
  for (int b = 0; b < kVisionBranches; ++b) {
    opt::PhysicalNode node;
    node.sig.name = "classify_lens_" + std::to_string(b);
    node.sig.inputs = {"px_base"};
    node.sig.output = "px_branch_" + std::to_string(b);
    node.spec.name = node.sig.name;
    node.spec.template_id = "classify_boring_pixels";
    node.spec.params.Set("vid_column", Json::Str("vid"));
    node.spec.params.Set("output_column",
                         Json::Str("b" + std::to_string(b) + "_poster"));
    // Distinct thresholds: every lens computes a genuinely different
    // classification, so branch outputs cannot be cross-cached.
    node.spec.params.Set("variance_threshold",
                         Json::Double(0.040 + 0.005 * b));
    node.spec.params.Set("latency_ms_per_image",
                         Json::Double(kVisionLatencyMs));
    node.spec.dependency_pattern = "one_to_one";
    branch_outputs.push_back(node.sig.output);
    plan.nodes.push_back(std::move(node));
  }
  for (int k = 0; k < kKeywordBranches; ++k) {
    int b = kVisionBranches + k;
    opt::PhysicalNode node;
    node.sig.name = "gen_keyword_" + std::to_string(k);
    node.sig.inputs = {"px_base"};
    node.sig.output = "px_branch_" + std::to_string(b);
    node.spec.name = node.sig.name;
    node.spec.template_id = "keyword_similarity_score";
    Json kw = Json::Array();
    for (const char* w : kBranchKeywords[k]) kw.Append(Json::Str(w));
    node.spec.params.Set("keywords", std::move(kw));
    node.spec.params.Set("did_column", Json::Str("did"));
    node.spec.params.Set("output_column",
                         Json::Str("s" + std::to_string(k) + "_score"));
    node.spec.dependency_pattern = "one_to_one";
    branch_outputs.push_back(node.sig.output);
    plan.nodes.push_back(std::move(node));
  }
  {
    // Barrier: consumes every branch (the deps force all of them to
    // finish) and ranks one of them; all branch outputs stay
    // materialized in the catalog for the equivalence check.
    opt::PhysicalNode fin;
    fin.sig.name = "rank_films";
    fin.sig.inputs = branch_outputs;
    fin.sig.output = "px_ranked";
    fin.spec.name = "rank_films";
    fin.spec.template_id = "sql";
    fin.spec.params.Set(
        "query", Json::Str("SELECT * FROM px_branch_" +
                           std::to_string(kVisionBranches) +
                           " ORDER BY s0_score DESC"));
    fin.spec.dependency_pattern = "many_to_one";
    plan.nodes.push_back(std::move(fin));
  }
  plan.final_output = "px_ranked";
  plan.BuildEdges();
  return plan;
}

struct RunResult {
  double wall_ms = 0.0;
  std::vector<rel::Table> branch_tables;
  rel::Table final_table;
  size_t lineage_entries = 0;
  double warm_hit_rate = 0.0;
};

RunResult RunOnce(int workers, size_t morsel_size, bool with_cache) {
  BenchDb b = MakeIngestedDb(kCorpusMovies);
  opt::PhysicalPlan plan = MultiBranchPlan();

  service::ResultCache cache;
  common::ThreadPool pool(workers);
  engine::ExecutorOptions opts;
  opts.max_parallel_nodes = workers;
  opts.morsel_size = morsel_size;
  engine::Executor executor(b.db->llm(), b.db->registry(), nullptr, opts);

  fao::ExecContext ctx = b.db->MakeContext();
  ctx.exec_pool = workers > 1 ? &pool : nullptr;
  if (with_cache) ctx.result_cache = &cache;

  auto t0 = std::chrono::steady_clock::now();
  auto report = executor.Run(plan, &ctx);
  auto t1 = std::chrono::steady_clock::now();
  if (!report.ok()) {
    std::fprintf(stderr, "plan execution failed: %s\n",
                 report.status().ToString().c_str());
    std::abort();
  }

  RunResult out;
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  for (int br = 0; br < kBranches; ++br) {
    auto t = ctx.catalog->Get("px_branch_" + std::to_string(br));
    if (!t.ok()) std::abort();
    out.branch_tables.push_back(*t.value());
  }
  out.final_table = *report->result;
  out.lineage_entries = b.db->lineage()->num_entries();

  if (with_cache) {
    // Warm re-run: every cacheable evaluation must hit, and the rate
    // must not depend on the worker count.
    auto before = cache.stats();
    auto warm = executor.Run(plan, &ctx);
    if (!warm.ok()) std::abort();
    auto after = cache.stats();
    int64_t lookups =
        (after.hits + after.misses) - (before.hits + before.misses);
    out.warm_hit_rate =
        lookups > 0
            ? static_cast<double>(after.hits - before.hits) / lookups
            : 0.0;
  }
  return out;
}

bool SameValues(const rel::Table& a, const rel::Table& b) {
  if (a.num_rows() != b.num_rows() ||
      a.schema().num_columns() != b.schema().num_columns()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.schema().num_columns(); ++c) {
      if (a.at(r, c).ToString() != b.at(r, c).ToString()) return false;
    }
  }
  return true;
}

bool Equivalent(const RunResult& ref, const RunResult& run) {
  if (!SameValues(ref.final_table, run.final_table)) return false;
  for (int br = 0; br < kBranches; ++br) {
    if (!SameValues(ref.branch_tables[br], run.branch_tables[br])) {
      return false;
    }
  }
  return ref.lineage_entries == run.lineage_entries;
}

void PrintScalingTable() {
  std::printf(
      "=== parallel exec: %d-branch plan over %d movies (DAG scheduling "
      "x morsels) ===\n",
      kBranches, kCorpusMovies);
  std::printf("%-9s %-12s %-12s %-12s %-10s %-10s\n", "workers",
              "morsel_size", "wall_ms", "speedup", "identical",
              "hit_rate");
  double base_ms = 0.0;
  double speedup_4w = 0.0;
  RunResult ref;  // workers=1, morsel 0: the sequential reference
  for (size_t morsel : {size_t{0}, size_t{8}}) {
    for (int workers : {1, 2, 4}) {
      RunResult r = RunOnce(workers, morsel, /*with_cache=*/true);
      if (workers == 1 && morsel == 0) {
        base_ms = r.wall_ms;
        ref = r;
      }
      bool same = Equivalent(ref, r);
      double speedup = base_ms > 0 ? base_ms / r.wall_ms : 0.0;
      if (workers == 4 && speedup > speedup_4w) speedup_4w = speedup;
      std::printf("%-9d %-12zu %-12.1f %-12.2f %-10s %-10.2f\n", workers,
                  morsel, r.wall_ms, speedup, same ? "yes" : "NO",
                  r.warm_hit_rate);
      if (!same) {
        std::fprintf(stderr,
                     "equivalence violated at workers=%d morsel=%zu\n",
                     workers, morsel);
        std::abort();
      }
    }
  }
  std::printf("speedup at 4 workers: %.2fx (target >= 2.0x)\n\n",
              speedup_4w);
}

// --------------------------------------------------- layout comparison
//
// The morsel grid above answers "what does parallel scheduling buy";
// this point answers "what does the storage layout buy" on the same
// scan+filter shape, so the two speedups stay separable in the JSON:
// layout_speedup here is purely row-vs-columnar, workers fixed at 1.

constexpr size_t kLayoutRows = 200'000;

rel::TablePtr MakeLayoutTable(size_t rows) {
  rel::Schema schema;
  schema.AddColumn("mid", rel::DataType::kInt);
  schema.AddColumn("year", rel::DataType::kInt);
  schema.AddColumn("score", rel::DataType::kDouble);
  auto t = std::make_shared<rel::Table>("facts", schema);
  uint64_t s = 0x9E3779B97F4A7C15ULL;
  for (size_t i = 0; i < rows; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;  // xorshift64
    t->AppendRow({rel::Value::Int(static_cast<int64_t>(i)),
                  rel::Value::Int(1950 + static_cast<int64_t>(s % 75)),
                  rel::Value::Double(static_cast<double>(s % 10000) /
                                     10000.0)},
                 static_cast<int64_t>(i + 1));
  }
  return t;
}

/// score < 0.05 AND year >= 1990 over `table`, built with builder `Ops`
/// (rowref::Rows for the row layout, rowref::Chunked for the columnar one).
template <typename Ops>
typename Ops::Ptr MakeLayoutScanFilter(rel::TablePtr table) {
  auto pred = rel::Expr::Binary(
      rel::BinaryOp::kAnd,
      rel::Expr::Binary(rel::BinaryOp::kLt, rel::Expr::Column("score"),
                        rel::Expr::Literal(rel::Value::Double(0.05))),
      rel::Expr::Binary(rel::BinaryOp::kGe, rel::Expr::Column("year"),
                        rel::Expr::Literal(rel::Value::Int(1990))));
  return Ops::Filter(Ops::SeqScan(std::move(table)), std::move(pred));
}

void BM_LayoutScanFilter(benchmark::State& state) {
  auto facts = MakeLayoutTable(static_cast<size_t>(state.range(0)));
  double row_ms = 0.0;
  double col_ms = 0.0;
  size_t out_rows = 0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    auto by_rows =
        rowref::Rows::Run(MakeLayoutScanFilter<rowref::Rows>(facts));
    auto t1 = std::chrono::steady_clock::now();
    auto by_chunks =
        rowref::Chunked::Run(MakeLayoutScanFilter<rowref::Chunked>(facts));
    auto t2 = std::chrono::steady_clock::now();
    if (!by_rows.ok() || !by_chunks.ok() ||
        by_rows->Fingerprint() != by_chunks->Fingerprint()) {
      std::fprintf(stderr, "layout paths diverged\n");
      std::abort();
    }
    row_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    col_ms += std::chrono::duration<double, std::milli>(t2 - t1).count();
    out_rows = by_chunks->num_rows();
  }
  double iters = static_cast<double>(state.iterations());
  state.counters["row_ms_per_iter"] = row_ms / iters;
  state.counters["columnar_ms_per_iter"] = col_ms / iters;
  state.counters["layout_speedup"] = col_ms > 0 ? row_ms / col_ms : 0.0;
  state.counters["out_rows"] = static_cast<double>(out_rows);
}
BENCHMARK(BM_LayoutScanFilter)
    ->Arg(static_cast<int64_t>(kLayoutRows))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ParallelExec(benchmark::State& state) {
  int workers = static_cast<int>(state.range(0));
  size_t morsel = static_cast<size_t>(state.range(1));
  double hit_rate = 0.0;
  for (auto _ : state) {
    RunResult r = RunOnce(workers, morsel, /*with_cache=*/true);
    hit_rate = r.warm_hit_rate;
    benchmark::DoNotOptimize(r.wall_ms);
  }
  state.counters["workers"] = workers;
  state.counters["morsel_size"] = static_cast<double>(morsel);
  state.counters["warm_hit_rate"] = hit_rate;
}
BENCHMARK(BM_ParallelExec)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({1, 8})
    ->Args({2, 8})
    ->Args({4, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  // The paper-shaped grid (all 6 configs + equivalence checks) only
  // runs for unfiltered invocations; a CI smoke run that filters to a
  // subset of the benchmarks should not pay for — or fail on — the
  // full sweep.
  bool filtered = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_filter", 0) == 0) {
      filtered = true;
    }
  }
  if (!filtered) PrintScalingTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
