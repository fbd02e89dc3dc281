// E3 / Figure 2 — example rows of the lineage table for the §6 query.
//
// Reproduces the provenance edges of Figure 2: the ingested base table
// (src_uri, parent NULL), the many-to-many join with table-level edges,
// and the one-to-one scoring function with row-level edges. Then times
// raw lineage-recording throughput.

#include <benchmark/benchmark.h>
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "lineage/lineage.h"

using namespace kathdb;         // NOLINT
using namespace kathdb::bench;  // NOLINT

namespace {

void PrintFigure2() {
  BenchDb b = MakeIngestedDb(30);
  engine::QueryOutcome outcome = RunPaperQuery(b.db.get());

  std::printf("=== Figure 2: example rows of the lineage table ===\n");
  rel::Table lineage_table = b.db->lineage()->ToTable();
  // Paper shows: the scoring row edge, the join table edges, the base
  // table ingest. Select representative rows of each kind.
  rel::Table shown("Lineage", lineage_table.schema());
  auto add_matching = [&](const std::string& func, const std::string& type,
                          int limit) {
    int added = 0;
    for (size_t r = 0; r < lineage_table.num_rows() && added < limit; ++r) {
      if (lineage_table.at(r, 3).ToString() == func &&
          lineage_table.at(r, 5).AsString() == type) {
        shown.AppendRow(lineage_table.row(r));
        ++added;
      }
    }
  };
  add_matching("gen_exciting_score", "row", 1);   // cf. lid 1417
  add_matching("join_text_graph", "table", 2);    // cf. lid 1274 x2 parents
  add_matching("load_data", "table", 1);          // cf. lid 1
  add_matching("populate_scene_graph", "table", 1);
  add_matching("combine_scores", "row", 1);
  std::printf("%s\n", shown.ToText(10).c_str());
  std::printf("Total provenance edges recorded for the query + ingest: "
              "%zu (~%zu KiB)\n\n",
              b.db->lineage()->num_entries(),
              b.db->lineage()->ApproxBytes() / 1024);
}

void BM_RecordRowDerivation(benchmark::State& state) {
  lineage::LineageStore store;
  int64_t parent = store.RecordIngest("bench", "ingest", 1,
                                      lineage::LineageDataType::kTable);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.RecordRowDerivation(parent, "bench_fn", 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordRowDerivation);

// Row edges as the executor records them for the paper query: one
// 6 810-row batch per plan node, cycling over 10 function names. The store
// is replaced (untimed) every 128 batches so memory stays bounded.
void BM_RecordRowDerivations(benchmark::State& state) {
  constexpr size_t kRows = 6810;
  std::vector<std::string> names;
  for (int f = 0; f < 10; ++f) {
    names.push_back("bench_fn_" + std::to_string(f));
  }
  auto store = std::make_unique<lineage::LineageStore>();
  int64_t parent = store->RecordIngest("bench", "ingest", 1,
                                       lineage::LineageDataType::kTable);
  std::vector<int64_t> lids(kRows);
  size_t batches = 0;
  for (auto _ : state) {
    if (++batches % 128 == 0) {
      state.PauseTiming();
      store = std::make_unique<lineage::LineageStore>();
      parent = store->RecordIngest("bench", "ingest", 1,
                                   lineage::LineageDataType::kTable);
      state.ResumeTiming();
    }
    std::fill(lids.begin(), lids.end(), parent);
    store->RecordRowDerivations(lids.data(), kRows,
                                names[batches % names.size()], 1, lids.data());
    benchmark::DoNotOptimize(lids.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_RecordRowDerivations);

void BM_TraceToSources(benchmark::State& state) {
  lineage::LineageStore store;
  int64_t cur = store.RecordIngest("root", "ingest", 1,
                                   lineage::LineageDataType::kTable);
  for (int i = 0; i < state.range(0); ++i) {
    cur = store.RecordRowDerivation(cur, "fn", 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.TraceToSources(cur));
  }
}
BENCHMARK(BM_TraceToSources)->Arg(8)->Arg(64)->Arg(512);

}  // namespace

int main(int argc, char** argv) {
  PrintFigure2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
