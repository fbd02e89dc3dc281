// Unit + property tests for src/lineage: the Table-3 provenance model.

#include <gtest/gtest.h>

#include "lineage/lineage.h"

namespace kathdb::lineage {
namespace {

TEST(LineageTest, LidsAreMonotoneFromOne) {
  LineageStore store;
  EXPECT_EQ(store.NewLid(), 1);
  EXPECT_EQ(store.NewLid(), 2);
  EXPECT_EQ(store.NewLid(), 3);
}

TEST(LineageTest, IngestHasNullParentAndSrcUri) {
  LineageStore store;
  int64_t lid = store.RecordIngest("file://data/movies.csv", "load_data", 1,
                                   LineageDataType::kTable);
  ASSERT_NE(lid, 0);
  auto edges = store.EdgesOf(lid);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_FALSE(edges[0].parent_lid.has_value());
  EXPECT_EQ(edges[0].src_uri, "file://data/movies.csv");
  EXPECT_EQ(edges[0].data_type, LineageDataType::kTable);
  EXPECT_TRUE(store.ParentsOf(lid).empty());
}

TEST(LineageTest, RowDerivationChainsToSource) {
  LineageStore store;
  int64_t src = store.RecordIngest("s3://bucket/img.png", "ingest", 1,
                                   LineageDataType::kTable);
  int64_t a = store.RecordRowDerivation(src, "gen_excitement_score", 1);
  int64_t b = store.RecordRowDerivation(a, "combine_score", 1);
  ASSERT_NE(b, 0);
  EXPECT_EQ(store.ParentsOf(b), std::vector<int64_t>{a});
  auto chain = store.TraceToSources(b);
  // b<-a, a<-src, src<-external: 3 edges.
  ASSERT_EQ(chain.size(), 3u);
  bool found_source = false;
  for (const auto& e : chain) {
    if (e.src_uri == "s3://bucket/img.png") found_source = true;
  }
  EXPECT_TRUE(found_source);
}

TEST(LineageTest, TableDerivationOneEdgePerParent) {
  LineageStore store;
  int64_t p1 = store.RecordIngest("t1", "load", 1, LineageDataType::kTable);
  int64_t p2 = store.RecordIngest("t2", "load", 1, LineageDataType::kTable);
  int64_t join = store.RecordTableDerivation({p1, p2},
                                             "join_text_scene_graph", 1);
  auto edges = store.EdgesOf(join);
  ASSERT_EQ(edges.size(), 2u);  // Figure 2: lid 1274 has two parent rows
  EXPECT_EQ(edges[0].lid, edges[1].lid);
  auto parents = store.ParentsOf(join);
  ASSERT_EQ(parents.size(), 2u);
}

TEST(LineageTest, TableDerivationWithNoParents) {
  LineageStore store;
  int64_t lid = store.RecordTableDerivation({}, "synth", 1);
  ASSERT_NE(lid, 0);
  EXPECT_EQ(store.EdgesOf(lid).size(), 1u);
  EXPECT_TRUE(store.ParentsOf(lid).empty());
}

TEST(LineageTest, OffModeRecordsNothing) {
  LineageStore store(TrackingMode::kOff);
  EXPECT_EQ(store.RecordIngest("x", "f", 1, LineageDataType::kTable), 0);
  EXPECT_EQ(store.RecordRowDerivation(1, "f", 1), 0);
  EXPECT_EQ(store.RecordTableDerivation({1}, "f", 1), 0);
  EXPECT_EQ(store.num_entries(), 0u);
}

TEST(LineageTest, TableModeDropsRowEdgesKeepsTableEdges) {
  LineageStore store(TrackingMode::kTable);
  EXPECT_EQ(store.RecordRowDerivation(1, "f", 1), 0);
  EXPECT_NE(store.RecordTableDerivation({1}, "f", 1), 0);
}

TEST(LineageTest, SampledModeRecordsApproximatelyTheRate) {
  LineageStore store(TrackingMode::kSampled, 0.25);
  int recorded = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if (store.RecordRowDerivation(1, "f", 1) != 0) ++recorded;
  }
  double rate = static_cast<double>(recorded) / n;
  EXPECT_NEAR(rate, 0.25, 0.05);
}

TEST(LineageTest, TimestampsAreMonotone) {
  LineageStore store;
  store.RecordIngest("a", "f", 1, LineageDataType::kTable);
  store.RecordRowDerivation(1, "g", 1);
  store.RecordRowDerivation(2, "h", 2);
  rel::Table t = store.ToTable();
  ASSERT_EQ(t.num_rows(), 3u);
  for (size_t i = 1; i < t.num_rows(); ++i) {
    EXPECT_GT(t.at(i, 6).AsDouble(), t.at(i - 1, 6).AsDouble());
  }
}

TEST(LineageTest, ToTableMatchesPaperSchema) {
  LineageStore store;
  int64_t src = store.RecordIngest("file://data/x", "load_data", 1,
                                   LineageDataType::kTable);
  store.RecordRowDerivation(src, "gen_excitement_score", 1);
  rel::Table t = store.ToTable();
  // Table 3: Lineage(lid, parent_lid, src_uri, func_id, ver_id, data_type, ts)
  ASSERT_EQ(t.schema().num_columns(), 7u);
  EXPECT_EQ(t.schema().column(0).name, "lid");
  EXPECT_EQ(t.schema().column(1).name, "parent_lid");
  EXPECT_EQ(t.schema().column(2).name, "src_uri");
  EXPECT_EQ(t.schema().column(3).name, "func_id");
  EXPECT_EQ(t.schema().column(4).name, "ver_id");
  EXPECT_EQ(t.schema().column(5).name, "data_type");
  EXPECT_EQ(t.schema().column(6).name, "ts");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_TRUE(t.at(0, 1).is_null());      // ingest: parent NULL
  EXPECT_FALSE(t.at(1, 2).is_null() == false && false);
  EXPECT_TRUE(t.at(1, 2).is_null());      // derived row: src_uri NULL
  EXPECT_EQ(t.at(1, 5).AsString(), "row");
}

TEST(LineageTest, CycleSafeTraversal) {
  // Malformed input (a cycle) must not hang the traversal. Forward parents
  // build one: lid 1 derives from lid 2, and lid 2 from lid 1.
  LineageStore store;
  ASSERT_EQ(store.RecordRowDerivation(2, "f", 1), 1);
  ASSERT_EQ(store.RecordRowDerivation(1, "g", 1), 2);
  auto chain = store.TraceToSources(2);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].lid, 2);
  EXPECT_EQ(chain[1].lid, 1);
}

TEST(LineageTest, ApproxBytesGrowsWithEntries) {
  LineageStore store;
  size_t before = store.ApproxBytes();
  for (int i = 0; i < 100; ++i) {
    store.RecordRowDerivation(i, "some_function_name", 1);
  }
  // 100 edges of column bytes, plus the function name interned once.
  EXPECT_EQ(store.ApproxBytes(),
            before + 100 * LineageStore::kBytesPerEdge +
                std::string("some_function_name").size());
}

// Replays one script of mixed appends into `store`, recording rows either
// one call per row or as one batch per derivation; returns every lid
// handed out, in order.
std::vector<int64_t> RecordScript(LineageStore* store, bool batched) {
  std::vector<int64_t> lids;
  int64_t src = store->RecordIngest("file://t", "load_data", 1,
                                    LineageDataType::kTable);
  lids.push_back(src);
  for (int round = 0; round < 6; ++round) {
    lids.push_back(store->NewLid());  // a gap in the lid column
    std::vector<int64_t> rows;
    for (int r = 0; r < 40 + 7 * round; ++r) {
      rows.push_back(r % 3 == 0 ? 0 : lids[(r * 13) % lids.size()]);
    }
    std::string fn = "fn_" + std::to_string(round % 3);
    if (batched) {
      std::vector<int64_t> out(rows.size(), -1);
      store->RecordRowDerivations(rows.data(), rows.size(), fn, round,
                                  out.data());
      lids.insert(lids.end(), out.begin(), out.end());
    } else {
      for (int64_t parent : rows) {
        lids.push_back(store->RecordRowDerivation(parent, fn, round));
      }
    }
    lids.push_back(store->RecordTableDerivation(
        {src, lids[lids.size() - 1], lids[lids.size() / 2]}, "join", 1));
  }
  return lids;
}

class LineageBatchDifferential
    : public ::testing::TestWithParam<TrackingMode> {};

TEST_P(LineageBatchDifferential, BatchedMatchesPerRow) {
  LineageStore per_row(GetParam(), 0.25);
  LineageStore batched(GetParam(), 0.25);
  std::vector<int64_t> a = RecordScript(&per_row, false);
  std::vector<int64_t> b = RecordScript(&batched, true);
  EXPECT_EQ(a, b);
  EXPECT_EQ(per_row.num_entries(), batched.num_entries());
  EXPECT_EQ(per_row.ToTable().Fingerprint(), batched.ToTable().Fingerprint());
  EXPECT_EQ(per_row.ApproxBytes(), batched.ApproxBytes());
  for (int64_t lid : b) {
    if (lid == 0) continue;
    auto x = per_row.TraceToSources(lid);
    auto y = batched.TraceToSources(lid);
    ASSERT_EQ(x.size(), y.size());
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].lid, y[i].lid);
      EXPECT_EQ(x[i].parent_lid, y[i].parent_lid);
      EXPECT_EQ(x[i].ts, y[i].ts);
    }
  }
  // The first NewLid of the script is a gap: it owns no edge.
  EXPECT_TRUE(batched.EdgesOf(b[1]).empty());
  // Multi-parent table derivations keep their parents in insertion order.
  auto join = batched.EdgesOf(b.back());
  ASSERT_EQ(join.size(), 3u);
  EXPECT_EQ(join[0].parent_lid, b[0]);
  EXPECT_EQ(batched.ParentsOf(b.back()), per_row.ParentsOf(a.back()));
}

INSTANTIATE_TEST_SUITE_P(Modes, LineageBatchDifferential,
                         ::testing::Values(TrackingMode::kRow,
                                           TrackingMode::kSampled),
                         [](const auto& info) {
                           return info.param == TrackingMode::kRow
                                      ? "Row"
                                      : "Sampled";
                         });

TEST(LineageTest, BatchOutputMayAliasParents) {
  LineageStore store;
  int64_t src = store.RecordIngest("s", "load", 1, LineageDataType::kTable);
  std::vector<int64_t> lids = {src, 0, src};
  store.RecordRowDerivations(lids.data(), lids.size(), "f", 1, lids.data());
  EXPECT_EQ(lids, (std::vector<int64_t>{2, 3, 4}));
  EXPECT_EQ(store.ParentsOf(2), std::vector<int64_t>{src});
  EXPECT_TRUE(store.ParentsOf(3).empty());
}

TEST(LineageTest, BatchUnderTableModeRecordsNothing) {
  LineageStore store(TrackingMode::kTable);
  std::vector<int64_t> parents = {1, 2};
  std::vector<int64_t> out = {-1, -1};
  store.RecordRowDerivations(parents.data(), 2, "f", 1, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{0, 0}));
  EXPECT_EQ(store.num_entries(), 0u);
}

TEST(LineageTest, DependencyPatternNames) {
  EXPECT_STREQ(DependencyPatternName(DependencyPattern::kOneToOne),
               "one_to_one");
  EXPECT_STREQ(DependencyPatternName(DependencyPattern::kManyToMany),
               "many_to_many");
}

// Property sweep: every recorded row edge can be traced back to a source.
class LineageDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(LineageDepthSweep, DeepChainsTraceToSource) {
  int depth = GetParam();
  LineageStore store;
  int64_t cur = store.RecordIngest("root", "ingest", 1,
                                   LineageDataType::kTable);
  for (int i = 0; i < depth; ++i) {
    cur = store.RecordRowDerivation(cur, "fn_" + std::to_string(i), 1);
  }
  auto chain = store.TraceToSources(cur);
  EXPECT_EQ(chain.size(), static_cast<size_t>(depth) + 1);
  bool has_root = false;
  for (const auto& e : chain) {
    if (e.src_uri == "root") has_root = true;
  }
  EXPECT_TRUE(has_root);
}

INSTANTIATE_TEST_SUITE_P(Depths, LineageDepthSweep,
                         ::testing::Values(1, 5, 20, 100));

}  // namespace
}  // namespace kathdb::lineage
