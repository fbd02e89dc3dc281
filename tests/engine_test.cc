// Unit tests for src/engine: executor lineage modes, agentic monitor
// (syntactic self-repair, semantic anomalies), explainer.

#include <gtest/gtest.h>

#include "data/movie_dataset.h"
#include "engine/executor.h"
#include "engine/explainer.h"
#include "engine/kathdb.h"

namespace kathdb::engine {
namespace {

constexpr const char* kPaperQuery =
    "Sort the given films in the table by how exciting they are, but the "
    "poster should be 'boring'";

std::unique_ptr<KathDB> MakeDb(data::DatasetOptions opts,
                               KathDBOptions db_opts = {},
                               data::MovieDataset* out_ds = nullptr) {
  auto ds = data::GenerateMovieDataset(opts);
  EXPECT_TRUE(ds.ok());
  auto db = std::make_unique<KathDB>(db_opts);
  EXPECT_TRUE(data::IngestDataset(ds.value(), db.get()).ok());
  if (out_ds != nullptr) *out_ds = std::move(ds).value();
  return db;
}

Result<QueryOutcome> RunPaper(KathDB* db, llm::ScriptedUser* user) {
  return db->Query(kPaperQuery, user);
}

llm::ScriptedUser PaperUser() {
  return llm::ScriptedUser({"uncommon scenes", "prefer recent movies",
                            "OK"});
}

// ----------------------------------------------------- lineage modes (E6)

TEST(ExecutorLineageTest, RowModeAssignsFreshLidsToResult) {
  data::DatasetOptions opts;
  opts.num_movies = 12;
  auto db = MakeDb(opts);
  auto user = PaperUser();
  auto outcome = RunPaper(db.get(), &user);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_GT(outcome->result.num_rows(), 0u);
  EXPECT_NE(outcome->result.row_lid(0), 0);
  EXPECT_GT(db->lineage()->num_entries(), 50u);
}

TEST(ExecutorLineageTest, OffModeRecordsNothing) {
  data::DatasetOptions opts;
  opts.num_movies = 12;
  KathDBOptions db_opts;
  db_opts.lineage_mode = lineage::TrackingMode::kOff;
  auto db = MakeDb(opts, db_opts);
  auto user = PaperUser();
  auto outcome = RunPaper(db.get(), &user);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(db->lineage()->num_entries(), 0u);
  EXPECT_EQ(outcome->result.row_lid(0), 0);
}

TEST(ExecutorLineageTest, TableModeRecordsOnlyTableEdges) {
  data::DatasetOptions opts;
  opts.num_movies = 12;
  KathDBOptions db_opts;
  db_opts.lineage_mode = lineage::TrackingMode::kTable;
  auto db = MakeDb(opts, db_opts);
  auto user = PaperUser();
  auto outcome = RunPaper(db.get(), &user);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  rel::Table edges = db->lineage()->ToTable();
  for (size_t r = 0; r < edges.num_rows(); ++r) {
    EXPECT_EQ(edges.at(r, 5).AsString(), "table");
  }
}

TEST(ExecutorLineageTest, SampledModeRecordsFewerRowEdges) {
  data::DatasetOptions opts;
  opts.num_movies = 24;
  KathDBOptions row_opts;
  auto row_db = MakeDb(opts, row_opts);
  auto u1 = PaperUser();
  ASSERT_TRUE(RunPaper(row_db.get(), &u1).ok());

  KathDBOptions sampled_opts;
  sampled_opts.lineage_mode = lineage::TrackingMode::kSampled;
  sampled_opts.lineage_sample_rate = 0.1;
  auto sampled_db = MakeDb(opts, sampled_opts);
  auto u2 = PaperUser();
  ASSERT_TRUE(RunPaper(sampled_db.get(), &u2).ok());

  EXPECT_LT(sampled_db->lineage()->num_entries(),
            row_db->lineage()->num_entries());
}

// ------------------------------------------------ syntactic repair (E12)

TEST(MonitorTest, HeicPosterIsRepairedOnTheFly) {
  data::DatasetOptions opts;
  opts.num_movies = 14;
  opts.heic_fraction = 0.5;
  KathDBOptions db_opts;
  db_opts.optimizer.boring_impl = "pixels";  // force the pixel path
  data::MovieDataset ds;
  auto db = MakeDb(opts, db_opts, &ds);
  auto user = PaperUser();
  auto outcome = RunPaper(db.get(), &user);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GE(outcome->report.total_repairs, 1);
  // The repaired function has a bumped version in the registry.
  auto versions = db->registry()->VersionsOf("classify_boring");
  ASSERT_GE(versions.size(), 2u);
  EXPECT_NE(versions.back().source_text.find("rewriter fix"),
            std::string::npos);
  // The loader now supports HEIC.
  EXPECT_TRUE(db->image_loader()->heic_supported());
  // The user was notified about the repair.
  bool notified = false;
  for (const auto& e : user.history()) {
    if (e.question.find("Repaired") != std::string::npos) notified = true;
  }
  EXPECT_TRUE(notified);
}

TEST(MonitorTest, UnrepairableErrorPropagates) {
  // A broken SQL body (unknown table) is a syntactic error the monitor
  // has no recipe for: execution fails with the original diagnosis.
  data::DatasetOptions opts;
  opts.num_movies = 8;
  auto db = MakeDb(opts);
  fao::ExecContext ctx = db->MakeContext();
  opt::PhysicalPlan plan;
  opt::PhysicalNode node;
  node.sig.name = "broken";
  node.sig.inputs = {"movie_table"};
  node.sig.output = "out";
  node.spec.name = "broken";
  node.spec.template_id = "sql";
  node.spec.params.Set("query", Json::Str("SELECT ghost FROM movie_table"));
  plan.nodes.push_back(node);
  plan.final_output = "out";
  llm::ScriptedUser user;
  Executor executor(db->llm(), db->registry(), &user);
  auto report = executor.Run(plan, &ctx);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsSyntacticError());
}

TEST(MonitorTest, RepairExhaustionSurfacesOriginalError) {
  // With the repair budget exhausted (0 attempts) the monitor never gets
  // to wrap or replace the diagnosis: the original decoder error must
  // surface to the caller verbatim.
  data::DatasetOptions opts;
  opts.num_movies = 10;
  opts.heic_fraction = 1.0;
  KathDBOptions db_opts;
  db_opts.optimizer.boring_impl = "pixels";
  db_opts.executor.max_repair_attempts = 0;
  auto db = MakeDb(opts, db_opts);
  auto user = PaperUser();
  auto outcome = RunPaper(db.get(), &user);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsSyntacticError());
  std::string msg = outcome.status().ToString();
  EXPECT_NE(msg.find("heic"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("monitor cannot repair"), std::string::npos) << msg;
}

TEST(MonitorTest, RepairedVersionIsReflectedInNodeRun) {
  data::DatasetOptions opts;
  opts.num_movies = 14;
  opts.heic_fraction = 0.5;
  KathDBOptions db_opts;
  db_opts.optimizer.boring_impl = "pixels";
  auto db = MakeDb(opts, db_opts);
  auto user = PaperUser();
  auto outcome = RunPaper(db.get(), &user);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const NodeRun* classify = nullptr;
  for (const auto& run : outcome->report.node_runs) {
    if (run.name == "classify_boring") classify = &run;
  }
  ASSERT_NE(classify, nullptr);
  ASSERT_GE(classify->repair_attempts, 1);
  // The run records the *patched* version the node finally executed
  // with, i.e. the latest registry version, not the original.
  auto versions = db->registry()->VersionsOf("classify_boring");
  ASSERT_GE(versions.size(), 2u);
  EXPECT_EQ(classify->ver_id, versions.back().ver_id);
  EXPECT_GT(classify->ver_id, versions.front().ver_id);
}

// ------------------------------------------------ semantic anomaly (E11)

TEST(MonitorTest, DuplicatePosterAnomalyEscalatedAndFixed) {
  data::DatasetOptions opts;
  opts.num_movies = 20;
  opts.duplicate_poster_fraction = 0.5;
  auto db = MakeDb(opts);
  llm::ScriptedUser user({"uncommon scenes", "prefer recent movies", "OK",
                          "adjust"});
  auto outcome = RunPaper(db.get(), &user);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GE(outcome->report.total_anomalies, 1);
  // After the fix each vid appears at most once in the join output.
  auto joined = db->catalog()->Get("films_with_image_scene");
  ASSERT_TRUE(joined.ok());
  auto vidx = joined.value()->schema().IndexOf("vid");
  ASSERT_TRUE(vidx.has_value());
  std::set<int64_t> seen;
  for (size_t r = 0; r < joined.value()->num_rows(); ++r) {
    EXPECT_TRUE(seen.insert(joined.value()->at(r, *vidx).AsInt()).second);
  }
}

TEST(MonitorTest, UserCanAcceptAnomaly) {
  data::DatasetOptions opts;
  opts.num_movies = 20;
  opts.duplicate_poster_fraction = 0.5;
  auto db = MakeDb(opts);
  llm::ScriptedUser user({"uncommon scenes", "prefer recent movies", "OK",
                          "accept", "accept", "accept"});
  auto outcome = RunPaper(db.get(), &user);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GE(outcome->report.total_anomalies, 1);
  // Accepted: duplicates remain in the join output.
  auto joined = db->catalog()->Get("films_with_image_scene");
  ASSERT_TRUE(joined.ok());
  auto vidx = joined.value()->schema().IndexOf("vid");
  std::set<int64_t> seen;
  bool duplicate_survived = false;
  for (size_t r = 0; r < joined.value()->num_rows(); ++r) {
    if (!seen.insert(joined.value()->at(r, *vidx).AsInt()).second) {
      duplicate_survived = true;
    }
  }
  EXPECT_TRUE(duplicate_survived);
}

TEST(MonitorTest, ZeroSampleRateDisablesDetection) {
  data::DatasetOptions opts;
  opts.num_movies = 20;
  opts.duplicate_poster_fraction = 0.5;
  KathDBOptions db_opts;
  db_opts.executor.monitor_sample_rate = 0.0;
  auto db = MakeDb(opts, db_opts);
  auto user = PaperUser();
  auto outcome = RunPaper(db.get(), &user);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->report.total_anomalies, 0);
}

TEST(MonitorTest, SampleRateAboveOneInspectsEveryRowOnce) {
  // A rate above 1 must stop at the last row instead of reading past it.
  KathDB db;
  AgenticMonitor monitor(db.llm(), db.registry(), nullptr);
  opt::PhysicalNode node;
  node.sig.name = "join_posters";
  auto join_output = [](const char* second_title, int64_t second_vid) {
    rel::Table t("joined", rel::Schema({{"vid", rel::DataType::kInt},
                                        {"title", rel::DataType::kString}}));
    t.AppendRow({rel::Value::Int(1), rel::Value::Str("Heat")});
    t.AppendRow({rel::Value::Int(second_vid), rel::Value::Str(second_title)});
    return t;
  };
  std::string duplicate =
      monitor.DetectAnomaly(node, join_output("Ronin", 1), 3.0);
  EXPECT_NE(duplicate.find("vid=1"), std::string::npos) << duplicate;
  EXPECT_EQ(monitor.DetectAnomaly(node, join_output("Ronin", 2), 3.0), "");
}

// ------------------------------------------------------------- explainer

TEST(ExplainerTest, CoarseExplanationListsAllSteps) {
  data::DatasetOptions opts;
  opts.num_movies = 10;
  auto db = MakeDb(opts);
  auto user = PaperUser();
  auto outcome = RunPaper(db.get(), &user);
  ASSERT_TRUE(outcome.ok());
  auto text = db->ExplainPipeline();
  ASSERT_TRUE(text.ok());
  for (const auto& node : outcome->physical_plan.nodes) {
    EXPECT_NE(text.value().find(node.sig.name), std::string::npos)
        << node.sig.name;
  }
}

TEST(ExplainerTest, FineExplanationTracesToSources) {
  data::DatasetOptions opts;
  opts.num_movies = 10;
  auto db = MakeDb(opts);
  auto user = PaperUser();
  auto outcome = RunPaper(db.get(), &user);
  ASSERT_TRUE(outcome.ok());
  int64_t lid = outcome->result.row_lid(0);
  auto text = db->ExplainTuple(lid);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text.value().find("external source"), std::string::npos);
  EXPECT_NE(text.value().find("Guilty by Suspicion"), std::string::npos);
  EXPECT_NE(text.value().find("weighted sum"), std::string::npos);
}

TEST(ExplainerTest, ExplainTupleWithoutLineageFails) {
  data::DatasetOptions opts;
  opts.num_movies = 10;
  auto db = MakeDb(opts);
  auto user = PaperUser();
  ASSERT_TRUE(RunPaper(db.get(), &user).ok());
  EXPECT_FALSE(db->ExplainTuple(0).ok());
}

TEST(ExplainerTest, NlDispatchRoutesQuestions) {
  data::DatasetOptions opts;
  opts.num_movies = 10;
  auto db = MakeDb(opts);
  auto user = PaperUser();
  auto outcome = RunPaper(db.get(), &user);
  ASSERT_TRUE(outcome.ok());
  auto coarse = db->AskExplanation("How does the pipeline work?");
  ASSERT_TRUE(coarse.ok());
  EXPECT_NE(coarse.value().find("Pipeline explanation"), std::string::npos);
  int64_t lid = outcome->result.row_lid(0);
  auto fine = db->AskExplanation("explain tuple " + std::to_string(lid));
  ASSERT_TRUE(fine.ok());
  EXPECT_NE(fine.value().find("derivation"), std::string::npos);
  EXPECT_FALSE(db->AskExplanation("sing me a song").ok());
}

TEST(ExplainerTest, NoQueryYetIsNotFound) {
  KathDB db;
  EXPECT_FALSE(db.ExplainPipeline().ok());
  EXPECT_FALSE(db.ExplainTuple(1).ok());
}

// -------------------------------------------------------- report rendering

TEST(ReportTest, TextMentionsRepairsAndRows) {
  ExecutionReport report;
  NodeRun run;
  run.name = "classify_boring";
  run.template_id = "classify_boring_pixels";
  run.ver_id = 2;
  run.output_rows = 14;
  run.repair_attempts = 1;
  report.node_runs.push_back(run);
  report.total_repairs = 1;
  std::string text = report.ToText();
  EXPECT_NE(text.find("classify_boring"), std::string::npos);
  EXPECT_NE(text.find("(repaired)"), std::string::npos);
  EXPECT_NE(text.find("rows=14"), std::string::npos);
}

}  // namespace
}  // namespace kathdb::engine
