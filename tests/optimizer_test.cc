// Unit tests for src/optimizer: coder/profiler/critic, rewrites, cost
// selection.

#include <gtest/gtest.h>

#include "data/movie_dataset.h"
#include "engine/kathdb.h"
#include "optimizer/optimizer.h"
#include "planner/plan_generator.h"

namespace kathdb::opt {
namespace {

using fao::FunctionSignature;
using fao::LogicalPlan;

parser::QueryIntent PaperIntent() {
  parser::QueryIntent intent;
  intent.raw_query = "sort by exciting, boring poster, recent";
  intent.table = "movie_table";
  intent.action = "sort";
  intent.criteria = {{"exciting", "text", "rank", "uncommon scenes", 0.7},
                     {"boring", "image", "filter", "", 1.0},
                     {"recent", "metadata", "rank2", "", 0.3}};
  return intent;
}

LogicalPlan PaperPlan(llm::SimulatedLLM* llm, rel::Catalog* catalog) {
  planner::LogicalPlanGenerator gen(llm, catalog);
  return gen.DraftPlan(PaperIntent(), {});
}

class OptimizerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data::DatasetOptions opts;
    opts.num_movies = 16;
    auto ds = data::GenerateMovieDataset(opts);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::move(ds).value();
    db_ = std::make_unique<engine::KathDB>();
    ASSERT_TRUE(data::IngestDataset(dataset_, db_.get()).ok());
    ctx_ = db_->MakeContext();
  }

  data::MovieDataset dataset_;
  std::unique_ptr<engine::KathDB> db_;
  fao::ExecContext ctx_;
};

// ------------------------------------------------------- logical rewrites

TEST_F(OptimizerFixture, PushdownMovesFilterBeforeScoring) {
  LogicalPlan plan = PaperPlan(db_->llm(), db_->catalog());
  LogicalPlan pushed = QueryOptimizer::PushdownFilter(plan);
  ASSERT_EQ(pushed.nodes.size(), plan.nodes.size());
  // classify/filter come right after the scene join.
  size_t join_idx = 0;
  size_t classify_idx = 0;
  size_t score_idx = 0;
  for (size_t i = 0; i < pushed.nodes.size(); ++i) {
    if (pushed.nodes[i].name == "join_scene_graph") join_idx = i;
    if (pushed.nodes[i].name == "classify_boring") classify_idx = i;
    if (pushed.nodes[i].name == "gen_exciting_score") score_idx = i;
  }
  EXPECT_EQ(classify_idx, join_idx + 1);
  EXPECT_GT(score_idx, classify_idx);
  // Chain is rewired: each node's primary input is the previous output.
  for (size_t i = 1; i < pushed.nodes.size(); ++i) {
    EXPECT_EQ(pushed.nodes[i].inputs[0], pushed.nodes[i - 1].output)
        << pushed.nodes[i].name;
  }
}

TEST_F(OptimizerFixture, PushdownIsNoOpWithoutFilter) {
  LogicalPlan plan;
  FunctionSignature sig;
  sig.name = "select_columns";
  sig.inputs = {"movie_table"};
  sig.output = "out";
  plan.nodes = {sig};
  LogicalPlan same = QueryOptimizer::PushdownFilter(plan);
  EXPECT_EQ(same.nodes.size(), 1u);
}

TEST_F(OptimizerFixture, FusionMergesScoringChain) {
  LogicalPlan plan = PaperPlan(db_->llm(), db_->catalog());
  LogicalPlan fused = QueryOptimizer::FuseScoring(plan);
  EXPECT_EQ(fused.nodes.size(), plan.nodes.size() - 2);
  bool has_fused = false;
  for (const auto& n : fused.nodes) {
    EXPECT_NE(n.name, "gen_recency_score");
    EXPECT_NE(n.name, "combine_scores");
    if (n.name == "gen_scores_fused") has_fused = true;
  }
  EXPECT_TRUE(has_fused);
  // The fused node keeps the chain intact.
  EXPECT_EQ(fused.FinalOutput(), plan.FinalOutput());
}

// ------------------------------------------------- synthesis & selection

TEST_F(OptimizerFixture, OptimizeBindsEveryNode) {
  QueryOptimizer optimizer(db_->llm(), db_->registry());
  LogicalPlan plan = PaperPlan(db_->llm(), db_->catalog());
  auto physical = optimizer.Optimize(plan, PaperIntent(), &ctx_);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  ASSERT_EQ(physical->nodes.size(), plan.nodes.size());
  for (const auto& n : physical->nodes) {
    EXPECT_TRUE(fao::IsKnownTemplate(n.spec.template_id)) << n.sig.name;
    EXPECT_GE(n.spec.ver_id, 1);
    // Every spec is persisted in the registry under its version.
    EXPECT_TRUE(db_->registry()->Version(n.sig.name, n.spec.ver_id).ok());
  }
  EXPECT_EQ(physical->final_output, "films_ranked");
}

TEST_F(OptimizerFixture, KeywordsComeFromTheClarifiedTerm) {
  QueryOptimizer optimizer(db_->llm(), db_->registry());
  LogicalPlan plan = PaperPlan(db_->llm(), db_->catalog());
  auto physical = optimizer.Optimize(plan, PaperIntent(), &ctx_);
  ASSERT_TRUE(physical.ok());
  for (const auto& n : physical->nodes) {
    if (n.sig.name == "gen_exciting_score") {
      ASSERT_TRUE(n.spec.params.Has("keywords"));
      EXPECT_GT(n.spec.params.Get("keywords").size(), 5u);
      EXPECT_EQ(n.spec.params.GetString("output_column"), "exciting_score");
    }
  }
}

TEST_F(OptimizerFixture, RecencyBoundsReadFromData) {
  QueryOptimizer optimizer(db_->llm(), db_->registry());
  LogicalPlan plan = PaperPlan(db_->llm(), db_->catalog());
  auto physical = optimizer.Optimize(plan, PaperIntent(), &ctx_);
  ASSERT_TRUE(physical.ok());
  for (const auto& n : physical->nodes) {
    if (n.sig.name == "gen_recency_score") {
      // Anchors cap the dataset at 1991.
      EXPECT_DOUBLE_EQ(n.spec.params.GetDouble("max_year"), 1991.0);
      EXPECT_LE(n.spec.params.GetDouble("min_year"), 1990.0);
    }
  }
}

TEST_F(OptimizerFixture, CriticFixesInjectedRecencyBug) {
  OptimizerOptions opts;
  opts.inject_recency_bug = true;
  QueryOptimizer optimizer(db_->llm(), db_->registry(), opts);
  LogicalPlan plan = PaperPlan(db_->llm(), db_->catalog());
  auto physical = optimizer.Optimize(plan, PaperIntent(), &ctx_);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  bool checked = false;
  for (const auto& n : physical->nodes) {
    if (n.sig.name == "gen_recency_score") {
      checked = true;
      // The accepted spec has the corrected direction.
      EXPECT_DOUBLE_EQ(n.spec.params.GetDouble("direction"), 1.0);
      EXPECT_NE(n.spec.source_text.find("critic fix"), std::string::npos);
    }
  }
  EXPECT_TRUE(checked);
  // The profile records at least one critic round on that node.
  bool critic_worked = false;
  for (const auto& p : optimizer.profiles()) {
    if (p.node == "gen_recency_score" && p.critic_rounds > 0) {
      critic_worked = true;
    }
  }
  EXPECT_TRUE(critic_worked);
}

TEST_F(OptimizerFixture, AutoModeProfilesThreeClassifyCandidates) {
  QueryOptimizer optimizer(db_->llm(), db_->registry());
  LogicalPlan plan = PaperPlan(db_->llm(), db_->catalog());
  auto physical = optimizer.Optimize(plan, PaperIntent(), &ctx_);
  ASSERT_TRUE(physical.ok());
  int classify_profiles = 0;
  for (const auto& p : optimizer.profiles()) {
    if (p.node == "classify_boring") ++classify_profiles;
  }
  EXPECT_EQ(classify_profiles, 3);
  // With a noiseless VLM the cheap stats implementation wins.
  for (const auto& n : physical->nodes) {
    if (n.sig.name == "classify_boring") {
      EXPECT_EQ(n.spec.template_id, "classify_boring_stats");
    }
  }
}

TEST_F(OptimizerFixture, AutoModePicksCachedSimilarityOnEveryRun) {
  // Both similarity candidates are profiled, but they cost the same model
  // tokens, so their sample runtimes must not decide: the cached one,
  // which never embeds more, wins every time.
  for (int run = 0; run < 20; ++run) {
    QueryOptimizer optimizer(db_->llm(), db_->registry());
    LogicalPlan plan = PaperPlan(db_->llm(), db_->catalog());
    auto physical = optimizer.Optimize(plan, PaperIntent(), &ctx_);
    ASSERT_TRUE(physical.ok()) << physical.status().ToString();
    int profiled = 0;
    for (const auto& p : optimizer.profiles()) {
      if (p.node == "gen_exciting_score") ++profiled;
    }
    EXPECT_EQ(profiled, 2);
    bool checked = false;
    for (const auto& n : physical->nodes) {
      if (n.sig.name == "gen_exciting_score") {
        checked = true;
        EXPECT_EQ(n.spec.template_id, "keyword_similarity_cached")
            << "run " << run;
      }
    }
    EXPECT_TRUE(checked);
  }
}

TEST_F(OptimizerFixture, ForcedImplIsRespected) {
  for (const char* impl : {"stats", "pixels", "cascade"}) {
    OptimizerOptions opts;
    opts.boring_impl = impl;
    QueryOptimizer optimizer(db_->llm(), db_->registry(), opts);
    LogicalPlan plan = PaperPlan(db_->llm(), db_->catalog());
    auto physical = optimizer.Optimize(plan, PaperIntent(), &ctx_);
    ASSERT_TRUE(physical.ok()) << impl << ": "
                               << physical.status().ToString();
    for (const auto& n : physical->nodes) {
      if (n.sig.name == "classify_boring") {
        EXPECT_EQ(n.spec.template_id,
                  std::string("classify_boring_") + impl);
      }
    }
  }
}

TEST_F(OptimizerFixture, FusionOptionProducesFusedPhysicalPlan) {
  OptimizerOptions opts;
  opts.enable_fusion = true;
  QueryOptimizer optimizer(db_->llm(), db_->registry(), opts);
  LogicalPlan plan = PaperPlan(db_->llm(), db_->catalog());
  auto physical = optimizer.Optimize(plan, PaperIntent(), &ctx_);
  ASSERT_TRUE(physical.ok());
  bool fused = false;
  for (const auto& n : physical->nodes) {
    if (n.spec.template_id == "fused_scores") fused = true;
  }
  EXPECT_TRUE(fused);
  EXPECT_EQ(physical->nodes.size(), 8u);  // 10 - 2 merged
}

TEST_F(OptimizerFixture, PlanTextRendersTemplatesAndVersions) {
  QueryOptimizer optimizer(db_->llm(), db_->registry());
  LogicalPlan plan = PaperPlan(db_->llm(), db_->catalog());
  auto physical = optimizer.Optimize(plan, PaperIntent(), &ctx_);
  ASSERT_TRUE(physical.ok());
  std::string text = physical->ToText();
  EXPECT_NE(text.find("classify_boring"), std::string::npos);
  EXPECT_NE(text.find("v1"), std::string::npos);
  EXPECT_NE(text.find("one_to_one"), std::string::npos);
}

}  // namespace
}  // namespace kathdb::opt
