// Tests for the extension features: function version rollback (§4 "safe
// roll-backs"), the cached keyword-similarity physical alternative, and a
// differential property test of the SQL engine against a reference
// evaluator.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/movie_dataset.h"
#include "engine/kathdb.h"
#include "fao/function.h"
#include "fao/registry.h"
#include "sql/engine.h"

namespace kathdb {
namespace {

// ---------------------------------------------------------------- rollback

TEST(RollbackTest, RestoresOldBodyAsNewVersion) {
  fao::FunctionRegistry reg;
  fao::FunctionSpec v1;
  v1.name = "classify_boring";
  v1.template_id = "classify_boring_stats";
  v1.source_text = "original heuristic";
  reg.RegisterNewVersion(v1);
  fao::FunctionSpec v2 = v1;
  v2.template_id = "classify_boring_pixels";
  v2.source_text = "pixel rewrite";
  reg.RegisterNewVersion(v2);

  auto v3 = reg.RollbackTo("classify_boring", 1);
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  EXPECT_EQ(v3.value(), 3);
  // The latest version carries version-1's body; history is intact.
  auto latest = reg.Latest("classify_boring").value();
  EXPECT_EQ(latest.template_id, "classify_boring_stats");
  EXPECT_NE(latest.source_text.find("rolled back from v1"),
            std::string::npos);
  EXPECT_EQ(reg.Version("classify_boring", 2).value().template_id,
            "classify_boring_pixels");
}

TEST(RollbackTest, UnknownTargetsFail) {
  fao::FunctionRegistry reg;
  EXPECT_FALSE(reg.RollbackTo("ghost", 1).ok());
  fao::FunctionSpec v1;
  v1.name = "f";
  v1.template_id = "sql";
  reg.RegisterNewVersion(v1);
  EXPECT_FALSE(reg.RollbackTo("f", 7).ok());
}

TEST(RollbackTest, RepairedFunctionCanBeRolledBack) {
  // After an HEIC repair bumps classify_boring to v2, the user can roll
  // back to v1 (e.g. if they reject the patch), yielding v3 == v1's body.
  data::DatasetOptions opts;
  opts.num_movies = 12;
  opts.heic_fraction = 0.5;
  engine::KathDBOptions db_opts;
  db_opts.optimizer.boring_impl = "pixels";
  auto ds = data::GenerateMovieDataset(opts);
  ASSERT_TRUE(ds.ok());
  engine::KathDB db(db_opts);
  ASSERT_TRUE(data::IngestDataset(ds.value(), &db).ok());
  llm::ScriptedUser user({"uncommon scenes", "recent please", "OK"});
  auto outcome = db.Query(
      "Sort the given films in the table by how exciting they are, but "
      "the poster should be 'boring'",
      &user);
  ASSERT_TRUE(outcome.ok());
  ASSERT_GE(db.registry()->VersionsOf("classify_boring").size(), 2u);
  auto rolled = db.registry()->RollbackTo("classify_boring", 1);
  ASSERT_TRUE(rolled.ok());
  auto latest = db.registry()->Latest("classify_boring").value();
  EXPECT_FALSE(latest.params.GetBool("heic_conversion"));
}

// -------------------------------------------- cached keyword similarity

class CachedSimilarityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::DatasetOptions opts;
    opts.num_movies = 20;
    auto ds = data::GenerateMovieDataset(opts);
    ASSERT_TRUE(ds.ok());
    db_ = std::make_unique<engine::KathDB>();
    ASSERT_TRUE(data::IngestDataset(ds.value(), db_.get()).ok());
    ctx_ = db_->MakeContext();
  }

  fao::FunctionSpec Spec(const std::string& tmpl) {
    fao::FunctionSpec spec;
    spec.name = "gen_score";
    spec.template_id = tmpl;
    Json kw = Json::Array();
    for (const char* k : {"gun", "murder", "chase", "explosion"}) {
      kw.Append(Json::Str(k));
    }
    spec.params.Set("keywords", std::move(kw));
    spec.params.Set("output_column", Json::Str("score"));
    return spec;
  }

  std::unique_ptr<engine::KathDB> db_;
  fao::ExecContext ctx_;
};

TEST_F(CachedSimilarityTest, CachedMatchesPlainExactly) {
  auto base = db_->catalog()->Get("movie_table").value();
  auto plain_fn =
      fao::InstantiateFunction(Spec("keyword_similarity_score")).value();
  auto cached_fn =
      fao::InstantiateFunction(Spec("keyword_similarity_cached")).value();
  auto plain = plain_fn->Execute({base}, &ctx_);
  auto cached = cached_fn->Execute({base}, &ctx_);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(cached.ok());
  // Byte-identical tables: contents, name and per-row lineage ids.
  ASSERT_EQ(plain->num_rows(), cached->num_rows());
  EXPECT_EQ(plain->Fingerprint(), cached->Fingerprint());
  EXPECT_EQ(plain->name(), cached->name());
  for (size_t r = 0; r < plain->num_rows(); ++r) {
    EXPECT_EQ(plain->row_lid(r), cached->row_lid(r)) << "row " << r;
  }
}

TEST_F(CachedSimilarityTest, OptimizerConsidersBothSimilarityImpls) {
  llm::ScriptedUser user({"uncommon scenes", "recent", "OK"});
  auto outcome = db_->Query(
      "Sort the given films in the table by how exciting they are, but "
      "the poster should be 'boring'",
      &user);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // The chosen spec is one of the two equivalent implementations, and the
  // result is correct either way.
  for (const auto& n : outcome->physical_plan.nodes) {
    if (n.sig.name == "gen_exciting_score") {
      EXPECT_TRUE(n.spec.template_id == "keyword_similarity_score" ||
                  n.spec.template_id == "keyword_similarity_cached");
    }
  }
  auto tidx = outcome->result.schema().IndexOf("title");
  ASSERT_TRUE(tidx.has_value());
  EXPECT_EQ(outcome->result.at(0, *tidx).AsString(), "Guilty by Suspicion");
}

// --------------------------------------- SQL differential property test

/// Reference evaluator: manual scan-and-filter over the table, compared
/// against the SQL engine for randomly generated predicates.
class SqlDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlDifferential, FilterCountMatchesReferenceEvaluator) {
  Rng rng(GetParam());
  rel::Catalog catalog;
  auto t = std::make_shared<rel::Table>(
      "data", rel::Schema({{"a", rel::DataType::kInt},
                           {"b", rel::DataType::kInt},
                           {"c", rel::DataType::kDouble}}));
  for (int i = 0; i < 200; ++i) {
    t->AppendRow({rel::Value::Int(rng.NextInt(-20, 20)),
                  rel::Value::Int(rng.NextInt(0, 9)),
                  rel::Value::Double(rng.NextDouble() * 10 - 5)});
  }
  ASSERT_TRUE(catalog.Register(t).ok());
  sql::SqlEngine engine(&catalog);

  for (int trial = 0; trial < 20; ++trial) {
    int64_t x = rng.NextInt(-20, 20);
    int64_t y = rng.NextInt(0, 9);
    double z = rng.NextDouble() * 10 - 5;
    const char* ops[] = {"<", "<=", ">", ">=", "=", "<>"};
    std::string op1 = ops[rng.NextInt(0, 5)];
    std::string op2 = ops[rng.NextInt(0, 5)];
    bool use_or = rng.NextBool(0.5);
    std::string sql = "SELECT COUNT(*) AS n FROM data WHERE (a " + op1 +
                      " " + std::to_string(x) + " " +
                      (use_or ? "OR" : "AND") + " b " + op2 + " " +
                      std::to_string(y) + ") AND c < " +
                      std::to_string(z);
    auto result = engine.Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();

    auto cmp = [](const std::string& op, double lhs, double rhs) {
      if (op == "<") return lhs < rhs;
      if (op == "<=") return lhs <= rhs;
      if (op == ">") return lhs > rhs;
      if (op == ">=") return lhs >= rhs;
      if (op == "=") return lhs == rhs;
      return lhs != rhs;
    };
    int64_t expected = 0;
    for (size_t r = 0; r < t->num_rows(); ++r) {
      double a = t->at(r, 0).AsDouble();
      double b = t->at(r, 1).AsDouble();
      double c = t->at(r, 2).AsDouble();
      bool left = use_or ? (cmp(op1, a, x) || cmp(op2, b, y))
                         : (cmp(op1, a, x) && cmp(op2, b, y));
      if (left && c < z) ++expected;
    }
    EXPECT_EQ(result.value().at(0, 0).AsInt(), expected) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// Differential: GROUP BY aggregate vs manual accumulation.
class GroupByDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupByDifferential, SumPerGroupMatchesReference) {
  Rng rng(GetParam() * 31);
  rel::Catalog catalog;
  auto t = std::make_shared<rel::Table>(
      "data", rel::Schema({{"g", rel::DataType::kInt},
                           {"v", rel::DataType::kDouble}}));
  std::map<int64_t, double> expected_sum;
  std::map<int64_t, int64_t> expected_count;
  for (int i = 0; i < 300; ++i) {
    int64_t g = rng.NextInt(0, 6);
    double v = rng.NextDouble() * 100;
    t->AppendRow({rel::Value::Int(g), rel::Value::Double(v)});
    expected_sum[g] += v;
    ++expected_count[g];
  }
  ASSERT_TRUE(catalog.Register(t).ok());
  sql::SqlEngine engine(&catalog);
  auto result = engine.Execute(
      "SELECT g, COUNT(*) AS n, SUM(v) AS total FROM data GROUP BY g "
      "ORDER BY g");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().num_rows(), expected_sum.size());
  for (size_t r = 0; r < result.value().num_rows(); ++r) {
    int64_t g = result.value().at(r, 0).AsInt();
    EXPECT_EQ(result.value().at(r, 1).AsInt(), expected_count[g]);
    EXPECT_NEAR(result.value().at(r, 2).AsDouble(), expected_sum[g], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupByDifferential,
                         ::testing::Values(11u, 12u, 13u, 14u));

}  // namespace
}  // namespace kathdb
