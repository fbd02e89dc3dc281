// Unit tests for src/fao: signatures, specs, registry, function templates.

#include <gtest/gtest.h>

#include "fao/function.h"
#include "fao/registry.h"
#include "fao/signature.h"
#include "lineage/lineage.h"
#include "multimodal/scene_graph.h"
#include "multimodal/text_graph.h"

namespace kathdb::fao {
namespace {

using rel::DataType;
using rel::Schema;
using rel::Table;
using rel::TablePtr;
using rel::Value;

// -------------------------------------------------------------- signature

TEST(SignatureTest, Figure3JsonLayout) {
  FunctionSignature sig;
  sig.name = "classify_boring";
  sig.description = "Analyze visual features of each film's poster...";
  sig.inputs = {"films_with_image_scene"};
  sig.output = "films_with_boring_flag";
  Json j = sig.ToJson();
  // Exact layout: nested name/description, sibling inputs/output.
  ASSERT_TRUE(j.Has("signature"));
  EXPECT_EQ(j.Get("signature").GetString("name"), "classify_boring");
  ASSERT_TRUE(j.Has("inputs"));
  EXPECT_EQ(j.Get("inputs").at(0).AsString(), "films_with_image_scene");
  EXPECT_EQ(j.GetString("output"), "films_with_boring_flag");

  auto parsed = FunctionSignature::FromJson(j);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().name, sig.name);
  EXPECT_EQ(parsed.value().inputs, sig.inputs);
}

TEST(SignatureTest, FromJsonToleratesFlatLayout) {
  auto j = Json::Parse(R"({"name":"f","description":"d","output":"o"})");
  ASSERT_TRUE(j.ok());
  auto sig = FunctionSignature::FromJson(j.value());
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig.value().name, "f");
}

TEST(SignatureTest, FromJsonRejectsMissingName) {
  auto j = Json::Parse(R"({"description":"d"})");
  ASSERT_TRUE(j.ok());
  EXPECT_FALSE(FunctionSignature::FromJson(j.value()).ok());
}

TEST(LogicalPlanTest, JsonRoundTripAndFinalOutput) {
  LogicalPlan plan;
  FunctionSignature a;
  a.name = "select";
  a.inputs = {"movie_table"};
  a.output = "sel";
  FunctionSignature b;
  b.name = "rank";
  b.inputs = {"sel"};
  b.output = "ranked";
  plan.nodes = {a, b};
  EXPECT_EQ(plan.FinalOutput(), "ranked");
  EXPECT_EQ(plan.ProducerOf("sel")->name, "select");
  EXPECT_EQ(plan.ProducerOf("ghost"), nullptr);

  auto rt = LogicalPlan::FromJson(plan.ToJson());
  ASSERT_TRUE(rt.ok());
  ASSERT_EQ(rt.value().nodes.size(), 2u);
  EXPECT_EQ(rt.value().nodes[1].output, "ranked");
}

// ------------------------------------------------------------------- spec

TEST(SpecTest, JsonRoundTrip) {
  FunctionSpec spec;
  spec.name = "gen_excitement_score";
  spec.ver_id = 3;
  spec.template_id = "keyword_similarity_score";
  Json kw = Json::Array();
  kw.Append(Json::Str("gun"));
  spec.params.Set("keywords", std::move(kw));
  spec.dependency_pattern = "one_to_one";
  spec.source_text = "pseudo code";
  auto rt = FunctionSpec::FromJson(spec.ToJson());
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt.value().ver_id, 3);
  EXPECT_EQ(rt.value().template_id, "keyword_similarity_score");
  EXPECT_EQ(rt.value().params.Get("keywords").at(0).AsString(), "gun");
}

TEST(SpecTest, FromJsonRejectsMissingTemplate) {
  auto j = Json::Parse(R"({"name":"f"})");
  ASSERT_TRUE(j.ok());
  EXPECT_FALSE(FunctionSpec::FromJson(j.value()).ok());
}

// --------------------------------------------------------------- registry

TEST(RegistryTest, VersionsAreMonotonePerFunction) {
  FunctionRegistry reg;
  FunctionSpec spec;
  spec.name = "f";
  spec.template_id = "sql";
  EXPECT_EQ(reg.RegisterNewVersion(spec), 1);
  EXPECT_EQ(reg.RegisterNewVersion(spec), 2);
  spec.name = "g";
  EXPECT_EQ(reg.RegisterNewVersion(spec), 1);
  EXPECT_EQ(reg.Latest("f").value().ver_id, 2);
  EXPECT_EQ(reg.Version("f", 1).value().ver_id, 1);
  EXPECT_FALSE(reg.Version("f", 9).ok());
  EXPECT_FALSE(reg.Latest("missing").ok());
  EXPECT_EQ(reg.VersionsOf("f").size(), 2u);
}

TEST(RegistryTest, EarlierVersionsLeftIntact) {
  FunctionRegistry reg;
  FunctionSpec v1;
  v1.name = "f";
  v1.template_id = "sql";
  v1.source_text = "original";
  reg.RegisterNewVersion(v1);
  FunctionSpec v2 = v1;
  v2.source_text = "patched";
  reg.RegisterNewVersion(v2);
  EXPECT_EQ(reg.Version("f", 1).value().source_text, "original");
  EXPECT_EQ(reg.Version("f", 2).value().source_text, "patched");
}

TEST(RegistryTest, DiskRoundTrip) {
  FunctionRegistry reg;
  FunctionSpec spec;
  spec.name = "classify_boring";
  spec.template_id = "classify_boring_stats";
  spec.params.Set("variance_threshold", Json::Double(0.055));
  reg.RegisterNewVersion(spec);
  reg.RegisterNewVersion(spec);

  std::string dir = ::testing::TempDir() + "/registry_rt";
  ASSERT_TRUE(reg.SaveToDir(dir).ok());
  FunctionRegistry loaded;
  ASSERT_TRUE(loaded.LoadFromDir(dir).ok());
  EXPECT_EQ(loaded.num_functions(), 1u);
  EXPECT_EQ(loaded.Latest("classify_boring").value().ver_id, 2);
  EXPECT_DOUBLE_EQ(loaded.Latest("classify_boring")
                       .value()
                       .params.GetDouble("variance_threshold"),
                   0.055);
}

TEST(RegistryTest, LoadFromMissingDirFails) {
  FunctionRegistry reg;
  EXPECT_FALSE(reg.LoadFromDir("/nonexistent/registry").ok());
}

TEST(RegistryTest, DiskRoundTripPreservesAllVersionsAndSpecs) {
  FunctionRegistry reg;

  FunctionSpec score;
  score.name = "gen_excitement_score";
  score.template_id = "keyword_similarity_score";
  score.dependency_pattern = "one_to_one";
  score.source_text = "score rows by keyword similarity";
  score.params.Set("threshold", Json::Double(0.6));
  reg.RegisterNewVersion(score);
  score.params.Set("threshold", Json::Double(0.7));
  score.source_text += " [critic fix: tightened threshold]";
  reg.RegisterNewVersion(score);
  reg.RegisterNewVersion(score);

  FunctionSpec combine;
  combine.name = "combine_scores";
  combine.template_id = "combine_scores";
  combine.dependency_pattern = "one_to_one";
  combine.params.Set("output_column", Json::Str("final_score"));
  reg.RegisterNewVersion(combine);

  std::string dir = ::testing::TempDir() + "/registry_full_rt";
  ASSERT_TRUE(reg.SaveToDir(dir).ok());
  FunctionRegistry loaded;
  ASSERT_TRUE(loaded.LoadFromDir(dir).ok());

  EXPECT_EQ(loaded.num_functions(), 2u);
  // Every version survives, oldest first, ver_ids intact.
  auto versions = loaded.VersionsOf("gen_excitement_score");
  ASSERT_EQ(versions.size(), 3u);
  for (size_t i = 0; i < versions.size(); ++i) {
    EXPECT_EQ(versions[i].ver_id, static_cast<int64_t>(i + 1));
    EXPECT_EQ(versions[i].template_id, "keyword_similarity_score");
    EXPECT_EQ(versions[i].dependency_pattern, "one_to_one");
  }
  // Spec payloads round-trip: params and source text per version.
  EXPECT_DOUBLE_EQ(versions[0].params.GetDouble("threshold"), 0.6);
  EXPECT_DOUBLE_EQ(versions[2].params.GetDouble("threshold"), 0.7);
  EXPECT_EQ(versions[0].source_text, "score rows by keyword similarity");
  EXPECT_NE(versions[2].source_text.find("critic fix"), std::string::npos);
  // Specific-version lookup still works after reload.
  EXPECT_TRUE(loaded.Version("gen_excitement_score", 2).ok());
  EXPECT_EQ(loaded.Latest("combine_scores")
                .value()
                .params.GetString("output_column"),
            "final_score");
  // Reloading is a full replacement: versions keep stamping monotonely.
  EXPECT_EQ(loaded.RegisterNewVersion(score), 4);
}

// ---------------------------------------------------- function templates

class FunctionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_.catalog = &catalog_;
    ctx_.lineage = &lineage_;
    ctx_.meter = &meter_;
    ctx_.image_loader = &loader_;
    ctx_.images = &images_;
  }

  TablePtr FilmsTable() {
    auto t = std::make_shared<Table>(
        "films", Schema({{"mid", DataType::kInt},
                         {"title", DataType::kString},
                         {"year", DataType::kInt},
                         {"did", DataType::kInt},
                         {"vid", DataType::kInt}}));
    t->AppendRow({Value::Int(1), Value::Str("Violent One"), Value::Int(1990),
                  Value::Int(11), Value::Int(21)}, 101);
    t->AppendRow({Value::Int(2), Value::Str("Calm One"), Value::Int(1960),
                  Value::Int(12), Value::Int(22)}, 102);
    return t;
  }

  void PopulateTextViews() {
    mm::SimulatedNer ner;
    mm::Document violent;
    violent.did = 11;
    violent.text = "A gun battle and a murder follow the chase through "
                   "the explosion.";
    ASSERT_TRUE(ner.PopulateFromDocument(violent, &catalog_, &lineage_).ok());
    mm::Document calm;
    calm.did = 12;
    calm.text = "A quiet garden, a gentle walk and tea in the meadow.";
    ASSERT_TRUE(ner.PopulateFromDocument(calm, &catalog_, &lineage_).ok());
  }

  void PopulateSceneViews(bool boring_21, bool boring_22) {
    mm::SimulatedVlm vlm;
    auto make_img = [](int64_t vid, bool boring) {
      mm::SyntheticImage img;
      img.uri = "file://p" + std::to_string(vid) + ".simg";
      img.color_variance = boring ? 0.01 : 0.2;
      img.objects.push_back({"person", 0, 0, 1, 1, {}});
      if (!boring) {
        img.objects.push_back({"gun", 0, 0, 0.2, 0.2, {}});
        img.objects.push_back({"motorcycle", 0, 0, 0.5, 0.5, {}});
      }
      return img;
    };
    mm::SyntheticImage i21 = make_img(21, boring_21);
    mm::SyntheticImage i22 = make_img(22, boring_22);
    images_.Put(21, i21);
    images_.Put(22, i22);
    ASSERT_TRUE(vlm.PopulateFromImage(21, i21, &catalog_, &lineage_).ok());
    ASSERT_TRUE(vlm.PopulateFromImage(22, i22, &catalog_, &lineage_).ok());
  }

  FunctionSpec KeywordSpec() {
    FunctionSpec spec;
    spec.name = "gen_excitement_score";
    spec.template_id = "keyword_similarity_score";
    Json kw = Json::Array();
    for (const char* k : {"gun", "murder", "chase"}) kw.Append(Json::Str(k));
    spec.params.Set("keywords", std::move(kw));
    spec.params.Set("output_column", Json::Str("excitement_score"));
    return spec;
  }

  rel::Catalog catalog_;
  lineage::LineageStore lineage_;
  llm::UsageMeter meter_;
  mm::ImageLoader loader_;
  ImageStore images_;
  fao::ExecContext ctx_;
};

TEST_F(FunctionFixture, UnknownTemplateRejected) {
  FunctionSpec spec;
  spec.name = "f";
  spec.template_id = "quantum_sort";
  EXPECT_FALSE(InstantiateFunction(spec).ok());
  EXPECT_FALSE(IsKnownTemplate("quantum_sort"));
  EXPECT_FALSE(IsPureTemplate("quantum_sort"));
  // Every known template instantiates, and "sql" is the only impure one.
  for (const char* id :
       {"sql", "keyword_similarity_score", "keyword_similarity_cached",
        "recency_score", "combine_scores", "classify_boring_stats",
        "classify_boring_pixels", "classify_boring_cascade",
        "fused_scores"}) {
    spec.template_id = id;
    EXPECT_TRUE(IsKnownTemplate(id)) << id;
    auto fn = InstantiateFunction(spec);
    ASSERT_TRUE(fn.ok()) << id;
    EXPECT_EQ(fn.value()->spec().template_id, id);
    EXPECT_EQ(IsPureTemplate(id), std::string(id) != "sql") << id;
  }
}

TEST_F(FunctionFixture, SqlTemplateRunsQuery) {
  ASSERT_TRUE(catalog_.Register(FilmsTable()).ok());
  FunctionSpec spec;
  spec.name = "select";
  spec.template_id = "sql";
  spec.params.Set("query",
                  Json::Str("SELECT title FROM films WHERE year > 1980"));
  auto fn = InstantiateFunction(spec);
  ASSERT_TRUE(fn.ok());
  auto out = fn.value()->Execute({}, &ctx_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out.value().num_rows(), 1u);
  EXPECT_EQ(out.value().at(0, 0).AsString(), "Violent One");
}

TEST_F(FunctionFixture, SqlTemplateMultiStepRegistersIntermediates) {
  ASSERT_TRUE(catalog_.Register(FilmsTable()).ok());
  FunctionSpec spec;
  spec.name = "two_step";
  spec.template_id = "sql";
  Json steps = Json::Array();
  Json s1 = Json::Object();
  s1.Set("query", Json::Str("SELECT mid, year FROM films WHERE year >= "
                            "1960"));
  s1.Set("as", Json::Str("tmp_recent"));
  steps.Append(s1);
  Json s2 = Json::Object();
  s2.Set("query", Json::Str("SELECT COUNT(*) AS n FROM tmp_recent"));
  steps.Append(s2);
  spec.params.Set("steps", std::move(steps));
  auto fn = InstantiateFunction(spec);
  ASSERT_TRUE(fn.ok());
  auto out = fn.value()->Execute({}, &ctx_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().at(0, 0).AsInt(), 2);
  EXPECT_TRUE(catalog_.Has("tmp_recent"));
}

TEST_F(FunctionFixture, SqlTemplateMissingQueryIsSyntacticError) {
  FunctionSpec spec;
  spec.name = "broken";
  spec.template_id = "sql";
  auto fn = InstantiateFunction(spec);
  ASSERT_TRUE(fn.ok());
  auto out = fn.value()->Execute({}, &ctx_);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsSyntacticError());
}

TEST_F(FunctionFixture, KeywordSimilarityDiscriminatesPlots) {
  PopulateTextViews();
  auto fn = InstantiateFunction(KeywordSpec());
  ASSERT_TRUE(fn.ok());
  auto out = fn.value()->Execute({FilmsTable()}, &ctx_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const Table& t = out.value();
  auto idx = t.schema().IndexOf("excitement_score");
  ASSERT_TRUE(idx.has_value());
  double violent = t.at(0, *idx).AsDouble();
  double calm = t.at(1, *idx).AsDouble();
  EXPECT_GT(violent, 0.8);
  EXPECT_LT(calm, 0.3);
  // Row lineage ids propagate through the function body.
  EXPECT_EQ(t.row_lid(0), 101);
}

TEST_F(FunctionFixture, KeywordSimilarityEmptyKeywordsFails) {
  FunctionSpec spec = KeywordSpec();
  spec.params.Set("keywords", Json::Array());
  auto fn = InstantiateFunction(spec);
  ASSERT_TRUE(fn.ok());
  auto out = fn.value()->Execute({FilmsTable()}, &ctx_);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsSyntacticError());
}

TEST_F(FunctionFixture, RecencyScoreDirections) {
  FunctionSpec spec;
  spec.name = "gen_recency_score";
  spec.template_id = "recency_score";
  spec.params.Set("min_year", Json::Double(1950));
  spec.params.Set("max_year", Json::Double(1990));
  auto fn = InstantiateFunction(spec);
  ASSERT_TRUE(fn.ok());
  auto out = fn.value()->Execute({FilmsTable()}, &ctx_);
  ASSERT_TRUE(out.ok());
  auto idx = out.value().schema().IndexOf("recency_score");
  EXPECT_DOUBLE_EQ(out.value().at(0, *idx).AsDouble(), 1.0);   // 1990
  EXPECT_DOUBLE_EQ(out.value().at(1, *idx).AsDouble(), 0.25);  // 1960

  // Reversed (buggy) direction: the critic's target.
  spec.params.Set("direction", Json::Double(-1.0));
  auto buggy = InstantiateFunction(spec).value()->Execute({FilmsTable()},
                                                          &ctx_);
  ASSERT_TRUE(buggy.ok());
  EXPECT_DOUBLE_EQ(buggy.value().at(0, *idx).AsDouble(), 0.0);
}

TEST_F(FunctionFixture, CombineScoresWeightedSum) {
  auto t = std::make_shared<Table>(
      "scored", Schema({{"a_score", DataType::kDouble},
                        {"b_score", DataType::kDouble}}));
  t->AppendRow({Value::Double(1.0), Value::Double(0.5)});
  FunctionSpec spec;
  spec.name = "combine_scores";
  spec.template_id = "combine_scores";
  Json terms = Json::Array();
  Json t1 = Json::Object();
  t1.Set("column", Json::Str("a_score"));
  t1.Set("weight", Json::Double(0.7));
  terms.Append(t1);
  Json t2 = Json::Object();
  t2.Set("column", Json::Str("b_score"));
  t2.Set("weight", Json::Double(0.3));
  terms.Append(t2);
  spec.params.Set("terms", std::move(terms));
  auto out = InstantiateFunction(spec).value()->Execute({t}, &ctx_);
  ASSERT_TRUE(out.ok());
  auto idx = out.value().schema().IndexOf("final_score");
  EXPECT_NEAR(out.value().at(0, *idx).AsDouble(), 0.85, 1e-9);
}

TEST_F(FunctionFixture, CombineScoresUnknownColumnFails) {
  auto t = std::make_shared<Table>("scored",
                                   Schema({{"x", DataType::kDouble}}));
  t->AppendRow({Value::Double(1.0)});
  FunctionSpec spec;
  spec.name = "combine_scores";
  spec.template_id = "combine_scores";
  Json terms = Json::Array();
  Json t1 = Json::Object();
  t1.Set("column", Json::Str("ghost_score"));
  terms.Append(t1);
  spec.params.Set("terms", std::move(terms));
  auto out = InstantiateFunction(spec).value()->Execute({t}, &ctx_);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsSyntacticError());
}

TEST_F(FunctionFixture, ClassifyBoringStatsUsesSceneGraph) {
  PopulateSceneViews(/*boring_21=*/true, /*boring_22=*/false);
  FunctionSpec spec;
  spec.name = "classify_boring";
  spec.template_id = "classify_boring_stats";
  spec.params.Set("output_column", Json::Str("boring_poster"));
  auto out = InstantiateFunction(spec).value()->Execute({FilmsTable()},
                                                        &ctx_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto idx = out.value().schema().IndexOf("boring_poster");
  EXPECT_TRUE(out.value().at(0, *idx).AsBool());   // vid 21 plain
  EXPECT_FALSE(out.value().at(1, *idx).AsBool());  // vid 22 action
}

TEST_F(FunctionFixture, ClassifyBoringPixelsChargesVisionTokens) {
  PopulateSceneViews(true, false);
  FunctionSpec spec;
  spec.name = "classify_boring";
  spec.template_id = "classify_boring_pixels";
  spec.params.Set("output_column", Json::Str("boring_poster"));
  auto out = InstantiateFunction(spec).value()->Execute({FilmsTable()},
                                                        &ctx_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(meter_.tokens_for("kath-vision"), 0);
  auto idx = out.value().schema().IndexOf("boring_poster");
  EXPECT_TRUE(out.value().at(0, *idx).AsBool());
  EXPECT_FALSE(out.value().at(1, *idx).AsBool());
}

TEST_F(FunctionFixture, ClassifyBoringPixelsHeicFailsSyntactically) {
  PopulateSceneViews(true, false);
  // Replace vid 21's stored image with an HEIC-format raw.
  mm::SyntheticImage heic;
  heic.uri = "file://p21.heic";
  heic.format = "heic";
  heic.color_variance = 0.01;
  images_.Put(21, heic);
  FunctionSpec spec;
  spec.name = "classify_boring";
  spec.template_id = "classify_boring_pixels";
  auto out = InstantiateFunction(spec).value()->Execute({FilmsTable()},
                                                        &ctx_);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsSyntacticError());
  EXPECT_NE(out.status().message().find("heic"), std::string::npos);
  // After enabling conversion (the monitor's patch) it succeeds.
  loader_.EnableHeicConversion();
  auto retry = InstantiateFunction(spec).value()->Execute({FilmsTable()},
                                                          &ctx_);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(FunctionFixture, ClassifyBoringPixelsHonoursMaxObjects) {
  PopulateSceneViews(true, false);
  // vid 21: a flat poster with two non-action objects.
  mm::SyntheticImage flat;
  flat.uri = "file://p21.simg";
  flat.color_variance = 0.01;
  flat.objects.push_back({"person", 0, 0, 1, 1, {}});
  flat.objects.push_back({"person", 0.5, 0.5, 1, 1, {}});
  images_.Put(21, flat);
  FunctionSpec spec;
  spec.name = "classify_boring";
  spec.template_id = "classify_boring_pixels";
  auto out = InstantiateFunction(spec).value()->Execute({FilmsTable()},
                                                        &ctx_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto idx = out.value().schema().IndexOf("boring_poster");
  EXPECT_TRUE(out.value().at(0, *idx).AsBool());  // 2 <= default 4
  spec.params.Set("max_objects", Json::Int(1));
  out = InstantiateFunction(spec).value()->Execute({FilmsTable()}, &ctx_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out.value().at(0, *idx).AsBool());  // 2 > 1
  // The cascade's escalation path applies the same rule.
  spec.template_id = "classify_boring_cascade";
  spec.params.Set("margin", Json::Double(1.0));  // escalate every row
  out = InstantiateFunction(spec).value()->Execute({FilmsTable()}, &ctx_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out.value().at(0, *idx).AsBool());
}

TEST_F(FunctionFixture, CascadeEscalatesOnlyUncertainRows) {
  PopulateSceneViews(true, false);  // variances 0.01 and 0.2: both certain
  FunctionSpec spec;
  spec.name = "classify_boring";
  spec.template_id = "classify_boring_cascade";
  spec.params.Set("margin", Json::Double(0.005));
  int64_t before = meter_.tokens_for("kath-vision");
  auto out = InstantiateFunction(spec).value()->Execute({FilmsTable()},
                                                        &ctx_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // No escalation: no vision tokens.
  EXPECT_EQ(meter_.tokens_for("kath-vision"), before);
}

TEST_F(FunctionFixture, FusedScoresMatchesUnfusedPipeline) {
  PopulateTextViews();
  FunctionSpec spec;
  spec.name = "gen_scores_fused";
  spec.template_id = "fused_scores";
  Json ex = Json::Object();
  Json kw = Json::Array();
  for (const char* k : {"gun", "murder", "chase"}) kw.Append(Json::Str(k));
  ex.Set("keywords", std::move(kw));
  Json re = Json::Object();
  re.Set("min_year", Json::Double(1950));
  re.Set("max_year", Json::Double(1990));
  Json co = Json::Object();
  co.Set("excitement_weight", Json::Double(0.7));
  co.Set("recency_weight", Json::Double(0.3));
  spec.params.Set("excitement", std::move(ex));
  spec.params.Set("recency", std::move(re));
  spec.params.Set("combine", std::move(co));
  auto out = InstantiateFunction(spec).value()->Execute({FilmsTable()},
                                                        &ctx_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const Table& t = out.value();
  ASSERT_TRUE(t.schema().HasColumn("final_score"));
  auto e = t.schema().IndexOf("excitement_score");
  auto r = t.schema().IndexOf("recency_score");
  auto f = t.schema().IndexOf("final_score");
  EXPECT_NEAR(t.at(0, *f).AsDouble(),
              0.7 * t.at(0, *e).AsDouble() + 0.3 * t.at(0, *r).AsDouble(),
              1e-9);

  // The unfused chain recency -> keyword -> combine yields the same three
  // columns, value for value, on every row.
  FunctionSpec rec;
  rec.name = "gen_recency_score";
  rec.template_id = "recency_score";
  rec.params.Set("min_year", Json::Double(1950));
  rec.params.Set("max_year", Json::Double(1990));
  auto step1 = InstantiateFunction(rec).value()->Execute({FilmsTable()},
                                                         &ctx_);
  ASSERT_TRUE(step1.ok()) << step1.status().ToString();
  auto step2 = InstantiateFunction(KeywordSpec()).value()->Execute(
      {std::make_shared<Table>(step1.value())}, &ctx_);
  ASSERT_TRUE(step2.ok()) << step2.status().ToString();
  FunctionSpec combine;
  combine.name = "combine_scores";
  combine.template_id = "combine_scores";
  Json terms = Json::Array();
  Json t1 = Json::Object();
  t1.Set("column", Json::Str("excitement_score"));
  t1.Set("weight", Json::Double(0.7));
  terms.Append(t1);
  Json t2 = Json::Object();
  t2.Set("column", Json::Str("recency_score"));
  t2.Set("weight", Json::Double(0.3));
  terms.Append(t2);
  combine.params.Set("terms", std::move(terms));
  auto chain = InstantiateFunction(combine).value()->Execute(
      {std::make_shared<Table>(step2.value())}, &ctx_);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  const Table& u = chain.value();
  ASSERT_EQ(u.num_rows(), t.num_rows());
  for (const char* col : {"excitement_score", "recency_score",
                          "final_score"}) {
    auto fi = t.schema().IndexOf(col);
    auto ui = u.schema().IndexOf(col);
    ASSERT_TRUE(fi.has_value() && ui.has_value()) << col;
    for (size_t row = 0; row < t.num_rows(); ++row) {
      EXPECT_EQ(t.at(row, *fi).AsDouble(), u.at(row, *ui).AsDouble())
          << col << " row " << row;
    }
  }
}

TEST_F(FunctionFixture, WrongInputArityIsSyntacticError) {
  auto fn = InstantiateFunction(KeywordSpec());
  ASSERT_TRUE(fn.ok());
  auto out = fn.value()->Execute({}, &ctx_);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsSyntacticError());
}

}  // namespace
}  // namespace kathdb::fao
