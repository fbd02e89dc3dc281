// Unit tests for src/multimodal: media, scene graphs, text graphs.

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "common/strings.h"
#include "multimodal/media.h"
#include "multimodal/scene_graph.h"
#include "multimodal/text_graph.h"
#include "vector/embedding.h"

namespace kathdb::mm {
namespace {

SyntheticImage ActionPoster() {
  SyntheticImage img;
  img.uri = "file://posters/action.simg";
  img.color_variance = 0.2;
  img.objects.push_back({"person", 0.1, 0.1, 0.5, 0.9,
                         {{"color", "red"}, {"pose", "running"}}});
  img.objects.push_back({"gun", 0.4, 0.4, 0.5, 0.5, {}});
  img.objects.push_back({"motorcycle", 0.5, 0.5, 0.9, 0.9, {}});
  img.relationships.push_back({0, "holding", 1});
  img.relationships.push_back({0, "riding", 2});
  return img;
}

// ------------------------------------------------------------------ media

TEST(MediaTest, ImageJsonRoundTrip) {
  SyntheticImage img = ActionPoster();
  auto parsed = SyntheticImage::FromJson(img.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const SyntheticImage& p = parsed.value();
  EXPECT_EQ(p.uri, img.uri);
  ASSERT_EQ(p.objects.size(), 3u);
  EXPECT_EQ(p.objects[0].cls, "person");
  ASSERT_EQ(p.objects[0].attrs.size(), 2u);
  EXPECT_EQ(p.objects[0].attrs[1].second, "running");
  ASSERT_EQ(p.relationships.size(), 2u);
  EXPECT_EQ(p.relationships[1].predicate, "riding");
  EXPECT_DOUBLE_EQ(p.color_variance, 0.2);
}

TEST(MediaTest, SaveAndLoadFile) {
  SyntheticImage img = ActionPoster();
  std::string path = ::testing::TempDir() + "/poster.simg";
  ASSERT_TRUE(SaveImage(img, path).ok());
  ImageLoader loader;
  auto loaded = loader.Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().objects.size(), 3u);
}

TEST(MediaTest, LoadMissingFileIsIOError) {
  ImageLoader loader;
  auto r = loader.Load("/nonexistent/nope.simg");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(MediaTest, HeicRefusedUntilConversionEnabled) {
  SyntheticImage img = ActionPoster();
  img.format = "heic";
  ImageLoader loader;
  auto r1 = loader.Decode(img);
  ASSERT_FALSE(r1.ok());
  EXPECT_TRUE(r1.status().IsSyntacticError());
  EXPECT_NE(r1.status().message().find("heic"), std::string::npos);

  loader.EnableHeicConversion();
  auto r2 = loader.Decode(img);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().format, "simg");  // converted
}

TEST(MediaTest, UnknownFormatRejected) {
  SyntheticImage img = ActionPoster();
  img.format = "webp";
  ImageLoader loader;
  EXPECT_FALSE(loader.Decode(img).ok());
}

// ------------------------------------------------------------ scene graph

TEST(SceneGraphTest, ViewsMatchTable1Schema) {
  rel::Catalog catalog;
  ASSERT_TRUE(EnsureSceneGraphViews(&catalog).ok());
  auto objects = catalog.Get("scene_objects");
  ASSERT_TRUE(objects.ok());
  EXPECT_EQ(objects.value()->schema().ToString(),
            "vid:INT, fid:INT, oid:INT, lid:INT, cid:STRING, x_1:DOUBLE, "
            "y_1:DOUBLE, x_2:DOUBLE, y_2:DOUBLE");
  auto rels = catalog.Get("scene_relationships");
  ASSERT_TRUE(rels.ok());
  EXPECT_EQ(rels.value()->schema().ToString(),
            "vid:INT, fid:INT, rid:INT, lid:INT, oid_i:INT, pid:STRING, "
            "oid_j:INT");
  auto attrs = catalog.Get("scene_attributes");
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs.value()->schema().ToString(),
            "vid:INT, fid:INT, oid:INT, lid:INT, k:STRING, v:STRING");
  auto frames = catalog.Get("scene_frames");
  ASSERT_TRUE(frames.ok());
  EXPECT_EQ(frames.value()->schema().ToString(),
            "vid:INT, fid:INT, lid:INT, pixels:STRING");
}

TEST(SceneGraphTest, NoiselessVlmDetectsEverything) {
  rel::Catalog catalog;
  lineage::LineageStore lineage;
  SimulatedVlm vlm;  // zero noise
  ASSERT_TRUE(vlm.PopulateFromImage(7, ActionPoster(), &catalog, &lineage)
                  .ok());
  auto objects = catalog.Get("scene_objects").value();
  EXPECT_EQ(objects->num_rows(), 3u);
  auto rels = catalog.Get("scene_relationships").value();
  EXPECT_EQ(rels->num_rows(), 2u);
  auto attrs = catalog.Get("scene_attributes").value();
  EXPECT_EQ(attrs->num_rows(), 2u);
  // Every derived row carries a lineage id tracing to the image uri.
  int64_t lid = objects->row_lid(0);
  ASSERT_NE(lid, 0);
  auto chain = lineage.TraceToSources(lid);
  bool reaches_image = false;
  for (const auto& e : chain) {
    if (e.src_uri == "file://posters/action.simg") reaches_image = true;
  }
  EXPECT_TRUE(reaches_image);
  EXPECT_GT(vlm.tokens_used(), 0);
}

TEST(SceneGraphTest, DetectionDropNoiseLosesObjects) {
  rel::Catalog catalog;
  lineage::LineageStore lineage;
  VlmConfig config;
  config.detection_drop_prob = 0.95;
  config.seed = 3;
  SimulatedVlm vlm(config);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(vlm.PopulateFromImage(i, ActionPoster(), &catalog, &lineage)
                    .ok());
  }
  auto objects = catalog.Get("scene_objects").value();
  // 90 latent objects, 95% dropped: far fewer survive.
  EXPECT_LT(objects->num_rows(), 30u);
  EXPECT_GT(objects->num_rows(), 0u);
}

TEST(SceneGraphTest, VideoFramesGetDistinctFids) {
  rel::Catalog catalog;
  lineage::LineageStore lineage;
  SimulatedVlm vlm;
  SyntheticVideo video;
  video.frames.push_back(ActionPoster());
  video.frames.push_back(ActionPoster());
  video.frames.push_back(ActionPoster());
  ASSERT_TRUE(vlm.PopulateFromVideo(1, video, &catalog, &lineage).ok());
  auto frames = catalog.Get("scene_frames").value();
  ASSERT_EQ(frames->num_rows(), 3u);
  EXPECT_EQ(frames->at(0, 1).AsInt(), 0);
  EXPECT_EQ(frames->at(2, 1).AsInt(), 2);
}

TEST(SceneGraphTest, FrameStatsReflectContent) {
  rel::Catalog catalog;
  lineage::LineageStore lineage;
  SimulatedVlm vlm;
  ASSERT_TRUE(vlm.PopulateFromImage(1, ActionPoster(), &catalog, &lineage)
                  .ok());
  auto index = SceneIndex::Build(catalog);
  ASSERT_TRUE(index.ok());
  FrameSceneStats stats = index->Stats(1, 0);
  EXPECT_EQ(stats.num_objects, 3);
  EXPECT_EQ(stats.num_relationships, 2);
  EXPECT_EQ(stats.num_action_objects, 2);  // gun + motorcycle
  EXPECT_NEAR(stats.color_variance, 0.2, 1e-3);
}

// ------------------------------------------------------------- text graph

TEST(TextGraphTest, ViewsMatchTable2Schema) {
  rel::Catalog catalog;
  ASSERT_TRUE(EnsureTextGraphViews(&catalog).ok());
  EXPECT_EQ(catalog.Get("text_entities").value()->schema().ToString(),
            "did:INT, eid:INT, lid:INT, cid:STRING");
  EXPECT_EQ(catalog.Get("text_mentions").value()->schema().ToString(),
            "did:INT, sid:INT, mid:INT, lid:INT, eid:INT, span1:INT, "
            "span2:INT");
  EXPECT_EQ(catalog.Get("texts").value()->schema().ToString(),
            "did:INT, lid:INT, chars:STRING");
}

class TextGraphFixture : public ::testing::Test {
 protected:
  void Populate(const std::string& text, NerConfig config = {}) {
    SimulatedNer ner(config);
    Document doc;
    doc.did = 5;
    doc.uri = "doc://5";
    doc.text = text;
    ASSERT_TRUE(ner.PopulateFromDocument(doc, &catalog_, &lineage_).ok());
  }
  rel::Catalog catalog_;
  lineage::LineageStore lineage_;
};

TEST_F(TextGraphFixture, NamedEntitiesExtracted) {
  Populate("Taylor Swift released an album. The gun was a prop.");
  auto ents = catalog_.Get("text_entities").value();
  // "taylor swift" (named) + "gun" (concept).
  ASSERT_GE(ents->num_rows(), 2u);
  bool has_named = false;
  bool has_violence = false;
  for (size_t r = 0; r < ents->num_rows(); ++r) {
    std::string cid = ents->at(r, 3).AsString();
    if (cid == "named_entity") has_named = true;
    if (cid == "violence") has_violence = true;
  }
  EXPECT_TRUE(has_named);
  EXPECT_TRUE(has_violence);
}

TEST_F(TextGraphFixture, CoreferenceSharesEid) {
  Populate("Taylor Swift sang. Mrs. Swift smiled. She bowed.");
  auto mentions = catalog_.Get("text_mentions").value();
  // All three mentions resolve to the same entity id.
  ASSERT_GE(mentions->num_rows(), 3u);
  std::set<int64_t> eids;
  for (size_t r = 0; r < mentions->num_rows(); ++r) {
    eids.insert(mentions->at(r, 4).AsInt());
  }
  EXPECT_EQ(eids.size(), 1u);
}

TEST_F(TextGraphFixture, MentionSpansSliceTheText) {
  std::string text = "Walter Cross met Harriet Vane.";
  Populate(text);
  auto mentions = catalog_.Get("text_mentions").value();
  ASSERT_GE(mentions->num_rows(), 2u);
  size_t s1 = static_cast<size_t>(mentions->at(0, 5).AsInt());
  size_t s2 = static_cast<size_t>(mentions->at(0, 6).AsInt());
  EXPECT_EQ(text.substr(s1, s2 - s1), "Walter Cross");
}

TEST_F(TextGraphFixture, CoOccurrenceRelationships) {
  Populate("Walter Cross met Harriet Vane at the station.");
  auto rels = catalog_.Get("text_relationships").value();
  ASSERT_EQ(rels->num_rows(), 1u);
  EXPECT_EQ(rels->at(0, 5).AsString(), "co_occurs_with");
}

TEST_F(TextGraphFixture, BudgetAttributePattern) {
  Populate("Guilty Pictures spent a budget of 13000000 dollars.");
  auto attrs = catalog_.Get("text_attributes").value();
  ASSERT_EQ(attrs->num_rows(), 1u);
  EXPECT_EQ(attrs->at(0, 4).AsString(), "budget");
  EXPECT_EQ(attrs->at(0, 5).AsString(), "13000000");
}

TEST_F(TextGraphFixture, EntityTokensReadableThroughViews) {
  Populate("Eleanor Finch dodged the explosion near the bridge.");
  auto index = TextIndex::Build(catalog_);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  auto tokens = index->EntityTokens(5);
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  bool has_explosion = false;
  bool has_eleanor = false;
  for (const auto& t : tokens.value()) {
    if (t == "explosion") has_explosion = true;
    if (t == "eleanor") has_eleanor = true;
  }
  EXPECT_TRUE(has_explosion);
  EXPECT_TRUE(has_eleanor);
}

TEST_F(TextGraphFixture, EntityTokensForUnknownDocFails) {
  Populate("Some text.");
  auto index = TextIndex::Build(catalog_);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_FALSE(index->EntityTokens(999).ok());
}

TEST_F(TextGraphFixture, MentionDropNoiseReducesMentions) {
  NerConfig noisy;
  noisy.mention_drop_prob = 0.9;
  noisy.seed = 4;
  Populate("A gun, a knife, a bomb, a chase, an explosion, a murder, "
           "a hostage, a sniper, a shootout and a war.",
           noisy);
  auto mentions = catalog_.Get("text_mentions").value();
  EXPECT_LT(mentions->num_rows(), 6u);
}

TEST_F(TextGraphFixture, AliasMapMergesEntities) {
  NerConfig config;
  config.aliases["the boss"] = "walter cross";
  Populate("Walter Cross runs the firm.");
  auto ents = catalog_.Get("text_entities").value();
  size_t named = 0;
  for (size_t r = 0; r < ents->num_rows(); ++r) {
    if (ents->at(r, 3).AsString() == "named_entity") ++named;
  }
  EXPECT_EQ(named, 1u);
}

// ------------------------------------------- indexes vs. per-row scans

// The per-row view scans that TextIndex and SceneIndex replaced, kept as
// the oracle: one full pass over every view per probe.
Result<std::vector<std::string>> ScanEntityTokens(
    int64_t did, const rel::Catalog& catalog) {
  TextGraphViews views;
  KATHDB_ASSIGN_OR_RETURN(rel::TablePtr mentions, catalog.Get(views.mentions));
  KATHDB_ASSIGN_OR_RETURN(rel::TablePtr texts, catalog.Get(views.texts));
  std::string chars;
  for (size_t r = 0; r < texts->num_rows(); ++r) {
    if (texts->at(r, 0).AsInt() == did) {
      chars = texts->at(r, 2).AsString();
      break;
    }
  }
  if (chars.empty()) {
    return Status::NotFound("no text for did " + std::to_string(did));
  }
  std::set<int64_t> seen;
  std::vector<std::string> out;
  for (size_t r = 0; r < mentions->num_rows(); ++r) {
    if (mentions->at(r, 0).AsInt() != did) continue;
    int64_t eid = mentions->at(r, 4).AsInt();
    if (!seen.insert(eid).second) continue;
    size_t s1 = static_cast<size_t>(mentions->at(r, 5).AsInt());
    size_t s2 = static_cast<size_t>(mentions->at(r, 6).AsInt());
    if (s1 < s2 && s2 <= chars.size()) {
      for (auto& tok : Tokenize(chars.substr(s1, s2 - s1))) {
        out.push_back(std::move(tok));
      }
    }
  }
  return out;
}

Result<FrameSceneStats> ScanFrameStats(int64_t vid, int64_t fid,
                                       const rel::Catalog& catalog) {
  SceneGraphViews views;
  FrameSceneStats stats;
  static const vec::ConceptLexicon lexicon = vec::ConceptLexicon::BuiltIn();
  KATHDB_ASSIGN_OR_RETURN(rel::TablePtr objects, catalog.Get(views.objects));
  for (size_t r = 0; r < objects->num_rows(); ++r) {
    if (objects->at(r, 0).AsInt() != vid || objects->at(r, 1).AsInt() != fid) {
      continue;
    }
    ++stats.num_objects;
    std::string concept_name = lexicon.ConceptOf(objects->at(r, 4).AsString());
    if (concept_name == "action" || concept_name == "violence") {
      ++stats.num_action_objects;
    }
  }
  KATHDB_ASSIGN_OR_RETURN(rel::TablePtr rels,
                          catalog.Get(views.relationships));
  for (size_t r = 0; r < rels->num_rows(); ++r) {
    if (rels->at(r, 0).AsInt() == vid && rels->at(r, 1).AsInt() == fid) {
      ++stats.num_relationships;
    }
  }
  KATHDB_ASSIGN_OR_RETURN(rel::TablePtr frames, catalog.Get(views.frames));
  for (size_t r = 0; r < frames->num_rows(); ++r) {
    if (frames->at(r, 0).AsInt() == vid && frames->at(r, 1).AsInt() == fid) {
      const std::string pix = frames->at(r, 3).AsString();
      auto pos = pix.find("var=");
      if (pos != std::string::npos) {
        stats.color_variance = std::strtod(pix.c_str() + pos + 4, nullptr);
      }
      break;
    }
  }
  return stats;
}

rel::Value I(int64_t v) { return rel::Value::Int(v); }
rel::Value S(const std::string& v) { return rel::Value::Str(v); }

// Texts and Mentions with dids interleaved and out of order, a duplicate
// Texts row (the first wins), a repeated eid (its first mention wins), an
// out-of-range span, an empty span and an empty text.
void FillTextCorpus(rel::Catalog* catalog) {
  ASSERT_TRUE(EnsureTextGraphViews(catalog).ok());
  auto texts = catalog->Get("texts").value();
  texts->AppendRow({I(3), I(0), S("Harriet Vane drove the getaway car.")});
  texts->AppendRow({I(1), I(0), S("Walter Cross met a gun dealer.")});
  texts->AppendRow({I(2), I(0), S("Tea.")});
  texts->AppendRow({I(1), I(0), S("A calm duplicate that must lose.")});
  texts->AppendRow({I(4), I(0), S("")});
  auto mentions = catalog->Get("text_mentions").value();
  auto mention = [&](int64_t did, int64_t eid, int64_t s1, int64_t s2) {
    mentions->AppendRow({I(did), I(0), I(0), I(0), I(eid), I(s1), I(s2)});
  };
  mention(1, 10, 0, 12);   // "Walter Cross"
  mention(3, 30, 0, 12);   // "Harriet Vane"
  mention(1, 11, 19, 22);  // "gun"
  mention(2, 20, 0, 400);  // out of range: skipped
  mention(1, 10, 7, 12);   // repeated eid: skipped
  mention(3, 31, 23, 34);  // "getaway car"
  mention(2, 21, 0, 3);    // "Tea"
  mention(4, 40, 0, 1);    // empty text: the did is NotFound
  mention(1, 12, 5, 5);    // empty span: skipped
}

// Objects, Relationships and Frames with vids interleaved and out of
// order, a three-frame video whose middle frame has no Frames row, and a
// duplicate Frames row (the first wins).
void FillSceneCorpus(rel::Catalog* catalog) {
  ASSERT_TRUE(EnsureSceneGraphViews(catalog).ok());
  auto objects = catalog->Get("scene_objects").value();
  auto object = [&](int64_t vid, int64_t fid, const char* cls) {
    objects->AppendRow({I(vid), I(fid), I(0), I(0), S(cls),
                        rel::Value::Double(0), rel::Value::Double(0),
                        rel::Value::Double(1), rel::Value::Double(1)});
  };
  object(7, 2, "gun");
  object(5, 0, "person");
  object(7, 0, "tree");
  object(7, 1, "motorcycle");
  object(5, 0, "explosion");
  object(7, 2, "person");
  object(7, 1, "person");
  auto rels = catalog->Get("scene_relationships").value();
  using Key = std::pair<int64_t, int64_t>;
  for (auto [vid, fid] : {Key{7, 1}, Key{5, 0}, Key{7, 1}, Key{7, 2}}) {
    rels->AppendRow({I(vid), I(fid), I(0), I(0), I(0), S("near"), I(0)});
  }
  auto frames = catalog->Get("scene_frames").value();
  frames->AppendRow({I(7), I(2), I(0), S("pixels[3] var=0.2800")});
  frames->AppendRow({I(5), I(0), I(0), S("pixels[2] var=0.0120")});
  frames->AppendRow({I(7), I(0), I(0), S("pixels[1] var=0.0200")});
  frames->AppendRow({I(5), I(0), I(0), S("pixels[2] var=0.9900")});
}

void ExpectSameTokens(const Result<std::vector<std::string>>& want,
                      const Result<std::vector<std::string>>& got,
                      const std::string& what) {
  ASSERT_EQ(want.ok(), got.ok()) << what;
  if (!want.ok()) {
    EXPECT_EQ(want.status().ToString(), got.status().ToString()) << what;
    return;
  }
  EXPECT_EQ(want.value(), got.value()) << what;
}

void ExpectSameStats(const FrameSceneStats& want, const FrameSceneStats& got,
                     const std::string& what) {
  EXPECT_EQ(want.num_objects, got.num_objects) << what;
  EXPECT_EQ(want.num_relationships, got.num_relationships) << what;
  EXPECT_EQ(want.num_action_objects, got.num_action_objects) << what;
  EXPECT_EQ(want.color_variance, got.color_variance) << what;
}

TEST(ViewIndexTest, TextIndexMatchesPerRowScan) {
  rel::Catalog catalog;
  FillTextCorpus(&catalog);
  auto index = TextIndex::Build(catalog);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  int found = 0;
  for (int64_t did : {1, 2, 3, 4, 99, -1}) {
    std::string what = "did " + std::to_string(did);
    auto want = ScanEntityTokens(did, catalog);
    found += want.ok() ? 1 : 0;
    ExpectSameTokens(want, index->EntityTokens(did), what);
  }
  // dids 1-3 have text; 4 (empty text), 99 and -1 (unknown) do not.
  EXPECT_EQ(found, 3);
  EXPECT_EQ(index->EntityTokens(1).value(),
            (std::vector<std::string>{"walter", "cross", "gun"}));
  EXPECT_EQ(index->EntityTokens(4).status().code(), StatusCode::kNotFound);
}

TEST(ViewIndexTest, SceneIndexMatchesPerRowScan) {
  rel::Catalog catalog;
  FillSceneCorpus(&catalog);
  auto index = SceneIndex::Build(catalog);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  for (int64_t vid : {5, 7, 8}) {
    for (int64_t fid : {0, 1, 2, 3}) {
      std::string what =
          "vid " + std::to_string(vid) + " fid " + std::to_string(fid);
      auto want = ScanFrameStats(vid, fid, catalog);
      ASSERT_TRUE(want.ok()) << what;
      ExpectSameStats(want.value(), index->Stats(vid, fid), what);
    }
  }
  FrameSceneStats no_frame_row = index->Stats(7, 1);
  EXPECT_EQ(no_frame_row.num_objects, 2);
  EXPECT_EQ(no_frame_row.num_action_objects, 1);
  EXPECT_EQ(no_frame_row.num_relationships, 2);
  EXPECT_EQ(no_frame_row.color_variance, 0.0);
  EXPECT_EQ(index->Stats(5, 0).color_variance, 0.012);
}

TEST(ViewIndexTest, MissingViewsFailLikeThePerRowScan) {
  rel::Catalog empty;
  auto text_want = ScanEntityTokens(1, empty);
  ASSERT_FALSE(text_want.ok());
  auto text_got = TextIndex::Build(empty);
  ASSERT_FALSE(text_got.ok());
  EXPECT_EQ(text_want.status().ToString(), text_got.status().ToString());
  // An empty index, the keyword scorer's stand-in for missing views,
  // finds no document.
  EXPECT_EQ(TextIndex().EntityTokens(1).status().code(),
            StatusCode::kNotFound);

  auto scene_want = ScanFrameStats(1, 0, empty);
  ASSERT_FALSE(scene_want.ok());
  auto scene_got = SceneIndex::Build(empty);
  ASSERT_FALSE(scene_got.ok());
  EXPECT_EQ(scene_want.status().ToString(), scene_got.status().ToString());

  // Only Objects present: both report the same missing view.
  rel::Catalog full;
  ASSERT_TRUE(EnsureSceneGraphViews(&full).ok());
  rel::Catalog partial;
  ASSERT_TRUE(partial
                  .Register(full.Get("scene_objects").value(),
                            rel::RelationKind::kView)
                  .ok());
  auto partial_want = ScanFrameStats(1, 0, partial);
  ASSERT_FALSE(partial_want.ok());
  auto partial_got = SceneIndex::Build(partial);
  ASSERT_FALSE(partial_got.ok());
  EXPECT_EQ(partial_want.status().ToString(),
            partial_got.status().ToString());
}

}  // namespace
}  // namespace kathdb::mm
