// Temporal (video) tests over the scene-graph views: SQL across frames.

#include <gtest/gtest.h>

#include "lineage/lineage.h"
#include "multimodal/scene_graph.h"
#include "relational/catalog.h"
#include "sql/engine.h"

namespace kathdb::mm {
namespace {

class VideoFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticVideo video;
    video.uri = "file://videos/test.svid";
    // Frame 0: person only. Frame 1: person + car. Frame 2: person
    // riding motorcycle. Frame 3: person holding gun.
    auto frame = [](std::vector<LatentObject> objs,
                    std::vector<LatentRelationship> rels) {
      SyntheticImage f;
      f.color_variance = 0.1;
      f.objects = std::move(objs);
      f.relationships = std::move(rels);
      return f;
    };
    video.frames.push_back(frame({{"person", 0, 0, 1, 1, {}}}, {}));
    video.frames.push_back(frame(
        {{"person", 0, 0, 1, 1, {}}, {"car", 0, 0, 1, 1, {}}}, {}));
    video.frames.push_back(frame({{"person", 0, 0, 1, 1, {}},
                                  {"motorcycle", 0, 0, 1, 1, {}}},
                                 {{0, "riding", 1}}));
    video.frames.push_back(frame(
        {{"person", 0, 0, 1, 1, {}}, {"gun", 0, 0, 1, 1, {}}},
        {{0, "holding", 1}}));
    SimulatedVlm vlm;
    ASSERT_TRUE(vlm.PopulateFromVideo(7, video, &catalog_, &lineage_).ok());
  }

  rel::Catalog catalog_;
  lineage::LineageStore lineage_;
};

TEST_F(VideoFixture, ObjectsPerFrameViaSql) {
  sql::SqlEngine engine(&catalog_);
  auto r = engine.Execute(
      "SELECT fid, COUNT(*) AS n FROM scene_objects WHERE vid = 7 "
      "GROUP BY fid ORDER BY fid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 4u);
  EXPECT_EQ(r.value().at(0, 1).AsInt(), 1);
  EXPECT_EQ(r.value().at(1, 1).AsInt(), 2);
}

TEST_F(VideoFixture, FirstAppearanceQuery) {
  sql::SqlEngine engine(&catalog_);
  auto r = engine.Execute(
      "SELECT MIN(fid) AS first FROM scene_objects WHERE vid = 7 AND "
      "cid = 'gun'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().at(0, 0).AsInt(), 3);
}

TEST_F(VideoFixture, RelationshipJoinAcrossViews) {
  sql::SqlEngine engine(&catalog_);
  auto r = engine.Execute(
      "SELECT r.fid FROM scene_relationships r "
      "JOIN scene_objects s ON r.oid_i = s.oid "
      "JOIN scene_objects o ON r.oid_j = o.oid "
      "WHERE r.vid = 7 AND r.pid = 'riding' AND s.cid = 'person' AND "
      "o.cid = 'motorcycle'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().at(0, 0).AsInt(), 2);
}

TEST_F(VideoFixture, PerFrameStatsIndependent) {
  auto index = SceneIndex::Build(catalog_);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->Stats(7, 0).num_action_objects, 0);
  EXPECT_EQ(index->Stats(7, 3).num_action_objects, 1);  // the gun
}

TEST_F(VideoFixture, FrameRowsTraceToVideoUri) {
  auto objects = catalog_.Get("scene_objects").value();
  ASSERT_GT(objects->num_rows(), 0u);
  auto chain = lineage_.TraceToSources(objects->row_lid(0));
  bool reaches_video = false;
  for (const auto& e : chain) {
    if (e.src_uri.find("file://videos/test.svid") != std::string::npos ||
        e.src_uri.find("mem://frame") != std::string::npos) {
      reaches_video = true;
    }
  }
  EXPECT_TRUE(reaches_video);
}

}  // namespace
}  // namespace kathdb::mm
