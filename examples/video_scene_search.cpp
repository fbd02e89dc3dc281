// Video scene search: the temporal dimension of the scene-graph model.
//
// The paper's Table-1 schema identifies frames by (vid, fid), so videos
// are first-class: this example builds a synthetic trailer whose scenes
// evolve over frames (calm -> chase -> shootout), ingests it through the
// simulated VLM, and answers temporal questions with plain SQL over the
// views — e.g. "in which frame does the gun first appear?" and "which
// frames show a person riding a motorcycle?".
//
// Run:  ./build/examples/example_video_scene_search

#include <cstdio>

#include "engine/kathdb.h"
#include "multimodal/scene_graph.h"
#include "sql/engine.h"

using namespace kathdb;  // NOLINT: example brevity

namespace {

mm::SyntheticImage Frame(double variance,
                         std::vector<mm::LatentObject> objects,
                         std::vector<mm::LatentRelationship> rels) {
  mm::SyntheticImage f;
  f.color_variance = variance;
  f.objects = std::move(objects);
  f.relationships = std::move(rels);
  return f;
}

}  // namespace

int main() {
  engine::KathDB db;

  // A six-frame trailer: calm establishing shots, then the chase begins,
  // then a rooftop shootout.
  mm::SyntheticVideo trailer;
  trailer.uri = "file://videos/trailer.svid";
  trailer.frames.push_back(Frame(
      0.02, {{"person", 0.3, 0.2, 0.6, 0.9, {{"mood", "calm"}}},
             {"tree", 0.7, 0.1, 0.95, 0.9, {}}},
      {}));
  trailer.frames.push_back(Frame(
      0.03, {{"person", 0.3, 0.2, 0.6, 0.9, {}},
             {"car", 0.6, 0.5, 0.95, 0.85, {{"color", "black"}}}},
      {}));
  trailer.frames.push_back(Frame(
      0.15, {{"person", 0.2, 0.2, 0.5, 0.9, {}},
             {"motorcycle", 0.4, 0.5, 0.8, 0.95, {}}},
      {{0, "riding", 1}}));
  trailer.frames.push_back(Frame(
      0.22, {{"person", 0.2, 0.2, 0.5, 0.9, {}},
             {"motorcycle", 0.35, 0.5, 0.75, 0.95, {}},
             {"helicopter", 0.5, 0.05, 0.9, 0.3, {}}},
      {{0, "riding", 1}, {2, "chasing", 0}}));
  trailer.frames.push_back(Frame(
      0.28, {{"person", 0.3, 0.25, 0.6, 0.95, {}},
             {"gun", 0.5, 0.45, 0.6, 0.55, {}},
             {"person", 0.7, 0.2, 0.95, 0.9, {{"role", "villain"}}}},
      {{0, "holding", 1}, {0, "aiming_at", 2}}));
  trailer.frames.push_back(Frame(
      0.3, {{"person", 0.3, 0.25, 0.6, 0.95, {}},
            {"gun", 0.45, 0.45, 0.55, 0.55, {}},
            {"explosion", 0.6, 0.1, 1.0, 0.6, {}}},
      {{0, "holding", 1}}));

  fao::ExecContext ctx = db.MakeContext();
  if (!db.vlm()
           ->PopulateFromVideo(100, trailer, db.catalog(), db.lineage())
           .ok()) {
    std::fprintf(stderr, "video ingestion failed\n");
    return 1;
  }
  std::printf("Ingested a %zu-frame video as vid=100 (%lld simulated VLM "
              "tokens).\n\n",
              trailer.frames.size(),
              static_cast<long long>(db.vlm()->tokens_used()));

  sql::SqlEngine engine(db.catalog());
  auto show = [&](const char* label, const char* query) {
    std::printf("=== %s ===\n-- %s\n", label, query);
    auto r = engine.Execute(query);
    if (r.ok()) {
      std::printf("%s\n", r.value().ToText(12).c_str());
    } else {
      std::printf("error: %s\n\n", r.status().ToString().c_str());
    }
  };

  show("Objects per frame (temporal density)",
       "SELECT fid, COUNT(*) AS objects FROM scene_objects "
       "WHERE vid = 100 GROUP BY fid ORDER BY fid");
  show("First frame where a gun appears",
       "SELECT MIN(fid) AS first_gun_frame FROM scene_objects "
       "WHERE vid = 100 AND cid = 'gun'");
  show("Frames showing a person riding a motorcycle",
       "SELECT r.fid FROM scene_relationships r "
       "JOIN scene_objects s ON r.oid_i = s.oid "
       "JOIN scene_objects o ON r.oid_j = o.oid "
       "WHERE r.vid = 100 AND r.pid = 'riding' AND s.cid = 'person' "
       "AND o.cid = 'motorcycle' ORDER BY r.fid");
  show("Relationship timeline",
       "SELECT fid, pid, COUNT(*) AS n FROM scene_relationships "
       "WHERE vid = 100 GROUP BY fid, pid ORDER BY fid");

  // Scene-level excitement arc from frame statistics: one pass over the
  // views builds the index, then each frame is a lookup.
  std::printf("=== Excitement arc (action objects per frame) ===\n");
  auto index = mm::SceneIndex::Build(*db.catalog());
  if (!index.ok()) {
    std::fprintf(stderr, "scene index: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  for (int fid = 0; fid < 6; ++fid) {
    mm::FrameSceneStats stats = index->Stats(100, fid);
    std::printf("  frame %d: %d action objects, variance %.2f %s\n", fid,
                stats.num_action_objects, stats.color_variance,
                stats.num_action_objects > 0 ? "<-- exciting" : "");
  }
  return 0;
}
