/// \file scene_graph.h
/// \brief Scene-graph relational views over visual content (Table 1).
///
/// Images are treated as single-frame videos. The SimulatedVlm populates
/// the four relations below from each image's latent annotations, with
/// configurable detection noise so benches can sweep accuracy/cost:
///   Objects(vid, fid, oid, lid, cid, x_1, y_1, x_2, y_2)
///   Relationships(vid, fid, rid, lid, oid_i, pid, oid_j)
///   Attributes(vid, fid, oid, lid, k, v)
///   Frames(vid, fid, lid, pixels)
///
/// \ingroup kathdb_multimodal

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "lineage/lineage.h"
#include "multimodal/media.h"
#include "relational/catalog.h"

namespace kathdb::mm {

/// Noise / cost model for the simulated vision-language model.
struct VlmConfig {
  std::string model_name = "kath-vision";
  /// Probability of missing a latent object entirely.
  double detection_drop_prob = 0.0;
  /// Probability of mislabeling a detected object's class.
  double class_confusion_prob = 0.0;
  /// Probability of dropping an attribute of a detected object.
  double attr_drop_prob = 0.0;
  /// Relative noise on the reported pixel statistics (color variance):
  /// the perceived variance is var * max(0, 1 + N(0, variance_noise)).
  /// Models a weaker vision model mis-judging how "plain" a poster is.
  double variance_noise = 0.0;
  /// Simulated prompt+completion tokens charged per analyzed frame.
  int tokens_per_frame = 350;
  uint64_t seed = 7;
};

/// Names of the scene-graph view relations in the catalog.
struct SceneGraphViews {
  std::string objects = "scene_objects";
  std::string relationships = "scene_relationships";
  std::string attributes = "scene_attributes";
  std::string frames = "scene_frames";
};

/// \brief Populates the Table-1 views from images/videos.
class SimulatedVlm {
 public:
  explicit SimulatedVlm(VlmConfig config = {}) : config_(config) {}

  const VlmConfig& config() const { return config_; }

  /// Total simulated tokens spent so far.
  int64_t tokens_used() const { return tokens_used_; }

  /// Analyzes `frame` (already decoded) as (vid, fid) and appends rows to
  /// the four views (created in `catalog` on first use). Records lineage:
  /// the frame is ingested (src_uri = image uri), each derived row is a
  /// one_to_many child of the frame's lid.
  Status PopulateFromFrame(int64_t vid, int64_t fid,
                           const SyntheticImage& frame,
                           rel::Catalog* catalog,
                           lineage::LineageStore* lineage,
                           const SceneGraphViews& views = {});

  /// Convenience: an image is a single-frame video.
  Status PopulateFromImage(int64_t vid, const SyntheticImage& image,
                           rel::Catalog* catalog,
                           lineage::LineageStore* lineage,
                           const SceneGraphViews& views = {}) {
    return PopulateFromFrame(vid, 0, image, catalog, lineage, views);
  }

  Status PopulateFromVideo(int64_t vid, const SyntheticVideo& video,
                           rel::Catalog* catalog,
                           lineage::LineageStore* lineage,
                           const SceneGraphViews& views = {});

 private:
  VlmConfig config_;
  uint64_t noise_state_ = 0;
  int64_t tokens_used_ = 0;
  int64_t next_oid_ = 1;
  int64_t next_rid_ = 1;
  bool seeded_ = false;
};

/// Ensures the four scene-graph view tables exist in `catalog`.
Status EnsureSceneGraphViews(rel::Catalog* catalog,
                             const SceneGraphViews& views = {});

/// Summary statistics of one frame's scene graph, consumed by the
/// classify_boring FAO implementations.
struct FrameSceneStats {
  int num_objects = 0;
  int num_relationships = 0;
  int num_action_objects = 0;  // objects whose class maps to action/violence
  double color_variance = 0.0;
};

/// \brief (vid, fid) -> Objects rows, Relationships count and first Frames
/// row, built in one pass over the three views.
///
/// The classify_boring FAOs probe one frame per input row; the index
/// turns that from a scan of the whole corpus into one hash lookup. It
/// holds the view tables it was built from, so its row numbers stay
/// valid if the catalog later replaces a view.
class SceneIndex {
 public:
  /// Indexes the objects, relationships and frames views of `catalog`;
  /// fails when any of the three tables is missing.
  static Result<SceneIndex> Build(const rel::Catalog& catalog,
                                  const SceneGraphViews& views = {});

  /// Stats of (vid, fid); the first Frames row supplies the colour
  /// variance. A frame absent from every view has all-zero stats.
  FrameSceneStats Stats(int64_t vid, int64_t fid) const;

 private:
  using FrameKey = std::pair<int64_t, int64_t>;  // (vid, fid)
  struct FrameKeyHash {
    size_t operator()(const FrameKey& k) const;
  };
  struct Frame {
    std::vector<size_t> object_rows;  // table order
    int num_relationships = 0;
    size_t frame_row = SIZE_MAX;      // first Frames row; SIZE_MAX = none
  };
  rel::TablePtr objects_;
  rel::TablePtr frames_;
  std::unordered_map<FrameKey, Frame, FrameKeyHash> by_frame_;
};

}  // namespace kathdb::mm
