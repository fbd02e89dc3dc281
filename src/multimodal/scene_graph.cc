#include "multimodal/scene_graph.h"

#include <algorithm>

#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"
#include "vector/embedding.h"

namespace kathdb::mm {

using rel::DataType;
using rel::Schema;
using rel::Table;
using rel::TablePtr;
using rel::Value;

Status EnsureSceneGraphViews(rel::Catalog* catalog,
                             const SceneGraphViews& views) {
  if (!catalog->Has(views.objects)) {
    auto t = std::make_shared<Table>(
        views.objects, Schema({{"vid", DataType::kInt},
                               {"fid", DataType::kInt},
                               {"oid", DataType::kInt},
                               {"lid", DataType::kInt},
                               {"cid", DataType::kString},
                               {"x_1", DataType::kDouble},
                               {"y_1", DataType::kDouble},
                               {"x_2", DataType::kDouble},
                               {"y_2", DataType::kDouble}}));
    KATHDB_RETURN_IF_ERROR(catalog->Register(t, rel::RelationKind::kView));
  }
  if (!catalog->Has(views.relationships)) {
    auto t = std::make_shared<Table>(
        views.relationships, Schema({{"vid", DataType::kInt},
                                     {"fid", DataType::kInt},
                                     {"rid", DataType::kInt},
                                     {"lid", DataType::kInt},
                                     {"oid_i", DataType::kInt},
                                     {"pid", DataType::kString},
                                     {"oid_j", DataType::kInt}}));
    KATHDB_RETURN_IF_ERROR(catalog->Register(t, rel::RelationKind::kView));
  }
  if (!catalog->Has(views.attributes)) {
    auto t = std::make_shared<Table>(
        views.attributes, Schema({{"vid", DataType::kInt},
                                  {"fid", DataType::kInt},
                                  {"oid", DataType::kInt},
                                  {"lid", DataType::kInt},
                                  {"k", DataType::kString},
                                  {"v", DataType::kString}}));
    KATHDB_RETURN_IF_ERROR(catalog->Register(t, rel::RelationKind::kView));
  }
  if (!catalog->Has(views.frames)) {
    auto t = std::make_shared<Table>(
        views.frames, Schema({{"vid", DataType::kInt},
                              {"fid", DataType::kInt},
                              {"lid", DataType::kInt},
                              {"pixels", DataType::kString}}));
    KATHDB_RETURN_IF_ERROR(catalog->Register(t, rel::RelationKind::kView));
  }
  return Status::OK();
}

namespace {

/// Deterministic per-call pseudo-random stream for detector noise.
class NoiseStream {
 public:
  explicit NoiseStream(uint64_t* state) : state_(state) {}
  bool Draw(double p) {
    *state_ = SplitMix64(*state_ + 0x1234);
    double d = static_cast<double>(*state_ >> 11) / 9007199254740992.0;
    return d < p;
  }
  uint64_t Next() {
    *state_ = SplitMix64(*state_ + 0x77);
    return *state_;
  }

  /// Approximate N(0,1) via Irwin–Hall (12 uniform draws).
  double Gaussian() {
    double sum = 0.0;
    for (int i = 0; i < 12; ++i) {
      *state_ = SplitMix64(*state_ + 0x9);
      sum += static_cast<double>(*state_ >> 11) / 9007199254740992.0;
    }
    return sum - 6.0;
  }

 private:
  uint64_t* state_;
};

const char* kConfusableClasses[] = {"person", "car", "dog", "tree",
                                    "chair", "lamp", "bag"};

std::string PixelSummary(const SyntheticImage& img) {
  std::string s = "hist[";
  for (size_t i = 0; i < img.color_hist.size(); ++i) {
    if (i > 0) s += ",";
    s += FormatDouble(img.color_hist[i], 3);
  }
  s += "] var=" + FormatDouble(img.color_variance, 4);
  s += " " + std::to_string(img.width) + "x" + std::to_string(img.height);
  return s;
}

}  // namespace

Status SimulatedVlm::PopulateFromFrame(int64_t vid, int64_t fid,
                                       const SyntheticImage& frame,
                                       rel::Catalog* catalog,
                                       lineage::LineageStore* lineage,
                                       const SceneGraphViews& views) {
  if (!seeded_) {
    noise_state_ = SplitMix64(config_.seed);
    seeded_ = true;
  }
  KATHDB_RETURN_IF_ERROR(EnsureSceneGraphViews(catalog, views));
  NoiseStream noise(&noise_state_);
  tokens_used_ += config_.tokens_per_frame;

  // Provenance: the raw frame is external input; derived rows are its
  // one_to_many children produced by the view-population function.
  int64_t frame_src_lid =
      lineage->RecordIngest(frame.uri.empty() ? "mem://frame" : frame.uri,
                            "populate_scene_graph", 1,
                            lineage::LineageDataType::kTable);

  KATHDB_ASSIGN_OR_RETURN(TablePtr objects, catalog->Get(views.objects));
  KATHDB_ASSIGN_OR_RETURN(TablePtr rels, catalog->Get(views.relationships));
  KATHDB_ASSIGN_OR_RETURN(TablePtr attrs, catalog->Get(views.attributes));
  KATHDB_ASSIGN_OR_RETURN(TablePtr frames, catalog->Get(views.frames));

  // Frames row (pixel access view). A weak vision model may mis-report
  // the pixel statistics; the scene-graph-based classifier then inherits
  // that error while the ground-truth pixel path does not (E8).
  SyntheticImage perceived = frame;
  if (config_.variance_noise > 0.0) {
    double factor = 1.0 + config_.variance_noise * noise.Gaussian();
    perceived.color_variance = std::max(0.0,
                                        perceived.color_variance * factor);
  }
  int64_t frame_lid = lineage->RecordRowDerivation(
      frame_src_lid, "populate_scene_graph", 1);
  frames->AppendRow({Value::Int(vid), Value::Int(fid), Value::Int(frame_lid),
                     Value::Str(PixelSummary(perceived))},
                    frame_lid);

  // Detected objects: latent objects filtered/perturbed by noise.
  std::vector<int64_t> detected_oids(frame.objects.size(), -1);
  for (size_t i = 0; i < frame.objects.size(); ++i) {
    const LatentObject& o = frame.objects[i];
    if (noise.Draw(config_.detection_drop_prob)) continue;  // missed
    std::string cls = o.cls;
    if (noise.Draw(config_.class_confusion_prob)) {
      cls = kConfusableClasses[noise.Next() % 7];
    }
    int64_t oid = next_oid_++;
    detected_oids[i] = oid;
    int64_t lid = lineage->RecordRowDerivation(frame_src_lid,
                                               "populate_scene_graph", 1);
    objects->AppendRow({Value::Int(vid), Value::Int(fid), Value::Int(oid),
                        Value::Int(lid), Value::Str(cls), Value::Double(o.x1),
                        Value::Double(o.y1), Value::Double(o.x2),
                        Value::Double(o.y2)},
                       lid);
    for (const auto& [k, v] : o.attrs) {
      if (noise.Draw(config_.attr_drop_prob)) continue;
      int64_t alid = lineage->RecordRowDerivation(frame_src_lid,
                                                  "populate_scene_graph", 1);
      attrs->AppendRow({Value::Int(vid), Value::Int(fid), Value::Int(oid),
                        Value::Int(alid), Value::Str(k), Value::Str(v)},
                       alid);
    }
  }

  // Relationships survive only if both endpoints were detected.
  for (const auto& r : frame.relationships) {
    if (r.subject < 0 || r.object < 0 ||
        static_cast<size_t>(r.subject) >= detected_oids.size() ||
        static_cast<size_t>(r.object) >= detected_oids.size()) {
      continue;
    }
    if (detected_oids[r.subject] < 0 || detected_oids[r.object] < 0) continue;
    int64_t rid = next_rid_++;
    int64_t lid = lineage->RecordRowDerivation(frame_src_lid,
                                               "populate_scene_graph", 1);
    rels->AppendRow({Value::Int(vid), Value::Int(fid), Value::Int(rid),
                     Value::Int(lid), Value::Int(detected_oids[r.subject]),
                     Value::Str(r.predicate),
                     Value::Int(detected_oids[r.object])},
                    lid);
  }
  return Status::OK();
}

Status SimulatedVlm::PopulateFromVideo(int64_t vid,
                                       const SyntheticVideo& video,
                                       rel::Catalog* catalog,
                                       lineage::LineageStore* lineage,
                                       const SceneGraphViews& views) {
  for (size_t f = 0; f < video.frames.size(); ++f) {
    KATHDB_RETURN_IF_ERROR(PopulateFromFrame(
        vid, static_cast<int64_t>(f), video.frames[f], catalog, lineage,
        views));
  }
  return Status::OK();
}

size_t SceneIndex::FrameKeyHash::operator()(const FrameKey& k) const {
  return static_cast<size_t>(common::HashCombine(
      static_cast<uint64_t>(k.first), static_cast<uint64_t>(k.second)));
}

Result<SceneIndex> SceneIndex::Build(const rel::Catalog& catalog,
                                     const SceneGraphViews& views) {
  SceneIndex index;
  KATHDB_ASSIGN_OR_RETURN(index.objects_, catalog.Get(views.objects));
  KATHDB_ASSIGN_OR_RETURN(TablePtr rels, catalog.Get(views.relationships));
  KATHDB_ASSIGN_OR_RETURN(index.frames_, catalog.Get(views.frames));
  auto frame_of = [&index](const Table& t, size_t r) -> Frame& {
    return index.by_frame_[{t.at(r, 0).AsInt(), t.at(r, 1).AsInt()}];
  };
  for (size_t r = 0; r < index.objects_->num_rows(); ++r) {
    frame_of(*index.objects_, r).object_rows.push_back(r);
  }
  for (size_t r = 0; r < rels->num_rows(); ++r) {
    ++frame_of(*rels, r).num_relationships;
  }
  for (size_t r = 0; r < index.frames_->num_rows(); ++r) {
    Frame& frame = frame_of(*index.frames_, r);
    if (frame.frame_row == SIZE_MAX) frame.frame_row = r;
  }
  return index;
}

FrameSceneStats SceneIndex::Stats(int64_t vid, int64_t fid) const {
  FrameSceneStats stats;
  auto it = by_frame_.find({vid, fid});
  if (it == by_frame_.end()) return stats;
  const Frame& frame = it->second;
  static const vec::ConceptLexicon lexicon = vec::ConceptLexicon::BuiltIn();
  for (size_t r : frame.object_rows) {
    ++stats.num_objects;
    std::string concept_name = lexicon.ConceptOf(objects_->at(r, 4).AsString());
    if (concept_name == "action" || concept_name == "violence") {
      ++stats.num_action_objects;
    }
  }
  stats.num_relationships = frame.num_relationships;
  if (frame.frame_row != SIZE_MAX) {
    // Parse " var=<x> " back out of the pixel summary. at() returns the
    // cell by value, so AsString()'s reference points into a temporary —
    // copy it out before the full-expression ends.
    const std::string pix = frames_->at(frame.frame_row, 3).AsString();
    auto pos = pix.find("var=");
    if (pos != std::string::npos) {
      stats.color_variance = std::strtod(pix.c_str() + pos + 4, nullptr);
    }
  }
  return stats;
}

Result<FrameSceneStats> ComputeFrameStats(int64_t vid, int64_t fid,
                                          const rel::Catalog& catalog,
                                          const SceneGraphViews& views) {
  KATHDB_ASSIGN_OR_RETURN(SceneIndex index, SceneIndex::Build(catalog, views));
  return index.Stats(vid, fid);
}

}  // namespace kathdb::mm
