#include "lineage/lineage.h"

#include <algorithm>
#include <set>

#include "common/rng.h"

namespace kathdb::lineage {

const char* DependencyPatternName(DependencyPattern p) {
  switch (p) {
    case DependencyPattern::kOneToOne:
      return "one_to_one";
    case DependencyPattern::kOneToMany:
      return "one_to_many";
    case DependencyPattern::kManyToOne:
      return "many_to_one";
    case DependencyPattern::kManyToMany:
      return "many_to_many";
  }
  return "?";
}

int64_t LineageStore::NewLid() {
  common::MutexLock lock(mu_);
  return next_lid_++;
}

void LineageStore::AppendLocked(int64_t lid, int64_t parent, uint32_t src,
                                uint32_t func, LineageDataType type) {
  clock_ += 0.1;
  lid_.push_back(lid);
  parent_.push_back(parent);
  src_.push_back(src);
  func_.push_back(func);
  type_.push_back(type);
  ts_.push_back(clock_);
}

uint32_t LineageStore::InternFuncLocked(const std::string& func_id,
                                        int64_t ver_id) {
  uint32_t& id = func_ids_[func_id][ver_id];
  if (id == 0) {
    id = static_cast<uint32_t>(funcs_.size());
    funcs_.emplace_back(func_id, ver_id);
  }
  return id;
}

int64_t LineageStore::RecordIngest(const std::string& src_uri,
                                   const std::string& func_id, int64_t ver_id,
                                   LineageDataType type) {
  if (mode_ == TrackingMode::kOff) return 0;
  common::MutexLock lock(mu_);
  uint32_t src = 0;
  if (!src_uri.empty()) {
    src = static_cast<uint32_t>(src_uris_.size());
    src_uris_.push_back(src_uri);
  }
  int64_t lid = next_lid_++;
  AppendLocked(lid, 0, src, InternFuncLocked(func_id, ver_id), type);
  return lid;
}

int64_t LineageStore::RecordRowDerivation(int64_t parent_lid,
                                          const std::string& func_id,
                                          int64_t ver_id) {
  int64_t lid = 0;
  RecordRowDerivations(&parent_lid, 1, func_id, ver_id, &lid);
  return lid;
}

void LineageStore::RecordRowDerivations(const int64_t* parents, size_t n,
                                        const std::string& func_id,
                                        int64_t ver_id, int64_t* out_lids) {
  if (mode_ == TrackingMode::kOff || mode_ == TrackingMode::kTable) {
    std::fill_n(out_lids, n, 0);
    return;
  }
  common::MutexLock lock(mu_);
  uint32_t func = InternFuncLocked(func_id, ver_id);
  for (size_t i = 0; i < n; ++i) {
    int64_t parent = parents[i];
    out_lids[i] = 0;
    if (mode_ == TrackingMode::kSampled) {
      sample_state_ = SplitMix64(sample_state_);
      double draw = static_cast<double>(sample_state_ >> 11) /
                    9007199254740992.0;
      if (draw >= sample_rate_) continue;
    }
    out_lids[i] = next_lid_++;
    AppendLocked(out_lids[i], parent, 0, func, LineageDataType::kRow);
  }
}

int64_t LineageStore::RecordTableDerivation(
    const std::vector<int64_t>& parent_lids, const std::string& func_id,
    int64_t ver_id) {
  if (mode_ == TrackingMode::kOff) return 0;
  common::MutexLock lock(mu_);
  int64_t lid = next_lid_++;
  uint32_t func = InternFuncLocked(func_id, ver_id);
  if (parent_lids.empty()) {
    AppendLocked(lid, 0, 0, func, LineageDataType::kTable);
  }
  for (int64_t p : parent_lids) {
    AppendLocked(lid, p, 0, func, LineageDataType::kTable);
  }
  return lid;
}

std::vector<LineageEntry> LineageStore::EdgesOfLocked(int64_t lid) const {
  std::vector<LineageEntry> out;
  auto [lo, hi] = std::equal_range(lid_.begin(), lid_.end(), lid);
  for (size_t i = lo - lid_.begin(); i < size_t(hi - lid_.begin()); ++i) {
    const auto& [func_id, ver_id] = funcs_[func_[i]];
    std::optional<int64_t> parent;
    if (parent_[i] != 0) parent = parent_[i];
    out.push_back({lid, parent, src_uris_[src_[i]], func_id, ver_id,
                   type_[i], ts_[i]});
  }
  return out;
}

std::vector<LineageEntry> LineageStore::EdgesOf(int64_t lid) const {
  common::MutexLock lock(mu_);
  return EdgesOfLocked(lid);
}

std::vector<int64_t> LineageStore::ParentsOf(int64_t lid) const {
  common::MutexLock lock(mu_);
  std::vector<int64_t> out;
  for (const auto& e : EdgesOfLocked(lid)) {
    if (e.parent_lid.has_value()) out.push_back(*e.parent_lid);
  }
  return out;
}

std::vector<LineageEntry> LineageStore::TraceToSources(int64_t lid) const {
  common::MutexLock lock(mu_);
  std::vector<LineageEntry> out;
  std::set<int64_t> visited;
  std::vector<int64_t> frontier{lid};
  while (!frontier.empty()) {
    int64_t cur = frontier.back();
    frontier.pop_back();
    if (!visited.insert(cur).second) continue;
    for (const auto& e : EdgesOfLocked(cur)) {
      out.push_back(e);
      if (e.parent_lid.has_value()) frontier.push_back(*e.parent_lid);
    }
  }
  return out;
}

rel::Table LineageStore::ToTable(size_t max_rows) const {
  using rel::DataType;
  using rel::Value;
  rel::Table t("Lineage", rel::Schema({{"lid", DataType::kInt},
                                       {"parent_lid", DataType::kInt},
                                       {"src_uri", DataType::kString},
                                       {"func_id", DataType::kString},
                                       {"ver_id", DataType::kInt},
                                       {"data_type", DataType::kString},
                                       {"ts", DataType::kDouble}}));
  common::MutexLock lock(mu_);
  size_t n = max_rows == 0 ? lid_.size() : std::min(max_rows, lid_.size());
  for (size_t i = 0; i < n; ++i) {
    const std::string& src_uri = src_uris_[src_[i]];
    const auto& [func_id, ver_id] = funcs_[func_[i]];
    t.AppendRow({Value::Int(lid_[i]),
                 parent_[i] != 0 ? Value::Int(parent_[i]) : Value::Null(),
                 src_uri.empty() ? Value::Null() : Value::Str(src_uri),
                 func_id.empty() ? Value::Null() : Value::Str(func_id),
                 Value::Int(ver_id),
                 Value::Str(type_[i] == LineageDataType::kRow ? "row"
                                                              : "table"),
                 Value::Double(ts_[i])});
  }
  return t;
}

size_t LineageStore::ApproxBytes() const {
  common::MutexLock lock(mu_);
  size_t bytes = lid_.size() * kBytesPerEdge;
  for (const auto& s : src_uris_) bytes += s.size();
  for (const auto& f : funcs_) bytes += f.first.size();
  return bytes;
}

}  // namespace kathdb::lineage
