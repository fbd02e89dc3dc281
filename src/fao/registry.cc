#include "fao/registry.h"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace kathdb::fao {

int64_t FunctionRegistry::RegisterNewVersionLocked(FunctionSpec spec) {
  auto& versions = specs_[spec.name];
  spec.ver_id = versions.empty() ? 1 : versions.back().ver_id + 1;
  versions.push_back(spec);
  return spec.ver_id;
}

int64_t FunctionRegistry::RegisterNewVersion(FunctionSpec spec) {
  common::MutexLock lock(mu_);
  return RegisterNewVersionLocked(std::move(spec));
}

Result<FunctionSpec> FunctionRegistry::Latest(const std::string& name) const {
  common::MutexLock lock(mu_);
  auto it = specs_.find(name);
  if (it == specs_.end() || it->second.empty()) {
    return Status::NotFound("no implementation registered for '" + name +
                            "'");
  }
  return it->second.back();
}

Result<FunctionSpec> FunctionRegistry::Version(const std::string& name,
                                               int64_t ver_id) const {
  common::MutexLock lock(mu_);
  return VersionLocked(name, ver_id);
}

Result<FunctionSpec> FunctionRegistry::VersionLocked(const std::string& name,
                                                     int64_t ver_id) const {
  auto it = specs_.find(name);
  if (it == specs_.end()) {
    return Status::NotFound("unknown function '" + name + "'");
  }
  for (const auto& s : it->second) {
    if (s.ver_id == ver_id) return s;
  }
  return Status::NotFound("function '" + name + "' has no version " +
                          std::to_string(ver_id));
}

std::vector<FunctionSpec> FunctionRegistry::VersionsOf(
    const std::string& name) const {
  common::MutexLock lock(mu_);
  auto it = specs_.find(name);
  return it == specs_.end() ? std::vector<FunctionSpec>{} : it->second;
}

Result<int64_t> FunctionRegistry::RollbackTo(const std::string& name,
                                             int64_t ver_id) {
  common::MutexLock lock(mu_);
  KATHDB_ASSIGN_OR_RETURN(FunctionSpec old, VersionLocked(name, ver_id));
  old.source_text += " [rolled back from v" + std::to_string(ver_id) + "]";
  return RegisterNewVersionLocked(std::move(old));
}

Status FunctionRegistry::SaveToDir(const std::string& dir) const {
  common::MutexLock lock(mu_);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create directory '" + dir +
                           "': " + ec.message());
  }
  for (const auto& [name, versions] : specs_) {
    Json arr = Json::Array();
    for (const auto& v : versions) arr.Append(v.ToJson());
    std::ofstream out(dir + "/" + name + ".json");
    if (!out.good()) {
      return Status::IOError("cannot write function file for '" + name +
                             "'");
    }
    out << arr.Dump(2);
  }
  return Status::OK();
}

Status FunctionRegistry::LoadFromDir(const std::string& dir) {
  common::MutexLock lock(mu_);
  specs_.clear();
  std::error_code ec;
  auto iter = std::filesystem::directory_iterator(dir, ec);
  if (ec) {
    return Status::IOError("cannot read directory '" + dir +
                           "': " + ec.message());
  }
  for (const auto& entry : iter) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    KATHDB_ASSIGN_OR_RETURN(Json arr, Json::Parse(buf.str()));
    if (!arr.is_array()) {
      return Status::InvalidArgument("function file " +
                                     entry.path().string() +
                                     " must hold a JSON array");
    }
    std::vector<FunctionSpec> versions;
    for (const Json& v : arr.items()) {
      KATHDB_ASSIGN_OR_RETURN(FunctionSpec spec, FunctionSpec::FromJson(v));
      versions.push_back(std::move(spec));
    }
    if (!versions.empty()) {
      specs_[versions.front().name] = std::move(versions);
    }
  }
  return Status::OK();
}

}  // namespace kathdb::fao
