/// \file registry.h
/// \brief Versioned function store with disk persistence.
///
/// "Each function is assigned an identifier and a version tag ... these
/// functions are persisted locally on disk" (paper, contribution 2).
/// Whenever the optimizer or the execution-time rewriter produces a new
/// implementation, the registry stamps the next ver_id, leaving earlier
/// versions intact for lineage queries and safe roll-backs.
///
/// \ingroup kathdb_fao

#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "fao/spec.h"

namespace kathdb::fao {

/// \brief name -> ordered version list of FunctionSpecs.
///
/// Internally synchronized: version stamping, lookups and persistence may
/// be called from concurrent queries (the service layer shares one
/// registry across sessions so repairs and optimizer choices are visible
/// everywhere).
class FunctionRegistry {
 public:
  /// Stamps the next ver_id for `spec.name` and stores it. Returns the
  /// assigned version id (starting at 1 per function).
  int64_t RegisterNewVersion(FunctionSpec spec) KATHDB_EXCLUDES(mu_);

  /// Latest version of `name`; NotFound when absent.
  Result<FunctionSpec> Latest(const std::string& name) const
      KATHDB_EXCLUDES(mu_);

  /// Specific version; NotFound when absent.
  Result<FunctionSpec> Version(const std::string& name, int64_t ver_id) const
      KATHDB_EXCLUDES(mu_);

  /// All versions of `name`, oldest first (empty when unknown).
  std::vector<FunctionSpec> VersionsOf(const std::string& name) const
      KATHDB_EXCLUDES(mu_);

  /// Safe roll-back (Section 4): re-registers the body of `ver_id` as the
  /// *new latest* version, leaving history append-only. Returns the new
  /// version id; NotFound if the function/version is unknown.
  Result<int64_t> RollbackTo(const std::string& name, int64_t ver_id)
      KATHDB_EXCLUDES(mu_);

  size_t num_functions() const KATHDB_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return specs_.size();
  }

  /// Persists every function as `<dir>/<name>.json` (an array of version
  /// objects). Creates `dir` if needed.
  Status SaveToDir(const std::string& dir) const KATHDB_EXCLUDES(mu_);

  /// Loads previously saved functions, replacing in-memory state.
  Status LoadFromDir(const std::string& dir) KATHDB_EXCLUDES(mu_);

 private:
  Result<FunctionSpec> VersionLocked(const std::string& name,
                                     int64_t ver_id) const
      KATHDB_REQUIRES(mu_);
  int64_t RegisterNewVersionLocked(FunctionSpec spec) KATHDB_REQUIRES(mu_);

  mutable common::Mutex mu_;
  std::map<std::string, std::vector<FunctionSpec>> specs_
      KATHDB_GUARDED_BY(mu_);
};

}  // namespace kathdb::fao
