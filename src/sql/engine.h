/// \file engine.h
/// \brief SQL execution engine over the KathDB catalog.
///
/// FAO function bodies of kind "sql" execute through this engine; the
/// baselines and tests also use it directly. The engine resolves qualified
/// column references introduced by joins, lowers statements onto the
/// chunk-pulling operators in relational/ops.h, and materializes results.
///
/// \ingroup kathdb_sql

#pragma once

#include <string>

#include "common/status.h"
#include "relational/catalog.h"
#include "sql/ast.h"

namespace kathdb::sql {

/// \brief Parses, plans and executes SQL statements against a catalog.
class SqlEngine {
 public:
  explicit SqlEngine(rel::Catalog* catalog) : catalog_(catalog) {}

  /// Executes one statement. SELECT returns the result table; CREATE TABLE
  /// and INSERT return an empty status table named "ok".
  Result<rel::Table> Execute(const std::string& sql);

  /// Executes an already-parsed SELECT.
  Result<rel::Table> ExecuteSelect(const SelectStmt& stmt,
                                   const std::string& result_name = "result");

  /// Renders the physical operator tree for a SELECT without running it.
  Result<std::string> Explain(const std::string& sql);

 private:
  rel::Catalog* catalog_;
};

}  // namespace kathdb::sql
