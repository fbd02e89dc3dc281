/// \file table_csv.h
/// \brief CSV rendering of a table: the oracle that tests compare tables
/// through.
///
/// One typed header line ("title:STRING,year:INT,...") and one line per
/// row (each cell's Value::ToString), RFC-4180 quoting. A NULL cell is
/// an empty field and an empty string is `""`, so the rendering tells
/// the two apart. Test-only: never linked into the kathdb library.

#pragma once

#include <string>

#include "relational/table.h"

namespace kathdb::rel {

/// Serializes `table`, header first; row lineage ids are not rendered.
std::string TableToCsv(const Table& table);

}  // namespace kathdb::rel
