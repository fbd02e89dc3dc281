#include "support/table_csv.h"

namespace kathdb::rel {

namespace {

void AppendCsvField(const std::string& s, std::string* out) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) {
    *out += s;
    return;
  }
  out->push_back('"');
  for (char c : s) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

std::string TableToCsv(const Table& table) {
  std::string out;
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) out += ",";
    AppendCsvField(schema.column(c).name + ":" +
                       DataTypeName(schema.column(c).type),
                   &out);
  }
  out += "\n";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      if (c > 0) out += ",";
      const Value& v = table.at(r, c);
      if (v.is_null()) continue;  // empty field = NULL
      std::string cell = v.ToString();
      // An empty non-null string must be quoted to differ from NULL.
      if (cell.empty()) {
        out += "\"\"";
      } else {
        AppendCsvField(cell, &out);
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace kathdb::rel
