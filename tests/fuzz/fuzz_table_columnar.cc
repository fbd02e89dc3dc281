/// \file fuzz_table_columnar.cc
/// \brief libFuzzer harness for the PARTIAL_RESULT columnar decoder.
///
/// DecodeTableColumnar parses the densest attacker-reachable format in
/// the protocol: varints, validity bitmaps, dictionary indirection and
/// per-row type tags. The harness feeds it arbitrary bytes (must reject
/// or accept, never crash) and, when the input decodes, re-encodes the
/// table and decodes again, asserting the round trip is value-identical
/// — the invariant the columnar result stream relies on.
///
/// Built two ways (see CMakeLists):
///  - with clang + -fsanitize=fuzzer as a real fuzzer (KATHDB_BUILD_FUZZERS)
///  - with any compiler against replay_main.cc as the corpus-replay
///    regression test fuzz_table_columnar_corpus_replay.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "net/wire.h"
#include "relational/table.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // Decoded tables allocate nrows x ncols cells; bound the input so the
  // fuzzer explores parse logic instead of allocator limits.
  if (size > 1 << 16) return 0;
  std::string payload(reinterpret_cast<const char*>(data), size);

  kathdb::net::PayloadReader r(payload);
  auto decoded = kathdb::net::DecodeTableColumnar(&r, "fuzz");
  if (!decoded.ok()) return 0;  // rejected cleanly — fine

  // Accepted: the decoded table must survive an encode/decode round
  // trip bit-for-bit at the value level.
  const kathdb::rel::Table& t = decoded.value();
  kathdb::net::PayloadWriter w;
  kathdb::net::EncodeTableColumnar(t, &w);
  std::string reencoded = w.Take();
  kathdb::net::PayloadReader r2(reencoded);
  auto redecoded = kathdb::net::DecodeTableColumnar(&r2, "fuzz");
  if (!redecoded.ok()) std::abort();  // our own encoder must parse

  const kathdb::rel::Table& u = redecoded.value();
  if (t.num_rows() != u.num_rows() ||
      t.schema().num_columns() != u.schema().num_columns()) {
    std::abort();
  }
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    if (t.schema().column(c).name != u.schema().column(c).name) std::abort();
  }
  for (size_t row = 0; row < t.num_rows(); ++row) {
    for (size_t col = 0; col < t.schema().num_columns(); ++col) {
      if (t.at(row, col).ToString() != u.at(row, col).ToString()) {
        std::abort();
      }
    }
  }
  return 0;
}
