/// \file wire_serde_test.cc
/// \brief Round-trip and rejection tests for the kathdb-wire/1 columnar
/// result encoding (EncodeTableColumnar / DecodeTableColumnar).
///
/// The property under test: for every table the relational layer can
/// represent — every column encoding, NULLs anywhere, dictionary
/// strings (empty / embedded NUL / non-ASCII), zero-copy view slices,
/// schema columns without storage, empty and 1-row and multi-chunk
/// shapes — decode(encode(t)) is logically identical to t (schema,
/// cells, cell types, fingerprint). And for every malformed payload —
/// any truncated prefix, bad type/encoding tags, out-of-range
/// dictionary codes, absurd row/column counts — decode fails with a
/// Status instead of crashing or fabricating rows.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "relational/io.h"
#include "relational/table.h"

namespace kathdb::net {
namespace {

using rel::DataType;
using rel::Schema;
using rel::Table;
using rel::Value;

std::string Encode(const Table& t) {
  PayloadWriter w;
  EncodeTableColumnar(t, &w);
  return w.Take();
}

Result<Table> Decode(const std::string& payload, const std::string& name) {
  PayloadReader r(payload);
  return DecodeTableColumnar(&r, name);
}

/// Logical identity: schema, row count, per-cell value AND value type,
/// and the encoding-independent fingerprint.
void ExpectIdentical(const Table& a, const Table& b) {
  ASSERT_TRUE(a.schema() == b.schema())
      << a.schema().ToString() << " vs " << b.schema().ToString();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.schema().num_columns(); ++c) {
      Value va = c < a.num_physical_columns() ? a.at(r, c) : Value::Null();
      Value vb = c < b.num_physical_columns() ? b.at(r, c) : Value::Null();
      EXPECT_EQ(va.type(), vb.type()) << "row " << r << " col " << c;
      EXPECT_EQ(va, vb) << "row " << r << " col " << c;
    }
  }
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

void ExpectRoundTrips(const Table& t) {
  auto decoded = Decode(Encode(t), t.name());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectIdentical(t, *decoded);
}

/// One column of every encoding, NULLs sprinkled through each.
Table MakeAllTypesTable(size_t rows) {
  Schema schema;
  schema.AddColumn("b", DataType::kBool);
  schema.AddColumn("i", DataType::kInt);
  schema.AddColumn("d", DataType::kDouble);
  schema.AddColumn("s", DataType::kString);
  Table t("all_types", schema);
  static const char* kStrings[] = {"", "plain", "uni\xc3\xa7\xc3\xb8" "de",
                                   "embedded\0nul", "trailing "};
  for (size_t r = 0; r < rows; ++r) {
    rel::Row row;
    row.push_back(r % 5 == 0 ? Value::Null() : Value::Bool(r % 2 == 0));
    row.push_back(r % 7 == 0 ? Value::Null()
                             : Value::Int(static_cast<int64_t>(r) * 1'000'003 -
                                          500'000));
    row.push_back(r % 4 == 0 ? Value::Null()
                             : Value::Double(static_cast<double>(r) / 3.0));
    if (r % 6 == 0) {
      row.push_back(Value::Null());
    } else if (r % 11 == 0) {
      row.push_back(Value::Str(std::string("embedded\0nul", 12)));
    } else {
      row.push_back(Value::Str(kStrings[r % 5]));
    }
    t.AppendRow(std::move(row));
  }
  return t;
}

// ---------------------------------------------------------------------------
// Round trips

TEST(WireSerde, EmptyTableRoundTrips) {
  Schema schema;
  schema.AddColumn("x", DataType::kInt);
  schema.AddColumn("y", DataType::kString);
  ExpectRoundTrips(Table("empty", schema));
}

TEST(WireSerde, SingleRowRoundTrips) { ExpectRoundTrips(MakeAllTypesTable(1)); }

TEST(WireSerde, MultiRowAllTypesWithNullsRoundTrips) {
  ExpectRoundTrips(MakeAllTypesTable(200));
}

TEST(WireSerde, AllNullColumnsRoundTrip) {
  Schema schema;
  schema.AddColumn("a", DataType::kInt);
  schema.AddColumn("b", DataType::kString);
  Table t("nulls", schema);
  for (int r = 0; r < 70; ++r) t.AppendRow({Value::Null(), Value::Null()});
  ExpectRoundTrips(t);
}

TEST(WireSerde, SpecialDoublesRoundTripBitExact) {
  Schema schema;
  schema.AddColumn("d", DataType::kDouble);
  Table t("doubles", schema);
  t.AppendRow({Value::Double(0.0)});
  t.AppendRow({Value::Double(-0.0)});
  t.AppendRow({Value::Double(std::numeric_limits<double>::infinity())});
  t.AppendRow({Value::Double(-std::numeric_limits<double>::infinity())});
  t.AppendRow({Value::Double(std::numeric_limits<double>::quiet_NaN())});
  t.AppendRow({Value::Double(std::numeric_limits<double>::denorm_min())});
  t.AppendRow({Value::Null()});

  auto decoded = Decode(Encode(t), "doubles");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->num_rows(), t.num_rows());
  // NaN != NaN under Compare-is-equal? (NaNs compare equal in Value), so
  // check bit patterns through the typed accessor instead.
  for (size_t r = 0; r + 1 < t.num_rows(); ++r) {
    double in = t.at(r, 0).AsDouble();
    double out = decoded->at(r, 0).AsDouble();
    EXPECT_EQ(std::signbit(in), std::signbit(out)) << "row " << r;
    EXPECT_TRUE((std::isnan(in) && std::isnan(out)) || in == out)
        << "row " << r;
  }
  EXPECT_TRUE(decoded->at(t.num_rows() - 1, 0).is_null());
}

TEST(WireSerde, ViewSliceEncodesOnlyItsWindow) {
  Table full = MakeAllTypesTable(300);
  Table view = full.Slice(37, 161);
  ASSERT_TRUE(view.is_view());

  auto decoded = Decode(Encode(view), "slice");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectIdentical(view, *decoded);
}

TEST(WireSerde, SlicedDictColumnRemapsCodesDense) {
  // A 1-row slice of a table with a large dictionary: the wire block
  // must carry only the referenced entry, not the whole parent dict.
  Schema schema;
  schema.AddColumn("s", DataType::kString);
  Table t("dict", schema);
  for (int r = 0; r < 64; ++r) {
    t.AppendRow({Value::Str("value-" + std::to_string(r))});
  }
  Table one = t.Slice(40, 41);
  std::string payload = Encode(one);
  // Encoded payload stays small: schema + 1 validity word + 1 dict entry
  // + 1 code, nowhere near 64 dictionary strings.
  EXPECT_LT(payload.size(), 100u);
  auto decoded = Decode(payload, "one");
  ASSERT_TRUE(decoded.ok());
  ExpectIdentical(one, *decoded);
}

TEST(WireSerde, MixedColumnRoundTrips) {
  Schema schema;
  schema.AddColumn("m", DataType::kString);
  Table t("mixed", schema);
  t.AppendRow({Value::Int(7)});
  t.AppendRow({Value::Str("seven")});  // demotes the column to kMixed
  t.AppendRow({Value::Double(7.5)});
  t.AppendRow({Value::Bool(true)});
  t.AppendRow({Value::Null()});
  ExpectRoundTrips(t);
}

TEST(WireSerde, MissingTrailingColumnReadsAsNull) {
  // Schema wider than physically materialized columns: the missing
  // column travels as an EMPTY block and reads back as NULLs.
  Schema narrow;
  narrow.AddColumn("a", DataType::kInt);
  Table t("t", narrow);
  t.AppendRow({Value::Int(1)});
  t.AppendRow({Value::Int(2)});
  t.mutable_schema()->AddColumn("b", DataType::kString);
  ASSERT_LT(t.num_physical_columns(), t.schema().num_columns());

  auto decoded = Decode(Encode(t), "t");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->num_rows(), 2u);
  EXPECT_EQ(decoded->at(0, 0), Value::Int(1));
  EXPECT_TRUE(decoded->at(0, 1).is_null());
  EXPECT_TRUE(decoded->at(1, 1).is_null());
}

TEST(WireSerde, ZeroColumnTableCarriesRowCount) {
  Table t("empty_schema", Schema());
  for (int i = 0; i < 3; ++i) t.AppendRow({});
  auto decoded = Decode(Encode(t), "empty_schema");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->schema().num_columns(), 0u);
  EXPECT_EQ(decoded->num_rows(), 3u);
}

TEST(WireSerde, MultiChunkReassemblyMatchesWholeTable) {
  // Chunked streaming shape: encode consecutive slices, decode and
  // AppendSlice them back together — the reassembled table must match
  // the original, CSV rendering included.
  Table full = MakeAllTypesTable(100);
  Table rebuilt;
  bool first = true;
  for (size_t begin = 0; begin < full.num_rows(); begin += 7) {
    Table chunk = full.Slice(begin, begin + 7);
    auto decoded = Decode(Encode(chunk), "result");
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    if (first) {
      rebuilt = std::move(*decoded);
      first = false;
    } else {
      ASSERT_TRUE(decoded->schema() == rebuilt.schema());
      rebuilt.AppendSlice(*decoded, 0, decoded->num_rows());
    }
  }
  rebuilt.set_name(full.name());
  ExpectIdentical(full, rebuilt);
  EXPECT_EQ(rel::TableToCsv(full), rel::TableToCsv(rebuilt));
}

TEST(WireSerde, SurvivesAFullFrameRoundTrip) {
  Table t = MakeAllTypesTable(50);
  PayloadWriter w;
  w.PutU64(42);       // query id
  w.PutU32(0);        // seq
  w.PutU64(0);        // row offset
  EncodeTableColumnar(t, &w);
  std::string framed = EncodeFrame(Op::kPartialResult, w.Take());

  FrameReader reader(4u << 20);
  reader.Feed(framed.data(), framed.size());
  Frame frame;
  auto got = reader.Next(&frame);
  ASSERT_TRUE(got.ok() && *got);
  ASSERT_EQ(frame.op, Op::kPartialResult);
  PayloadReader r(frame.payload);
  ASSERT_TRUE(r.U64().ok() && r.U32().ok() && r.U64().ok());
  auto decoded = DecodeTableColumnar(&r, "all_types");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  ExpectIdentical(t, *decoded);
}

// ---------------------------------------------------------------------------
// Rejection

TEST(WireSerde, EveryTruncatedPrefixIsRejected) {
  // Each byte of the payload belongs to some required field, so every
  // strict prefix must fail cleanly — no crash, no partial table.
  Table t = MakeAllTypesTable(9);
  std::string payload = Encode(t);
  ASSERT_TRUE(Decode(payload, "t").ok());
  for (size_t len = 0; len < payload.size(); ++len) {
    auto decoded = Decode(payload.substr(0, len), "t");
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireSerde, RejectsBadColumnTypeTag) {
  PayloadWriter w;
  w.PutU32(1);
  w.PutString("c");
  w.PutU8(17);  // DataType tags stop at kString = 4
  auto decoded = Decode(w.Take(), "t");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("type tag"), std::string::npos);
}

TEST(WireSerde, RejectsBadColumnEncodingTag) {
  PayloadWriter w;
  w.PutU32(1);
  w.PutString("c");
  w.PutU8(static_cast<uint8_t>(DataType::kInt));
  w.PutU64(1);  // nrows
  w.PutU8(9);   // encoding tags stop at MIXED = 5
  auto decoded = Decode(w.Take(), "t");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("encoding tag"),
            std::string::npos);
}

TEST(WireSerde, RejectsBadMixedValueTag) {
  PayloadWriter w;
  w.PutU32(1);
  w.PutString("c");
  w.PutU8(static_cast<uint8_t>(DataType::kString));
  w.PutU64(1);    // nrows
  w.PutU8(5);     // MIXED, no-nulls flavor: every row carries a value
  w.PutU8(0);     // tag 0 is not a value type
  auto decoded = Decode(w.Take(), "t");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("mixed value tag"),
            std::string::npos);
}

TEST(WireSerde, RejectsDictionaryCodeOutOfRange) {
  PayloadWriter w;
  w.PutU32(1);
  w.PutString("s");
  w.PutU8(static_cast<uint8_t>(DataType::kString));
  w.PutU64(1);          // nrows
  w.PutU8(4);           // DICT, no-nulls flavor
  w.PutVarint(1);       // one dictionary entry
  w.PutVarint(4);
  w.PutBytes("only", 4);
  w.PutVarint(5);       // code 5 >= dict size 1
  auto decoded = Decode(w.Take(), "t");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("code out of range"),
            std::string::npos);
}

TEST(WireSerde, RejectsDictionaryWiderThanRowCount) {
  PayloadWriter w;
  w.PutU32(1);
  w.PutString("s");
  w.PutU8(static_cast<uint8_t>(DataType::kString));
  w.PutU64(1);     // nrows
  w.PutU8(4);      // DICT, no-nulls flavor
  w.PutVarint(3);  // 3 dict entries for a 1-row chunk: impossible
  auto decoded = Decode(w.Take(), "t");
  ASSERT_FALSE(decoded.ok());
}

TEST(WireSerde, RejectsAbsurdColumnAndRowCounts) {
  {
    PayloadWriter w;
    w.PutU32(100'000);  // columns
    auto decoded = Decode(w.Take(), "t");
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().message().find("columns"), std::string::npos);
  }
  {
    PayloadWriter w;
    w.PutU32(1);
    w.PutString("c");
    w.PutU8(static_cast<uint8_t>(DataType::kInt));
    w.PutU64(uint64_t{1} << 40);  // rows
    auto decoded = Decode(w.Take(), "t");
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().message().find("rows"), std::string::npos);
  }
}

TEST(WireSerde, NullRowsCarryNoDictCodes) {
  // NULL rows carry no payload at all: a nulls-flavored dict block
  // (tag | 0x80, validity words) lists codes for non-NULL rows only,
  // and the NULL row decodes to NULL with its code normalized to 0.
  PayloadWriter w;
  w.PutU32(1);
  w.PutString("s");
  w.PutU8(static_cast<uint8_t>(DataType::kString));
  w.PutU64(2);         // nrows
  w.PutU8(4 | 0x80);   // DICT with NULLs
  w.PutU64(0b01);      // row 0 non-NULL, row 1 NULL
  w.PutVarint(1);      // one dictionary entry
  w.PutVarint(7);
  w.PutBytes("present", 7);
  w.PutVarint(0);      // row 0 -> "present"; row 1 ships nothing
  auto decoded = Decode(w.Take(), "t");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->at(0, 0), Value::Str("present"));
  EXPECT_TRUE(decoded->at(1, 0).is_null());
}

}  // namespace
}  // namespace kathdb::net
