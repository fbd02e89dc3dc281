#include "net/wire.h"

#include <cstring>
#include <unordered_map>

namespace kathdb::net {

const char* OpName(Op op) {
  switch (op) {
    case Op::kHello: return "HELLO";
    case Op::kOpenSession: return "OPEN_SESSION";
    case Op::kCloseSession: return "CLOSE_SESSION";
    case Op::kQuery: return "QUERY";
    case Op::kReply: return "REPLY";
    case Op::kCancel: return "CANCEL";
    case Op::kStats: return "STATS";
    case Op::kPing: return "PING";
    case Op::kHelloOk: return "HELLO_OK";
    case Op::kSessionOpened: return "SESSION_OPENED";
    case Op::kSessionClosed: return "SESSION_CLOSED";
    case Op::kQueryAccepted: return "QUERY_ACCEPTED";
    case Op::kAsk: return "ASK";
    case Op::kNotify: return "NOTIFY";
    case Op::kPartialResult: return "PARTIAL_RESULT";
    case Op::kFinal: return "FINAL";
    case Op::kError: return "ERROR";
    case Op::kStatsOk: return "STATS_OK";
    case Op::kPong: return "PONG";
  }
  return "UNKNOWN";
}

std::string EncodeFrame(Op op, const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + 1 + payload.size());
  uint32_t length = static_cast<uint32_t>(payload.size() + 1);  // + opcode
  out.push_back(static_cast<char>((length >> 24) & 0xff));
  out.push_back(static_cast<char>((length >> 16) & 0xff));
  out.push_back(static_cast<char>((length >> 8) & 0xff));
  out.push_back(static_cast<char>(length & 0xff));
  out.push_back(static_cast<char>(op));
  out += payload;
  return out;
}

Result<bool> FrameReader::Next(Frame* out) {
  // Compact once the consumed prefix dominates, so long-lived
  // connections never grow the buffer without bound.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) return false;
  const unsigned char* h =
      reinterpret_cast<const unsigned char*>(buf_.data() + pos_);
  uint32_t length = (static_cast<uint32_t>(h[0]) << 24) |
                    (static_cast<uint32_t>(h[1]) << 16) |
                    (static_cast<uint32_t>(h[2]) << 8) |
                    static_cast<uint32_t>(h[3]);
  if (length == 0) {
    return Status::InvalidArgument("zero-length frame");
  }
  if (length > max_frame_bytes_ + 1) {  // +1: opcode rides in `length`
    return Status::InvalidArgument(
        "frame of " + std::to_string(length) + " bytes exceeds the " +
        std::to_string(max_frame_bytes_) + "-byte limit");
  }
  if (avail < kFrameHeaderBytes + length) return false;
  out->op = static_cast<Op>(
      static_cast<uint8_t>(buf_[pos_ + kFrameHeaderBytes]));
  out->payload.assign(buf_, pos_ + kFrameHeaderBytes + 1, length - 1);
  pos_ += kFrameHeaderBytes + length;
  return true;
}

void PayloadWriter::PutU32(uint32_t v) {
  out_.push_back(static_cast<char>((v >> 24) & 0xff));
  out_.push_back(static_cast<char>((v >> 16) & 0xff));
  out_.push_back(static_cast<char>((v >> 8) & 0xff));
  out_.push_back(static_cast<char>(v & 0xff));
}

void PayloadWriter::PutU64(uint64_t v) {
  PutU32(static_cast<uint32_t>(v >> 32));
  PutU32(static_cast<uint32_t>(v & 0xffffffffu));
}

void PayloadWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_ += s;
}

void PayloadWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    out_.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out_.push_back(static_cast<char>(v));
}

Result<uint8_t> PayloadReader::U8() {
  if (pos_ + 1 > p_.size()) {
    return Status::InvalidArgument("truncated payload (u8)");
  }
  return static_cast<uint8_t>(p_[pos_++]);
}

Result<uint32_t> PayloadReader::U32() {
  if (pos_ + 4 > p_.size()) {
    return Status::InvalidArgument("truncated payload (u32)");
  }
  const unsigned char* b =
      reinterpret_cast<const unsigned char*>(p_.data() + pos_);
  pos_ += 4;
  return (static_cast<uint32_t>(b[0]) << 24) |
         (static_cast<uint32_t>(b[1]) << 16) |
         (static_cast<uint32_t>(b[2]) << 8) | static_cast<uint32_t>(b[3]);
}

Result<uint64_t> PayloadReader::U64() {
  KATHDB_ASSIGN_OR_RETURN(uint32_t hi, U32());
  KATHDB_ASSIGN_OR_RETURN(uint32_t lo, U32());
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

Result<std::string> PayloadReader::String() {
  KATHDB_ASSIGN_OR_RETURN(uint32_t len, U32());
  if (pos_ + len > p_.size()) {
    return Status::InvalidArgument("truncated payload (string of " +
                                   std::to_string(len) + " bytes)");
  }
  std::string s = p_.substr(pos_, len);
  pos_ += len;
  return s;
}

Result<uint64_t> PayloadReader::Varint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    KATHDB_ASSIGN_OR_RETURN(uint8_t b, U8());
    if (shift == 63 && (b & ~uint8_t{1}) != 0) {
      return Status::InvalidArgument("overlong varint");
    }
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
  return Status::InvalidArgument("overlong varint");
}

Result<std::string> PayloadReader::Bytes(size_t n) {
  if (pos_ + n > p_.size()) {
    return Status::InvalidArgument("truncated payload (" + std::to_string(n) +
                                   " raw bytes)");
  }
  std::string s = p_.substr(pos_, n);
  pos_ += n;
  return s;
}

namespace {

// Decoder sanity caps. A result chunk is bounded by the executor's stream
// chunking, so anything near these limits is a corrupt or hostile frame,
// not a real result.
constexpr uint32_t kMaxWireColumns = 4096;
constexpr uint64_t kMaxWireRows = uint64_t{1} << 24;
constexpr uint64_t kMaxWireCells = uint64_t{1} << 26;

// Column-block encoding tags (independent of ColumnEncoding's in-memory
// numbering so the wire format survives refactors).
constexpr uint8_t kEncEmpty = 0;
constexpr uint8_t kEncBool = 1;
constexpr uint8_t kEncInt = 2;
constexpr uint8_t kEncDouble = 3;
constexpr uint8_t kEncDict = 4;
constexpr uint8_t kEncMixed = 5;
/// OR'd into the tag byte when the block window holds at least one NULL;
/// all-valid blocks skip the validity words entirely.
constexpr uint8_t kEncHasNulls = 0x80;

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// Validity words for the window [off, off+nrows) of `col`, bit i set =
/// row i non-NULL (window-relative, matching the decode factories).
std::vector<uint64_t> WindowValidity(const rel::ColumnVector& col, size_t off,
                                     size_t nrows) {
  std::vector<uint64_t> valid((nrows + 63) / 64, 0);
  for (size_t i = 0; i < nrows; ++i) {
    if (!col.IsNull(off + i)) valid[i >> 6] |= uint64_t{1} << (i & 63);
  }
  return valid;
}

void PutVarString(const std::string& s, PayloadWriter* w) {
  w->PutVarint(s.size());
  w->PutBytes(s.data(), s.size());
}

Result<std::string> ReadVarString(PayloadReader* r) {
  KATHDB_ASSIGN_OR_RETURN(uint64_t len, r->Varint());
  return r->Bytes(static_cast<size_t>(len));
}

void EncodeColumnBlock(const rel::ColumnVector& col, size_t off, size_t nrows,
                       PayloadWriter* w) {
  auto non_null = [&](size_t i) { return !col.IsNull(off + i); };
  if (col.encoding() == rel::ColumnEncoding::kEmpty) {
    w->PutU8(kEncEmpty);
    return;
  }
  // Tag + validity prologue, shared by every non-EMPTY encoding: the
  // validity words travel only when the window actually holds a NULL.
  std::vector<uint64_t> valid = WindowValidity(col, off, nrows);
  size_t null_count = nrows;
  for (uint64_t word : valid) {
    null_count -= static_cast<size_t>(__builtin_popcountll(word));
  }
  auto put_tag = [&](uint8_t enc) {
    w->PutU8(null_count > 0 ? static_cast<uint8_t>(enc | kEncHasNulls)
                            : enc);
    if (null_count > 0) {
      for (uint64_t word : valid) w->PutU64(word);
    }
  };
  switch (col.encoding()) {
    case rel::ColumnEncoding::kBool: {
      put_tag(kEncBool);
      for (size_t i = 0; i < nrows; ++i) {
        w->PutU8(non_null(i) && col.BoolAt(off + i) ? 1 : 0);
      }
      return;
    }
    case rel::ColumnEncoding::kInt: {
      put_tag(kEncInt);
      for (size_t i = 0; i < nrows; ++i) {
        if (non_null(i)) w->PutVarint(ZigZag(col.IntAt(off + i)));
      }
      return;
    }
    case rel::ColumnEncoding::kDouble: {
      put_tag(kEncDouble);
      for (size_t i = 0; i < nrows; ++i) {
        if (non_null(i)) w->PutU64(DoubleBits(col.DoubleAt(off + i)));
      }
      return;
    }
    case rel::ColumnEncoding::kDict: {
      // Remap codes to a chunk-local dense dictionary: a view window may
      // reference a handful of entries of a parent table's huge dict, and
      // column-local codes must not leak absolute positions.
      put_tag(kEncDict);
      std::vector<uint32_t> local_codes;
      local_codes.reserve(nrows - null_count);
      std::vector<uint32_t> local_dict;  // local code -> source code
      std::unordered_map<uint32_t, uint32_t> remap;
      for (size_t i = 0; i < nrows; ++i) {
        if (!non_null(i)) continue;
        uint32_t code = col.CodeAt(off + i);
        auto [it, inserted] =
            remap.emplace(code, static_cast<uint32_t>(local_dict.size()));
        if (inserted) local_dict.push_back(code);
        local_codes.push_back(it->second);
      }
      w->PutVarint(local_dict.size());
      for (uint32_t code : local_dict) PutVarString(col.DictEntry(code), w);
      for (uint32_t code : local_codes) w->PutVarint(code);
      return;
    }
    case rel::ColumnEncoding::kMixed: {
      put_tag(kEncMixed);
      for (size_t i = 0; i < nrows; ++i) {
        if (!non_null(i)) continue;
        const rel::Value& v = col.MixedAt(off + i);
        switch (v.type()) {
          case rel::DataType::kBool:
            w->PutU8(kEncBool);
            w->PutU8(v.AsBool() ? 1 : 0);
            break;
          case rel::DataType::kInt:
            w->PutU8(kEncInt);
            w->PutVarint(ZigZag(v.AsInt()));
            break;
          case rel::DataType::kDouble:
            w->PutU8(kEncDouble);
            w->PutU64(DoubleBits(v.AsDouble()));
            break;
          default:
            w->PutU8(kEncDict);
            PutVarString(v.AsString(), w);
            break;
        }
      }
      return;
    }
    case rel::ColumnEncoding::kEmpty:
      return;  // handled above
  }
}

Result<std::shared_ptr<rel::ColumnVector>> DecodeColumnBlock(
    PayloadReader* r, size_t nrows) {
  KATHDB_ASSIGN_OR_RETURN(uint8_t tag, r->U8());
  uint8_t enc = tag & ~kEncHasNulls;
  bool has_nulls = (tag & kEncHasNulls) != 0;
  if (enc > kEncMixed || (enc == kEncEmpty && has_nulls)) {
    return Status::InvalidArgument("bad column encoding tag " +
                                   std::to_string(tag));
  }
  if (enc == kEncEmpty) return rel::ColumnVector::AllNulls(nrows);
  size_t words = (nrows + 63) / 64;
  std::vector<uint64_t> valid(words, 0);
  if (has_nulls) {
    for (size_t i = 0; i < words; ++i) {
      KATHDB_ASSIGN_OR_RETURN(valid[i], r->U64());
    }
  } else {
    // No validity words traveled: every row is valid.
    for (size_t i = 0; i < nrows; ++i) {
      valid[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
  auto non_null = [&](size_t i) {
    return (valid[i >> 6] & (uint64_t{1} << (i & 63))) != 0;
  };
  switch (enc) {
    case kEncBool: {
      KATHDB_ASSIGN_OR_RETURN(std::string raw, r->Bytes(nrows));
      std::vector<uint8_t> vals(nrows);
      for (size_t i = 0; i < nrows; ++i) {
        vals[i] = raw[i] != 0 ? 1 : 0;
      }
      return rel::ColumnVector::FromBools(std::move(vals), std::move(valid));
    }
    case kEncInt: {
      std::vector<int64_t> vals(nrows, 0);
      for (size_t i = 0; i < nrows; ++i) {
        if (!non_null(i)) continue;
        KATHDB_ASSIGN_OR_RETURN(uint64_t zz, r->Varint());
        vals[i] = UnZigZag(zz);
      }
      return rel::ColumnVector::FromInts(std::move(vals), std::move(valid));
    }
    case kEncDouble: {
      std::vector<double> vals(nrows, 0.0);
      for (size_t i = 0; i < nrows; ++i) {
        if (!non_null(i)) continue;
        KATHDB_ASSIGN_OR_RETURN(uint64_t bits, r->U64());
        vals[i] = BitsToDouble(bits);
      }
      return rel::ColumnVector::FromDoubles(std::move(vals), std::move(valid));
    }
    case kEncDict: {
      KATHDB_ASSIGN_OR_RETURN(uint64_t dict_count, r->Varint());
      // Chunk-local dictionaries only carry referenced entries, so a
      // dictionary wider than the row count cannot be well formed.
      if (dict_count > nrows) {
        return Status::InvalidArgument(
            "dictionary of " + std::to_string(dict_count) +
            " entries exceeds the " + std::to_string(nrows) + "-row chunk");
      }
      std::vector<std::string> dict(dict_count);
      for (uint64_t i = 0; i < dict_count; ++i) {
        KATHDB_ASSIGN_OR_RETURN(dict[i], ReadVarString(r));
      }
      std::vector<uint32_t> codes(nrows, 0);  // NULL rows keep code 0
      for (size_t i = 0; i < nrows; ++i) {
        if (!non_null(i)) continue;
        KATHDB_ASSIGN_OR_RETURN(uint64_t code, r->Varint());
        if (code >= dict_count) {
          return Status::InvalidArgument("dictionary code out of range");
        }
        codes[i] = static_cast<uint32_t>(code);
      }
      return rel::ColumnVector::FromDict(std::move(dict), std::move(codes),
                                         std::move(valid));
    }
    default: {  // kEncMixed
      std::vector<rel::Value> vals(nrows);
      for (size_t i = 0; i < nrows; ++i) {
        if (!non_null(i)) continue;
        KATHDB_ASSIGN_OR_RETURN(uint8_t vtag, r->U8());
        switch (vtag) {
          case kEncBool: {
            KATHDB_ASSIGN_OR_RETURN(uint8_t b, r->U8());
            vals[i] = rel::Value::Bool(b != 0);
            break;
          }
          case kEncInt: {
            KATHDB_ASSIGN_OR_RETURN(uint64_t zz, r->Varint());
            vals[i] = rel::Value::Int(UnZigZag(zz));
            break;
          }
          case kEncDouble: {
            KATHDB_ASSIGN_OR_RETURN(uint64_t bits, r->U64());
            vals[i] = rel::Value::Double(BitsToDouble(bits));
            break;
          }
          case kEncDict: {
            KATHDB_ASSIGN_OR_RETURN(std::string s, ReadVarString(r));
            vals[i] = rel::Value::Str(std::move(s));
            break;
          }
          default:
            return Status::InvalidArgument("bad mixed value tag " +
                                           std::to_string(vtag));
        }
      }
      return rel::ColumnVector::FromValues(std::move(vals));
    }
  }
}

}  // namespace

void EncodeTableColumnar(const rel::Table& table, PayloadWriter* w) {
  const rel::Schema& schema = table.schema();
  size_t ncols = schema.num_columns();
  w->PutU32(static_cast<uint32_t>(ncols));
  for (size_t c = 0; c < ncols; ++c) {
    w->PutString(schema.column(c).name);
    w->PutU8(static_cast<uint8_t>(schema.column(c).type));
  }
  size_t nrows = table.num_rows();
  w->PutU64(nrows);
  for (size_t c = 0; c < ncols; ++c) {
    if (c >= table.num_physical_columns()) {
      w->PutU8(kEncEmpty);  // trailing schema column without storage
      continue;
    }
    EncodeColumnBlock(table.column(c), table.offset(), nrows, w);
  }
}

Result<rel::Table> DecodeTableColumnar(PayloadReader* r,
                                       const std::string& name) {
  KATHDB_ASSIGN_OR_RETURN(uint32_t ncols, r->U32());
  if (ncols > kMaxWireColumns) {
    return Status::InvalidArgument("columnar chunk declares " +
                                   std::to_string(ncols) + " columns");
  }
  rel::Schema schema;
  for (uint32_t c = 0; c < ncols; ++c) {
    KATHDB_ASSIGN_OR_RETURN(std::string cname, r->String());
    KATHDB_ASSIGN_OR_RETURN(uint8_t dtype, r->U8());
    if (dtype > static_cast<uint8_t>(rel::DataType::kString)) {
      return Status::InvalidArgument("bad column type tag " +
                                     std::to_string(dtype));
    }
    schema.AddColumn(std::move(cname), static_cast<rel::DataType>(dtype));
  }
  KATHDB_ASSIGN_OR_RETURN(uint64_t nrows64, r->U64());
  if (nrows64 > kMaxWireRows || ncols * nrows64 > kMaxWireCells) {
    return Status::InvalidArgument("columnar chunk declares " +
                                   std::to_string(nrows64) + " rows");
  }
  size_t nrows = static_cast<size_t>(nrows64);
  if (ncols == 0) {
    // Degenerate zero-column relation: only the row count travels.
    rel::Table t(name, std::move(schema));
    for (size_t i = 0; i < nrows; ++i) t.AppendRow({});
    return t;
  }
  std::vector<rel::ColumnPtr> cols;
  cols.reserve(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    KATHDB_ASSIGN_OR_RETURN(rel::ColumnPtr col, DecodeColumnBlock(r, nrows));
    cols.push_back(std::move(col));
  }
  if (nrows == 0) {
    // Leave a row-less table without physical columns (the fresh-table
    // form, fingerprint included); the blocks above were still parsed
    // so truncation is caught.
    return rel::Table(name, std::move(schema));
  }
  return rel::Table::FromColumns(name, std::move(schema), std::move(cols),
                                 {});
}

}  // namespace kathdb::net
