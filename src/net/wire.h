/// \file wire.h
/// \brief The `kathdb-wire/1` framed binary protocol.
///
/// Every message on the wire is one frame:
///
///     +------------+--------+-----------------------+
///     | u32 length | u8 op  | payload (length-1 B)  |
///     +------------+--------+-----------------------+
///
/// `length` is big-endian and counts the opcode byte plus the payload,
/// so a connection can be deframed without understanding any opcode.
/// Payload fields are big-endian fixed-width integers and u32
/// length-prefixed strings (PayloadWriter / PayloadReader). A frame
/// whose length is 0 or exceeds the configured maximum, or whose
/// payload does not parse, is a protocol violation — the peer closes
/// the connection.
///
/// The protocol carries session open/close, NL query submission,
/// clarification round-trips (server ASKs, client REPLYs), streamed
/// partial results (one PARTIAL_RESULT frame per row chunk, flushed as
/// the executor's final node completes), cancellation, and a stats
/// probe. Results travel in exactly one encoding, the columnar table
/// below; HELLO and HELLO_OK carry only the magic. Overload is shed as
/// an ERROR frame carrying kUnavailable — protocol-level backpressure
/// instead of a dropped connection.
///
/// \ingroup kathdb_net

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/table.h"

namespace kathdb::net {

/// Protocol identity exchanged in the HELLO handshake.
inline constexpr const char kWireMagic[] = "kathdb-wire/1";

/// Bytes of the frame header (the big-endian u32 length).
inline constexpr size_t kFrameHeaderBytes = 4;

/// Frame opcodes. Client-initiated ops live below 0x80, server-initiated
/// ops at 0x80 and above.
enum class Op : uint8_t {
  // client -> server
  kHello = 0x01,         ///< string magic ("kathdb-wire/1")
  kOpenSession = 0x02,   ///< u32 n, n x string default replies
  kCloseSession = 0x03,  ///< u64 session_id
  kQuery = 0x04,  ///< u64 session_id, u64 query_id, string nl, u32 n, n x
                  ///< string scripted replies
  kReply = 0x05,  ///< u64 query_id, string answer (to an ASK)
  kCancel = 0x06,  ///< u64 query_id
  kStats = 0x07,   ///< empty
  kPing = 0x08,    ///< arbitrary payload, echoed in PONG

  // server -> client
  kHelloOk = 0x81,        ///< string magic
  kSessionOpened = 0x82,  ///< u64 session_id
  kSessionClosed = 0x83,  ///< u64 session_id
  kQueryAccepted = 0x84,  ///< u64 query_id
  kAsk = 0x85,     ///< u64 query_id, string stage, string question
  kNotify = 0x86,  ///< u64 query_id, string stage, string message
  // 0x87 stays unassigned: a peer still sending the retired CSV result
  // frame gets the unknown-opcode close, never a misparse.
  kFinal = 0x88,  ///< u64 query_id, u32 chunks, u64 total_rows,
                  ///< string lineage_summary, string stats
  kError = 0x89,  ///< u64 query_id (0 = no query), u32 status code,
                  ///< string message; kUnavailable = overload shed
  kStatsOk = 0x8A,  ///< string stats text
  kPong = 0x8B,     ///< echoed PING payload
  kPartialResult = 0x8C,  ///< u64 query_id, u32 seq, u64 row_offset,
                          ///< columnar table (EncodeTableColumnar)
};

/// Human-readable opcode name ("QUERY", "PARTIAL_RESULT", ...).
const char* OpName(Op op);

/// One deframed message.
struct Frame {
  Op op;
  std::string payload;
};

/// Encodes header + opcode + payload, ready for the socket.
std::string EncodeFrame(Op op, const std::string& payload);

/// \brief Incremental deframer over a raw byte stream.
///
/// Feed() whatever read() returned — frames may arrive split across
/// arbitrary read boundaries or many at once; Next() extracts them one
/// by one.
class FrameReader {
 public:
  explicit FrameReader(size_t max_frame_bytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Feed(const char* data, size_t n) { buf_.append(data, n); }

  /// Extracts the next complete frame into `*out`. Returns true when a
  /// frame was produced, false when more bytes are needed, and an error
  /// Status on a protocol violation (zero-length or oversized frame) —
  /// the connection must then be closed.
  Result<bool> Next(Frame* out);

  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  size_t max_frame_bytes_;
  std::string buf_;
  size_t pos_ = 0;  ///< consumed prefix of buf_
};

/// \brief Builds a payload: big-endian integers + length-prefixed strings.
class PayloadWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutString(const std::string& s);  ///< u32 length + bytes
  /// Raw bytes, no length prefix (bulk column payloads).
  void PutBytes(const char* data, size_t n) { out_.append(data, n); }
  /// LEB128: 7 value bits per byte, high bit = continuation. Small
  /// values (row counts, dictionary codes, zigzagged ints) cost one
  /// byte instead of a fixed-width word.
  void PutVarint(uint64_t v);

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// \brief Bounds-checked payload parser; any overrun is an error Status.
class PayloadReader {
 public:
  explicit PayloadReader(const std::string& payload) : p_(payload) {}

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<std::string> String();
  /// Exactly n raw bytes, no length prefix.
  Result<std::string> Bytes(size_t n);
  /// LEB128 counterpart of PayloadWriter::PutVarint; rejects encodings
  /// longer than ten bytes and truncated continuations.
  Result<uint64_t> Varint();

  bool AtEnd() const { return pos_ == p_.size(); }

 private:
  const std::string& p_;
  size_t pos_ = 0;
};

/// \brief Columnar table encoding for PARTIAL_RESULT payloads.
///
/// Serializes the ColumnVector buffers of a result chunk directly:
///
///     u32 ncols
///     ncols x { string name, u8 dtype }          -- schema
///     u64 nrows
///     ncols x column block:
///       u8 tag   -- low 7 bits: 0 EMPTY, 1 BOOL, 2 INT, 3 DOUBLE,
///                   4 DICT, 5 MIXED; bit 0x80: block carries NULLs
///       EMPTY: nothing further (every cell NULL; 0x80 is invalid here)
///       else:  ceil(nrows/64) x u64 validity words (bit set = non-NULL)
///              ONLY when the 0x80 bit is set — an all-valid block
///              skips them — then the payload:
///         BOOL:   nrows x u8 (0/1; NULL rows hold 0)
///         INT:    per NON-NULL row: zigzag varint
///         DOUBLE: per NON-NULL row: u64 (IEEE-754 bit pattern)
///         DICT:   varint dict count, count x (varint length + bytes),
///                 then per NON-NULL row: varint code (remapped
///                 chunk-local dense)
///         MIXED:  per NON-NULL row: u8 type tag (1 BOOL, 2 INT,
///                 3 DOUBLE, 4 STRING) + u8 / zigzag varint / u64 bits /
///                 varint length + bytes
///
/// Varints are LEB128 (little-endian 7-bit groups); zigzag maps int64
/// n to (n << 1) ^ (n >> 63) so small magnitudes of either sign stay
/// short. Schema columns beyond num_physical_columns() encode as EMPTY
/// blocks. Lineage ids do not travel.
void EncodeTableColumnar(const rel::Table& table, PayloadWriter* w);

/// Decodes an EncodeTableColumnar payload into a table named `name`.
/// Every read is bounds-checked; malformed type tags, out-of-range
/// dictionary codes and truncated buffers fail with InvalidArgument.
Result<rel::Table> DecodeTableColumnar(PayloadReader* r,
                                       const std::string& name);

}  // namespace kathdb::net
