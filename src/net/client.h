/// \file client.h
/// \brief Blocking kathdb-wire/1 client library.
///
/// net::Client speaks the framed protocol to a kathdbd server: HELLO
/// handshake, session open/close, NL query submission with streamed
/// partial results, clarification round-trips (the server ASKs, the
/// caller's handler answers), and cancellation. Query() reassembles the
/// streamed columnar PARTIAL_RESULT chunks into one rel::Table that is
/// cell-identical, value types included, to the table an in-process
/// QueryService::Query would return.
///
/// The client is synchronous — one outstanding query per Client — but
/// sends are mutex-guarded so Cancel() may be called from another
/// thread while Query() blocks in its read loop. Raw frame primitives
/// (SendBytes / SendFrame / ReadFrame) are exposed for protocol tests.
///
/// \ingroup kathdb_net

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "net/wire.h"
#include "relational/table.h"

namespace kathdb::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< required
  size_t max_frame_bytes = 4u << 20;
  /// SO_RCVTIMEO in milliseconds (0 = block forever). Tests set it so a
  /// missing frame fails the test instead of hanging it.
  int recv_timeout_ms = 0;
  /// SO_RCVBUF (0 = kernel default). Backpressure tests shrink it so the
  /// server's write high-water mark triggers on a small byte budget.
  int rcvbuf_bytes = 0;
};

/// Everything a completed streamed query produced.
struct StreamedResult {
  rel::Table table;  ///< reassembled from the PARTIAL_RESULT chunks
  size_t partial_frames = 0;  ///< chunks received before FINAL
  uint64_t total_rows = 0;    ///< row total reported by FINAL
  std::string lineage_summary;  ///< deterministic provenance rendering
  std::string stats;            ///< brief execution stats from FINAL
  std::vector<std::string> notifications;  ///< "stage: message" lines
  size_t questions_answered = 0;  ///< wire ASKs the handler answered
};

/// \brief One TCP connection speaking kathdb-wire/1.
class Client {
 public:
  /// Answers a server ASK: return the reply, or std::nullopt to leave
  /// the question unanswered (the query then blocks until a Cancel or
  /// disconnect aborts it).
  using AskHandler = std::function<std::optional<std::string>(
      const std::string& stage, const std::string& question)>;

  explicit Client(ClientOptions options)
      : options_(std::move(options)), reader_(options_.max_frame_bytes) {}
  ~Client() { Close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects and runs the HELLO handshake.
  Status Connect();
  /// TCP connect WITHOUT the handshake — protocol-hardening tests drive
  /// the wire by hand from here via SendBytes/SendFrame/ReadFrame.
  Status ConnectRaw();
  void Close();
  bool connected() const { return fd_ >= 0; }

  Result<uint64_t> OpenSession(
      const std::vector<std::string>& default_replies = {});
  Status CloseSession(uint64_t session_id);

  /// Submits `nl` and blocks until FINAL or ERROR, streaming chunks into
  /// the result along the way. `scripted` replies ride along in the
  /// QUERY frame and are consumed server-side before any wire ASK;
  /// `on_ask` answers the ASKs that remain. Query ids are assigned
  /// sequentially from 1 (see next_query_id()).
  Result<StreamedResult> Query(uint64_t session_id, const std::string& nl,
                               const std::vector<std::string>& scripted = {},
                               AskHandler on_ask = nullptr);

  /// Thread-safe: requests cancellation of an in-flight query while
  /// another thread blocks in Query().
  Status Cancel(uint64_t query_id);

  /// Server-side service + net counters, rendered as text.
  Result<std::string> Stats();

  /// Round-trips `payload` through PING/PONG.
  Result<std::string> Ping(const std::string& payload);

  /// The id Query() will assign to its next submission.
  uint64_t next_query_id() const { return next_qid_; }

  // ---- raw protocol access (hardening tests) ----
  Status SendBytes(const std::string& bytes)
      KATHDB_EXCLUDES(send_mu_);  ///< thread-safe
  Status SendFrame(Op op, const std::string& payload);
  /// Blocks for the next frame; kIOError on EOF, timeout, or a
  /// protocol-violating frame.
  Result<Frame> ReadFrame();

 private:
  ClientOptions options_;
  int fd_ = -1;
  FrameReader reader_;
  common::Mutex send_mu_;
  uint64_t next_qid_ = 1;
};

}  // namespace kathdb::net
