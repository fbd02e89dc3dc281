/// \file server.h
/// \brief Event-driven TCP front-end serving the kathdb-wire/1 protocol.
///
/// One EventLoop thread owns every socket: it accepts connections,
/// deframes the byte stream into protocol frames and drives a
/// per-connection state machine (AWAIT_HELLO -> READY -> CLOSED).
/// Queries are handed to the existing service::QueryService worker
/// pool; the wire work the workers produce — ASK frames for
/// clarification round-trips, PARTIAL_RESULT frames sliced from the
/// executor's final output as soon as it exists, the FINAL frame — is
/// appended to the connection's outbox under a lock and flushed by the
/// loop thread.
///
/// Backpressure is layered:
///  - per connection, a write-buffer high-water mark: when a slow
///    client's outbox exceeds it the server stops *reading* from that
///    socket (the client's own sends eventually block), and resumes
///    below half the mark — one stalled reader never grows memory
///    without bound or starves other connections;
///  - per service, the bounded admission queue: an overloaded
///    QueryService sheds the query and the server answers with an
///    ERROR frame carrying kUnavailable instead of dropping the
///    connection.
///
/// Protocol violations (bad magic, malformed or oversized frames,
/// unknown opcodes) close the offending connection and leave the loop
/// serving everyone else. A closed connection releases its sessions
/// and detaches its in-flight queries: a blocked clarification unblocks
/// with kUserAborted, streamed chunks stop, and the query's usage stays
/// metered exactly once.
///
/// \ingroup kathdb_net

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "engine/executor.h"
#include "net/event_loop.h"
#include "net/wire.h"
#include "service/query_service.h"

namespace kathdb::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port; read it back via port().
  uint16_t port = 0;
  /// Frames larger than this are protocol violations (connection closed).
  size_t max_frame_bytes = 4u << 20;
  /// Bytes read from a socket per readable event, bounding how long one
  /// chatty connection can hold the loop.
  size_t read_chunk_bytes = 64u << 10;
  /// Write-buffer high-water mark per connection: above this many
  /// buffered outbound bytes the server stops reading from the socket;
  /// reading resumes below half the mark.
  size_t write_high_water = 1u << 20;
  /// Rows per PARTIAL_RESULT frame streamed when the final plan node
  /// completes (0 = whole table in one frame). The chunk size is a wire
  /// decision: the engine hands over the whole table and the server
  /// slices it.
  size_t stream_chunk_rows = 64;
  /// SO_SNDBUF for accepted sockets (0 = kernel default). Tests shrink
  /// it so the high-water mark triggers deterministically.
  int sndbuf_bytes = 0;
};

/// Wire-level counters (all atomically maintained; cheap to sample).
struct NetStats {
  int64_t connections_accepted = 0;
  int64_t connections_active = 0;
  int64_t frames_received = 0;
  int64_t frames_sent = 0;  ///< queued to an outbox (sent or pending)
  int64_t protocol_errors = 0;  ///< violations that closed a connection
  int64_t queries_received = 0;
  int64_t partial_frames = 0;  ///< PARTIAL_RESULT frames streamed
  int64_t partial_bytes = 0;   ///< wire bytes across those frames
                               ///< (header + opcode + payload)
  int64_t unavailable_sent = 0;  ///< overload shed as UNAVAILABLE errors
  int64_t reads_paused = 0;  ///< write high-water-mark pauses

  std::string ToText() const;
};

/// Deterministic provenance summary carried by the FINAL frame: one
/// line per plan node (name, template, dependency pattern, output rows)
/// plus repair/anomaly totals. Runtimes and raw lineage ids are
/// excluded — two runs of one query on identically seeded engines
/// render byte-identical summaries.
std::string LineageSummary(const engine::ExecutionReport& report);

/// \brief The kathdbd network front-end.
class Server {
 public:
  /// `service` must outlive the server. The server opens and closes
  /// sessions on it on behalf of connections.
  explicit Server(service::QueryService* service, ServerOptions options = {});
  ~Server();  ///< Stop()s if still running.

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the loop thread. Fails with kIOError if
  /// the address cannot be bound.
  Status Start();

  /// Closes the listener and every connection, stops the loop thread
  /// and waits for in-flight queries to finish. Idempotent.
  void Stop();

  /// The bound port (after Start); useful with ServerOptions::port = 0.
  uint16_t port() const { return port_; }

  NetStats stats() const;

 private:
  struct Connection;
  struct QueryCtx;
  class RemoteUser;
  friend class RemoteUser;

  // Loop-thread handlers.
  void OnAcceptable();
  void OnConnEvent(const std::shared_ptr<Connection>& conn, uint32_t events);
  void ReadInput(const std::shared_ptr<Connection>& conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const Frame& frame);
  void HandleQuery(const std::shared_ptr<Connection>& conn,
                   const Frame& frame);
  void ProtocolError(const std::shared_ptr<Connection>& conn,
                     const std::string& reason);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void FlushWrites(const std::shared_ptr<Connection>& conn);
  void UpdateInterest(const std::shared_ptr<Connection>& conn);

  // Worker-thread entry points (thread-safe).
  void SendFrame(const std::shared_ptr<Connection>& conn, Op op,
                 const std::string& payload);
  /// ERROR frame for query `qid` (0 = no query) carrying `st`.
  void SendError(const std::shared_ptr<Connection>& conn, uint64_t qid,
                 const Status& st);
  void StreamResult(const std::shared_ptr<Connection>& conn,
                    const std::shared_ptr<QueryCtx>& ctx,
                    const rel::Table& table);
  void OnQueryComplete(const std::shared_ptr<Connection>& conn,
                       const std::shared_ptr<QueryCtx>& ctx,
                       const Result<engine::QueryOutcome>& outcome);

  service::QueryService* service_;
  ServerOptions options_;
  EventLoop loop_;
  std::thread loop_thread_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> loop_thread_id_set_{false};
  std::thread::id loop_thread_id_;

  std::map<int, std::shared_ptr<Connection>> connections_;  ///< loop thread

  // NetStats counters.
  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> connections_active_{0};
  std::atomic<int64_t> frames_received_{0};
  std::atomic<int64_t> frames_sent_{0};
  std::atomic<int64_t> protocol_errors_{0};
  std::atomic<int64_t> queries_received_{0};
  std::atomic<int64_t> partial_frames_{0};
  std::atomic<int64_t> partial_bytes_{0};
  std::atomic<int64_t> unavailable_sent_{0};
  std::atomic<int64_t> reads_paused_{0};
};

}  // namespace kathdb::net
