#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <deque>
#include <set>
#include <utility>

#include "common/sync.h"

namespace kathdb::net {

namespace {

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

Status NotOwned(service::SessionId id) {
  return Status::NotFound("session " + std::to_string(id) +
                          " not owned by this connection");
}

}  // namespace

std::string NetStats::ToText() const {
  char buf[512];
  snprintf(buf, sizeof(buf),
           "net: conns=%lld (active %lld) | frames rx=%lld tx=%lld "
           "(partial %lld, %lld B) | queries=%lld | proto_errors=%lld "
           "unavailable=%lld reads_paused=%lld",
           static_cast<long long>(connections_accepted),
           static_cast<long long>(connections_active),
           static_cast<long long>(frames_received),
           static_cast<long long>(frames_sent),
           static_cast<long long>(partial_frames),
           static_cast<long long>(partial_bytes),
           static_cast<long long>(queries_received),
           static_cast<long long>(protocol_errors),
           static_cast<long long>(unavailable_sent),
           static_cast<long long>(reads_paused));
  return buf;
}

std::string LineageSummary(const engine::ExecutionReport& report) {
  std::string out = "plan of " + std::to_string(report.node_runs.size()) +
                    " node(s), final output '" + report.final_output_name +
                    "'\n";
  for (const auto& run : report.node_runs) {
    out += "  " + run.name + " [" + run.template_id + " v" +
           std::to_string(run.ver_id) + " " + run.dependency_pattern +
           "] -> " + std::to_string(run.output_rows) + " row(s)";
    if (run.repair_attempts > 0) {
      out += " repairs=" + std::to_string(run.repair_attempts);
    }
    if (run.semantic_flagged) out += " anomaly";
    out += "\n";
  }
  out += "total repairs=" + std::to_string(report.total_repairs) +
         " anomalies=" + std::to_string(report.total_anomalies);
  return out;
}

// ---------------------------------------------------------------------------
// Per-connection / per-query state

/// One accepted socket. Input-side fields (reader, state, sessions,
/// queries) belong to the loop thread; the outbox is shared with worker
/// threads under out_mu. `closed` (under out_mu) is how workers learn
/// the connection is gone.
struct Server::Connection {
  Connection(int fd_in, size_t max_frame_bytes)
      : fd(fd_in), reader(max_frame_bytes) {}

  const int fd;

  // ---- loop thread only ----
  enum class State { kAwaitHello, kReady, kClosed };
  State state = State::kAwaitHello;
  FrameReader reader;
  std::string rdbuf;  ///< scratch for read()
  bool paused_reading = false;
  std::set<service::SessionId> sessions;  ///< sessions this conn opened
  std::map<uint64_t, std::shared_ptr<QueryCtx>> queries;  ///< in flight

  // ---- shared with workers ----
  common::Mutex out_mu;
  std::string outbuf KATHDB_GUARDED_BY(out_mu);
  size_t out_pos KATHDB_GUARDED_BY(out_mu) = 0;  ///< consumed prefix
  bool closed KATHDB_GUARDED_BY(out_mu) = false;
};

/// In-flight query state bridging the loop thread (REPLY/CANCEL frames,
/// connection teardown) and the worker executing the query (Ask blocks
/// here; the result stream and completion callback consult the flags).
struct Server::QueryCtx {
  explicit QueryCtx(uint64_t qid_in) : qid(qid_in) {}

  const uint64_t qid;
  common::Mutex mu;
  common::CondVar cv;
  std::deque<std::string> scripted
      KATHDB_GUARDED_BY(mu);  ///< replies shipped with the QUERY
  std::deque<std::string> replies
      KATHDB_GUARDED_BY(mu);               ///< live REPLY frames
  bool cancelled KATHDB_GUARDED_BY(mu) = false;  ///< client sent CANCEL
  bool detached KATHDB_GUARDED_BY(mu) = false;   ///< conn closed mid-query
  std::atomic<uint32_t> chunks{0};  ///< PARTIAL_RESULT frames emitted
  std::atomic<uint64_t> rows{0};    ///< rows across those frames
};

/// UserChannel whose Ask relays the question to the client as an ASK
/// frame and blocks until a REPLY arrives (scripted replies shipped with
/// the query are consumed first, keeping reproducible experiments
/// wire-compatible). Cancellation or connection teardown unblocks any
/// waiter with kUserAborted, so a dead client never wedges a worker.
class Server::RemoteUser : public llm::UserChannel {
 public:
  RemoteUser(Server* server, std::shared_ptr<Connection> conn,
             std::shared_ptr<QueryCtx> ctx)
      : server_(server), conn_(std::move(conn)), ctx_(std::move(ctx)) {}

  Result<std::string> Ask(const std::string& stage,
                          const std::string& question) override {
    std::string answer;
    bool need_wire = false;
    {
      common::MutexLock lock(ctx_->mu);
      if (ctx_->cancelled || ctx_->detached) {
        return Status::UserAborted(ctx_->cancelled ? "query cancelled"
                                                   : "client disconnected");
      }
      if (!ctx_->scripted.empty()) {
        answer = ctx_->scripted.front();
        ctx_->scripted.pop_front();
      } else {
        need_wire = true;
      }
    }
    if (need_wire) {
      PayloadWriter w;
      w.PutU64(ctx_->qid);
      w.PutString(stage);
      w.PutString(question);
      server_->SendFrame(conn_, Op::kAsk, w.Take());
      common::MutexLock lock(ctx_->mu);
      while (ctx_->replies.empty() && !ctx_->cancelled && !ctx_->detached) {
        ctx_->cv.Wait(ctx_->mu);
      }
      if (ctx_->replies.empty()) {
        return Status::UserAborted(ctx_->cancelled ? "query cancelled"
                                                   : "client disconnected");
      }
      answer = ctx_->replies.front();
      ctx_->replies.pop_front();
    }
    {
      common::MutexLock lock(hist_mu_);
      history_.push_back({stage, question, answer});
      ++questions_;
    }
    return answer;
  }

  void Notify(const std::string& stage, const std::string& message) override {
    {
      common::MutexLock lock(hist_mu_);
      history_.push_back({stage, message, ""});
    }
    {
      common::MutexLock lock(ctx_->mu);
      if (ctx_->cancelled || ctx_->detached) return;
    }
    PayloadWriter w;
    w.PutU64(ctx_->qid);
    w.PutString(stage);
    w.PutString(message);
    server_->SendFrame(conn_, Op::kNotify, w.Take());
  }

  // Only read once the query has finished (same contract as
  // ScriptedUser::history), hence the analysis escape hatch.
  const std::vector<llm::Exchange>& history() const
      KATHDB_NO_THREAD_SAFETY_ANALYSIS override {
    return history_;
  }

  size_t questions_asked() const KATHDB_EXCLUDES(hist_mu_) override {
    common::MutexLock lock(hist_mu_);
    return questions_;
  }

 private:
  Server* server_;
  std::shared_ptr<Connection> conn_;
  std::shared_ptr<QueryCtx> ctx_;
  mutable common::Mutex hist_mu_;
  std::vector<llm::Exchange> history_ KATHDB_GUARDED_BY(hist_mu_);
  size_t questions_ KATHDB_GUARDED_BY(hist_mu_) = 0;
};

// ---------------------------------------------------------------------------
// Server

Server::Server(service::QueryService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    Status st = Status::IOError(std::string("bind/listen ") + options_.host +
                                ": " + strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  SetNonBlocking(listen_fd_);

  // Registered before the loop thread starts, so no RunInLoop needed.
  Status st = loop_.Add(listen_fd_, kEventRead,
                        [this](uint32_t) { OnAcceptable(); });
  if (!st.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  loop_thread_ = std::thread([this] {
    loop_thread_id_ = std::this_thread::get_id();
    loop_thread_id_set_.store(true, std::memory_order_release);
    loop_.Run();
  });
  started_ = true;
  return Status::OK();
}

void Server::Stop() {
  if (!started_) return;
  if (stopping_.exchange(true)) return;
  loop_.RunInLoop([this] {
    if (listen_fd_ >= 0) {
      loop_.Remove(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    auto conns = connections_;  // CloseConnection mutates connections_
    for (auto& [fd, conn] : conns) CloseConnection(conn);
  });
  // In-flight queries were detached above (their Asks unblock with
  // kUserAborted); wait for them to finish while the loop thread is
  // still alive to run their completion erase tasks.
  service_->Drain();
  loop_.Stop();
  loop_thread_.join();
  started_ = false;
}

NetStats Server::stats() const {
  NetStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_active = connections_active_.load();
  s.frames_received = frames_received_.load();
  s.frames_sent = frames_sent_.load();
  s.protocol_errors = protocol_errors_.load();
  s.queries_received = queries_received_.load();
  s.partial_frames = partial_frames_.load();
  s.partial_bytes = partial_bytes_.load();
  s.unavailable_sent = unavailable_sent_.load();
  s.reads_paused = reads_paused_.load();
  return s;
}

// ---------------------------------------------------------------------------
// Loop-thread handlers

void Server::OnAcceptable() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN / listener closed
    SetNonBlocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof(options_.sndbuf_bytes));
    }
    auto conn = std::make_shared<Connection>(fd, options_.max_frame_bytes);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_active_.fetch_add(1, std::memory_order_relaxed);
    connections_[fd] = conn;
    loop_.Add(fd, kEventRead,
              [this, conn](uint32_t events) { OnConnEvent(conn, events); });
  }
}

void Server::OnConnEvent(const std::shared_ptr<Connection>& conn,
                         uint32_t events) {
  if (events & kEventWrite) FlushWrites(conn);
  if (conn->state == Connection::State::kClosed) return;
  if ((events & kEventRead) && !conn->paused_reading) ReadInput(conn);
}

void Server::ReadInput(const std::shared_ptr<Connection>& conn) {
  conn->rdbuf.resize(options_.read_chunk_bytes);
  ssize_t n = ::read(conn->fd, &conn->rdbuf[0], conn->rdbuf.size());
  if (n == 0) {  // orderly EOF
    CloseConnection(conn);
    return;
  }
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    CloseConnection(conn);
    return;
  }
  conn->reader.Feed(conn->rdbuf.data(), static_cast<size_t>(n));
  Frame frame;
  while (true) {
    Result<bool> got = conn->reader.Next(&frame);
    if (!got.ok()) {
      ProtocolError(conn, got.status().message());
      return;
    }
    if (!*got) break;  // need more bytes
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    HandleFrame(conn, frame);
    if (conn->state == Connection::State::kClosed) return;
  }
}

void Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         const Frame& frame) {
  if (conn->state == Connection::State::kAwaitHello) {
    if (frame.op != Op::kHello) {
      ProtocolError(conn, std::string("expected HELLO, got ") +
                              OpName(frame.op));
      return;
    }
    PayloadReader r(frame.payload);
    auto magic = r.String();
    if (!magic.ok() || *magic != kWireMagic) {
      ProtocolError(conn, "bad protocol magic in HELLO");
      return;
    }
    if (!r.AtEnd()) {
      ProtocolError(conn, "trailing bytes after the HELLO magic");
      return;
    }
    conn->state = Connection::State::kReady;
    PayloadWriter w;
    w.PutString(kWireMagic);
    SendFrame(conn, Op::kHelloOk, w.Take());
    return;
  }

  switch (frame.op) {
    case Op::kOpenSession: {
      PayloadReader r(frame.payload);
      auto n = r.U32();
      if (!n.ok()) {
        ProtocolError(conn, "malformed OPEN_SESSION");
        return;
      }
      std::vector<std::string> replies;
      replies.reserve(*n);
      for (uint32_t i = 0; i < *n; ++i) {
        auto s = r.String();
        if (!s.ok()) {
          ProtocolError(conn, "malformed OPEN_SESSION");
          return;
        }
        replies.push_back(std::move(*s));
      }
      service::SessionId sid = service_->OpenSession(std::move(replies));
      conn->sessions.insert(sid);
      PayloadWriter w;
      w.PutU64(static_cast<uint64_t>(sid));
      SendFrame(conn, Op::kSessionOpened, w.Take());
      return;
    }
    case Op::kCloseSession: {
      PayloadReader r(frame.payload);
      auto sid = r.U64();
      if (!sid.ok()) {
        ProtocolError(conn, "malformed CLOSE_SESSION");
        return;
      }
      auto id = static_cast<service::SessionId>(*sid);
      if (conn->sessions.erase(id) == 0) {
        SendError(conn, 0, NotOwned(id));
        return;
      }
      service_->CloseSession(id);
      PayloadWriter w;
      w.PutU64(*sid);
      SendFrame(conn, Op::kSessionClosed, w.Take());
      return;
    }
    case Op::kQuery:
      HandleQuery(conn, frame);
      return;
    case Op::kReply: {
      PayloadReader r(frame.payload);
      auto qid = r.U64();
      auto answer = r.String();
      if (!qid.ok() || !answer.ok()) {
        ProtocolError(conn, "malformed REPLY");
        return;
      }
      auto it = conn->queries.find(*qid);
      if (it == conn->queries.end()) return;  // raced with completion
      {
        common::MutexLock lock(it->second->mu);
        it->second->replies.push_back(std::move(*answer));
      }
      it->second->cv.NotifyAll();
      return;
    }
    case Op::kCancel: {
      PayloadReader r(frame.payload);
      auto qid = r.U64();
      if (!qid.ok()) {
        ProtocolError(conn, "malformed CANCEL");
        return;
      }
      auto it = conn->queries.find(*qid);
      if (it == conn->queries.end()) return;  // raced with completion
      {
        common::MutexLock lock(it->second->mu);
        it->second->cancelled = true;
      }
      it->second->cv.NotifyAll();
      return;
    }
    case Op::kStats: {
      PayloadWriter w;
      w.PutString(service_->stats().ToText() + "\n" + stats().ToText());
      SendFrame(conn, Op::kStatsOk, w.Take());
      return;
    }
    case Op::kPing:
      SendFrame(conn, Op::kPong, frame.payload);
      return;
    default:
      ProtocolError(conn, std::string("unexpected opcode ") +
                              OpName(frame.op));
      return;
  }
}

void Server::HandleQuery(const std::shared_ptr<Connection>& conn,
                         const Frame& frame) {
  PayloadReader r(frame.payload);
  auto sid = r.U64();
  auto qid = r.U64();
  auto nl = r.String();
  auto n = r.U32();
  if (!sid.ok() || !qid.ok() || !nl.ok() || !n.ok()) {
    ProtocolError(conn, "malformed QUERY");
    return;
  }
  std::vector<std::string> scripted;
  scripted.reserve(*n);
  for (uint32_t i = 0; i < *n; ++i) {
    auto s = r.String();
    if (!s.ok()) {
      ProtocolError(conn, "malformed QUERY");
      return;
    }
    scripted.push_back(std::move(*s));
  }
  if (conn->queries.count(*qid) > 0) {
    ProtocolError(conn, "duplicate query id " + std::to_string(*qid));
    return;
  }
  queries_received_.fetch_add(1, std::memory_order_relaxed);
  auto id = static_cast<service::SessionId>(*sid);
  if (conn->sessions.count(id) == 0) {
    SendError(conn, *qid, NotOwned(id));
    return;
  }

  auto ctx = std::make_shared<QueryCtx>(*qid);
  ctx->scripted.assign(scripted.begin(), scripted.end());
  auto user = std::make_shared<RemoteUser>(this, conn, ctx);

  // Register + acknowledge BEFORE Submit: a worker may pick the query up
  // and ASK immediately, and the client must already know the query id
  // is live (and REPLY frames must find the ctx).
  conn->queries[*qid] = ctx;
  {
    PayloadWriter w;
    w.PutU64(*qid);
    SendFrame(conn, Op::kQueryAccepted, w.Take());
  }

  service::SubmitOptions opts;
  opts.user = user.get();
  opts.on_final_output = [this, conn, ctx](const rel::TablePtr& table) {
    StreamResult(conn, ctx, *table);
  };
  // The callback owns user/ctx until the query completes.
  opts.on_complete = [this, conn, ctx, user](
                         const Result<engine::QueryOutcome>& outcome) {
    OnQueryComplete(conn, ctx, outcome);
  };
  auto submitted = service_->Submit(id, *nl, std::move(opts));
  if (!submitted.ok()) {
    conn->queries.erase(*qid);
    SendError(conn, *qid, submitted.status());
  }
}

void Server::ProtocolError(const std::shared_ptr<Connection>& conn,
                           const std::string& reason) {
  (void)reason;
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  CloseConnection(conn);
}

void Server::CloseConnection(const std::shared_ptr<Connection>& conn) {
  if (conn->state == Connection::State::kClosed) return;
  conn->state = Connection::State::kClosed;
  {
    common::MutexLock lock(conn->out_mu);
    conn->closed = true;
  }
  loop_.Remove(conn->fd);
  ::close(conn->fd);
  connections_active_.fetch_add(-1, std::memory_order_relaxed);
  // Sessions die with their connection.
  for (service::SessionId sid : conn->sessions) service_->CloseSession(sid);
  conn->sessions.clear();
  // Detach in-flight queries: blocked Asks unblock with kUserAborted,
  // streamed chunks stop; the queries run to completion on their workers
  // (usage stays metered exactly once) and their completion callbacks
  // find the connection closed.
  for (auto& [qid, ctx] : conn->queries) {
    {
      common::MutexLock lock(ctx->mu);
      ctx->detached = true;
    }
    ctx->cv.NotifyAll();
  }
  conn->queries.clear();
  connections_.erase(conn->fd);
}

// ---------------------------------------------------------------------------
// Outbound path (worker- and loop-thread callable)

void Server::SendFrame(const std::shared_ptr<Connection>& conn, Op op,
                       const std::string& payload) {
  {
    common::MutexLock lock(conn->out_mu);
    if (conn->closed) return;
    conn->outbuf += EncodeFrame(op, payload);
  }
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  if (loop_thread_id_set_.load(std::memory_order_acquire) &&
      std::this_thread::get_id() == loop_thread_id_) {
    FlushWrites(conn);
  } else {
    loop_.RunInLoop([this, conn] {
      if (conn->state != Connection::State::kClosed) FlushWrites(conn);
    });
  }
}

void Server::SendError(const std::shared_ptr<Connection>& conn, uint64_t qid,
                       const Status& st) {
  if (st.IsUnavailable()) {
    unavailable_sent_.fetch_add(1, std::memory_order_relaxed);
  }
  PayloadWriter w;
  w.PutU64(qid);
  w.PutU32(static_cast<uint32_t>(st.code()));
  w.PutString(st.message());
  SendFrame(conn, Op::kError, w.Take());
}

/// Streams the final output as PARTIAL_RESULT frames of
/// options_.stream_chunk_rows rows. Runs on the worker that finished the
/// final plan node, ahead of FINAL. An empty table still goes out as one
/// frame so the client always learns the schema.
void Server::StreamResult(const std::shared_ptr<Connection>& conn,
                          const std::shared_ptr<QueryCtx>& ctx,
                          const rel::Table& table) {
  const size_t n = table.num_rows();
  const size_t k = options_.stream_chunk_rows == 0
                       ? n
                       : options_.stream_chunk_rows;
  size_t off = 0;
  do {
    {
      common::MutexLock lock(ctx->mu);
      if (ctx->cancelled || ctx->detached) return;
    }
    rel::Table chunk = table.Slice(off, off + k);
    PayloadWriter w;
    w.PutU64(ctx->qid);
    w.PutU32(ctx->chunks.fetch_add(1, std::memory_order_relaxed));
    w.PutU64(off);
    EncodeTableColumnar(chunk, &w);
    ctx->rows.fetch_add(chunk.num_rows(), std::memory_order_relaxed);
    std::string payload = w.Take();
    partial_frames_.fetch_add(1, std::memory_order_relaxed);
    partial_bytes_.fetch_add(
        static_cast<int64_t>(kFrameHeaderBytes + 1 + payload.size()),
        std::memory_order_relaxed);
    SendFrame(conn, Op::kPartialResult, payload);
    off += k;
  } while (off < n);
}

void Server::FlushWrites(const std::shared_ptr<Connection>& conn) {
  bool fatal = false;
  {
    common::MutexLock lock(conn->out_mu);
    if (conn->closed) return;
    while (conn->out_pos < conn->outbuf.size()) {
      ssize_t n = ::write(conn->fd, conn->outbuf.data() + conn->out_pos,
                          conn->outbuf.size() - conn->out_pos);
      if (n > 0) {
        conn->out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR)) {
        break;
      }
      fatal = true;
      break;
    }
    if (conn->out_pos > 0 && conn->out_pos >= conn->outbuf.size() / 2) {
      conn->outbuf.erase(0, conn->out_pos);
      conn->out_pos = 0;
    }
  }
  if (fatal) {
    CloseConnection(conn);
    return;
  }
  UpdateInterest(conn);
}

void Server::UpdateInterest(const std::shared_ptr<Connection>& conn) {
  size_t pending;
  {
    common::MutexLock lock(conn->out_mu);
    pending = conn->outbuf.size() - conn->out_pos;
  }
  // Write-buffer high-water mark: stop reading from a client that is not
  // draining its responses; resume with hysteresis at half the mark.
  if (!conn->paused_reading && pending > options_.write_high_water) {
    conn->paused_reading = true;
    reads_paused_.fetch_add(1, std::memory_order_relaxed);
  } else if (conn->paused_reading &&
             pending <= options_.write_high_water / 2) {
    conn->paused_reading = false;
  }
  uint32_t interest = 0;
  if (!conn->paused_reading) interest |= kEventRead;
  if (pending > 0) interest |= kEventWrite;
  loop_.SetInterest(conn->fd, interest);
}

void Server::OnQueryComplete(const std::shared_ptr<Connection>& conn,
                             const std::shared_ptr<QueryCtx>& ctx,
                             const Result<engine::QueryOutcome>& outcome) {
  bool cancelled, detached;
  {
    common::MutexLock lock(ctx->mu);
    cancelled = ctx->cancelled;
    detached = ctx->detached;
  }
  if (!detached) {
    if (cancelled) {
      SendError(conn, ctx->qid, Status::UserAborted("query cancelled by client"));
    } else if (outcome.ok()) {
      const engine::QueryOutcome& out = outcome.value();
      PayloadWriter w;
      w.PutU64(ctx->qid);
      w.PutU32(ctx->chunks.load(std::memory_order_relaxed));
      w.PutU64(ctx->rows.load(std::memory_order_relaxed));
      w.PutString(LineageSummary(out.report));
      w.PutString("nodes=" + std::to_string(out.report.node_runs.size()) +
                  " repairs=" + std::to_string(out.report.total_repairs) +
                  " anomalies=" +
                  std::to_string(out.report.total_anomalies));
      SendFrame(conn, Op::kFinal, w.Take());
    } else {
      SendError(conn, ctx->qid, outcome.status());
    }
  }
  // Deregister on the loop thread (conn->queries is loop-thread state).
  loop_.RunInLoop([conn, ctx] { conn->queries.erase(ctx->qid); });
}

}  // namespace kathdb::net
