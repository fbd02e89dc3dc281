#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>


namespace kathdb::net {

namespace {

// Maps a wire status code to a (guaranteed non-OK) Status: an ERROR
// frame carrying a nonsense code must not crash the client.
Status WireError(uint32_t code, std::string msg) {
  auto c = static_cast<StatusCode>(code);
  if (code == 0 || code >= static_cast<uint32_t>(kNumStatusCodes)) {
    c = StatusCode::kRuntimeError;
  }
  return Status(c, std::move(msg));
}

}  // namespace

Status Client::ConnectRaw() {
  if (fd_ >= 0) return Status::AlreadyExists("already connected");
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IOError(std::string("socket: ") + strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.recv_timeout_ms > 0) {
    struct timeval tv;
    tv.tv_sec = options_.recv_timeout_ms / 1000;
    tv.tv_usec = (options_.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  if (options_.rcvbuf_bytes > 0) {
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &options_.rcvbuf_bytes,
                 sizeof(options_.rcvbuf_bytes));
  }
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad address " + options_.host);
  }
  if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Status st = Status::IOError("connect " + options_.host + ":" +
                                std::to_string(options_.port) + ": " +
                                strerror(errno));
    Close();
    return st;
  }
  return Status::OK();
}

Status Client::Connect() {
  KATHDB_RETURN_IF_ERROR(ConnectRaw());
  PayloadWriter w;
  w.PutString(kWireMagic);
  KATHDB_RETURN_IF_ERROR(SendFrame(Op::kHello, w.Take()));
  KATHDB_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  if (frame.op != Op::kHelloOk) {
    Close();
    return Status::IOError(std::string("handshake: expected HELLO_OK, got ") +
                           OpName(frame.op));
  }
  PayloadReader r(frame.payload);
  auto magic = r.String();
  if (!magic.ok() || *magic != kWireMagic || !r.AtEnd()) {
    Close();
    return Status::IOError("handshake: server speaks a different protocol");
  }
  return Status::OK();
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::SendBytes(const std::string& bytes) {
  common::MutexLock lock(send_mu_);
  if (fd_ < 0) return Status::IOError("not connected");
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Client::SendFrame(Op op, const std::string& payload) {
  return SendBytes(EncodeFrame(op, payload));
}

Result<Frame> Client::ReadFrame() {
  Frame frame;
  char buf[64 << 10];
  while (true) {
    KATHDB_ASSIGN_OR_RETURN(bool got, reader_.Next(&frame));
    if (got) return frame;
    if (fd_ < 0) return Status::IOError("not connected");
    ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n == 0) return Status::IOError("connection closed by server");
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IOError("read timeout");
      }
      return Status::IOError(std::string("read: ") + strerror(errno));
    }
    reader_.Feed(buf, static_cast<size_t>(n));
  }
}

Result<uint64_t> Client::OpenSession(
    const std::vector<std::string>& default_replies) {
  PayloadWriter w;
  w.PutU32(static_cast<uint32_t>(default_replies.size()));
  for (const auto& s : default_replies) w.PutString(s);
  KATHDB_RETURN_IF_ERROR(SendFrame(Op::kOpenSession, w.Take()));
  KATHDB_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  if (frame.op != Op::kSessionOpened) {
    return Status::IOError(std::string("expected SESSION_OPENED, got ") +
                           OpName(frame.op));
  }
  PayloadReader r(frame.payload);
  return r.U64();
}

Status Client::CloseSession(uint64_t session_id) {
  PayloadWriter w;
  w.PutU64(session_id);
  KATHDB_RETURN_IF_ERROR(SendFrame(Op::kCloseSession, w.Take()));
  KATHDB_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  if (frame.op == Op::kSessionClosed) return Status::OK();
  if (frame.op == Op::kError) {
    PayloadReader r(frame.payload);
    r.U64();  // query id (0)
    auto code = r.U32();
    auto msg = r.String();
    if (code.ok() && msg.ok()) {
      return WireError(*code, std::move(*msg));
    }
  }
  return Status::IOError(std::string("expected SESSION_CLOSED, got ") +
                         OpName(frame.op));
}

Result<StreamedResult> Client::Query(uint64_t session_id,
                                     const std::string& nl,
                                     const std::vector<std::string>& scripted,
                                     AskHandler on_ask) {
  uint64_t qid = next_qid_++;
  PayloadWriter w;
  w.PutU64(session_id);
  w.PutU64(qid);
  w.PutString(nl);
  w.PutU32(static_cast<uint32_t>(scripted.size()));
  for (const auto& s : scripted) w.PutString(s);
  KATHDB_RETURN_IF_ERROR(SendFrame(Op::kQuery, w.Take()));

  StreamedResult result;
  while (true) {
    KATHDB_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
    PayloadReader r(frame.payload);
    switch (frame.op) {
      case Op::kQueryAccepted:
        break;
      case Op::kAsk: {
        KATHDB_ASSIGN_OR_RETURN(uint64_t q, r.U64());
        KATHDB_ASSIGN_OR_RETURN(std::string stage, r.String());
        KATHDB_ASSIGN_OR_RETURN(std::string question, r.String());
        if (q != qid) break;  // stale query
        if (on_ask) {
          std::optional<std::string> answer = on_ask(stage, question);
          if (answer.has_value()) {
            PayloadWriter reply;
            reply.PutU64(qid);
            reply.PutString(*answer);
            KATHDB_RETURN_IF_ERROR(SendFrame(Op::kReply, reply.Take()));
            ++result.questions_answered;
          }
        }
        break;
      }
      case Op::kNotify: {
        KATHDB_ASSIGN_OR_RETURN(uint64_t q, r.U64());
        KATHDB_ASSIGN_OR_RETURN(std::string stage, r.String());
        KATHDB_ASSIGN_OR_RETURN(std::string message, r.String());
        if (q == qid) result.notifications.push_back(stage + ": " + message);
        break;
      }
      case Op::kPartialResult: {
        KATHDB_ASSIGN_OR_RETURN(uint64_t q, r.U64());
        KATHDB_ASSIGN_OR_RETURN(uint32_t seq, r.U32());
        KATHDB_ASSIGN_OR_RETURN(uint64_t offset, r.U64());
        if (q != qid) break;  // stale query; skip the chunk body
        KATHDB_ASSIGN_OR_RETURN(rel::Table chunk,
                                DecodeTableColumnar(&r, "result"));
        if (seq != result.partial_frames) {
          return Status::IOError("partial chunk " + std::to_string(seq) +
                                 " arrived out of order (expected " +
                                 std::to_string(result.partial_frames) + ")");
        }
        if (offset != result.table.num_rows()) {
          return Status::IOError(
              "partial chunk at row offset " + std::to_string(offset) +
              " but " + std::to_string(result.table.num_rows()) +
              " row(s) reassembled so far");
        }
        if (result.partial_frames == 0) {
          result.table = std::move(chunk);
        } else if (!(chunk.schema() == result.table.schema())) {
          return Status::IOError("partial chunk schema changed mid-stream");
        } else {
          result.table.AppendSlice(chunk, 0, chunk.num_rows());
        }
        ++result.partial_frames;
        break;
      }
      case Op::kFinal: {
        KATHDB_ASSIGN_OR_RETURN(uint64_t q, r.U64());
        KATHDB_ASSIGN_OR_RETURN(uint32_t chunks, r.U32());
        KATHDB_ASSIGN_OR_RETURN(uint64_t total_rows, r.U64());
        KATHDB_ASSIGN_OR_RETURN(std::string lineage, r.String());
        KATHDB_ASSIGN_OR_RETURN(std::string stats, r.String());
        if (q != qid) break;
        if (chunks != result.partial_frames) {
          return Status::IOError(
              "FINAL reports " + std::to_string(chunks) + " chunk(s), " +
              std::to_string(result.partial_frames) + " received");
        }
        if (total_rows != result.table.num_rows()) {
          return Status::IOError(
              "FINAL reports " + std::to_string(total_rows) + " row(s), " +
              std::to_string(result.table.num_rows()) + " reassembled");
        }
        result.total_rows = total_rows;
        result.lineage_summary = std::move(lineage);
        result.stats = std::move(stats);
        return result;
      }
      case Op::kError: {
        KATHDB_ASSIGN_OR_RETURN(uint64_t q, r.U64());
        KATHDB_ASSIGN_OR_RETURN(uint32_t code, r.U32());
        KATHDB_ASSIGN_OR_RETURN(std::string msg, r.String());
        if (q != qid && q != 0) break;
        return WireError(code, std::move(msg));
      }
      default:
        return Status::IOError(std::string("unexpected ") +
                               OpName(frame.op) + " during query");
    }
  }
}

Status Client::Cancel(uint64_t query_id) {
  PayloadWriter w;
  w.PutU64(query_id);
  return SendFrame(Op::kCancel, w.Take());
}

Result<std::string> Client::Stats() {
  KATHDB_RETURN_IF_ERROR(SendFrame(Op::kStats, ""));
  KATHDB_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  if (frame.op != Op::kStatsOk) {
    return Status::IOError(std::string("expected STATS_OK, got ") +
                           OpName(frame.op));
  }
  PayloadReader r(frame.payload);
  return r.String();
}

Result<std::string> Client::Ping(const std::string& payload) {
  KATHDB_RETURN_IF_ERROR(SendFrame(Op::kPing, payload));
  KATHDB_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  if (frame.op != Op::kPong) {
    return Status::IOError(std::string("expected PONG, got ") +
                           OpName(frame.op));
  }
  return frame.payload;
}

}  // namespace kathdb::net
