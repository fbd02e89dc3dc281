// Tests for the src/net subsystem: the kathdb-wire/1 codec, the event
// loop, and the full server/client path over loopback TCP — streamed
// partial results cell-identical to the in-process service at every
// chunk size, session ownership,
// clarification round-trips over the wire, protocol hardening
// (malformed/truncated/oversized frames, unknown opcodes), slow-client
// backpressure via the write high-water mark, overload shed as
// UNAVAILABLE, cancellation, and mid-stream client disconnects.

#include "net/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "data/movie_dataset.h"
#include "engine/kathdb.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/wire.h"
#include "relational/io.h"
#include "service/query_service.h"

namespace kathdb::net {
namespace {

constexpr const char* kPaperQuery =
    "Sort the given films in the table by how exciting they are, but the "
    "poster should be 'boring'";

const std::vector<std::string> kPaperReplies = {
    "The movie plot contains scenes that are uncommon in real life",
    "I prefer more recent movies when scoring", "OK"};

constexpr int kRecvTimeoutMs = 30000;  // fail loudly instead of hanging

/// Spins until `pred` holds or ~5s elapse.
bool PollUntil(const std::function<bool()>& pred) {
  for (int i = 0; i < 1000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// Wire codec (no sockets)

TEST(WireCodec, FrameRoundTripAcrossSplitReads) {
  std::string bytes = EncodeFrame(Op::kQuery, "hello") +
                      EncodeFrame(Op::kPing, "") +
                      EncodeFrame(Op::kReply, std::string(1000, 'x'));
  FrameReader reader(1u << 20);
  std::vector<Frame> frames;
  // Feed a single byte at a time: frames must reassemble regardless of
  // read boundaries.
  for (char c : bytes) {
    reader.Feed(&c, 1);
    Frame f;
    auto got = reader.Next(&f);
    ASSERT_TRUE(got.ok());
    if (*got) frames.push_back(std::move(f));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].op, Op::kQuery);
  EXPECT_EQ(frames[0].payload, "hello");
  EXPECT_EQ(frames[1].op, Op::kPing);
  EXPECT_EQ(frames[1].payload, "");
  EXPECT_EQ(frames[2].op, Op::kReply);
  EXPECT_EQ(frames[2].payload.size(), 1000u);
}

TEST(WireCodec, RejectsZeroLengthAndOversizedFrames) {
  {
    FrameReader reader(1024);
    const char zeros[4] = {0, 0, 0, 0};
    reader.Feed(zeros, 4);
    Frame f;
    EXPECT_FALSE(reader.Next(&f).ok());
  }
  {
    FrameReader reader(1024);
    std::string big = EncodeFrame(Op::kPing, std::string(2048, 'x'));
    reader.Feed(big.data(), big.size());
    Frame f;
    EXPECT_FALSE(reader.Next(&f).ok());
  }
}

TEST(WireCodec, PayloadReaderRejectsTruncation) {
  PayloadWriter w;
  w.PutU64(42);
  w.PutString("abc");
  std::string payload = w.Take();

  PayloadReader ok_reader(payload);
  ASSERT_TRUE(ok_reader.U64().ok());
  auto s = ok_reader.String();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "abc");
  EXPECT_TRUE(ok_reader.AtEnd());

  std::string cut = payload.substr(0, payload.size() - 1);
  PayloadReader cut_reader(cut);
  ASSERT_TRUE(cut_reader.U64().ok());
  EXPECT_FALSE(cut_reader.String().ok());  // string length overruns

  const std::string no_bytes;  // PayloadReader holds a reference
  PayloadReader empty(no_bytes);
  EXPECT_FALSE(empty.U8().ok());
  EXPECT_FALSE(empty.U32().ok());
}

// ---------------------------------------------------------------------------
// Event loop

TEST(EventLoopTest, RunsTasksAndStops) {
  EventLoop loop;
  std::atomic<int> ran{0};
  std::thread t([&loop] { loop.Run(); });
  for (int i = 0; i < 10; ++i) {
    loop.RunInLoop([&ran] { ran.fetch_add(1); });
  }
  ASSERT_TRUE(PollUntil([&ran] { return ran.load() == 10; }));
  loop.Stop();
  t.join();
}

// ---------------------------------------------------------------------------
// Server fixture

class NetFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data::DatasetOptions opts;
    opts.num_movies = 12;
    auto ds = data::GenerateMovieDataset(opts);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = std::move(ds).value();
    db_ = MakeEngine();
  }

  /// A freshly ingested engine. Two of them answer one query with
  /// identical tables and lineage summaries (function ver ids included).
  /// The similarity implementation is pinned, so the byte-identity test
  /// compares lineage (template ids included) across engines on one
  /// named template rather than on whatever "auto" picks.
  std::unique_ptr<engine::KathDB> MakeEngine() {
    engine::KathDBOptions db_opts;
    db_opts.optimizer.similarity_impl = "score";
    auto db = std::make_unique<engine::KathDB>(db_opts);
    EXPECT_TRUE(data::IngestDataset(dataset_, db.get()).ok());
    return db;
  }

  void StartServer(service::ServiceOptions svc_opts = {},
                   ServerOptions net_opts = {}) {
    service_ = std::make_unique<service::QueryService>(db_.get(), svc_opts);
    server_ = std::make_unique<Server>(service_.get(), net_opts);
    Status st = server_->Start();
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  std::unique_ptr<Client> Connect(int rcvbuf_bytes = 0) {
    ClientOptions copts;
    copts.port = server_->port();
    copts.recv_timeout_ms = kRecvTimeoutMs;
    copts.rcvbuf_bytes = rcvbuf_bytes;
    auto client = std::make_unique<Client>(copts);
    Status st = client->Connect();
    EXPECT_TRUE(st.ok()) << st.ToString();
    return client;
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  data::MovieDataset dataset_;
  std::unique_ptr<engine::KathDB> db_;
  std::unique_ptr<service::QueryService> service_;
  std::unique_ptr<Server> server_;
};

// ---------------------------------------------------------------------------
// Streaming end to end

TEST_F(NetFixture, StreamedQueryMatchesInProcessByteForByte) {
  // Reference: the query through the in-process service on a second,
  // identically seeded engine (same tables, same function ver_ids, same
  // lineage summary).
  engine::QueryOutcome expected;
  {
    auto ref_db = MakeEngine();
    service::QueryService ref_service(ref_db.get());
    service::SessionId sid = ref_service.OpenSession(kPaperReplies);
    auto outcome = ref_service.Query(sid, kPaperQuery);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    expected = std::move(outcome).value();
  }
  const size_t n = expected.result.num_rows();
  ASSERT_GE(n, 2u);

  // Every chunk size streams the same table: whole-table (0), one row
  // per frame, a multi-row split, exactly N, and larger than N.
  for (size_t k : {size_t{0}, size_t{1}, size_t{2}, n, n + 1}) {
    SCOPED_TRACE("stream_chunk_rows=" + std::to_string(k));
    server_.reset();  // stops the server before its service goes
    service_.reset();
    db_ = MakeEngine();  // fresh engine: ver ids match the reference
    ServerOptions net_opts;
    net_opts.stream_chunk_rows = k;
    StartServer({}, net_opts);
    auto client = Connect();
    auto sid = client->OpenSession();
    ASSERT_TRUE(sid.ok()) << sid.status().ToString();

    // Clarifications answered live over the wire: the server ASKs, the
    // handler REPLYs.
    std::deque<std::string> replies(kPaperReplies.begin(),
                                    kPaperReplies.end());
    auto result = client->Query(
        *sid, kPaperQuery, /*scripted=*/{},
        [&replies](const std::string&, const std::string&) {
          std::optional<std::string> answer;
          if (!replies.empty()) {
            answer = replies.front();
            replies.pop_front();
          }
          return answer;
        });
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->questions_answered, 3u);
    EXPECT_TRUE(replies.empty());

    const size_t want_frames =
        k == 0 ? 1 : std::max<size_t>(1, (n + k - 1) / k);
    EXPECT_EQ(result->partial_frames, want_frames);
    EXPECT_EQ(result->total_rows, n);
    EXPECT_EQ(server_->stats().partial_frames,
              static_cast<int64_t>(want_frames));

    // The reassembled table is cell-identical, exact value types
    // included, and the lineage summary is byte-identical.
    ASSERT_TRUE(result->table.schema() == expected.result.schema());
    ASSERT_EQ(result->table.num_rows(), n);
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < expected.result.schema().num_columns(); ++c) {
        EXPECT_EQ(result->table.at(r, c), expected.result.at(r, c));
        EXPECT_EQ(result->table.at(r, c).type(),
                  expected.result.at(r, c).type());
      }
    }
    EXPECT_EQ(result->lineage_summary, LineageSummary(expected.report));
  }
}

TEST_F(NetFixture, CsvAndColumnarEncodingsMatchInProcessByteForByte) {
  // The same query through the in-process service and through a
  // connection on the same engine: the streamed (columnar) table
  // renders to byte-identical CSV, is cell-identical with exact value
  // types, and carries the same lineage summary up to ver ids.
  engine::QueryOutcome expected;
  {
    service::QueryService ref_service(db_.get());
    service::SessionId sid = ref_service.OpenSession(kPaperReplies);
    auto outcome = ref_service.Query(sid, kPaperQuery);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    expected = std::move(outcome).value();
    ref_service.CloseSession(sid);
  }
  ASSERT_GT(expected.result.num_rows(), 0u);

  ServerOptions net_opts;
  net_opts.stream_chunk_rows = 2;  // force multi-chunk reassembly
  StartServer({}, net_opts);

  auto client = Connect();
  auto sid = client->OpenSession();
  ASSERT_TRUE(sid.ok()) << sid.status().ToString();
  auto result = client->Query(*sid, kPaperQuery, kPaperReplies);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  client->CloseSession(*sid);
  StreamedResult via_col = std::move(*result);

  EXPECT_GE(via_col.partial_frames, 2u);
  EXPECT_EQ(rel::TableToCsv(via_col.table),
            rel::TableToCsv(expected.result));
  // Both runs share one engine, so each registers fresh function
  // versions; the summaries must agree on everything but the ver ids.
  auto normalize_vers = [](std::string s) {
    size_t pos = 0;
    while ((pos = s.find(" v", pos)) != std::string::npos) {
      size_t d = pos + 2;
      while (d < s.size() && std::isdigit(static_cast<unsigned char>(s[d]))) {
        ++d;
      }
      if (d > pos + 2) s.replace(pos, d - pos, " vN");
      pos += 2;
    }
    return s;
  };
  EXPECT_EQ(normalize_vers(via_col.lineage_summary),
            normalize_vers(LineageSummary(expected.report)));
  ASSERT_EQ(via_col.table.num_rows(), expected.result.num_rows());
  for (size_t r = 0; r < expected.result.num_rows(); ++r) {
    for (size_t c = 0; c < expected.result.schema().num_columns(); ++c) {
      EXPECT_EQ(via_col.table.at(r, c), expected.result.at(r, c));
      EXPECT_EQ(via_col.table.at(r, c).type(),
                expected.result.at(r, c).type());
    }
  }
  // Wire accounting: the server metered bytes for the partial frames.
  NetStats stats = server_->stats();
  EXPECT_GE(stats.partial_frames,
            static_cast<int64_t>(via_col.partial_frames));
  EXPECT_GT(stats.partial_bytes, 0);
}

TEST_F(NetFixture, QueryOnForeignSessionIsRejected) {
  StartServer();
  auto a = Connect();
  auto b = Connect();
  auto sid_a = a->OpenSession();
  ASSERT_TRUE(sid_a.ok());

  // B submits on A's session by hand, so the ERROR frame's query id is
  // visible.
  PayloadWriter w;
  w.PutU64(*sid_a);
  w.PutU64(7);
  w.PutString(kPaperQuery);
  w.PutU32(static_cast<uint32_t>(kPaperReplies.size()));
  for (const auto& reply : kPaperReplies) w.PutString(reply);
  ASSERT_TRUE(b->SendFrame(Op::kQuery, w.Take()).ok());
  auto frame = b->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->op, Op::kError) << OpName(frame->op);
  PayloadReader r(frame->payload);
  auto qid = r.U64();
  auto code = r.U32();
  auto msg = r.String();
  ASSERT_TRUE(qid.ok() && code.ok() && msg.ok());
  EXPECT_EQ(*qid, 7u);
  EXPECT_EQ(static_cast<StatusCode>(*code), StatusCode::kNotFound);
  EXPECT_EQ(*msg, "session " + std::to_string(*sid_a) +
                      " not owned by this connection");
  EXPECT_EQ(service_->stats().submitted, 0);
  EXPECT_TRUE(b->Ping("still alive").ok());  // an error, not a close

  // A's session is untouched and still serves A.
  auto result = a->Query(*sid_a, kPaperQuery, kPaperReplies);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->total_rows, 0u);
  EXPECT_EQ(service_->stats().submitted, 1);
}

TEST_F(NetFixture, MalformedHelloEncodingClosesTheConnection) {
  StartServer();
  ClientOptions copts;
  copts.port = server_->port();
  copts.recv_timeout_ms = kRecvTimeoutMs;
  Client client(copts);
  ASSERT_TRUE(client.ConnectRaw().ok());
  PayloadWriter w;
  w.PutString(kWireMagic);
  w.PutU8(99);  // HELLO carries the magic and nothing else
  ASSERT_TRUE(client.SendFrame(Op::kHello, w.Take()).ok());
  auto frame = client.ReadFrame();
  EXPECT_FALSE(frame.ok());  // server closed without HELLO_OK
}

TEST_F(NetFixture, ScriptedRepliesRideAlongInTheQueryFrame) {
  StartServer();
  auto client = Connect();
  auto sid = client->OpenSession();
  ASSERT_TRUE(sid.ok());
  // Replies shipped in the QUERY frame are consumed server-side: no ASK
  // ever crosses the wire.
  bool asked = false;
  auto result = client->Query(*sid, kPaperQuery, kPaperReplies,
                              [&asked](const std::string&,
                                       const std::string&) {
                                asked = true;
                                return std::optional<std::string>("OK");
                              });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(asked);
  EXPECT_EQ(result->questions_answered, 0u);
  EXPECT_GT(result->total_rows, 0u);
}

TEST_F(NetFixture, StatsFrameReportsServiceAndNetCounters) {
  StartServer();
  auto client = Connect();
  auto sid = client->OpenSession();
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(client->Query(*sid, kPaperQuery, kPaperReplies).ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("queries: submitted=1"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("net: conns=1"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("responses: OK=1"), std::string::npos) << *stats;
}

TEST_F(NetFixture, PingAndSessionLifecycleOverTheWire) {
  StartServer();
  auto client = Connect();
  auto pong = client->Ping("payload-123");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, "payload-123");

  auto sid = client->OpenSession(kPaperReplies);
  ASSERT_TRUE(sid.ok());
  EXPECT_EQ(service_->num_sessions(), 1u);
  EXPECT_TRUE(client->CloseSession(*sid).ok());
  EXPECT_EQ(service_->num_sessions(), 0u);
  // Closing a session this connection does not own is a protocol-level
  // error frame, not a dropped connection.
  Status st = client->CloseSession(999);
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  EXPECT_TRUE(client->Ping("still alive").ok());
}

// ---------------------------------------------------------------------------
// Clarification cancellation and disconnects

TEST_F(NetFixture, CancelMidClarificationAbortsTheQuery) {
  StartServer();
  auto client = Connect();
  auto sid = client->OpenSession();
  ASSERT_TRUE(sid.ok());
  uint64_t qid = client->next_query_id();
  // No scripted replies: the first ASK arrives over the wire; instead of
  // answering, cancel the query.
  auto result = client->Query(
      *sid, kPaperQuery, /*scripted=*/{},
      [&client, qid](const std::string&, const std::string&) {
        EXPECT_TRUE(client->Cancel(qid).ok());
        return std::optional<std::string>();  // leave unanswered
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUserAborted)
      << result.status().ToString();
  // The aborted query is still accounted: exactly one response, aborted.
  ASSERT_TRUE(PollUntil([this] { return service_->stats().failed == 1; }));
  auto stats = service_->stats();
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.responses["UserAborted"], 1);
}

TEST_F(NetFixture, MidQueryDisconnectDetachesCleanly) {
  StartServer();
  auto client = Connect();
  auto sid = client->OpenSession();
  ASSERT_TRUE(sid.ok());
  EXPECT_EQ(service_->num_sessions(), 1u);

  // Submit by hand so we can slam the connection shut at the exact
  // moment the server is blocked waiting for our REPLY.
  PayloadWriter w;
  w.PutU64(*sid);
  w.PutU64(1);
  w.PutString(kPaperQuery);
  w.PutU32(0);
  ASSERT_TRUE(client->SendFrame(Op::kQuery, w.Take()).ok());
  bool saw_ask = false;
  while (!saw_ask) {
    auto frame = client->ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    if (frame->op == Op::kAsk) saw_ask = true;
  }
  client->Close();  // mid-query disconnect

  // The blocked clarification unblocks with kUserAborted, the query is
  // metered exactly once, the orphaned session is released, and the
  // connection is gone.
  ASSERT_TRUE(PollUntil([this] { return service_->stats().failed == 1; }));
  ASSERT_TRUE(PollUntil([this] { return service_->num_sessions() == 0; }));
  ASSERT_TRUE(PollUntil(
      [this] { return server_->stats().connections_active == 0; }));
  auto stats = service_->stats();
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.responses.size(), 1u);
  EXPECT_EQ(stats.responses["UserAborted"], 1);
  service_->Drain();
  EXPECT_EQ(service_->stats().failed, 1);  // still exactly once

  // The server keeps serving fresh connections.
  auto client2 = Connect();
  auto sid2 = client2->OpenSession();
  ASSERT_TRUE(sid2.ok());
  ASSERT_TRUE(client2->Query(*sid2, kPaperQuery, kPaperReplies).ok());
}

// ---------------------------------------------------------------------------
// Protocol hardening

TEST_F(NetFixture, BadHelloMagicClosesTheConnection) {
  StartServer();
  ClientOptions copts;
  copts.port = server_->port();
  copts.recv_timeout_ms = kRecvTimeoutMs;
  Client raw(copts);
  ASSERT_TRUE(raw.ConnectRaw().ok());
  PayloadWriter w;
  w.PutString("not-kathdb-wire");
  ASSERT_TRUE(raw.SendFrame(Op::kHello, w.Take()).ok());
  auto frame = raw.ReadFrame();
  EXPECT_FALSE(frame.ok());  // closed without a reply
  EXPECT_TRUE(PollUntil([this] { return server_->stats().protocol_errors >= 1; }));
}

TEST_F(NetFixture, OversizedFrameClosesTheConnection) {
  ServerOptions net_opts;
  net_opts.max_frame_bytes = 1024;
  StartServer({}, net_opts);
  auto client = Connect();
  ASSERT_TRUE(client->SendFrame(Op::kPing, std::string(4096, 'x')).ok());
  EXPECT_FALSE(client->ReadFrame().ok());
  EXPECT_TRUE(PollUntil([this] { return server_->stats().protocol_errors >= 1; }));
}

TEST_F(NetFixture, ZeroLengthFrameClosesTheConnection) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client->SendBytes(std::string(4, '\0')).ok());
  EXPECT_FALSE(client->ReadFrame().ok());
  EXPECT_TRUE(PollUntil([this] { return server_->stats().protocol_errors >= 1; }));
}

TEST_F(NetFixture, UnknownOpcodeClosesCleanlyAndServerKeepsServing) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client->SendFrame(static_cast<Op>(0x7F), "junk").ok());
  EXPECT_FALSE(client->ReadFrame().ok());
  EXPECT_TRUE(PollUntil([this] { return server_->stats().protocol_errors >= 1; }));
  EXPECT_TRUE(PollUntil(
      [this] { return server_->stats().connections_active == 0; }));

  // A well-behaved connection right after is unaffected.
  auto client2 = Connect();
  auto pong = client2->Ping("ok");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, "ok");
}

TEST_F(NetFixture, TruncatedFrameThenDisconnectLeaksNothing) {
  StartServer();
  auto client = Connect();
  // Header promises 100 bytes; send only a fragment, then vanish.
  std::string full = EncodeFrame(Op::kQuery, std::string(95, 'q'));
  ASSERT_TRUE(client->SendBytes(full.substr(0, 20)).ok());
  client->Close();
  EXPECT_TRUE(PollUntil(
      [this] { return server_->stats().connections_active == 0; }));
  EXPECT_EQ(server_->stats().protocol_errors, 0);  // incomplete != malformed
}

TEST_F(NetFixture, ByteByByteWritesStillParse) {
  StartServer();
  ClientOptions copts;
  copts.port = server_->port();
  copts.recv_timeout_ms = kRecvTimeoutMs;
  Client client(copts);
  ASSERT_TRUE(client.ConnectRaw().ok());
  PayloadWriter hello;
  hello.PutString(kWireMagic);
  PayloadWriter open;
  open.PutU32(0);
  std::string bytes = EncodeFrame(Op::kHello, hello.Take()) +
                      EncodeFrame(Op::kOpenSession, open.Take());
  for (char c : bytes) {  // worst-case fragmentation
    ASSERT_TRUE(client.SendBytes(std::string(1, c)).ok());
  }
  auto f1 = client.ReadFrame();
  ASSERT_TRUE(f1.ok()) << f1.status().ToString();
  EXPECT_EQ(f1->op, Op::kHelloOk);
  auto f2 = client.ReadFrame();
  ASSERT_TRUE(f2.ok()) << f2.status().ToString();
  EXPECT_EQ(f2->op, Op::kSessionOpened);
}

// ---------------------------------------------------------------------------
// Backpressure and overload

TEST_F(NetFixture, SlowClientPausesReadsWithoutStallingOthers) {
  ServerOptions net_opts;
  net_opts.sndbuf_bytes = 4096;       // tiny kernel buffer to the client
  net_opts.write_high_water = 16384;  // trips after a few echoed pings
  StartServer({}, net_opts);

  // Connection A floods PINGs without reading a single PONG; its small
  // receive buffer plus the server's small send buffer force the outbox
  // over the high-water mark.
  auto slow = Connect(/*rcvbuf_bytes=*/4096);
  constexpr int kPings = 64;
  const std::string payload(32 << 10, 'p');
  std::thread sender([&slow, &payload] {
    for (int i = 0; i < kPings; ++i) {
      EXPECT_TRUE(slow->SendFrame(Op::kPing, payload).ok());
    }
  });

  ASSERT_TRUE(PollUntil([this] { return server_->stats().reads_paused >= 1; }))
      << server_->stats().ToText();

  // While A is paused, connection B gets full service.
  auto fast = Connect();
  auto sid = fast->OpenSession();
  ASSERT_TRUE(sid.ok());
  auto result = fast->Query(*sid, kPaperQuery, kPaperReplies);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->total_rows, 0u);

  // Drain A: every PONG arrives intact once the client starts reading,
  // and the paused read side resumes (hysteresis at half the mark).
  for (int i = 0; i < kPings; ++i) {
    auto pong = slow->ReadFrame();
    ASSERT_TRUE(pong.ok()) << "pong " << i << ": "
                           << pong.status().ToString();
    ASSERT_EQ(pong->op, Op::kPong);
    ASSERT_EQ(pong->payload.size(), payload.size());
  }
  sender.join();
  EXPECT_GE(server_->stats().reads_paused, 1);
  EXPECT_TRUE(slow->Ping("after the flood").ok());
}

TEST_F(NetFixture, OverloadIsShedAsUnavailableErrorFrame) {
  service::ServiceOptions svc_opts;
  svc_opts.workers = 1;
  svc_opts.max_queue = 1;
  StartServer(svc_opts);
  auto client = Connect();
  auto sid = client->OpenSession();
  ASSERT_TRUE(sid.ok());

  // q1 blocks the only worker on a wire clarification.
  PayloadWriter q1;
  q1.PutU64(*sid);
  q1.PutU64(101);
  q1.PutString(kPaperQuery);
  q1.PutU32(0);
  ASSERT_TRUE(client->SendFrame(Op::kQuery, q1.Take()).ok());
  bool saw_ask = false;
  while (!saw_ask) {
    auto frame = client->ReadFrame();
    ASSERT_TRUE(frame.ok());
    if (frame->op == Op::kAsk) saw_ask = true;
  }

  // q2 fills the single admission slot.
  PayloadWriter q2;
  q2.PutU64(*sid);
  q2.PutU64(102);
  q2.PutString(kPaperQuery);
  q2.PutU32(static_cast<uint32_t>(kPaperReplies.size()));
  for (const auto& r : kPaperReplies) q2.PutString(r);
  ASSERT_TRUE(client->SendFrame(Op::kQuery, q2.Take()).ok());

  // q3 must be shed at the protocol level: UNAVAILABLE, connection kept.
  PayloadWriter q3;
  q3.PutU64(*sid);
  q3.PutU64(103);
  q3.PutString(kPaperQuery);
  q3.PutU32(0);
  ASSERT_TRUE(client->SendFrame(Op::kQuery, q3.Take()).ok());

  bool saw_unavailable = false;
  while (!saw_unavailable) {
    auto frame = client->ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    if (frame->op != Op::kError) continue;
    PayloadReader r(frame->payload);
    auto qid = r.U64();
    auto code = r.U32();
    ASSERT_TRUE(qid.ok());
    ASSERT_TRUE(code.ok());
    if (*qid == 103) {
      EXPECT_EQ(static_cast<StatusCode>(*code), StatusCode::kUnavailable);
      saw_unavailable = true;
    }
  }
  EXPECT_GE(server_->stats().unavailable_sent, 1);
  EXPECT_GE(service_->stats().rejected, 1);

  // Unwedge q1 and let q2 finish: the connection stayed healthy through
  // the shed.
  PayloadWriter cancel;
  cancel.PutU64(101);
  ASSERT_TRUE(client->SendFrame(Op::kCancel, cancel.Take()).ok());
  bool q1_done = false, q2_done = false;
  while (!q1_done || !q2_done) {
    auto frame = client->ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    PayloadReader r(frame->payload);
    if (frame->op == Op::kError) {
      auto qid = r.U64();
      ASSERT_TRUE(qid.ok());
      if (*qid == 101) q1_done = true;
    } else if (frame->op == Op::kFinal) {
      auto qid = r.U64();
      ASSERT_TRUE(qid.ok());
      if (*qid == 102) q2_done = true;
    }
  }
  EXPECT_EQ(service_->stats().responses["Unavailable"], 1);
}

// Two clients on one server, interleaved queries, clean shutdown with a
// connection still open: exercises Stop()'s detach path under load.
TEST_F(NetFixture, StopWithLiveConnectionsShutsDownCleanly) {
  StartServer();
  auto a = Connect();
  auto b = Connect();
  auto sid_a = a->OpenSession();
  auto sid_b = b->OpenSession();
  ASSERT_TRUE(sid_a.ok());
  ASSERT_TRUE(sid_b.ok());
  ASSERT_TRUE(a->Query(*sid_a, kPaperQuery, kPaperReplies).ok());
  ASSERT_TRUE(b->Query(*sid_b, kPaperQuery, kPaperReplies).ok());
  server_->Stop();  // clients still connected
  EXPECT_EQ(server_->stats().connections_active, 0);
  EXPECT_EQ(service_->num_sessions(), 0u);
  server_.reset();
  service_.reset();
}

}  // namespace
}  // namespace kathdb::net
