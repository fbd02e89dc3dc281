// Network front-end research question — the ROADMAP north star serves
// "heavy traffic from millions of users", and PR 7 moves the front door
// onto a socket: what does the kathdb-wire/1 framing + event loop +
// streamed partial results cost on top of the in-process QueryService,
// and how do throughput and tail latency hold up as loopback
// connections scale past the worker count?
//
// Each connection is a real TCP client running the paper query with
// scripted replies shipped in the QUERY frame; results stream back as
// columnar PARTIAL_RESULT chunks and are reassembled client-side. The
// table reports qps, tail latency and bytes-on-wire per connection
// count. The google-benchmark pass exports the same shape (8 and 64
// connections, with bytes-on-wire and MB/s counters) to
// BENCH_net_throughput.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"

using namespace kathdb;         // NOLINT
using namespace kathdb::bench;  // NOLINT

namespace {

constexpr int kCorpusMovies = 40;
constexpr int kWorkers = 8;
constexpr int kQueriesPerConn = 4;
constexpr size_t kChunkRows = 8;

struct NetRun {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int64_t queries = 0;
  int64_t partial_frames = 0;
  int64_t partial_bytes = 0;  ///< wire bytes across the partial frames
  double wire_mbps = 0.0;     ///< partial-frame MB/s over the run
};

/// One server, `connections` concurrent clients, kQueriesPerConn paper
/// queries each. Per-query wall times feed the
/// percentile columns; the server's partial-frame byte counter feeds
/// the bytes-on-wire column.
NetRun ServeConnections(engine::KathDB* db, int connections) {
  service::ServiceOptions svc_opts;
  svc_opts.workers = kWorkers;
  svc_opts.max_queue =
      static_cast<size_t>(connections) * kQueriesPerConn + 16;
  service::QueryService service(db, svc_opts);
  // Warm the shared cache once so the sweep measures serving, not the
  // first-ever LLM pass.
  service::SessionId warm = service.OpenSession(PaperReplies());
  auto warmup = service.Query(warm, kPaperQuery);
  if (!warmup.ok()) {
    std::fprintf(stderr, "warm-up failed: %s\n",
                 warmup.status().ToString().c_str());
    std::abort();
  }
  service.CloseSession(warm);

  net::ServerOptions net_opts;
  net_opts.stream_chunk_rows = kChunkRows;
  net::Server server(&service, net_opts);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 st.ToString().c_str());
    std::abort();
  }

  std::mutex mu;
  std::vector<double> latencies_ms;
  std::vector<std::thread> threads;
  threads.reserve(connections);
  auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&server, &mu, &latencies_ms] {
      net::ClientOptions copts;
      copts.port = server.port();
      net::Client client(copts);
      Status st = client.Connect();
      if (!st.ok()) {
        std::fprintf(stderr, "connect failed: %s\n",
                     st.ToString().c_str());
        std::abort();
      }
      auto sid = client.OpenSession();
      if (!sid.ok()) std::abort();
      std::vector<double> local;
      local.reserve(kQueriesPerConn);
      for (int q = 0; q < kQueriesPerConn; ++q) {
        auto q0 = std::chrono::steady_clock::now();
        auto result = client.Query(*sid, kPaperQuery, PaperReplies());
        auto q1 = std::chrono::steady_clock::now();
        if (!result.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       result.status().ToString().c_str());
          std::abort();
        }
        local.push_back(
            std::chrono::duration<double, std::milli>(q1 - q0).count());
      }
      client.CloseSession(*sid);
      client.Close();
      std::lock_guard<std::mutex> lock(mu);
      latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
    });
  }
  for (auto& t : threads) t.join();
  auto t1 = std::chrono::steady_clock::now();

  net::NetStats net_stats = server.stats();
  server.Stop();

  NetRun out;
  out.queries = static_cast<int64_t>(latencies_ms.size());
  out.partial_frames = net_stats.partial_frames;
  out.partial_bytes = net_stats.partial_bytes;
  double secs = std::chrono::duration<double>(t1 - t0).count();
  out.qps = secs > 0 ? out.queries / secs : 0.0;
  out.wire_mbps =
      secs > 0 ? out.partial_bytes / secs / (1024.0 * 1024.0) : 0.0;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  auto pct = [&latencies_ms](double p) {
    if (latencies_ms.empty()) return 0.0;
    size_t idx = static_cast<size_t>(p * (latencies_ms.size() - 1));
    return latencies_ms[idx];
  };
  out.p50_ms = pct(0.50);
  out.p99_ms = pct(0.99);
  return out;
}

void PrintConnectionSweep() {
  std::printf(
      "=== net throughput: loopback kathdb-wire/1, %d workers, %d-movie "
      "corpus, %d queries/conn, %zu-row chunks ===\n",
      kWorkers, kCorpusMovies, kQueriesPerConn, kChunkRows);
  std::printf("%-13s %-10s %-10s %-10s %-10s %-10s %-13s %-10s\n",
              "connections", "queries", "qps", "p50_ms", "p99_ms", "frames",
              "wire_bytes", "wire_MB/s");
  BenchDb b = MakeIngestedDb(kCorpusMovies);
  for (int connections : {1, 8, 16, 64}) {
    NetRun r = ServeConnections(b.db.get(), connections);
    std::printf("%-13d %-10lld %-10.1f %-10.2f %-10.2f %-10lld %-13lld "
                "%-10.2f\n",
                connections, static_cast<long long>(r.queries), r.qps,
                r.p50_ms, r.p99_ms, static_cast<long long>(r.partial_frames),
                static_cast<long long>(r.partial_bytes), r.wire_mbps);
  }
  std::printf("\n");
}

void BM_NetThroughput(benchmark::State& state) {
  int connections = static_cast<int>(state.range(0));
  BenchDb b = MakeIngestedDb(kCorpusMovies);
  int64_t queries = 0;
  double p99 = 0.0;
  int64_t partial_bytes = 0;
  double wire_mbps = 0.0;
  for (auto _ : state) {
    NetRun r = ServeConnections(b.db.get(), connections);
    queries += r.queries;
    p99 = r.p99_ms;
    partial_bytes = r.partial_bytes;
    wire_mbps = r.wire_mbps;
    benchmark::DoNotOptimize(r.qps);
  }
  state.SetItemsProcessed(queries);  // items/sec == queries/sec
  state.counters["connections"] = connections;
  state.counters["workers"] = kWorkers;
  state.counters["p99_ms"] = p99;
  state.counters["wire_bytes"] = static_cast<double>(partial_bytes);
  state.counters["wire_mbps"] = wire_mbps;
}
BENCHMARK(BM_NetThroughput)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  // The printed sweep only runs unfiltered; CI smoke filters to one
  // benchmark and should not pay for the full connection sweep.
  bool filtered = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_filter", 0) == 0) {
      filtered = true;
    }
  }
  if (!filtered) PrintConnectionSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
