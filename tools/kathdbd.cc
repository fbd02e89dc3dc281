/// \file kathdbd.cc
/// \brief The KathDB network server: seeds a movie corpus, starts a
/// QueryService and serves kathdb-wire/1 on a TCP port until SIGINT or
/// SIGTERM.
///
/// Usage:
///   kathdbd [--host H] [--port P] [--movies N] [--workers N]
///           [--queue N] [--chunk-rows N]
///
/// With --port 0 (the default) the kernel assigns an ephemeral port; the
/// bound port is printed on stdout either way, so scripts can do:
///   kathdbd --port 7432 &
///   example_net_client --port 7432

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "data/movie_dataset.h"
#include "engine/kathdb.h"
#include "net/server.h"
#include "service/query_service.h"

namespace {

int64_t ArgInt(int argc, char** argv, const char* name, int64_t def) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoll(argv[i + 1]);
  }
  return def;
}

std::string ArgStr(int argc, char** argv, const char* name,
                   const std::string& def) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return def;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kathdb;

  // Block the shutdown signals before any thread exists so every worker
  // inherits the mask and sigwait below is the only consumer.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  data::DatasetOptions data_opts;
  data_opts.num_movies = static_cast<int>(ArgInt(argc, argv, "--movies", 12));
  auto dataset = data::GenerateMovieDataset(data_opts);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  engine::KathDB db;
  Status st = data::IngestDataset(dataset.value(), &db);
  if (!st.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", st.ToString().c_str());
    return 1;
  }

  service::ServiceOptions svc_opts;
  svc_opts.workers = static_cast<int>(ArgInt(argc, argv, "--workers", 4));
  svc_opts.max_queue =
      static_cast<size_t>(ArgInt(argc, argv, "--queue", 64));
  service::QueryService service(&db, svc_opts);

  net::ServerOptions net_opts;
  net_opts.host = ArgStr(argc, argv, "--host", "127.0.0.1");
  net_opts.port = static_cast<uint16_t>(ArgInt(argc, argv, "--port", 0));
  net_opts.stream_chunk_rows =
      static_cast<size_t>(ArgInt(argc, argv, "--chunk-rows", 64));
  net::Server server(&service, net_opts);
  st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("kathdbd listening on %s:%u (%d workers, %d movies)\n",
              net_opts.host.c_str(), server.port(), svc_opts.workers,
              data_opts.num_movies);
  std::fflush(stdout);

  int sig = 0;
  sigwait(&set, &sig);

  std::printf("signal %d: shutting down\n", sig);
  server.Stop();
  std::printf("%s\n", server.stats().ToText().c_str());
  std::printf("%s\n", service.stats().ToText().c_str());
  return 0;
}
