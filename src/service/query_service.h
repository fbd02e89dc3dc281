/// \file query_service.h
/// \brief QueryService — the concurrent multi-session front door of KathDB.
///
/// Turns the single-user KathDB facade into a server: N worker threads
/// (common/ThreadPool) drain a bounded admission queue of NL queries,
/// each belonging to a Session that carries the user's scripted reply
/// channel and last-outcome state. All sessions share one KathDB — one
/// corpus, one function registry, one lineage store, one usage meter —
/// and one cross-query ResultCache, so work any session has already paid
/// for (LLM agent calls, FAO function results) is free for everyone else.
///
/// Concurrency model:
///  - every query runs KathDB::QueryDetached on a worker thread, against
///    a per-query ScopedCatalog overlay (intermediates never collide);
///  - shared components (registry, lineage, meter, catalog, cache) are
///    internally synchronized; per-session state hides behind a session
///    mutex;
///  - admission is bounded: Submit sheds load with kUnavailable once
///    `max_queue` queries are waiting — backpressure instead of
///    unbounded memory growth.
///
/// \ingroup kathdb_service

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/sync.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/kathdb.h"
#include "llm/batch_scheduler.h"
#include "service/result_cache.h"

namespace kathdb::service {

using SessionId = int64_t;

struct ServiceOptions {
  int workers = 4;        ///< worker threads executing queries
  size_t max_queue = 64;  ///< pending-query bound (admission control)
  bool enable_result_cache = true;
  ResultCacheOptions cache;
  /// Simulated think time per interaction-channel question (remote users
  /// do not answer instantly); benches use it to reproduce the blocking
  /// the worker pool overlaps. 0 = instant replies.
  double reply_latency_ms = 0.0;
  /// Per-query intra-query parallelism budget: the maximum DAG nodes of
  /// one query in flight at once (and the lane count for morsel
  /// evaluation), served by a dedicated exec pool of the same size that
  /// all in-flight queries share. 1 keeps queries sequential inside —
  /// the right default when the session count already saturates cores.
  int intra_query_parallelism = 1;
  /// Morsel size handed to the executor (0 = whole-table evaluation).
  size_t intra_query_morsel_size = 0;
  /// When true, a query admitted while others are still waiting in the
  /// admission queue runs with a budget of 1: under heavy multi-session
  /// load, cores go to throughput, not to intra-query latency.
  bool adaptive_intra_query = true;
  /// Cross-query batched LLM execution: the service owns a
  /// llm::BatchScheduler, attaches it to the engine, and pure FAO
  /// evaluations (plus agent completions) go through the async
  /// submit -> flush -> resume path. Identical-fingerprint work from any
  /// morsel, query, or session coalesces onto one generation; a flush
  /// pays one simulated round trip for the whole batch. Results, lineage
  /// and usage accounting stay byte-identical to the synchronous path.
  bool enable_llm_batching = true;
  /// Flush a batch as soon as this many unique prompts are pending.
  int llm_batch_size = 8;
  /// ... or at latest this long after its oldest prompt was submitted.
  double llm_flush_deadline_ms = 1.0;
  /// Fixed per-flush transport overhead added to the batch round trip.
  double llm_batch_latency_ms = 0.0;
  /// Time source for reply latency, simulated model round trips, and the
  /// batch flush deadline. Null = wall clock; tests inject a ManualClock
  /// for deterministic timing.
  common::Clock* clock = nullptr;
};

/// Aggregated service counters (cheap to sample at any time).
struct ServiceStats {
  int64_t submitted = 0;   ///< queries admitted into the queue
  int64_t rejected = 0;    ///< queries shed by backpressure
  int64_t completed = 0;   ///< queries that produced an outcome
  int64_t failed = 0;      ///< queries that returned an error status
  int64_t sessions_opened = 0;
  int64_t sessions_active = 0;
  // Load gauges, sampled at stats() time: admitted queries still waiting
  // for a worker, and queries currently executing on one. The network
  // front-end reports both in its stats frame so clients can see server
  // load before being shed.
  int64_t queue_depth = 0;
  int64_t in_flight = 0;
  /// Responses by status-code name ("OK", "Unavailable", ...): one count
  /// per finished query plus one kUnavailable count per shed submission.
  /// Zero-count codes are omitted.
  std::map<std::string, int64_t> responses;
  ResultCacheStats cache;  ///< zeros when the cache is disabled
  llm::BatchStats batching;  ///< zeros when batching is disabled
  // Usage aggregated across every session (the shared meter).
  int64_t llm_calls = 0;
  int64_t llm_tokens = 0;
  double llm_cost_usd = 0.0;

  std::string ToText() const;
};

/// The future half of an async submission.
using OutcomeFuture = std::shared_future<Result<engine::QueryOutcome>>;

/// Per-query extensions for Submit, used by the network front-end
/// (src/net) to attach wire-backed channels and streaming hooks.
struct SubmitOptions {
  /// Scripted replies overriding the session's defaults for this query.
  /// Ignored when `user` is set — an external channel answers its own
  /// questions.
  std::vector<std::string> replies;
  /// External user channel (e.g. net's remote channel relaying ASK
  /// frames to the client). Not owned; must stay valid until the query
  /// completes. Null = a per-query ScriptedUser replaying `replies`.
  llm::UserChannel* user = nullptr;
  /// Streamed results: passed through as
  /// engine::ExecutorOptions::on_final_output (called once, on a worker
  /// thread, with the final node's output as soon as it exists).
  std::function<void(const rel::TablePtr&)> on_final_output;
  /// Invoked on the worker thread right after the outcome is recorded
  /// and *before* the future resolves — the net layer sends its FINAL
  /// frame here so it is ordered after every streamed chunk. Captured
  /// state stays alive until the callback has run.
  std::function<void(const Result<engine::QueryOutcome>&)> on_complete;
};

/// \brief One connected user: scripted reply channel + outcome state.
class Session {
 public:
  Session(SessionId id, std::vector<std::string> default_replies)
      : id_(id), default_replies_(std::move(default_replies)) {}

  SessionId id() const { return id_; }
  /// Replies replayed to interaction questions when a query does not
  /// bring its own script.
  const std::vector<std::string>& default_replies() const {
    return default_replies_;
  }

  /// Outcome of the session's most recently *completed* query.
  std::optional<engine::QueryOutcome> last_outcome() const
      KATHDB_EXCLUDES(mu_);

  int64_t queries_ok() const { return queries_ok_.load(); }
  int64_t queries_failed() const { return queries_failed_.load(); }
  /// Interaction-channel questions answered across all queries
  /// (user-effort accounting, E9).
  int64_t questions_answered() const { return questions_answered_.load(); }

 private:
  friend class QueryService;
  void RecordOutcome(const Result<engine::QueryOutcome>& outcome,
                     size_t questions) KATHDB_EXCLUDES(mu_);

  const SessionId id_;
  const std::vector<std::string> default_replies_;
  mutable common::Mutex mu_;
  std::optional<engine::QueryOutcome> last_ KATHDB_GUARDED_BY(mu_);
  std::atomic<int64_t> queries_ok_{0};
  std::atomic<int64_t> queries_failed_{0};
  std::atomic<int64_t> questions_answered_{0};
};

using SessionPtr = std::shared_ptr<Session>;

/// \brief Concurrent query server over one shared KathDB instance.
class QueryService {
 public:
  /// `db` must outlive the service and have its corpus ingested before
  /// traffic starts. The service attaches its result cache to `db`
  /// (detached again on destruction). At most one QueryService may be
  /// attached to a KathDB at a time; constructing a second one while the
  /// first still serves traffic re-points the engine's cache hook and is
  /// unsupported.
  explicit QueryService(engine::KathDB* db, ServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // ---- session lifecycle ----
  SessionId OpenSession(std::vector<std::string> default_replies = {})
      KATHDB_EXCLUDES(sessions_mu_);
  Status CloseSession(SessionId id) KATHDB_EXCLUDES(sessions_mu_);
  Result<SessionPtr> GetSession(SessionId id) const
      KATHDB_EXCLUDES(sessions_mu_);
  size_t num_sessions() const KATHDB_EXCLUDES(sessions_mu_);

  // ---- query execution ----
  /// Asynchronous entry point: enqueues the query and returns a future.
  /// `replies` overrides the session's default scripted answers for this
  /// query only. Fails with kUnavailable when the admission queue is
  /// full (backpressure) and kNotFound for unknown sessions.
  Result<OutcomeFuture> Submit(SessionId id, std::string nl_query,
                               std::vector<std::string> replies = {});

  /// Full-control variant: external user channel, streamed-result and
  /// completion callbacks (see SubmitOptions). Same admission rules.
  Result<OutcomeFuture> Submit(SessionId id, std::string nl_query,
                               SubmitOptions opts);

  /// Convenience: Submit + wait.
  Result<engine::QueryOutcome> Query(SessionId id,
                                     const std::string& nl_query,
                                     std::vector<std::string> replies = {});

  /// Blocks until every admitted query has finished.
  void Drain();

  ServiceStats stats() const;
  ResultCache* cache() { return cache_.get(); }
  /// The service-owned batch scheduler; null when batching is disabled.
  /// Exposed for fault-injection tests and diagnostics.
  llm::BatchScheduler* batcher() { return batcher_.get(); }
  engine::KathDB* db() { return db_; }

 private:
  /// Executor options for one query, honoring the intra-query budget
  /// and the adaptive load rule.
  engine::ExecutorOptions MakeExecOptions() const;

  engine::KathDB* db_;
  ServiceOptions options_;
  std::unique_ptr<ResultCache> cache_;  ///< null when disabled
  /// Cross-query LLM batch scheduler; null when batching is disabled.
  /// Declared before the worker pool and shut down after it: parked
  /// queries must see their batches flushed before the workers join.
  std::unique_ptr<llm::BatchScheduler> batcher_;
  common::ThreadPool pool_;
  /// Shared intra-query pool (DAG nodes + morsels); null when the
  /// configured budget is 1.
  std::unique_ptr<common::ThreadPool> exec_pool_;

  mutable common::Mutex sessions_mu_;
  std::map<SessionId, SessionPtr> sessions_ KATHDB_GUARDED_BY(sessions_mu_);
  SessionId next_session_id_ KATHDB_GUARDED_BY(sessions_mu_) = 1;

  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> sessions_opened_{0};
  /// Responses by StatusCode: one slot per finished query plus one
  /// kUnavailable slot per shed submission.
  std::array<std::atomic<int64_t>, kNumStatusCodes> responses_{};
};

}  // namespace kathdb::service
