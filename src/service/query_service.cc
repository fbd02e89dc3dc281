#include "service/query_service.h"

#include <cstdio>
#include <utility>

namespace kathdb::service {

std::string ServiceStats::ToText() const {
  char buf[384];
  std::snprintf(
      buf, sizeof(buf),
      "queries: submitted=%lld completed=%lld failed=%lld rejected=%lld "
      "queue=%lld inflight=%lld | sessions: active=%lld opened=%lld | "
      "cache: %s | llm: calls=%lld tokens=%lld cost=$%.4f",
      static_cast<long long>(submitted), static_cast<long long>(completed),
      static_cast<long long>(failed), static_cast<long long>(rejected),
      static_cast<long long>(queue_depth), static_cast<long long>(in_flight),
      static_cast<long long>(sessions_active),
      static_cast<long long>(sessions_opened), cache.ToText().c_str(),
      static_cast<long long>(llm_calls), static_cast<long long>(llm_tokens),
      llm_cost_usd);
  std::string text = buf;
  if (!responses.empty()) {
    text += " | responses:";
    for (const auto& [code, count] : responses) {
      text += " " + code + "=" + std::to_string(count);
    }
  }
  if (batching.submitted > 0) text += " | " + batching.ToText();
  return text;
}

std::optional<engine::QueryOutcome> Session::last_outcome() const {
  common::MutexLock lock(mu_);
  return last_;
}

void Session::RecordOutcome(const Result<engine::QueryOutcome>& outcome,
                            size_t questions) {
  questions_answered_.fetch_add(static_cast<int64_t>(questions));
  if (outcome.ok()) {
    queries_ok_.fetch_add(1);
    common::MutexLock lock(mu_);
    last_ = outcome.value();
  } else {
    queries_failed_.fetch_add(1);
  }
}

QueryService::QueryService(engine::KathDB* db, ServiceOptions options)
    : db_(db),
      options_(options),
      cache_(options.enable_result_cache
                 ? std::make_unique<ResultCache>(options.cache)
                 : nullptr),
      pool_(options.workers, options.max_queue) {
  db_->set_result_cache(cache_.get());
  if (options_.enable_llm_batching) {
    llm::BatchOptions bopts;
    bopts.max_batch_size = static_cast<size_t>(options_.llm_batch_size);
    bopts.flush_deadline_ms = options_.llm_flush_deadline_ms;
    bopts.batch_latency_ms = options_.llm_batch_latency_ms;
    bopts.clock = options_.clock;
    batcher_ = std::make_unique<llm::BatchScheduler>(bopts);
    db_->set_batch_scheduler(batcher_.get());
  }
  if (options_.clock != nullptr) db_->set_clock(options_.clock);
  if (options_.intra_query_parallelism > 1) {
    exec_pool_ =
        std::make_unique<common::ThreadPool>(options_.intra_query_parallelism);
  }
}

QueryService::~QueryService() {
  pool_.Shutdown();  // drains admitted queries, then joins the workers
  if (exec_pool_ != nullptr) exec_pool_->Shutdown();
  // The batcher outlives the worker pools: a parked query must see its
  // batch flushed before its worker can finish. Only after the pools
  // drain is it safe to stop the flusher.
  if (batcher_ != nullptr) batcher_->Shutdown();
  // Detach only if still attached: if a later service already re-pointed
  // the engine's hooks, leave its attachments alone.
  if (db_->batch_scheduler() == batcher_.get() && batcher_ != nullptr) {
    db_->set_batch_scheduler(nullptr);
  }
  if (options_.clock != nullptr && db_->clock() == options_.clock) {
    db_->set_clock(nullptr);
  }
  if (db_->result_cache() == cache_.get()) {
    db_->set_result_cache(nullptr);
  }
}

SessionId QueryService::OpenSession(std::vector<std::string> default_replies) {
  common::MutexLock lock(sessions_mu_);
  SessionId id = next_session_id_++;
  sessions_.emplace(
      id, std::make_shared<Session>(id, std::move(default_replies)));
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Status QueryService::CloseSession(SessionId id) {
  common::MutexLock lock(sessions_mu_);
  // In-flight queries hold their own shared_ptr; erasing here only stops
  // new submissions.
  if (sessions_.erase(id) == 0) {
    return Status::NotFound("no session " + std::to_string(id));
  }
  return Status::OK();
}

Result<SessionPtr> QueryService::GetSession(SessionId id) const {
  common::MutexLock lock(sessions_mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no session " + std::to_string(id));
  }
  return it->second;
}

size_t QueryService::num_sessions() const {
  common::MutexLock lock(sessions_mu_);
  return sessions_.size();
}

Result<OutcomeFuture> QueryService::Submit(SessionId id, std::string nl_query,
                                           std::vector<std::string> replies) {
  SubmitOptions opts;
  opts.replies = std::move(replies);
  return Submit(id, std::move(nl_query), std::move(opts));
}

Result<OutcomeFuture> QueryService::Submit(SessionId id, std::string nl_query,
                                           SubmitOptions opts) {
  KATHDB_ASSIGN_OR_RETURN(SessionPtr session, GetSession(id));
  if (opts.user == nullptr && opts.replies.empty()) {
    opts.replies = session->default_replies();
  }

  auto promise =
      std::make_shared<std::promise<Result<engine::QueryOutcome>>>();
  OutcomeFuture future = promise->get_future().share();

  // Counted before enqueueing: a worker may finish the task (bumping
  // completed_) before this thread returns, and stats() must never show
  // completed > submitted.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  bool admitted = pool_.TrySubmit([this, session,
                                   nl_query = std::move(nl_query),
                                   opts = std::move(opts), promise] {
    // Without an external channel, each query gets a private channel
    // replaying the session's script, so concurrent queries of one
    // session never race on replies.
    llm::ScriptedUser scripted(opts.replies);
    llm::UserChannel* user = opts.user;
    if (user == nullptr) {
      scripted.set_reply_latency_ms(options_.reply_latency_ms);
      scripted.set_clock(options_.clock);
      user = &scripted;
    }
    engine::ExecutorOptions exec_opts = MakeExecOptions();
    exec_opts.on_final_output = opts.on_final_output;
    Result<engine::QueryOutcome> outcome = db_->QueryDetached(
        nl_query, user, exec_opts,
        exec_opts.max_parallel_nodes > 1 ? exec_pool_.get() : nullptr);
    session->RecordOutcome(outcome, user->questions_asked());
    responses_[static_cast<int>(outcome.status().code())].fetch_add(
        1, std::memory_order_relaxed);
    if (outcome.ok()) {
      completed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
    if (opts.on_complete) opts.on_complete(outcome);
    promise->set_value(std::move(outcome));
  });
  if (!admitted) {
    submitted_.fetch_sub(1, std::memory_order_relaxed);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    responses_[static_cast<int>(StatusCode::kUnavailable)].fetch_add(
        1, std::memory_order_relaxed);
    return Status::Unavailable(
        "admission queue full (" + std::to_string(options_.max_queue) +
        " pending); retry later");
  }
  return future;
}

Result<engine::QueryOutcome> QueryService::Query(
    SessionId id, const std::string& nl_query,
    std::vector<std::string> replies) {
  KATHDB_ASSIGN_OR_RETURN(OutcomeFuture future,
                          Submit(id, nl_query, std::move(replies)));
  return future.get();
}

engine::ExecutorOptions QueryService::MakeExecOptions() const {
  engine::ExecutorOptions opts =
      static_cast<const engine::KathDB*>(db_)->options().executor;
  opts.max_parallel_nodes = options_.intra_query_parallelism;
  opts.morsel_size = options_.intra_query_morsel_size;
  opts.enable_llm_batching = batcher_ != nullptr;
  // Trade intra-query speedup for multi-session throughput: with queries
  // already waiting for a worker, an idle-core budget does not exist.
  if (options_.adaptive_intra_query && pool_.queue_depth() > 0) {
    opts.max_parallel_nodes = 1;
  }
  return opts;
}

void QueryService::Drain() { pool_.Wait(); }

ServiceStats QueryService::stats() const {
  ServiceStats st;
  st.submitted = submitted_.load(std::memory_order_relaxed);
  st.rejected = rejected_.load(std::memory_order_relaxed);
  st.completed = completed_.load(std::memory_order_relaxed);
  st.failed = failed_.load(std::memory_order_relaxed);
  st.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  st.sessions_active = static_cast<int64_t>(num_sessions());
  st.queue_depth = static_cast<int64_t>(pool_.queue_depth());
  st.in_flight = static_cast<int64_t>(pool_.active());
  for (int c = 0; c < kNumStatusCodes; ++c) {
    int64_t count = responses_[c].load(std::memory_order_relaxed);
    if (count > 0) st.responses[StatusCodeName(static_cast<StatusCode>(c))] = count;
  }
  if (cache_ != nullptr) st.cache = cache_->stats();
  if (batcher_ != nullptr) st.batching = batcher_->stats();
  const llm::UsageMeter* meter = static_cast<const engine::KathDB*>(db_)->meter();
  st.llm_calls = meter->total_calls();
  st.llm_tokens = meter->total_tokens();
  st.llm_cost_usd = meter->total_cost_usd();
  return st;
}

}  // namespace kathdb::service
