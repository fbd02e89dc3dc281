#include "engine/scheduler.h"

#include <queue>
#include <set>
#include <vector>

#include "common/sync.h"

namespace kathdb::engine {

namespace {

/// Shared completion state of one RunAsync invocation. All members are
/// guarded by `mu`; node bodies signal through Finish from any thread.
struct DagState {
  common::Mutex mu;
  common::CondVar cv;
  // Lowest index first: ties between simultaneously-ready nodes resolve
  // in plan order, keeping dispatch deterministic.
  std::priority_queue<size_t, std::vector<size_t>, std::greater<size_t>>
      ready KATHDB_GUARDED_BY(mu);
  std::vector<size_t> indegree KATHDB_GUARDED_BY(mu);
  std::vector<std::vector<size_t>> dependents KATHDB_GUARDED_BY(mu);
  size_t completed KATHDB_GUARDED_BY(mu) = 0;
  int inflight KATHDB_GUARDED_BY(mu) = 0;
  bool failed KATHDB_GUARDED_BY(mu) = false;
  Status first_error KATHDB_GUARDED_BY(mu) = Status::OK();

  void Finish(size_t idx, const Status& st) KATHDB_EXCLUDES(mu) {
    common::MutexLock lock(mu);
    --inflight;
    ++completed;
    if (!st.ok()) {
      if (!failed) {
        failed = true;
        first_error = st;
      }
    } else {
      for (size_t d : dependents[idx]) {
        if (--indegree[d] == 0) ready.push(d);
      }
    }
    cv.NotifyAll();
  }
};

}  // namespace

Status DagScheduler::RunAsync(const opt::PhysicalPlan& plan,
                              const SchedulerOptions& options,
                              const AsyncNodeFn& run_node) {
  const size_t n = plan.nodes.size();
  if (n == 0) return Status::OK();
  const std::vector<std::vector<size_t>> deps =
      plan.deps.size() == n ? plan.deps : plan.ComputeDeps();

  // Sequential mode (no pool, a budget of 1, or a single node): one node
  // in flight, dispatched on this thread. Lowest-index-first over a plan
  // in topological order is then the plain index-order walk.
  const bool sequential =
      options.pool == nullptr || options.max_parallel_nodes <= 1 || n < 2;
  const int budget = sequential ? 1 : options.max_parallel_nodes;

  auto state = std::make_shared<DagState>();
  {
    common::MutexLock lock(state->mu);
    state->indegree.assign(n, 0);
    state->dependents.assign(n, {});
    for (size_t i = 0; i < n; ++i) {
      // Sanitize defensively: hand-built plans may list a producer twice,
      // name the node itself, or point past the plan.
      std::set<size_t> uniq(deps[i].begin(), deps[i].end());
      uniq.erase(i);
      for (size_t d : uniq) {
        if (d >= n) {
          return Status::InvalidArgument(
              "physical plan node " + std::to_string(i) +
              " depends on out-of-range node " + std::to_string(d));
        }
        state->dependents[d].push_back(i);
      }
      state->indegree[i] = uniq.size();
    }
    for (size_t i = 0; i < n; ++i) {
      if (state->indegree[i] == 0) state->ready.push(i);
    }
  }

  for (;;) {
    // Decide under the lock, dispatch outside it: a dispatched body may
    // complete inline (pool refusal, cache hit) and re-enter Finish.
    std::vector<size_t> dispatch_now;
    bool all_done = false;
    {
      common::MutexLock lock(state->mu);
      for (;;) {
        if (state->completed == n) {
          all_done = true;
          break;
        }
        if (!state->failed && !state->ready.empty() &&
            state->inflight < budget) {
          while (!state->ready.empty() && state->inflight < budget) {
            dispatch_now.push_back(state->ready.top());
            state->ready.pop();
            ++state->inflight;
          }
          break;
        }
        if (state->inflight == 0) {
          if (state->failed) {
            all_done = true;
            break;
          }
          // No work in flight, nothing ready, no failure: the remaining
          // nodes are unreachable.
          return Status::InvalidArgument(
              "physical plan dependencies are unsatisfiable (cycle or "
              "forward reference); " +
              std::to_string(n - state->completed) + " node(s) unreachable");
        }
        state->cv.Wait(state->mu);
      }
      if (all_done) return state->first_error;
    }

    for (size_t idx : dispatch_now) {
      // The node slot stays in flight until the body's DoneFn fires —
      // the dispatched task itself may return early after parking its
      // state on a batch, freeing the worker.
      auto done = [state, idx](Status st) { state->Finish(idx, std::move(st)); };
      // Sequential mode runs the node on this thread, and so does a
      // refused submit (pool saturated or shutting down), so scheduling
      // never blocks on a free worker.
      if (sequential || !options.pool->TrySubmit(
                            [&run_node, idx, done] { run_node(idx, done); })) {
        run_node(idx, done);
      }
    }
  }
}

}  // namespace kathdb::engine
