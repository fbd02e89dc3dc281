/// \file scheduler.h
/// \brief DAG scheduler for intra-query parallelism.
///
/// PR 2 made KathDB concurrent *across* queries; the scheduler makes one
/// query parallel *inside*: it walks the physical plan's dependency DAG
/// (PhysicalPlan::deps) and dispatches every node whose inputs are ready
/// onto the shared common::ThreadPool, so independent branches — e.g. a
/// poster-classification chain and a recency-scoring chain — execute
/// concurrently. The node body itself (monitored execution, repairs,
/// lineage recording) is supplied by the executor as a callback and stays
/// per-node and deterministic.
///
/// Deadlock freedom: when the pool refuses a task (saturated or shared
/// with morsel work), the scheduler runs the node on its own thread —
/// the calling thread always participates, so progress never depends on
/// a free worker. With a budget of 1 (or no pool) the same loop keeps
/// one node in flight and runs it on the calling thread: over a plan in
/// topological order that is the classic sequential walk, and a plan
/// whose dependency edges are cyclic or out of range is rejected the
/// same way in either mode.
///
/// \ingroup kathdb_engine

#pragma once

#include <functional>

#include "common/status.h"
#include "common/thread_pool.h"
#include "optimizer/optimizer.h"

namespace kathdb::engine {

/// Scheduling knobs (derived from ExecutorOptions by the executor).
struct SchedulerOptions {
  /// Maximum plan nodes in flight at once; 1 = sequential.
  int max_parallel_nodes = 1;
  /// Worker pool node tasks are dispatched to; null = sequential.
  common::ThreadPool* pool = nullptr;
};

/// \brief Runs the nodes of a physical plan in dependency order.
class DagScheduler {
 public:
  /// Signals completion of an asynchronously executed node. Must be
  /// invoked exactly once, from any thread; may be invoked inline.
  using DoneFn = std::function<void(Status)>;

  /// Continuation-style node body: starts node `index` and arranges for
  /// `done` to fire when it completes. Called exactly once per node, only
  /// after all of the node's dependencies completed successfully. A body
  /// that parks on a batched LLM round trip returns immediately — the
  /// task's worker goes back to the pool and the node slot stays "in
  /// flight" until `done` fires, so concurrent LLM work scales with open
  /// requests, not threads.
  using AsyncNodeFn = std::function<void(size_t index, DoneFn done)>;

  /// Runs every node of `plan` respecting its dependency edges (taken
  /// from plan.deps when built, re-derived otherwise); edges that point
  /// past the plan or form a cycle fail with InvalidArgument. Ready nodes
  /// are dispatched lowest-index-first. A node occupies a parallelism
  /// slot from dispatch until its DoneFn fires, but no thread is held
  /// while it is parked. With no pool, a budget of 1 or a single node,
  /// every node is dispatched on the calling thread, one at a time. On
  /// the first node error no further nodes start; in-flight nodes finish
  /// and that first error is returned. Blocks until every dispatched
  /// node completed.
  static Status RunAsync(const opt::PhysicalPlan& plan,
                         const SchedulerOptions& options,
                         const AsyncNodeFn& run_node);
};

}  // namespace kathdb::engine
