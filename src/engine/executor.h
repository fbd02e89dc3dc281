/// \file executor.h
/// \brief Execution engine with lineage recording and an agentic monitor.
///
/// The executor instantiates the physical plan node by node, materializing
/// every intermediate into the catalog and recording provenance according
/// to each function's dependency pattern (Section 3). Nodes are scheduled
/// over the plan's dependency DAG (engine/scheduler.h): with a parallelism
/// budget > 1 and a worker pool in the ExecContext, independent branches
/// run concurrently and row-wise FAO nodes additionally evaluate their
/// input in morsel partitions (fao::EvaluateWithMorsels). The agentic
/// monitor wraps each node:
///  - *syntactic faults* (e.g. an unsupported HEIC poster) trigger a
///    reviewer/rewriter loop that patches the function, bumps its ver_id
///    and resumes from the failed operator — the query never aborts;
///  - *semantic anomalies* (e.g. one poster joined to several movies) are
///    detected on sampled output and escalated to the user channel for
///    confirmation or correction.
///
/// \ingroup kathdb_engine

#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "engine/scheduler.h"
#include "fao/function.h"
#include "fao/registry.h"
#include "llm/channel.h"
#include "llm/model.h"
#include "optimizer/optimizer.h"

namespace kathdb::engine {

/// Per-node execution record.
struct NodeRun {
  std::string name;
  std::string template_id;
  int64_t ver_id = 0;
  std::string dependency_pattern;
  size_t output_rows = 0;
  double runtime_ms = 0.0;
  int repair_attempts = 0;      ///< syntactic repairs on this node
  bool semantic_flagged = false;  ///< anomaly escalated to the user
};

/// Result of executing a physical plan.
struct ExecutionReport {
  /// Final output table, shared with the catalog's materialized entry
  /// (never deep-copied out of the catalog); null only when the plan was
  /// empty.
  rel::TablePtr result;
  std::string final_output_name;
  /// One record per plan node, in plan order regardless of the order
  /// parallel branches actually finished in.
  std::vector<NodeRun> node_runs;
  int total_repairs = 0;
  int total_anomalies = 0;

  std::string ToText() const;
};

struct ExecutorOptions {
  /// Fraction of each node's output rows the monitor inspects for
  /// semantic anomalies (E11 sweeps this; 0 disables the monitor).
  double monitor_sample_rate = 1.0;
  /// Maximum automatic repair attempts per node before giving up.
  int max_repair_attempts = 2;
  /// Ask the user before applying a semantic fix (true reproduces the
  /// paper's interaction; false auto-accepts for unattended benches).
  bool ask_user_on_anomaly = true;
  /// Intra-query parallelism budget: maximum plan nodes in flight at
  /// once on ExecContext::exec_pool. 1 (or a null pool) keeps the
  /// classic sequential topological walk.
  int max_parallel_nodes = 1;
  /// Rows per partition for morsel-wise evaluation of row-wise FAO
  /// nodes; 0 keeps whole-table-at-a-time evaluation. Partitioning (and
  /// therefore result-cache keys) depends only on this value, never on
  /// the worker count.
  size_t morsel_size = 0;
  /// Cross-query batched LLM execution: when true and the ExecContext
  /// carries a llm::BatchScheduler, pure FAO nodes evaluate through the
  /// async submit -> flush -> resume path (fao::EvaluateBatched) instead
  /// of blocking a worker per simulated model round trip. Results,
  /// lineage, and usage accounting are byte-identical to the sequential
  /// path; only scheduling changes. Off by default — the service layer
  /// turns it on.
  bool enable_llm_batching = false;
  /// Streamed results: when set, called once with the final node's
  /// output the moment that node completes — before sibling branches
  /// finish and before the service layer wraps the outcome (the net
  /// front-end streams it to the client from here). Runs on whatever
  /// thread finished the node, so it must be thread-safe and must not
  /// block for long: it sits on the query's critical path.
  std::function<void(const rel::TablePtr&)> on_final_output;
};

/// \brief The agentic monitor: reviewer (diagnose) + rewriter (patch).
class AgenticMonitor {
 public:
  AgenticMonitor(llm::SimulatedLLM* llm, fao::FunctionRegistry* registry,
                 llm::UserChannel* user)
      : llm_(llm), registry_(registry), user_(user) {}

  /// Diagnoses a syntactic fault and attempts a patch. On success returns
  /// the new spec (registered with a fresh ver_id) to re-execute.
  Result<fao::FunctionSpec> RepairSyntactic(const fao::FunctionSpec& failed,
                                            const Status& error,
                                            fao::ExecContext* ctx);

  /// Inspects (a sample of) a node's output for semantic anomalies.
  /// Returns a description of the anomaly, or "" when clean.
  std::string DetectAnomaly(const opt::PhysicalNode& node,
                            const rel::Table& output, double sample_rate);

  /// Escalates an anomaly to the user; if the user requests a fix,
  /// returns a patched spec (registered), otherwise the original.
  Result<fao::FunctionSpec> ResolveAnomaly(const opt::PhysicalNode& node,
                                           const std::string& anomaly,
                                           bool ask_user);

 private:
  llm::SimulatedLLM* llm_;
  fao::FunctionRegistry* registry_;
  llm::UserChannel* user_;
};

/// \brief Executes physical plans.
class Executor {
 public:
  Executor(llm::SimulatedLLM* llm, fao::FunctionRegistry* registry,
           llm::UserChannel* user, ExecutorOptions options = {})
      : monitor_(llm, registry, user), options_(options) {}

  /// Runs the plan; intermediates are upserted into ctx->catalog under
  /// their declared output names. Lineage is recorded per dependency
  /// pattern through ctx->lineage. With options.max_parallel_nodes > 1
  /// and ctx->exec_pool set, independent DAG branches run concurrently;
  /// per-node work (repairs, anomaly escalation, lineage) stays
  /// deterministic and node_runs keeps plan order.
  Result<ExecutionReport> Run(const opt::PhysicalPlan& plan,
                              fao::ExecContext* ctx);

 private:
  /// Executes one plan node end to end and reports through `done`:
  /// resolve inputs, evaluate with the repair loop (morsel-partitioned
  /// for row-wise functions), dedup exactly once, record lineage, monitor
  /// the output, upsert into the catalog. Safe to call from concurrent
  /// node tasks of one plan. `is_final` marks the node producing the
  /// plan's final output (it is handed to options.on_final_output).
  /// Without batching `done` fires inline. With batching, the node's
  /// first evaluation goes through fao::EvaluateBatched: the NodeRun
  /// state parks in the completion callback, the calling worker returns
  /// to the pool, and the finish tail resumes on ctx->exec_pool when the
  /// batch lands (inline on the completing thread if the pool refuses).
  /// In sequential mode (budget 1 / no pool) the batch is awaited on the
  /// calling thread instead — cross-query coalescing still applies, only
  /// this query blocks.
  void RunNode(const opt::PhysicalNode& node, fao::ExecContext* ctx,
               NodeRun* run, rel::TablePtr* out, bool is_final,
               DagScheduler::DoneFn done);

  /// Morsel knobs of this executor's options over ctx->exec_pool.
  fao::MorselOptions Morsels(const fao::ExecContext* ctx) const;

  /// Shared tail of RunNode's paths, starting from the first evaluation's
  /// result: syntactic-repair loop (re-evaluations run synchronously),
  /// dedup, lineage recording, semantic monitoring, catalog upsert.
  Status FinishNode(const opt::PhysicalNode& node, fao::ExecContext* ctx,
                    NodeRun* run, rel::TablePtr* out,
                    const std::vector<rel::TablePtr>& inputs,
                    fao::FunctionSpec spec, Result<rel::Table> result,
                    std::chrono::steady_clock::time_point started,
                    bool is_final);

  AgenticMonitor monitor_;
  ExecutorOptions options_;
  /// Serializes monitor escalations (repair + anomaly resolution) so
  /// concurrent branches never interleave user-channel interactions.
  /// (The monitor itself is not guarded: DetectAnomaly is a concurrent
  /// read-only probe; only the escalating calls are serialized.)
  common::Mutex monitor_mu_;
};

}  // namespace kathdb::engine
