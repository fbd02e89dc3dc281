/// \file optimizer.h
/// \brief Cost-based query optimizer over FAO plans (Section 4).
///
/// The optimizer turns a logical plan (signatures only) into a physical
/// plan (versioned function bodies). Three agents collaborate per node:
///  - the *coder* synthesizes one or more candidate FunctionSpecs;
///  - the *profiler* executes candidates on sampled rows and records
///    runtime and estimated token cost;
///  - the *critic* checks the sampled output semantically (e.g. a recency
///    score must rank newer films higher) and sends corrective hints back
///    to the coder.
/// On top of physical selection, two logical rewrites are available:
/// predicate pushdown (evaluate the cheap poster filter before expensive
/// scoring) and operator fusion (merge the scoring chain into one function
/// — faster, but coarser explanations; experiment E7).
///
/// \ingroup kathdb_optimizer

#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "fao/function.h"
#include "fao/registry.h"
#include "fao/signature.h"
#include "llm/model.h"
#include "parser/nl_parser.h"

namespace kathdb::opt {

/// One executable node of a physical plan.
struct PhysicalNode {
  fao::FunctionSignature sig;
  fao::FunctionSpec spec;
};

/// Executable plan: `nodes` stays a valid topological order (sequential
/// executors walk it unchanged), while `deps` makes the dependency DAG
/// explicit so the scheduler can run independent branches concurrently.
struct PhysicalPlan {
  std::vector<PhysicalNode> nodes;
  std::string final_output;
  /// deps[i] lists the indices of the nodes whose outputs node i
  /// consumes (derived from sig.inputs/sig.output; inputs that name a
  /// base relation or view contribute no edge). Kept in sync by
  /// BuildEdges; empty for hand-built plans until it is called.
  std::vector<std::vector<size_t>> deps;

  /// Dependency edges derived from the nodes' signatures. Only backward
  /// references (producer before consumer) become edges, so the result
  /// is acyclic whenever `nodes` is a valid topological order.
  std::vector<std::vector<size_t>> ComputeDeps() const;
  /// Stores ComputeDeps() into `deps`.
  void BuildEdges() { deps = ComputeDeps(); }

  std::string ToText() const;
};

struct OptimizerOptions {
  /// Move the poster filter ahead of the scoring chain.
  bool enable_pushdown = false;
  /// Fuse gen_*_score + gen_recency_score + combine_scores into one node.
  bool enable_fusion = false;
  /// Physical choice for classify_* nodes: "stats", "pixels", "cascade"
  /// or "auto" (cost-based selection against the pixel reference).
  std::string boring_impl = "auto";
  /// Physical choice for gen_*_score similarity nodes: "score" (per-row
  /// embedding), "cached" (distinct-token cache) or "auto" (both profiled;
  /// they cost the same model tokens, so the cached one, which never
  /// embeds more, is chosen).
  std::string similarity_impl = "auto";
  /// Minimum sample agreement with the reference implementation that a
  /// cheaper candidate must reach to be chosen under "auto".
  double accuracy_floor = 0.75;
  /// Rows used when profiling candidates.
  size_t profile_sample_rows = 6;
  /// Emit a reversed recency score first so the critic's semantic check
  /// has a real bug to catch (reproduces the Section-4 example).
  bool inject_recency_bug = false;
  /// Simulated vision-model round trip stamped into pixel-touching
  /// classify_* specs as `latency_ms_per_image`. Benches raise it to
  /// model a remote VLM; the batch scheduler pays it once per flush
  /// instead of once per morsel. 0 keeps evaluation instant.
  double vision_latency_ms_per_image = 0.0;
};

/// Profiling record for one candidate implementation (bench E8 output).
struct CandidateProfile {
  std::string node;
  std::string template_id;
  double runtime_ms = 0.0;
  double est_cost_usd = 0.0;  ///< projected model cost for the full input
  double agreement = 1.0;     ///< sample agreement with the reference
  bool chosen = false;
  int critic_rounds = 0;      ///< semantic fixes before acceptance
};

/// \brief The optimizer: rewrites + coder/profiler/critic per node.
class QueryOptimizer {
 public:
  QueryOptimizer(llm::SimulatedLLM* llm, fao::FunctionRegistry* registry,
                 OptimizerOptions options = {})
      : llm_(llm), registry_(registry), options_(options) {}

  /// Produces the physical plan, registering every generated (and every
  /// critic-patched) spec in the function registry with a fresh ver_id.
  Result<PhysicalPlan> Optimize(const fao::LogicalPlan& plan,
                                const parser::QueryIntent& intent,
                                fao::ExecContext* ctx);

  const std::vector<CandidateProfile>& profiles() const { return profiles_; }
  const OptimizerOptions& options() const { return options_; }

  /// --- logical rewrites (exposed for tests/benches) ---
  static fao::LogicalPlan PushdownFilter(const fao::LogicalPlan& plan);
  static fao::LogicalPlan FuseScoring(const fao::LogicalPlan& plan);

 private:
  Result<std::vector<fao::FunctionSpec>> SynthesizeCandidates(
      const fao::FunctionSignature& sig, const parser::QueryIntent& intent,
      fao::ExecContext* ctx);
  /// Runs the critic's semantic check; on failure patches the spec and
  /// counts a round. Returns the accepted spec.
  Result<fao::FunctionSpec> CriticLoop(const fao::FunctionSignature& sig,
                                       fao::FunctionSpec spec,
                                       const parser::QueryIntent& intent,
                                       fao::ExecContext* ctx,
                                       int* critic_rounds);

  llm::SimulatedLLM* llm_;
  fao::FunctionRegistry* registry_;
  OptimizerOptions options_;
  std::vector<CandidateProfile> profiles_;
};

}  // namespace kathdb::opt
