/// \file function.h
/// \brief Physical FAO functions: the interpreter over FunctionSpecs.
///
/// A PhysicalFunction is one concrete, versioned implementation of a
/// logical signature — "a SQL query over a table, a view population using
/// machine learning models, a vector-based similarity search for semantic
/// keyword matching, and more" (paper, Section 2.2). The interpreter
/// instantiates a function object from a FunctionSpec; alternative
/// templates for the same signature are the optimizer's physical choices.
///
/// \ingroup kathdb_fao

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/sync.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "fao/spec.h"
#include "service/result_cache.h"
#include "lineage/lineage.h"
#include "llm/model.h"
#include "multimodal/media.h"
#include "multimodal/scene_graph.h"
#include "multimodal/text_graph.h"
#include "relational/catalog.h"
#include "vector/embedding.h"

namespace kathdb::llm {
class BatchScheduler;
}  // namespace kathdb::llm

namespace kathdb::fao {

/// \brief Raw-image registry keyed by video/image id; the pixel-level
/// classifier implementations fetch from here (the analogue of reading
/// image files referenced by a path column).
///
/// Internally synchronized (SharedMutex, reads in parallel): concurrent
/// morsel partitions and DAG-parallel node tasks all fetch posters from
/// the one store in their ExecContext while ingestion of a live corpus
/// may still be appending.
class ImageStore {
 public:
  void Put(int64_t vid, mm::SyntheticImage image) KATHDB_EXCLUDES(mu_) {
    common::WriterLock lock(mu_);
    images_[vid] = std::move(image);
  }
  Result<mm::SyntheticImage> Get(int64_t vid) const KATHDB_EXCLUDES(mu_) {
    common::ReaderLock lock(mu_);
    auto it = images_.find(vid);
    if (it == images_.end()) {
      return Status::NotFound("no raw image for vid " + std::to_string(vid));
    }
    return it->second;
  }
  size_t size() const KATHDB_EXCLUDES(mu_) {
    common::ReaderLock lock(mu_);
    return images_.size();
  }

 private:
  mutable common::SharedMutex mu_;
  std::map<int64_t, mm::SyntheticImage> images_ KATHDB_GUARDED_BY(mu_);
};

/// \brief Everything a function body may touch at execution time.
struct ExecContext {
  rel::Catalog* catalog = nullptr;
  lineage::LineageStore* lineage = nullptr;
  llm::UsageMeter* meter = nullptr;
  mm::ImageLoader* image_loader = nullptr;
  ImageStore* images = nullptr;
  mm::SceneGraphViews scene_views;
  mm::TextGraphViews text_views;
  const vec::TextEmbedder* embedder = nullptr;  ///< defaults provided
  /// Optional cross-query memo for pure function templates (service
  /// layer); consulted by PhysicalFunction::Evaluate.
  service::ResultCache* result_cache = nullptr;
  /// Optional intra-query worker pool: the DAG scheduler runs ready plan
  /// nodes on it and EvaluateWithMorsels borrows lanes for partition
  /// evaluation. Null means fully sequential execution.
  common::ThreadPool* exec_pool = nullptr;
  /// Time source for simulated model round trips and user think time.
  /// Null means the wall clock (common::Clock::System()).
  common::Clock* clock = nullptr;
  /// Optional cross-query LLM batch scheduler: when set (service layer)
  /// and the executor enables batching, pure FAO evaluations go through
  /// EvaluateBatched instead of blocking a worker per round trip.
  llm::BatchScheduler* batcher = nullptr;
  /// Set inside batch generators: the flush already paid the batch's one
  /// simulated round trip, so per-row SimulateModelLatency calls are
  /// no-ops (the latency collapse that batching buys).
  bool model_latency_prepaid = false;
};

/// \brief One executable, versioned implementation of a logical function.
class PhysicalFunction {
 public:
  explicit PhysicalFunction(FunctionSpec spec) : spec_(std::move(spec)) {}
  virtual ~PhysicalFunction() = default;

  const FunctionSpec& spec() const { return spec_; }

  /// Runs the body over `inputs` (resolved by the executor in signature
  /// order). Returns the output table; errors with kSyntacticError are
  /// candidates for the agentic monitor's automatic repair.
  virtual Result<rel::Table> Execute(const std::vector<rel::TablePtr>& inputs,
                                     ExecContext* ctx) = 0;

  /// Cache-aware entry point used by the executor and the optimizer's
  /// profiler: when `ctx->result_cache` is set and the template is pure
  /// (IsPureTemplate), looks up the 64-bit key spec-fingerprint x
  /// input-fingerprint; a hit returns the memoized table without running
  /// the body (skipping its model charges — the cross-query saving); a
  /// miss executes and stores. Falls back to plain Execute otherwise.
  Result<rel::Table> Evaluate(const std::vector<rel::TablePtr>& inputs,
                              ExecContext* ctx);

  /// 64-bit fingerprint of the behavioural part of the spec (template,
  /// parameters, dependency pattern — not name or version).
  uint64_t SpecFingerprint() const;

 protected:
  FunctionSpec spec_;
};

/// Instantiates the implementation template named by `spec.template_id`.
/// InvalidArgument for unknown templates or missing parameters.
Result<std::unique_ptr<PhysicalFunction>> InstantiateFunction(
    const FunctionSpec& spec);

/// True if the interpreter knows this template id.
bool IsKnownTemplate(const std::string& template_id);

/// True for pure templates: the output is a function of the spec
/// parameters, the input contents and immutable ingest state, and input
/// rows map independently and in order. Pure evaluations are memoized
/// in the result cache, split into row morsels, and coalesced by the
/// batch scheduler (indistinguishable from a cache hit). Only "sql" is
/// impure: its body reads whole catalog relations by name, and
/// multi-step bodies register intermediates as a side effect.
bool IsPureTemplate(const std::string& template_id);

/// Knobs for morsel-partitioned evaluation (set by the executor from
/// ExecutorOptions; the partitioning is a function of morsel_size only,
/// never of the worker count, so results, per-partition cache keys and
/// lineage are identical however many lanes evaluate them).
struct MorselOptions {
  /// Rows per partition; 0 disables splitting.
  size_t morsel_size = 0;
  /// Worker pool for partition evaluation; the calling thread always
  /// participates, so a null (or saturated) pool degrades to sequential
  /// partition evaluation rather than blocking.
  common::ThreadPool* pool = nullptr;
};

/// Evaluates `spec` over `inputs`. When the function is row-wise
/// (IsPureTemplate + a one_to_one/one_to_many dependency pattern),
/// has exactly one input table and `morsels.morsel_size` is non-zero,
/// the input is split into row morsels, each partition is evaluated
/// through the cache-aware PhysicalFunction::Evaluate (so cross-query
/// memoization keys are per-partition content hashes) and the outputs
/// are concatenated order-stably — row lineage ids carry through
/// unchanged. Falls back to a whole-input Evaluate otherwise. Errors
/// surface deterministically: the lowest failing partition wins.
Result<rel::Table> EvaluateWithMorsels(const FunctionSpec& spec,
                                       const std::vector<rel::TablePtr>& inputs,
                                       ExecContext* ctx,
                                       const MorselOptions& morsels);

/// Completion of one asynchronous FAO evaluation. May be invoked inline
/// (cache hits, impure templates) or later on the batch scheduler's
/// flusher thread.
using EvalCallback = std::function<void(Result<rel::Table>)>;

/// Asynchronous counterpart of EvaluateWithMorsels, used when
/// `ctx->batcher` is set and the executor enabled batching. The input is
/// partitioned exactly as EvaluateWithMorsels would (same morsel_size
/// predicate — whole input when unsplittable), and every partition is
/// resolved through the same cache key EvaluateWithMorsels uses
/// (spec-fingerprint x partition-content-fingerprint): cache hit first,
/// else submitted to the batch scheduler under that key, so identical
/// work from other morsels/queries/sessions coalesces onto one
/// generation and the result is byte-identical to the sequential path.
/// `done` fires exactly once with the order-stable merge (lowest failing
/// partition wins), inline when every partition was a cache hit or the
/// template is impure (plain EvaluateWithMorsels), otherwise on the
/// flusher thread after the last batch completes.
void EvaluateBatched(const FunctionSpec& spec,
                     const std::vector<rel::TablePtr>& inputs,
                     ExecContext* ctx, const MorselOptions& morsels,
                     EvalCallback done);

}  // namespace kathdb::fao
