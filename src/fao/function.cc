#include "fao/function.h"

#include <atomic>
#include <cmath>
#include <map>
#include <optional>

#include "common/hash.h"
#include "llm/batch_scheduler.h"
#include "sql/engine.h"

namespace kathdb::fao {

using rel::DataType;
using rel::Row;
using rel::Schema;
using rel::Table;
using rel::TablePtr;
using rel::Value;

namespace {

const vec::TextEmbedder& DefaultEmbedder() {
  static const vec::TextEmbedder kEmbedder(64);
  return kEmbedder;
}

Result<size_t> RequireColumn(const Table& t, const std::string& col,
                             const std::string& fn) {
  auto idx = t.schema().IndexOf(col);
  if (!idx.has_value()) {
    return Status::SyntacticError("function " + fn + ": input table '" +
                                  t.name() + "' has no column '" + col +
                                  "'");
  }
  return *idx;
}

/// Simulated model round-trip: a remote vision/LLM call has per-request
/// wall latency on top of token cost. 0 (the default everywhere outside
/// latency benches) keeps calls instant. Goes through the context clock
/// so tests drive it deterministically; inside a batch generator the
/// flush already paid the batch's single round trip, so per-row latency
/// is prepaid and skipped.
void SimulateModelLatency(const ExecContext* ctx, double ms) {
  if (ms <= 0.0) return;
  if (ctx != nullptr && ctx->model_latency_prepaid) return;
  common::Clock* clock = (ctx != nullptr && ctx->clock != nullptr)
                             ? ctx->clock
                             : common::Clock::System();
  clock->SleepFor(ms);
}

Status RequireInputs(const std::vector<TablePtr>& inputs, size_t n,
                     const std::string& fn) {
  if (inputs.size() != n) {
    return Status::SyntacticError(
        "function " + fn + " expects " + std::to_string(n) +
        " input table(s), got " + std::to_string(inputs.size()));
  }
  for (const auto& t : inputs) {
    if (t == nullptr) return Status::SyntacticError(fn + ": null input");
  }
  return Status::OK();
}

/// The output of every row-wise body: each input row (cells and lineage
/// id, in order) followed by the cells `fill` appends for it, under the
/// input's name. The first error `fill` returns aborts the table.
Result<Table> AppendColumns(
    const Table& in,
    const std::vector<std::pair<std::string, DataType>>& extra_cols,
    const std::function<Status(size_t r, Row* row)>& fill) {
  Schema schema = in.schema();
  for (const auto& [name, type] : extra_cols) schema.AddColumn(name, type);
  Table out(in.name(), schema);
  for (size_t r = 0; r < in.num_rows(); ++r) {
    Row row = in.row(r);
    KATHDB_RETURN_IF_ERROR(fill(r, &row));
    out.AppendRow(std::move(row), in.row_lid(r));
  }
  return out;
}

// ------------------------------------------------------------- kernels

/// Keyword-similarity kernel of keyword_similarity_{score,cached} and
/// fused_scores: every entity token of a document takes its best cosine
/// against the keyword set; tokens above `threshold` add their squared
/// relative margin, squashed to 1 - exp(-sharpness * hits). With
/// `memoize` each distinct token's best cosine is cached across rows, so
/// it is embedded once — identical scores, less embedding work.
class KeywordScorer {
 public:
  KeywordScorer(const Json& params, const ExecContext& ctx, bool memoize)
      : ctx_(ctx),
        embedder_(ctx.embedder != nullptr ? *ctx.embedder
                                          : DefaultEmbedder()),
        threshold_(params.GetDouble("threshold", 0.60)),
        sharpness_(params.GetDouble("sharpness", 2.0)),
        memoize_(memoize) {
    if (params.Has("keywords")) {
      for (const Json& k : params.Get("keywords").items()) {
        keywords_.push_back(embedder_.EmbedToken(k.AsString()));
      }
    }
  }

  Status Check(const std::string& fn) const {
    if (!keywords_.empty()) return Status::OK();
    return Status::SyntacticError("function " + fn + ": empty keyword list");
  }

  double Score(int64_t did) {
    double hits = 0.0;
    auto tokens = mm::EntityTokensOf(did, *ctx_.catalog, ctx_.text_views);
    if (tokens.ok()) {
      for (const auto& tok : tokens.value()) {
        double best = BestCosine(tok);
        if (best > threshold_) {
          double rel = (best - threshold_) / (1.0 - threshold_);
          hits += rel * rel;
        }
      }
    }
    return 1.0 - std::exp(-sharpness_ * hits);
  }

 private:
  float BestCosine(const std::string& tok) {
    if (memoize_) {
      auto it = memo_.find(tok);
      if (it != memo_.end()) return it->second;
    }
    vec::Embedding te = embedder_.EmbedToken(tok);
    float best = 0.0f;
    for (const auto& kv : keywords_) {
      best = std::max(best, vec::CosineSimilarity(te, kv));
    }
    if (memoize_) memo_[tok] = best;
    return best;
  }

  const ExecContext& ctx_;
  const vec::TextEmbedder& embedder_;
  double threshold_;
  double sharpness_;
  bool memoize_;
  std::vector<vec::Embedding> keywords_;
  std::map<std::string, float> memo_;  // token -> max keyword cosine
};

/// Recency kernel of recency_score and fused_scores: the year scaled
/// into [min_year, max_year] and clamped to [0, 1]. direction -1 is the
/// reversed (buggy) implementation the critic must catch during semantic
/// verification (paper, Section 4).
struct RecencyRule {
  explicit RecencyRule(const Json& params)
      : min_year(params.GetDouble("min_year", 1950)),
        max_year(params.GetDouble("max_year", 2026)),
        direction(params.GetDouble("direction", 1.0)) {}

  double Score(double year) const {
    double s = (year - min_year) / std::max(1.0, max_year - min_year);
    s = std::min(1.0, std::max(0.0, s));
    return direction < 0 ? 1.0 - s : s;
  }

  double min_year;
  double max_year;
  double direction;
};

/// Thresholds and rules of the classify_boring family: a poster is
/// boring when its colours are flat, it holds at most `max_objects`
/// objects and none of them is action content.
struct BoringRule {
  explicit BoringRule(const Json& params)
      : var_threshold(params.GetDouble("variance_threshold", 0.055)),
        max_objects(params.GetInt("max_objects", 4)),
        margin(params.GetDouble("margin", 0.015)),
        vision_tokens(static_cast<int>(
            params.GetInt("vision_tokens_per_image", 420))),
        latency_ms(params.GetDouble("latency_ms_per_image", 0.0)) {}

  /// The cheap rule, over the poster's scene-graph statistics.
  bool FromStats(const mm::FrameSceneStats& stats) const {
    return stats.color_variance < var_threshold &&
           stats.num_objects <= max_objects && stats.num_action_objects == 0;
  }

  /// The expensive rule: one metered vision-model call over the raw
  /// poster, reading its ground-truth latent content.
  Result<bool> FromPixels(int64_t vid, ExecContext* ctx,
                          const std::string& fn) const {
    static const vec::ConceptLexicon lexicon = vec::ConceptLexicon::BuiltIn();
    if (ctx->images == nullptr || ctx->image_loader == nullptr) {
      return Status::SyntacticError(
          "function " + fn +
          ": pixel analysis requires an image store and loader");
    }
    KATHDB_ASSIGN_OR_RETURN(mm::SyntheticImage raw, ctx->images->Get(vid));
    // The decode is where unsupported formats (HEIC) surface as
    // syntactic faults for the monitor to repair.
    KATHDB_ASSIGN_OR_RETURN(mm::SyntheticImage img,
                            ctx->image_loader->Decode(raw));
    SimulateModelLatency(ctx, latency_ms);
    if (ctx->meter != nullptr) {
      ctx->meter->Record(vision, vision_tokens, vision_tokens / 6);
    }
    int action_objects = 0;
    for (const auto& o : img.objects) {
      std::string concept_name = lexicon.ConceptOf(o.cls);
      if (concept_name == "action" || concept_name == "violence") {
        ++action_objects;
      }
    }
    return img.color_variance < var_threshold && action_objects == 0 &&
           static_cast<int64_t>(img.objects.size()) <= max_objects;
  }

  double var_threshold;
  int64_t max_objects;
  double margin;  ///< cascade: escalate rows this close to the threshold
  int vision_tokens;
  double latency_ms;
  llm::ModelSpec vision = llm::KathVisionSpec();
};

// ------------------------------------------------------------------- sql
class SqlFunction : public PhysicalFunction {
 public:
  using PhysicalFunction::PhysicalFunction;

  Result<Table> Execute(const std::vector<TablePtr>& inputs,
                        ExecContext* ctx) override {
    (void)inputs;  // the executor registers inputs in the catalog
    sql::SqlEngine engine(ctx->catalog);
    // Multi-step body: each step runs a statement; "as" registers the
    // intermediate result under a temporary name for later steps.
    if (spec_.params.Has("steps")) {
      Table last("empty", Schema{});
      for (const Json& step : spec_.params.Get("steps").items()) {
        std::string q = step.GetString("query");
        if (q.empty()) {
          return Status::SyntacticError("function " + spec_.name +
                                        ": sql step missing 'query'");
        }
        KATHDB_ASSIGN_OR_RETURN(last, engine.Execute(q));
        std::string as = step.GetString("as");
        if (!as.empty()) {
          auto tmp = std::make_shared<Table>(last);
          tmp->set_name(as);
          ctx->catalog->Upsert(tmp, rel::RelationKind::kIntermediate);
        }
      }
      return last;
    }
    std::string query = spec_.params.GetString("query");
    if (query.empty()) {
      return Status::SyntacticError("function " + spec_.name +
                                    ": sql template missing 'query' param");
    }
    KATHDB_ASSIGN_OR_RETURN(Table out, engine.Execute(query));
    return out;
  }
};

// --------------------------------------------------- keyword similarity
/// keyword_similarity_score and keyword_similarity_cached: two physical
/// implementations of one logical operator with one body. The cached
/// template memoizes per distinct token — same scores at a fraction of
/// the embedding work, the optimizer's runtime-based physical choice.
class KeywordSimilarityFunction : public PhysicalFunction {
 public:
  using PhysicalFunction::PhysicalFunction;

  Result<Table> Execute(const std::vector<TablePtr>& inputs,
                        ExecContext* ctx) override {
    KATHDB_RETURN_IF_ERROR(RequireInputs(inputs, 1, spec_.name));
    const Table& in = *inputs[0];
    KeywordScorer scorer(spec_.params, *ctx,
                         spec_.template_id == "keyword_similarity_cached");
    KATHDB_RETURN_IF_ERROR(scorer.Check(spec_.name));
    std::string did_col = spec_.params.GetString("did_column", "did");
    KATHDB_ASSIGN_OR_RETURN(size_t didx,
                            RequireColumn(in, did_col, spec_.name));
    std::string out_col =
        spec_.params.GetString("output_column", "excitement_score");
    return AppendColumns(in, {{out_col, DataType::kDouble}},
                         [&](size_t r, Row* row) {
                           int64_t did = in.at(r, didx).AsInt();
                           row->push_back(Value::Double(scorer.Score(did)));
                           return Status::OK();
                         });
  }
};

// --------------------------------------------------------- recency score
class RecencyScoreFunction : public PhysicalFunction {
 public:
  using PhysicalFunction::PhysicalFunction;

  Result<Table> Execute(const std::vector<TablePtr>& inputs,
                        ExecContext* ctx) override {
    (void)ctx;
    KATHDB_RETURN_IF_ERROR(RequireInputs(inputs, 1, spec_.name));
    const Table& in = *inputs[0];
    RecencyRule rule(spec_.params);
    std::string year_col = spec_.params.GetString("year_column", "year");
    KATHDB_ASSIGN_OR_RETURN(size_t yidx,
                            RequireColumn(in, year_col, spec_.name));
    std::string out_col =
        spec_.params.GetString("output_column", "recency_score");
    return AppendColumns(in, {{out_col, DataType::kDouble}},
                         [&](size_t r, Row* row) {
                           double y = in.at(r, yidx).AsDouble();
                           row->push_back(Value::Double(rule.Score(y)));
                           return Status::OK();
                         });
  }
};

// -------------------------------------------------------- combine scores
class CombineScoresFunction : public PhysicalFunction {
 public:
  using PhysicalFunction::PhysicalFunction;

  Result<Table> Execute(const std::vector<TablePtr>& inputs,
                        ExecContext* ctx) override {
    (void)ctx;
    KATHDB_RETURN_IF_ERROR(RequireInputs(inputs, 1, spec_.name));
    const Table& in = *inputs[0];
    if (!spec_.params.Has("terms") ||
        spec_.params.Get("terms").size() == 0) {
      return Status::SyntacticError("function " + spec_.name +
                                    ": combine_scores needs 'terms'");
    }
    std::vector<std::pair<size_t, double>> terms;
    for (const Json& t : spec_.params.Get("terms").items()) {
      std::string col = t.GetString("column");
      KATHDB_ASSIGN_OR_RETURN(size_t idx, RequireColumn(in, col, spec_.name));
      terms.emplace_back(idx, t.GetDouble("weight", 1.0));
    }
    std::string out_col =
        spec_.params.GetString("output_column", "final_score");
    return AppendColumns(in, {{out_col, DataType::kDouble}},
                         [&](size_t r, Row* row) {
                           double sum = 0.0;
                           for (const auto& [idx, w] : terms) {
                             sum += w * in.at(r, idx).AsDouble();
                           }
                           row->push_back(Value::Double(sum));
                           return Status::OK();
                         });
  }
};

// ------------------------------------------------------- classify_boring
/// classify_boring_{stats,pixels,cascade}: one body, three costs. Stats
/// applies the cheap rule to every row, pixels the vision model to every
/// row, and the cascade the cheap rule except on rows whose colour
/// variance lies within `margin` of the threshold, which it escalates to
/// the vision model.
class ClassifyBoringFunction : public PhysicalFunction {
 public:
  explicit ClassifyBoringFunction(FunctionSpec spec)
      : PhysicalFunction(std::move(spec)),
        pixels_(spec_.template_id == "classify_boring_pixels"),
        cascade_(spec_.template_id == "classify_boring_cascade") {}

  Result<Table> Execute(const std::vector<TablePtr>& inputs,
                        ExecContext* ctx) override {
    KATHDB_RETURN_IF_ERROR(RequireInputs(inputs, 1, spec_.name));
    const Table& in = *inputs[0];
    BoringRule rule(spec_.params);
    std::string vid_col = spec_.params.GetString("vid_column", "vid");
    KATHDB_ASSIGN_OR_RETURN(size_t vidx,
                            RequireColumn(in, vid_col, spec_.name));
    std::string out_col =
        spec_.params.GetString("output_column", "boring_poster");
    return AppendColumns(
        in, {{out_col, DataType::kBool}}, [&](size_t r, Row* row) -> Status {
          int64_t vid = in.at(r, vidx).AsInt();
          bool boring = false;
          if (pixels_) {
            KATHDB_ASSIGN_OR_RETURN(boring,
                                    rule.FromPixels(vid, ctx, spec_.name));
          } else {
            KATHDB_ASSIGN_OR_RETURN(
                mm::FrameSceneStats stats,
                mm::ComputeFrameStats(vid, 0, *ctx->catalog,
                                      ctx->scene_views));
            bool confident = std::abs(stats.color_variance -
                                      rule.var_threshold) >= rule.margin;
            if (cascade_ && !confident) {
              KATHDB_ASSIGN_OR_RETURN(boring,
                                      rule.FromPixels(vid, ctx, spec_.name));
            } else {
              boring = rule.FromStats(stats);
            }
          }
          row->push_back(Value::Bool(boring));
          return Status::OK();
        });
  }

 private:
  bool pixels_;
  bool cascade_;
};

// ----------------------------------------------------------- fused_scores
/// Fusion of keyword-similarity + recency + combine into one operator:
/// the optimizer's "merge two function signatures into one to avoid
/// unnecessary intermediate result materialization" rewrite (E7). Faster,
/// but a single func_id produces all three columns, so explanations get
/// coarser.
class FusedScoresFunction : public PhysicalFunction {
 public:
  using PhysicalFunction::PhysicalFunction;

  Result<Table> Execute(const std::vector<TablePtr>& inputs,
                        ExecContext* ctx) override {
    KATHDB_RETURN_IF_ERROR(RequireInputs(inputs, 1, spec_.name));
    const Table& in = *inputs[0];
    const Json& ex = spec_.params.Get("excitement");
    const Json& re = spec_.params.Get("recency");
    const Json& co = spec_.params.Get("combine");
    if (!ex.is_object() || !re.is_object() || !co.is_object()) {
      return Status::SyntacticError(
          spec_.name + ": fused_scores needs excitement/recency/combine");
    }
    KeywordScorer scorer(ex, *ctx, /*memoize=*/false);
    KATHDB_RETURN_IF_ERROR(scorer.Check(spec_.name));
    RecencyRule recency(re);
    double w_ex = co.GetDouble("excitement_weight", 0.7);
    double w_re = co.GetDouble("recency_weight", 0.3);
    KATHDB_ASSIGN_OR_RETURN(
        size_t didx,
        RequireColumn(in, ex.GetString("did_column", "did"), spec_.name));
    KATHDB_ASSIGN_OR_RETURN(
        size_t yidx,
        RequireColumn(in, re.GetString("year_column", "year"), spec_.name));
    return AppendColumns(
        in,
        {{"excitement_score", DataType::kDouble},
         {"recency_score", DataType::kDouble},
         {"final_score", DataType::kDouble}},
        [&](size_t r, Row* row) {
          double excitement = scorer.Score(in.at(r, didx).AsInt());
          double rec = recency.Score(in.at(r, yidx).AsDouble());
          row->push_back(Value::Double(excitement));
          row->push_back(Value::Double(rec));
          row->push_back(Value::Double(w_ex * excitement + w_re * rec));
          return Status::OK();
        });
  }
};

// -------------------------------------------------------- template table
template <typename Fn>
std::unique_ptr<PhysicalFunction> Make(const FunctionSpec& spec) {
  return std::make_unique<Fn>(spec);
}

/// Every template the interpreter knows: its factory, and whether it is
/// pure (see IsPureTemplate).
struct TemplateEntry {
  const char* id;
  std::unique_ptr<PhysicalFunction> (*make)(const FunctionSpec&);
  bool pure;
};

constexpr TemplateEntry kTemplates[] = {
    {"sql", Make<SqlFunction>, false},
    {"keyword_similarity_score", Make<KeywordSimilarityFunction>, true},
    {"keyword_similarity_cached", Make<KeywordSimilarityFunction>, true},
    {"recency_score", Make<RecencyScoreFunction>, true},
    {"combine_scores", Make<CombineScoresFunction>, true},
    {"classify_boring_stats", Make<ClassifyBoringFunction>, true},
    {"classify_boring_pixels", Make<ClassifyBoringFunction>, true},
    {"classify_boring_cascade", Make<ClassifyBoringFunction>, true},
    {"fused_scores", Make<FusedScoresFunction>, true},
};

const TemplateEntry* FindTemplate(const std::string& template_id) {
  for (const TemplateEntry& t : kTemplates) {
    if (template_id == t.id) return &t;
  }
  return nullptr;
}

}  // namespace

Result<std::unique_ptr<PhysicalFunction>> InstantiateFunction(
    const FunctionSpec& spec) {
  const TemplateEntry* t = FindTemplate(spec.template_id);
  if (t == nullptr) {
    return Status::InvalidArgument("unknown function template '" +
                                   spec.template_id + "'");
  }
  return t->make(spec);
}

bool IsKnownTemplate(const std::string& template_id) {
  return FindTemplate(template_id) != nullptr;
}

bool IsPureTemplate(const std::string& template_id) {
  const TemplateEntry* t = FindTemplate(template_id);
  return t != nullptr && t->pure;
}

uint64_t PhysicalFunction::SpecFingerprint() const {
  uint64_t h = common::Fnv1a64(spec_.template_id);
  h = common::HashCombine(h, common::Fnv1a64(spec_.params.Dump()));
  h = common::HashCombine(h, common::Fnv1a64(spec_.dependency_pattern));
  return h;
}

namespace {

/// The result-cache (and batch) key of one evaluation: spec fingerprint
/// x input-content fingerprint.
uint64_t CacheKey(uint64_t spec_fp, const std::vector<TablePtr>& inputs) {
  return common::HashCombine(spec_fp, service::FingerprintTables(inputs));
}

/// The memoized table under `key`, copied out: callers rename the result
/// and rewrite its lineage ids; the shared cached table stays immutable.
std::optional<Table> CacheGet(service::ResultCache* cache, uint64_t key) {
  if (cache == nullptr) return std::nullopt;
  auto hit = cache->Get(key);
  if (!hit.has_value() || hit->table == nullptr) return std::nullopt;
  return *hit->table;
}

/// The row-morsel partition shared by EvaluateWithMorsels and
/// EvaluateBatched, as one input list per partition. A pure template
/// with a one_to_one/one_to_many pattern and a single input longer than
/// `morsel_size` is cut into morsel_size-row slices; anything else is
/// one partition holding `inputs`. The split depends on morsel_size
/// only, so per-partition cache keys and batch fingerprints agree across
/// both paths and any worker count.
std::vector<std::vector<TablePtr>> Partition(
    const FunctionSpec& spec, const std::vector<TablePtr>& inputs,
    size_t morsel_size) {
  bool narrow = spec.dependency_pattern == "one_to_one" ||
                spec.dependency_pattern == "one_to_many";
  bool splittable = morsel_size > 0 && narrow && inputs.size() == 1 &&
                    inputs[0] != nullptr && IsPureTemplate(spec.template_id) &&
                    inputs[0]->num_rows() > morsel_size;
  if (!splittable) return {inputs};
  const Table& in = *inputs[0];
  std::vector<std::vector<TablePtr>> parts;
  parts.reserve((in.num_rows() + morsel_size - 1) / morsel_size);
  for (size_t begin = 0; begin < in.num_rows(); begin += morsel_size) {
    parts.push_back(
        {std::make_shared<Table>(in.Slice(begin, begin + morsel_size))});
  }
  return parts;
}

/// Order-stable merge of per-partition results: the lowest failing
/// partition's error wins, a single partition passes through unchanged,
/// and split partitions concatenate under the input's table lineage id
/// (row lineage ids carry through unchanged).
Result<Table> MergeParts(std::vector<std::optional<Result<Table>>>* results,
                         const std::vector<TablePtr>& inputs) {
  for (const auto& r : *results) {
    if (!r->ok()) return r->status();
  }
  if (results->size() == 1) return std::move(*results->front());
  const Table& first = results->front()->value();
  Table merged(first.name(), first.schema());
  merged.set_table_lid(inputs[0]->table_lid());
  for (const auto& r : *results) {
    merged.AppendSlice(r->value(), 0, r->value().num_rows());
  }
  return merged;
}

}  // namespace

Result<rel::Table> PhysicalFunction::Evaluate(
    const std::vector<rel::TablePtr>& inputs, ExecContext* ctx) {
  service::ResultCache* cache = ctx != nullptr ? ctx->result_cache : nullptr;
  if (cache == nullptr || !IsPureTemplate(spec_.template_id)) {
    return Execute(inputs, ctx);
  }
  uint64_t key = CacheKey(SpecFingerprint(), inputs);
  if (auto hit = CacheGet(cache, key)) return std::move(*hit);
  KATHDB_ASSIGN_OR_RETURN(rel::Table out, Execute(inputs, ctx));
  cache->Put(key, service::CacheEntry{std::make_shared<rel::Table>(out),
                                      std::string()});
  return out;
}

namespace {

/// Shared state of one morsel evaluation. Helper tasks capture it by
/// shared_ptr: a helper that only gets scheduled *after* the owning call
/// already drained every partition finds `next >= parts`, touches
/// nothing else and exits — so the owner never has to wait for queued
/// helpers to run (the deadlock when DAG node tasks and morsel helpers
/// share one saturated pool) and a late helper never dereferences the
/// owner's dead stack frame. `ctx`/`spec` are only touched by lanes that
/// claimed a partition, and the owner blocks until every claimed
/// partition finished, keeping them alive for exactly that window.
struct MorselState {
  FunctionSpec spec;
  ExecContext* ctx = nullptr;
  size_t parts = 0;
  std::vector<std::vector<TablePtr>> part_inputs;
  std::vector<std::optional<Result<Table>>> results;
  std::atomic<size_t> next{0};
  common::Mutex mu;
  common::CondVar cv;
  size_t done KATHDB_GUARDED_BY(mu) = 0;  // finished partitions

  /// Claims and evaluates partitions until none are left. One fresh
  /// function instance per partition: implementations may keep per-call
  /// scratch state (token caches) that must not be shared across lanes.
  void Work() {
    for (size_t i = next.fetch_add(1); i < parts;
         i = next.fetch_add(1)) {
      auto fn = InstantiateFunction(spec);
      if (fn.ok()) {
        results[i].emplace(fn.value()->Evaluate(part_inputs[i], ctx));
      } else {
        results[i].emplace(fn.status());
      }
      common::MutexLock lock(mu);
      if (++done == parts) cv.NotifyAll();
    }
  }

  void WaitAllDone() KATHDB_EXCLUDES(mu) {
    common::MutexLock lock(mu);
    while (done != parts) cv.Wait(mu);
  }
};

}  // namespace

Result<rel::Table> EvaluateWithMorsels(const FunctionSpec& spec,
                                       const std::vector<rel::TablePtr>& inputs,
                                       ExecContext* ctx,
                                       const MorselOptions& morsels) {
  auto state = std::make_shared<MorselState>();
  state->spec = spec;
  state->ctx = ctx;
  state->part_inputs = Partition(spec, inputs, morsels.morsel_size);
  state->parts = state->part_inputs.size();
  state->results.resize(state->parts);

  // Borrow helper lanes from the pool; the calling thread always works
  // too, so a saturated pool (refused submissions, or helpers stuck in
  // the queue behind busy node tasks) costs parallelism, not progress.
  if (morsels.pool != nullptr) {
    size_t want =
        std::min<size_t>(morsels.pool->workers(), state->parts - 1);
    for (size_t h = 0; h < want; ++h) {
      if (!morsels.pool->TrySubmit([state] { state->Work(); })) break;
    }
  }
  state->Work();
  state->WaitAllDone();
  return MergeParts(&state->results, inputs);
}

namespace {

/// Join state of one asynchronous evaluation: every partition writes its
/// own slot; the last completion (atomic countdown) merges and fires the
/// callback, on whichever thread finished last.
struct BatchJoinState {
  std::vector<TablePtr> inputs;
  std::vector<std::optional<Result<Table>>> results;
  std::atomic<size_t> remaining{0};
  EvalCallback done;

  void CompleteOne() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    done(MergeParts(&results, inputs));
  }
};

}  // namespace

void EvaluateBatched(const FunctionSpec& spec,
                     const std::vector<rel::TablePtr>& inputs,
                     ExecContext* ctx, const MorselOptions& morsels,
                     EvalCallback done) {
  if (ctx == nullptr || ctx->batcher == nullptr ||
      !IsPureTemplate(spec.template_id)) {
    done(EvaluateWithMorsels(spec, inputs, ctx, morsels));
    return;
  }
  // Instantiated once up front for the spec fingerprint; generators build
  // their own instances (implementations keep per-call scratch state).
  auto proto = InstantiateFunction(spec);
  if (!proto.ok()) {
    done(proto.status());
    return;
  }
  uint64_t spec_fp = proto.value()->SpecFingerprint();
  service::ResultCache* cache = ctx->result_cache;
  // The batch pays one round trip of max over its items instead of the
  // per-row sum.
  double rtt_ms = spec.params.GetDouble("latency_ms_per_image", 0.0);

  std::vector<std::vector<TablePtr>> part_inputs =
      Partition(spec, inputs, morsels.morsel_size);
  auto state = std::make_shared<BatchJoinState>();
  state->inputs = inputs;
  state->results.resize(part_inputs.size());
  state->remaining.store(part_inputs.size(), std::memory_order_relaxed);
  state->done = std::move(done);

  for (size_t i = 0; i < part_inputs.size(); ++i) {
    uint64_t key = CacheKey(spec_fp, part_inputs[i]);
    // Cache lookup before submit: a memoized partition resolves inline
    // (and counts the same hit the sequential path would count).
    if (auto hit = CacheGet(cache, key)) {
      state->results[i].emplace(std::move(*hit));
      state->CompleteOne();
      continue;
    }
    std::vector<TablePtr> slice = part_inputs[i];
    ctx->batcher->Submit(
        key,
        [spec, slice, ctx, cache, key]() -> Result<llm::BatchResult> {
          auto fn = InstantiateFunction(spec);
          if (!fn.ok()) return fn.status();
          // The flush already slept the batch's one round trip; per-row
          // model latency inside the body is prepaid.
          ExecContext bctx = *ctx;
          bctx.model_latency_prepaid = true;
          auto out = fn.value()->Execute(slice, &bctx);
          if (!out.ok()) return out.status();
          auto table = std::make_shared<Table>(std::move(out).value());
          // Insert on completion: later queries (and later flights of the
          // same fingerprint) resolve from the cache.
          if (cache != nullptr) {
            cache->Put(key, service::CacheEntry{table, std::string()});
          }
          return llm::BatchResult{table, std::string()};
        },
        rtt_ms,
        [state, i](const Result<llm::BatchResult>& r) {
          if (r.ok() && r.value().table != nullptr) {
            state->results[i].emplace(*r.value().table);
          } else if (r.ok()) {
            state->results[i].emplace(Status::RuntimeError(
                "batched evaluation produced no table"));
          } else {
            state->results[i].emplace(r.status());
          }
          state->CompleteOne();
        });
  }
}

}  // namespace kathdb::fao
