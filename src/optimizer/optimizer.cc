#include "optimizer/optimizer.h"

#include <chrono>
#include <map>

#include "common/strings.h"
#include "sql/engine.h"

namespace kathdb::opt {

using fao::FunctionSignature;
using fao::FunctionSpec;
using fao::LogicalPlan;
using rel::Table;
using rel::TablePtr;

std::vector<std::vector<size_t>> PhysicalPlan::ComputeDeps() const {
  // Map each output name to its producer; outputs are unique (verifier)
  // and producers precede consumers, so keeping the last index seen
  // before the consumer is unambiguous.
  std::map<std::string, size_t> producer_of;
  std::vector<std::vector<size_t>> out(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (const auto& in : nodes[i].sig.inputs) {
      auto it = producer_of.find(in);
      if (it != producer_of.end()) out[i].push_back(it->second);
    }
    producer_of[nodes[i].sig.output] = i;
  }
  return out;
}

std::string PhysicalPlan::ToText() const {
  std::string out = "Physical plan (" + std::to_string(nodes.size()) +
                    " nodes, final output: " + final_output + ")\n";
  std::vector<std::vector<size_t>> edges =
      deps.size() == nodes.size() ? deps : ComputeDeps();
  for (size_t i = 0; i < nodes.size(); ++i) {
    const PhysicalNode& n = nodes[i];
    out += "  " + std::to_string(i + 1) + ". " + n.sig.name + " [" +
           n.spec.template_id + " v" + std::to_string(n.spec.ver_id) + ", " +
           n.spec.dependency_pattern + "] -> " + n.sig.output;
    if (!edges[i].empty()) {
      std::vector<std::string> parents;
      for (size_t d : edges[i]) parents.push_back(std::to_string(d + 1));
      out += " (after " + Join(parents, ",") + ")";
    }
    out += "\n";
  }
  return out;
}

// ------------------------------------------------------ logical rewrites

LogicalPlan QueryOptimizer::PushdownFilter(const LogicalPlan& plan) {
  // Locate the classify_*/filter_* pair and the node feeding the scoring
  // chain (the scene-graph join); move the pair directly after it.
  int classify_idx = -1;
  int filter_idx = -1;
  int anchor_idx = -1;
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const std::string& name = plan.nodes[i].name;
    if (StartsWith(name, "classify_")) classify_idx = static_cast<int>(i);
    if (StartsWith(name, "filter_")) filter_idx = static_cast<int>(i);
    if (StartsWith(name, "join_scene")) anchor_idx = static_cast<int>(i);
  }
  if (classify_idx < 0 || filter_idx != classify_idx + 1 || anchor_idx < 0 ||
      classify_idx <= anchor_idx + 1) {
    return plan;  // nothing to push down
  }
  LogicalPlan out;
  for (int i = 0; i <= anchor_idx; ++i) out.nodes.push_back(plan.nodes[i]);
  out.nodes.push_back(plan.nodes[classify_idx]);
  out.nodes.push_back(plan.nodes[filter_idx]);
  for (int i = anchor_idx + 1; i < static_cast<int>(plan.nodes.size()); ++i) {
    if (i == classify_idx || i == filter_idx) continue;
    out.nodes.push_back(plan.nodes[i]);
  }
  // Rewire the primary (first) input of every node to the previous node's
  // output; auxiliary view inputs are preserved.
  for (size_t i = 1; i < out.nodes.size(); ++i) {
    if (!out.nodes[i].inputs.empty()) {
      out.nodes[i].inputs[0] = out.nodes[i - 1].output;
    }
  }
  return out;
}

LogicalPlan QueryOptimizer::FuseScoring(const LogicalPlan& plan) {
  // Find gen_<x>_score, gen_recency_score, combine_scores consecutive.
  for (size_t i = 0; i + 2 < plan.nodes.size(); ++i) {
    const auto& a = plan.nodes[i];
    const auto& b = plan.nodes[i + 1];
    const auto& c = plan.nodes[i + 2];
    if (StartsWith(a.name, "gen_") && a.name != "gen_recency_score" &&
        b.name == "gen_recency_score" && c.name == "combine_scores") {
      LogicalPlan out;
      for (size_t j = 0; j < i; ++j) out.nodes.push_back(plan.nodes[j]);
      FunctionSignature fused;
      fused.name = "gen_scores_fused";
      fused.description =
          "Compute the content score, the recency score and their weighted "
          "final score in a single fused operator over each film (fusion "
          "of " + a.name + " + " + b.name + " + " + c.name + ").";
      fused.inputs = a.inputs;
      fused.output = c.output;
      out.nodes.push_back(std::move(fused));
      for (size_t j = i + 3; j < plan.nodes.size(); ++j) {
        out.nodes.push_back(plan.nodes[j]);
      }
      return out;
    }
  }
  return plan;
}

// ----------------------------------------------------------------- coder

namespace {

/// Columns of interest present in a relation, else "*".
std::string RelevantColumnList(const rel::Catalog& catalog,
                               const std::string& table) {
  auto t = catalog.Get(table);
  if (!t.ok()) return "*";
  static const char* kWanted[] = {"mid", "title", "year", "did", "vid"};
  std::vector<std::string> cols;
  for (const char* w : kWanted) {
    if (t.value()->schema().HasColumn(w)) cols.emplace_back(w);
  }
  return cols.empty() ? "*" : Join(cols, ", ");
}

Json SqlSteps(std::initializer_list<std::pair<std::string, std::string>>
                  query_as_pairs) {
  Json steps = Json::Array();
  for (const auto& [query, as] : query_as_pairs) {
    Json s = Json::Object();
    s.Set("query", Json::Str(query));
    if (!as.empty()) s.Set("as", Json::Str(as));
    steps.Append(s);
  }
  return steps;
}

FunctionSpec MakeSqlSpec(const FunctionSignature& sig, Json steps_or_query,
                         const std::string& pattern,
                         const std::string& source_text) {
  FunctionSpec spec;
  spec.name = sig.name;
  spec.template_id = "sql";
  if (steps_or_query.is_array()) {
    spec.params.Set("steps", std::move(steps_or_query));
  } else {
    spec.params.Set("query", std::move(steps_or_query));
  }
  spec.dependency_pattern = pattern;
  spec.source_text = source_text;
  return spec;
}

std::string FilterTermOf(const std::string& node_name) {
  // classify_boring -> boring; filter_boring -> boring.
  auto pos = node_name.find('_');
  return pos == std::string::npos ? node_name : node_name.substr(pos + 1);
}

}  // namespace

Result<std::vector<FunctionSpec>> QueryOptimizer::SynthesizeCandidates(
    const FunctionSignature& sig, const parser::QueryIntent& intent,
    fao::ExecContext* ctx) {
  std::vector<FunctionSpec> out;
  const std::string& name = sig.name;
  const std::string in0 = sig.inputs.empty() ? intent.table : sig.inputs[0];
  const parser::Criterion* rank = intent.TextRank();
  const parser::Criterion* filter_c = intent.FindByRole("filter");
  bool wants_recency = intent.FindByTerm("recent") != nullptr;
  std::string rank_term = rank != nullptr ? rank->term : "excitement";

  auto charge = [&](const FunctionSpec& spec) {
    llm_->Charge("Coder: implement node '" + sig.name +
                     "' described as: " + sig.description,
                 spec.ToJson().Dump());
  };

  if (name == "select_columns") {
    std::string cols = RelevantColumnList(*ctx->catalog, in0);
    std::string q = "SELECT " + cols + " FROM " + in0;
    FunctionSpec spec = MakeSqlSpec(sig, Json::Str(q), "one_to_one", q);
    charge(spec);
    out.push_back(std::move(spec));
    return out;
  }
  if (StartsWith(name, "join_text")) {
    std::string ents = sig.inputs.size() > 1 ? sig.inputs[1] : "text_entities";
    Json steps = SqlSteps(
        {{"SELECT did AS ent_did, COUNT(*) AS n_entities FROM " + ents +
              " GROUP BY did",
          "tmp_entity_counts"},
         {"SELECT f.mid, f.title, f.year, f.did, f.vid, e.n_entities FROM " +
              in0 + " f JOIN tmp_entity_counts e ON f.did = e.ent_did",
          ""}});
    FunctionSpec spec = MakeSqlSpec(
        sig, std::move(steps), "many_to_many",
        "aggregate entities per document, then hash-join with the films");
    charge(spec);
    out.push_back(std::move(spec));
    return out;
  }
  if (StartsWith(name, "join_scene")) {
    std::string objs = sig.inputs.size() > 1 ? sig.inputs[1] : "scene_objects";
    Json steps = SqlSteps(
        {{"SELECT vid AS obj_vid, COUNT(*) AS n_objects FROM " + objs +
              " GROUP BY vid",
          "tmp_object_counts"},
         // `SELECT *` keeps whatever columns the upstream chain carries
         // (the text join may or may not have run before this node).
         {"SELECT * FROM " + in0 +
              " f JOIN tmp_object_counts o ON f.vid = o.obj_vid",
          ""}});
    FunctionSpec spec = MakeSqlSpec(
        sig, std::move(steps), "many_to_many",
        "aggregate detected objects per poster, then hash-join with films");
    charge(spec);
    out.push_back(std::move(spec));
    return out;
  }
  if (name == "gen_recency_score") {
    sql::SqlEngine engine(ctx->catalog);
    double mn = 1950;
    double mx = 2026;
    auto mm = engine.Execute("SELECT MIN(year) AS mn, MAX(year) AS mx FROM " +
                             intent.table);
    if (mm.ok() && mm.value().num_rows() == 1) {
      mn = mm.value().at(0, 0).AsDouble();
      mx = mm.value().at(0, 1).AsDouble();
    }
    FunctionSpec spec;
    spec.name = name;
    spec.template_id = "recency_score";
    spec.params.Set("year_column", Json::Str("year"));
    spec.params.Set("output_column", Json::Str("recency_score"));
    spec.params.Set("min_year", Json::Double(mn));
    spec.params.Set("max_year", Json::Double(mx));
    spec.params.Set("direction",
                    Json::Double(options_.inject_recency_bug ? -1.0 : 1.0));
    spec.dependency_pattern = "one_to_one";
    spec.source_text =
        "recency_score = clamp((year - " + FormatDouble(mn, 0) + ") / (" +
        FormatDouble(mx, 0) + " - " + FormatDouble(mn, 0) + "), 0, 1)";
    charge(spec);
    out.push_back(std::move(spec));
    return out;
  }
  if (StartsWith(name, "gen_") && name.find("_score") != std::string::npos &&
      name != "gen_recency_score" && name != "gen_scores_fused") {
    std::string context =
        rank != nullptr ? rank->clarified_meaning : std::string();
    std::vector<std::string> keywords =
        llm_->GenerateKeywords(rank_term, context);
    // Two physical implementations of the same signature: per-row
    // embedding vs a distinct-token similarity cache (same scores,
    // different runtime). Both are profiled unless options pin one; the
    // cached one is listed first because it never embeds more, so it
    // wins the profiler's tie on model cost.
    std::vector<const char*> tmpls;
    if (options_.similarity_impl == "score") {
      tmpls = {"keyword_similarity_score"};
    } else if (options_.similarity_impl == "cached") {
      tmpls = {"keyword_similarity_cached"};
    } else {
      tmpls = {"keyword_similarity_cached", "keyword_similarity_score"};
    }
    for (const char* tmpl : tmpls) {
      FunctionSpec spec;
      spec.name = name;
      spec.template_id = tmpl;
      Json kw = Json::Array();
      for (const auto& k : keywords) kw.Append(Json::Str(k));
      spec.params.Set("keywords", std::move(kw));
      spec.params.Set("did_column", Json::Str("did"));
      spec.params.Set("output_column", Json::Str(rank_term + "_score"));
      spec.params.Set("threshold", Json::Double(0.60));
      spec.params.Set("sharpness", Json::Double(2.0));
      spec.dependency_pattern = "one_to_one";
      spec.source_text =
          "embed LLM keyword list [" + Join(keywords, ", ") +
          "]; embed entities extracted from each plot; per entity take max "
          "cosine similarity; score = 1 - exp(-2.0 * sum(matches^2))" +
          (std::string(tmpl) == "keyword_similarity_cached"
               ? " [cached per distinct token]"
               : "");
      charge(spec);
      out.push_back(std::move(spec));
    }
    return out;
  }
  if (name == "combine_scores") {
    double w_rank = rank != nullptr ? rank->weight : 0.7;
    const parser::Criterion* rec = intent.FindByTerm("recent");
    double w_rec = rec != nullptr ? rec->weight : 0.3;
    FunctionSpec spec;
    spec.name = name;
    spec.template_id = "combine_scores";
    Json terms = Json::Array();
    Json t1 = Json::Object();
    t1.Set("column", Json::Str(rank_term + "_score"));
    t1.Set("weight", Json::Double(w_rank));
    terms.Append(t1);
    Json t2 = Json::Object();
    t2.Set("column", Json::Str("recency_score"));
    t2.Set("weight", Json::Double(w_rec));
    terms.Append(t2);
    spec.params.Set("terms", std::move(terms));
    spec.params.Set("output_column", Json::Str("final_score"));
    spec.dependency_pattern = "one_to_one";
    spec.source_text = "final_score = " + FormatDouble(w_rank, 2) + " * " +
                       rank_term + "_score + " + FormatDouble(w_rec, 2) +
                       " * recency_score";
    charge(spec);
    out.push_back(std::move(spec));
    return out;
  }
  if (name == "gen_scores_fused") {
    std::string context =
        rank != nullptr ? rank->clarified_meaning : std::string();
    std::vector<std::string> keywords =
        llm_->GenerateKeywords(rank_term, context);
    sql::SqlEngine engine(ctx->catalog);
    double mn = 1950;
    double mx = 2026;
    auto mm = engine.Execute("SELECT MIN(year) AS mn, MAX(year) AS mx FROM " +
                             intent.table);
    if (mm.ok() && mm.value().num_rows() == 1) {
      mn = mm.value().at(0, 0).AsDouble();
      mx = mm.value().at(0, 1).AsDouble();
    }
    FunctionSpec spec;
    spec.name = name;
    spec.template_id = "fused_scores";
    Json ex = Json::Object();
    Json kw = Json::Array();
    for (const auto& k : keywords) kw.Append(Json::Str(k));
    ex.Set("keywords", std::move(kw));
    ex.Set("did_column", Json::Str("did"));
    ex.Set("threshold", Json::Double(0.60));
    ex.Set("sharpness", Json::Double(2.0));
    Json re = Json::Object();
    re.Set("year_column", Json::Str("year"));
    re.Set("min_year", Json::Double(mn));
    re.Set("max_year", Json::Double(mx));
    Json co = Json::Object();
    co.Set("excitement_weight",
           Json::Double(rank != nullptr ? rank->weight : 0.7));
    const parser::Criterion* rec = intent.FindByTerm("recent");
    co.Set("recency_weight", Json::Double(rec != nullptr ? rec->weight
                                                         : 0.3));
    spec.params.Set("excitement", std::move(ex));
    spec.params.Set("recency", std::move(re));
    spec.params.Set("combine", std::move(co));
    spec.dependency_pattern = "one_to_one";
    spec.source_text =
        "fused: excitement (keyword similarity) + recency (year scaling) + "
        "weighted final score computed in one pass";
    charge(spec);
    out.push_back(std::move(spec));
    return out;
  }
  if (StartsWith(name, "classify_")) {
    std::string term = FilterTermOf(name);
    auto make = [&](const std::string& tmpl) {
      FunctionSpec spec;
      spec.name = name;
      spec.template_id = tmpl;
      spec.params.Set("vid_column", Json::Str("vid"));
      spec.params.Set("output_column", Json::Str(term + "_poster"));
      spec.params.Set("variance_threshold", Json::Double(0.055));
      spec.params.Set("max_objects", Json::Int(4));
      if (options_.vision_latency_ms_per_image > 0.0 &&
          tmpl != "classify_boring_stats") {
        spec.params.Set("latency_ms_per_image",
                        Json::Double(options_.vision_latency_ms_per_image));
      }
      spec.dependency_pattern = "one_to_one";
      if (tmpl == "classify_boring_stats") {
        spec.source_text =
            "flag poster '" + term + "' if scene-graph stats show low color "
            "variance, few detected objects and no action objects";
      } else if (tmpl == "classify_boring_pixels") {
        spec.source_text =
            "invoke the vision model on the raw poster pixels; flag '" +
            term + "' if colors are flat and no action content is visible";
      } else {
        spec.params.Set("margin", Json::Double(0.015));
        spec.source_text =
            "cascade: cheap scene-graph heuristic first; escalate "
            "uncertain posters to the vision model";
      }
      charge(spec);
      return spec;
    };
    if (options_.boring_impl == "stats") {
      out.push_back(make("classify_boring_stats"));
    } else if (options_.boring_impl == "pixels") {
      out.push_back(make("classify_boring_pixels"));
    } else if (options_.boring_impl == "cascade") {
      out.push_back(make("classify_boring_cascade"));
    } else {
      out.push_back(make("classify_boring_stats"));
      out.push_back(make("classify_boring_cascade"));
      out.push_back(make("classify_boring_pixels"));
    }
    return out;
  }
  if (StartsWith(name, "filter_")) {
    std::string term = FilterTermOf(name);
    std::string q =
        "SELECT * FROM " + in0 + " WHERE " + term + "_poster = TRUE";
    FunctionSpec spec = MakeSqlSpec(sig, Json::Str(q), "one_to_one", q);
    (void)filter_c;
    charge(spec);
    out.push_back(std::move(spec));
    return out;
  }
  if (name == "rank_films") {
    std::string rank_col = "year";  // metadata fallback
    if (rank != nullptr) {
      rank_col = wants_recency ? "final_score" : rank_term + "_score";
    } else if (wants_recency) {
      rank_col = "recency_score";
    }
    std::string q = "SELECT * FROM " + in0 + " ORDER BY " + rank_col +
                    " DESC";
    FunctionSpec spec = MakeSqlSpec(sig, Json::Str(q), "many_to_one", q);
    charge(spec);
    out.push_back(std::move(spec));
    return out;
  }
  // join_results and any unrecognized node: pass-through SQL.
  std::string q = "SELECT * FROM " + in0;
  FunctionSpec spec = MakeSqlSpec(sig, Json::Str(q), "many_to_many", q);
  charge(spec);
  out.push_back(std::move(spec));
  return out;
}

// ---------------------------------------------------------------- critic

Result<FunctionSpec> QueryOptimizer::CriticLoop(
    const FunctionSignature& sig, FunctionSpec spec,
    const parser::QueryIntent& intent, fao::ExecContext* ctx,
    int* critic_rounds) {
  *critic_rounds = 0;
  bool newer_is_better =
      intent.FindByTerm("recent") != nullptr ||
      ContainsIgnoreCase(sig.description, "newer");
  for (int round = 0; round < 3; ++round) {
    // --- semantic probe: recency direction ---------------------------
    if ((spec.template_id == "recency_score") && newer_is_better) {
      auto probe = std::make_shared<Table>(
          "probe", rel::Schema({{"year", rel::DataType::kInt}}));
      probe->AppendRow({rel::Value::Int(1960)});
      probe->AppendRow({rel::Value::Int(2010)});
      KATHDB_ASSIGN_OR_RETURN(auto fn, fao::InstantiateFunction(spec));
      KATHDB_ASSIGN_OR_RETURN(Table out, fn->Evaluate({probe}, ctx));
      auto cidx = out.schema().IndexOf(
          spec.params.GetString("output_column", "recency_score"));
      if (!cidx.has_value() || out.num_rows() != 2) {
        return Status::SemanticError("recency probe produced no score");
      }
      double old_score = out.at(0, *cidx).AsDouble();
      double new_score = out.at(1, *cidx).AsDouble();
      if (new_score <= old_score) {
        // Critic hint: the scoring direction is reversed. Patch and retry.
        llm_->Charge(
            "Critic: the sampled output gives higher recency scores to "
            "older films, contradicting the user's request. Hint the coder "
            "to reverse the direction.",
            "direction := +1");
        spec.params.Set("direction", Json::Double(1.0));
        spec.source_text += " [critic fix: direction reversed to favor "
                            "newer films]";
        ++*critic_rounds;
        continue;
      }
    }
    // --- semantic probe: scores stay in [0,1] ------------------------
    if (spec.template_id == "keyword_similarity_score") {
      auto probe = std::make_shared<Table>(
          "probe", rel::Schema({{"did", rel::DataType::kInt}}));
      probe->AppendRow({rel::Value::Int(-1)});
      KATHDB_ASSIGN_OR_RETURN(auto fn, fao::InstantiateFunction(spec));
      KATHDB_ASSIGN_OR_RETURN(Table out, fn->Evaluate({probe}, ctx));
      auto cidx = out.schema().IndexOf(
          spec.params.GetString("output_column", "score"));
      if (cidx.has_value() && out.num_rows() == 1) {
        double v = out.at(0, *cidx).AsDouble();
        if (v < 0.0 || v > 1.0) {
          return Status::SemanticError("similarity score out of [0,1]");
        }
      }
    }
    // --- static check: combine weights -------------------------------
    if (spec.template_id == "combine_scores") {
      double total = 0.0;
      for (const Json& t : spec.params.Get("terms").items()) {
        total += t.GetDouble("weight", 0.0);
      }
      if (total <= 0.0) {
        return Status::SemanticError("combine_scores weights sum to zero");
      }
    }
    llm_->Charge("Critic: inspect function source, sampled input and "
                 "output records for node '" + sig.name + "'.",
                 "acceptable");
    return spec;
  }
  return Status::SemanticError("critic could not repair '" + sig.name + "'");
}

// -------------------------------------------------------------- optimize

Result<PhysicalPlan> QueryOptimizer::Optimize(const LogicalPlan& plan,
                                              const parser::QueryIntent& intent,
                                              fao::ExecContext* ctx) {
  LogicalPlan working = plan;
  if (options_.enable_fusion) working = FuseScoring(working);
  if (options_.enable_pushdown) working = PushdownFilter(working);
  profiles_.clear();

  PhysicalPlan pplan;
  pplan.final_output = working.FinalOutput();

  // Sample rows for profiling classify candidates (needs vid and year).
  TablePtr profile_sample;
  {
    sql::SqlEngine engine(ctx->catalog);
    auto sample = engine.Execute(
        "SELECT * FROM " + intent.table + " LIMIT " +
        std::to_string(options_.profile_sample_rows));
    if (sample.ok()) {
      profile_sample = std::make_shared<Table>(std::move(sample).value());
    }
  }
  double full_rows = 1.0;
  if (auto base = ctx->catalog->Get(intent.table); base.ok()) {
    full_rows = static_cast<double>(base.value()->num_rows());
  }

  for (const auto& sig : working.nodes) {
    KATHDB_ASSIGN_OR_RETURN(std::vector<FunctionSpec> candidates,
                            SynthesizeCandidates(sig, intent, ctx));
    FunctionSpec chosen = candidates.front();
    if (candidates.size() > 1 && profile_sample != nullptr) {
      // ---- profiler: run each candidate on the sample -----------------
      struct Run {
        size_t idx;
        double runtime_ms = 0.0;
        double est_cost = 0.0;
        std::vector<bool> flags;
        bool ok = false;
      };
      std::vector<Run> runs;
      llm::ModelSpec vision = llm::KathVisionSpec();
      for (size_t i = 0; i < candidates.size(); ++i) {
        Run run;
        run.idx = i;
        auto fn = fao::InstantiateFunction(candidates[i]);
        if (fn.ok()) {
          // Plain Execute, never the cache-aware Evaluate: timing a
          // memoized lookup would corrupt the runtime comparison.
          auto t0 = std::chrono::steady_clock::now();
          auto out = fn.value()->Execute({profile_sample}, ctx);
          auto t1 = std::chrono::steady_clock::now();
          run.runtime_ms =
              std::chrono::duration<double, std::milli>(t1 - t0).count();
          if (out.ok()) {
            run.ok = true;
            std::string col = candidates[i].params.GetString(
                "output_column", "flag");
            auto cidx = out.value().schema().IndexOf(col);
            if (cidx.has_value()) {
              for (size_t r = 0; r < out.value().num_rows(); ++r) {
                run.flags.push_back(out.value().at(r, *cidx).AsBool());
              }
            }
          }
        }
        // Projected model cost for the full input.
        double per_row_tokens = 0.0;
        if (candidates[i].template_id == "classify_boring_pixels") {
          per_row_tokens = 420.0;
        } else if (candidates[i].template_id == "classify_boring_cascade") {
          per_row_tokens = 420.0 * 0.25;  // expected escalation share
        }
        run.est_cost = full_rows * per_row_tokens / 1000.0 *
                       (vision.usd_per_1k_prompt + vision.usd_per_1k_completion / 6);
        runs.push_back(std::move(run));
      }
      // Reference: the pixel implementation (strongest model).
      const Run* reference = nullptr;
      for (const auto& r : runs) {
        if (candidates[r.idx].template_id == "classify_boring_pixels" &&
            r.ok) {
          reference = &r;
        }
      }
      size_t best = 0;
      double best_cost = 1e18;
      for (const auto& r : runs) {
        double agreement = 1.0;
        if (reference != nullptr && r.ok &&
            r.flags.size() == reference->flags.size() &&
            !r.flags.empty()) {
          size_t same = 0;
          for (size_t k = 0; k < r.flags.size(); ++k) {
            if (r.flags[k] == reference->flags[k]) ++same;
          }
          agreement = static_cast<double>(same) / r.flags.size();
        } else if (!r.ok) {
          agreement = 0.0;
        }
        CandidateProfile prof;
        prof.node = sig.name;
        prof.template_id = candidates[r.idx].template_id;
        prof.runtime_ms = r.runtime_ms;
        prof.est_cost_usd = r.est_cost;
        prof.agreement = agreement;
        profiles_.push_back(prof);
        bool eligible = r.ok && agreement >= options_.accuracy_floor;
        // Projected model cost decides; an equally-priced later candidate
        // never displaces an earlier one, and SynthesizeCandidates lists
        // the one with less work first. The sample runtime is recorded but
        // never decides: timing a few rows measures noise, and a plan
        // picked by noise makes one query's latency vary run to run.
        if (eligible && r.est_cost < best_cost - 1e-12) {
          best_cost = r.est_cost;
          best = r.idx;
        }
      }
      chosen = candidates[best];
      for (auto& p : profiles_) {
        if (p.node == sig.name) {
          p.chosen = (p.template_id == chosen.template_id);
        }
      }
      llm_->Charge("Profiler: compared " +
                       std::to_string(candidates.size()) +
                       " implementations of '" + sig.name + "'.",
                   "chose " + chosen.template_id);
    } else {
      CandidateProfile prof;
      prof.node = sig.name;
      prof.template_id = chosen.template_id;
      prof.chosen = true;
      profiles_.push_back(prof);
    }

    int critic_rounds = 0;
    KATHDB_ASSIGN_OR_RETURN(
        chosen, CriticLoop(sig, std::move(chosen), intent, ctx,
                           &critic_rounds));
    for (auto& p : profiles_) {
      if (p.node == sig.name && p.chosen) p.critic_rounds = critic_rounds;
    }
    chosen.ver_id = registry_->RegisterNewVersion(chosen);
    pplan.nodes.push_back({sig, chosen});
  }
  pplan.BuildEdges();
  return pplan;
}

}  // namespace kathdb::opt
