#include "engine/executor.h"

#include <chrono>
#include <future>
#include <map>
#include <set>

#include "common/strings.h"
#include "engine/scheduler.h"

namespace kathdb::engine {

using fao::FunctionSpec;
using rel::Table;
using rel::TablePtr;

std::string ExecutionReport::ToText() const {
  std::string out = "Execution report (" +
                    std::to_string(node_runs.size()) + " nodes, " +
                    std::to_string(total_repairs) + " repairs, " +
                    std::to_string(total_anomalies) + " anomalies)\n";
  for (const auto& run : node_runs) {
    // Built from string helpers, not a fixed-size buffer: long repaired
    // function names must never be silently truncated.
    out += "  " + PadRight(run.name, 24) + " [" + run.template_id + " v" +
           std::to_string(run.ver_id) + "] rows=" +
           PadRight(std::to_string(run.output_rows), 6) + " " +
           FormatDouble(run.runtime_ms, 2) + "ms";
    if (run.repair_attempts > 0) out += " (repaired)";
    if (run.semantic_flagged) out += " (anomaly escalated)";
    out += "\n";
  }
  return out;
}

// -------------------------------------------------------- AgenticMonitor

Result<FunctionSpec> AgenticMonitor::RepairSyntactic(
    const FunctionSpec& failed, const Status& error, fao::ExecContext* ctx) {
  // Reviewer: diagnose from the captured stack trace / error message.
  std::string diagnosis;
  FunctionSpec patched = failed;
  bool repairable = false;

  if (ContainsIgnoreCase(error.message(), "heic")) {
    // The paper's running example: the pipeline hits an unsupported HEIC
    // poster; the rewriter adds a conversion step to a supported format.
    diagnosis = "unsupported HEIC input; add a format-conversion step "
                "before pixel analysis";
    if (ctx->image_loader != nullptr) {
      ctx->image_loader->EnableHeicConversion();
      patched.params.Set("heic_conversion", Json::Bool(true));
      patched.source_text += " [rewriter fix: convert HEIC inputs to a "
                             "supported format before decoding]";
      repairable = true;
    }
  } else if (ContainsIgnoreCase(error.message(), "division by zero")) {
    diagnosis = "division by zero; guard the denominator";
    patched.params.Set("zero_guard", Json::Bool(true));
    patched.source_text += " [rewriter fix: guarded zero denominator]";
    repairable = true;
  }

  llm_->Charge("Reviewer: diagnose the exception '" + error.message() +
                   "' with node metadata and sampled parameters.",
               diagnosis.empty() ? "cannot repair automatically" : diagnosis);
  if (!repairable) {
    return Status::SyntacticError("monitor cannot repair: " +
                                  error.message());
  }
  // Rewriter: new version, earlier versions left intact.
  patched.ver_id = registry_->RegisterNewVersion(patched);
  if (user_ != nullptr) {
    user_->Notify("execute", "Repaired '" + failed.name + "' (" + diagnosis +
                                 "); resuming from version " +
                                 std::to_string(patched.ver_id) + ".");
  }
  return patched;
}

std::string AgenticMonitor::DetectAnomaly(const opt::PhysicalNode& node,
                                          const Table& output,
                                          double sample_rate) {
  if (sample_rate <= 0.0 || output.num_rows() == 0) return "";
  size_t inspect = std::max<size_t>(
      1, static_cast<size_t>(output.num_rows() * sample_rate));

  // Check 1 — a join that links one poster to several movies: the paper's
  // example of a silent semantic fault. Applies to join-ish nodes with a
  // vid column: one vid should map to one title.
  if (ContainsIgnoreCase(node.sig.name, "join")) {
    auto vidx = output.schema().IndexOf("vid");
    auto tidx = output.schema().IndexOf("title");
    if (vidx.has_value() && tidx.has_value()) {
      std::map<int64_t, std::set<std::string>> titles_per_vid;
      for (size_t r = 0; r < inspect; ++r) {
        titles_per_vid[output.at(r, *vidx).AsInt()].insert(
            output.at(r, *tidx).AsString());
      }
      for (const auto& [vid, titles] : titles_per_vid) {
        if (titles.size() > 1) {
          std::string msg =
              "poster image vid=" + std::to_string(vid) + " is linked to " +
              std::to_string(titles.size()) +
              " different movies; the generated join likely assumed a "
              "one-to-one correspondence between posters and movie_table "
              "rows, which does not hold";
          llm_->Charge("Monitor: inspect sampled output of '" +
                           node.sig.name + "' for semantic anomalies.",
                       msg);
          return msg;
        }
      }
    }
  }
  // Check 2 — score columns must not be NULL or out of [0,1].
  for (const auto& col : output.schema().columns()) {
    if (col.name.find("_score") == std::string::npos) continue;
    auto cidx = output.schema().IndexOf(col.name);
    for (size_t r = 0; r < inspect; ++r) {
      const rel::Value& v = output.at(r, *cidx);
      if (v.is_null()) {
        return "column '" + col.name + "' contains NULL scores";
      }
      double d = v.AsDouble();
      if (d < -1e-9 || d > 1.0 + 1e-9) {
        return "column '" + col.name + "' holds out-of-range score " +
               FormatDouble(d, 4);
      }
    }
  }
  llm_->Charge("Monitor: inspect sampled output of '" + node.sig.name +
                   "' for semantic anomalies.",
               "clean");
  return "";
}

Result<FunctionSpec> AgenticMonitor::ResolveAnomaly(
    const opt::PhysicalNode& node, const std::string& anomaly,
    bool ask_user) {
  std::string reply = "adjust";
  if (ask_user && user_ != nullptr) {
    KATHDB_ASSIGN_OR_RETURN(
        reply,
        user_->Ask("execute",
                   "Semantic anomaly in '" + node.sig.name + "': " + anomaly +
                       ". Reply 'accept' to keep the operator as is, "
                       "'adjust' to enforce a unique match per poster, or "
                       "'rewrite' for a full rewrite."));
  }
  std::string r = ToLower(Trim(reply));
  if (r == "accept" || r == "ok") {
    return node.spec;  // user accepted the behaviour
  }
  // Adjust (default): enforce uniqueness by deduplicating on the key.
  FunctionSpec patched = node.spec;
  if (patched.template_id == "sql" &&
      ContainsIgnoreCase(anomaly, "linked to")) {
    patched.params.Set("enforce_unique", Json::Str("vid"));
    patched.source_text +=
        " [monitor fix: enforce one movie per poster via deduplication]";
  } else {
    patched.source_text += " [monitor note: " + anomaly + "]";
  }
  patched.ver_id = registry_->RegisterNewVersion(patched);
  return patched;
}

// --------------------------------------------------------------- Executor

namespace {

/// Parents for table-level lineage: prefer each input's table lid; fall
/// back to the lid of its first tracked row.
std::vector<int64_t> TableParents(const std::vector<TablePtr>& inputs) {
  std::vector<int64_t> parents;
  for (const auto& t : inputs) {
    if (t == nullptr) continue;
    if (t->table_lid() != 0) {
      parents.push_back(t->table_lid());
    } else {
      for (size_t r = 0; r < t->num_rows(); ++r) {
        if (t->row_lid(r) != 0) {
          parents.push_back(t->row_lid(r));
          break;
        }
      }
    }
  }
  return parents;
}

/// Deduplicates rows by the given key column, keeping the first row.
/// Survivors are collected into a selection vector and gathered in one
/// bulk append instead of boxing a Row per survivor.
Table DedupByColumn(const Table& in, const std::string& key) {
  auto kidx = in.schema().IndexOf(key);
  if (!kidx.has_value()) return in;
  std::vector<uint32_t> sel;
  std::set<std::string> seen;
  for (size_t r = 0; r < in.num_rows(); ++r) {
    std::string k = in.at(r, *kidx).ToString();
    if (seen.insert(k).second) sel.push_back(static_cast<uint32_t>(r));
  }
  Table out(in.name(), in.schema());
  out.Reserve(sel.size());
  out.AppendGather(in, sel.data(), sel.size());
  out.set_table_lid(in.table_lid());
  return out;
}

}  // namespace

fao::MorselOptions Executor::Morsels(const fao::ExecContext* ctx) const {
  fao::MorselOptions morsels;
  morsels.morsel_size = options_.morsel_size;
  morsels.pool = ctx->exec_pool;
  return morsels;
}

void Executor::RunNode(const opt::PhysicalNode& node, fao::ExecContext* ctx,
                       NodeRun* run, TablePtr* out_table, bool is_final,
                       DagScheduler::DoneFn done) {
  run->name = node.sig.name;
  run->template_id = node.spec.template_id;
  run->ver_id = node.spec.ver_id;
  run->dependency_pattern = node.spec.dependency_pattern;

  // Resolve inputs from the catalog (base tables, views, intermediates);
  // the scheduler guarantees every producing node has materialized its
  // output before this node starts.
  std::vector<TablePtr> inputs;
  for (const auto& in : node.sig.inputs) {
    auto t = ctx->catalog->Get(in);
    if (!t.ok()) {
      done(t.status());
      return;
    }
    inputs.push_back(std::move(t).value());
  }
  fao::MorselOptions morsels = Morsels(ctx);
  auto t0 = std::chrono::steady_clock::now();

  bool batched = options_.enable_llm_batching && ctx->batcher != nullptr &&
                 fao::IsPureTemplate(node.spec.template_id);
  if (!batched) {
    done(FinishNode(node, ctx, run, out_table, inputs, node.spec,
                    fao::EvaluateWithMorsels(node.spec, inputs, ctx, morsels),
                    t0, is_final));
    return;
  }

  if (ctx->exec_pool == nullptr || options_.max_parallel_nodes <= 1) {
    // Sequential mode: nothing to resume on, so await the batch here.
    // Cross-query coalescing and the single-RTT flush still apply; only
    // this query's thread blocks, never the flusher.
    std::promise<Result<Table>> landed;
    fao::EvaluateBatched(
        node.spec, inputs, ctx, morsels,
        [&landed](Result<Table> r) { landed.set_value(std::move(r)); });
    done(FinishNode(node, ctx, run, out_table, inputs, node.spec,
                    landed.get_future().get(), t0, is_final));
    return;
  }

  // Parallel mode: park. The NodeRun state lives in this callback; the
  // dispatched worker returns to the pool as soon as every partition is
  // submitted, and the finish tail resumes on the exec pool when the
  // last batch lands (inline on the completing thread if the pool
  // refuses) — open LLM requests no longer occupy threads.
  const opt::PhysicalNode* nodep = &node;
  fao::EvaluateBatched(
      node.spec, inputs, ctx, morsels,
      [this, nodep, ctx, run, out_table, inputs, done, t0,
       is_final](Result<Table> r) {
        auto resume = [this, nodep, ctx, run, out_table, inputs, done, t0,
                       is_final, r]() mutable {
          done(FinishNode(*nodep, ctx, run, out_table, inputs, nodep->spec,
                          std::move(r), t0, is_final));
        };
        if (!ctx->exec_pool->TrySubmit(resume)) resume();
      });
}

Status Executor::FinishNode(const opt::PhysicalNode& node,
                            fao::ExecContext* ctx, NodeRun* run,
                            TablePtr* out_table,
                            const std::vector<TablePtr>& inputs,
                            FunctionSpec spec, Result<Table> result,
                            std::chrono::steady_clock::time_point started,
                            bool is_final) {
  // Syntactic-repair loop over the first evaluation's outcome; repaired
  // specs re-evaluate synchronously (a repair changes the spec, so its
  // fingerprints no longer coalesce with in-flight twins anyway).
  for (int attempt = 0;; ++attempt) {
    if (result.ok()) break;
    if (!result.status().IsSyntacticError() ||
        attempt == options_.max_repair_attempts) {
      return result.status();
    }
    // On-the-fly repair instead of aborting (Section 5). Serialized so
    // concurrent branches never interleave user-channel escalations.
    {
      common::MutexLock lock(monitor_mu_);
      KATHDB_ASSIGN_OR_RETURN(
          spec, monitor_.RepairSyntactic(spec, result.status(), ctx));
    }
    ++run->repair_attempts;
    result = fao::EvaluateWithMorsels(spec, inputs, ctx, Morsels(ctx));
  }
  auto t1 = std::chrono::steady_clock::now();
  run->runtime_ms =
      std::chrono::duration<double, std::milli>(t1 - started).count();
  run->ver_id = spec.ver_id;
  Table out = std::move(result).value();
  out.set_name(node.sig.output);

  // Post-hoc patch semantics: a monitor-enforced unique key applies to
  // this and future runs of the function. The key used here is tracked
  // so the anomaly path below never deduplicates the same key twice.
  std::string applied_dedup_key = spec.params.GetString("enforce_unique");
  if (!applied_dedup_key.empty()) {
    out = DedupByColumn(out, applied_dedup_key);
  }

  // ---- lineage recording per dependency pattern --------------------
  bool narrow = spec.dependency_pattern == "one_to_one" ||
                spec.dependency_pattern == "one_to_many";
  auto mode = ctx->lineage->mode();
  if (narrow && (mode == lineage::TrackingMode::kRow ||
                 mode == lineage::TrackingMode::kSampled)) {
    // Row-level: each output row derives from the input row whose lid it
    // carried through the function body.
    int64_t fallback_parent =
        inputs.empty() ? 0
                       : (inputs[0]->table_lid() != 0 ? inputs[0]->table_lid()
                                                      : 0);
    for (size_t r = 0; r < out.num_rows(); ++r) {
      int64_t parent = out.row_lid(r);
      if (parent == 0) parent = fallback_parent;
      int64_t child =
          ctx->lineage->RecordRowDerivation(parent, spec.name, spec.ver_id);
      out.set_row_lid(r, child);
    }
  } else {
    // Wide (or coarse tracking): one table-level derivation; all input
    // tuples are assumed to contribute to all output tuples.
    int64_t tlid = ctx->lineage->RecordTableDerivation(
        TableParents(inputs), spec.name, spec.ver_id);
    out.set_table_lid(tlid);
    // Row lids (if any) propagate unchanged through wide operators such
    // as sort, so downstream row-level tracing still works.
  }

  // ---- semantic monitoring on sampled output -----------------------
  std::string anomaly =
      monitor_.DetectAnomaly(node, out, options_.monitor_sample_rate);
  if (!anomaly.empty()) {
    run->semantic_flagged = true;
    FunctionSpec resolved;
    {
      common::MutexLock lock(monitor_mu_);
      KATHDB_ASSIGN_OR_RETURN(
          resolved, monitor_.ResolveAnomaly(node, anomaly,
                                            options_.ask_user_on_anomaly));
    }
    std::string key = resolved.params.GetString("enforce_unique");
    if (!key.empty() && resolved.ver_id != spec.ver_id) {
      run->ver_id = resolved.ver_id;
      if (key != applied_dedup_key) {
        out = DedupByColumn(out, key);
      }
    }
  }

  run->output_rows = out.num_rows();
  TablePtr shared = std::make_shared<Table>(std::move(out));
  ctx->catalog->Upsert(shared, rel::RelationKind::kIntermediate);
  *out_table = shared;
  if (is_final && options_.on_final_output) options_.on_final_output(shared);
  return Status::OK();
}

Result<ExecutionReport> Executor::Run(const opt::PhysicalPlan& plan,
                                      fao::ExecContext* ctx) {
  ExecutionReport report;
  report.node_runs.resize(plan.nodes.size());
  std::vector<TablePtr> outputs(plan.nodes.size());

  // The node producing the plan's final output (mirrors the final_table
  // selection below): its completion triggers streamed result chunks.
  size_t final_idx = plan.nodes.empty() ? 0 : plan.nodes.size() - 1;
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    if (plan.nodes[i].sig.output == plan.final_output) final_idx = i;
  }

  // Each node task writes only its own node_runs / outputs slot, so the
  // report keeps plan order however branches are interleaved; the
  // scheduler's completion handshake publishes the slots to this thread.
  SchedulerOptions sched;
  sched.max_parallel_nodes = options_.max_parallel_nodes;
  sched.pool = ctx->exec_pool;
  KATHDB_RETURN_IF_ERROR(DagScheduler::RunAsync(
      plan, sched,
      [this, &plan, ctx, &report, &outputs, final_idx](
          size_t idx, DagScheduler::DoneFn done) {
        RunNode(plan.nodes[idx], ctx, &report.node_runs[idx], &outputs[idx],
                idx == final_idx, std::move(done));
      }));

  TablePtr final_table;
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const NodeRun& run = report.node_runs[i];
    report.total_repairs += run.repair_attempts;
    if (run.semantic_flagged) ++report.total_anomalies;
    if (plan.nodes[i].sig.output == plan.final_output) {
      final_table = outputs[i];
      report.final_output_name = plan.final_output;
    }
  }
  if (final_table == nullptr && !plan.nodes.empty()) {
    // Fall back to the last node's output — the shared pointer already
    // in hand, never a deep copy out of the catalog.
    final_table = outputs.back();
    report.final_output_name = plan.nodes.back().sig.output;
  }
  report.result = std::move(final_table);
  return report;
}

}  // namespace kathdb::engine
