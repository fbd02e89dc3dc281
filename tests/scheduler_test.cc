// DAG-parallel intra-query execution: PhysicalPlan edge derivation, the
// DagScheduler (diamond plans, determinism, error propagation, cycle
// detection), morsel-partitioned FAO evaluation (merge equivalence,
// per-partition result-cache keys) and end-to-end parallel == sequential
// equivalence including lineage lids. The batched-execution differential
// suite at the bottom proves async cross-query LLM batching returns
// byte-identical tables, lineage lids, usage accounting and cache
// counters across a worker x batch-size x flush-deadline grid. Runs
// under the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <thread>

#include "common/thread_pool.h"
#include "llm/batch_scheduler.h"
#include "data/movie_dataset.h"
#include "engine/executor.h"
#include "engine/kathdb.h"
#include "engine/scheduler.h"
#include "fao/function.h"
#include "service/query_service.h"
#include "service/result_cache.h"

namespace kathdb::engine {
namespace {

constexpr const char* kPaperQuery =
    "Sort the given films in the table by how exciting they are, but the "
    "poster should be 'boring'";

std::unique_ptr<KathDB> MakeDb(int num_movies, KathDBOptions db_opts = {}) {
  data::DatasetOptions opts;
  opts.num_movies = num_movies;
  auto ds = data::GenerateMovieDataset(opts);
  EXPECT_TRUE(ds.ok());
  auto db = std::make_unique<KathDB>(db_opts);
  EXPECT_TRUE(data::IngestDataset(ds.value(), db.get()).ok());
  return db;
}

llm::ScriptedUser PaperUser() {
  return llm::ScriptedUser({"uncommon scenes", "prefer recent movies",
                            "OK"});
}

opt::PhysicalNode SqlNode(const std::string& name, const std::string& query,
                          std::vector<std::string> inputs,
                          const std::string& output,
                          const std::string& pattern = "many_to_many") {
  opt::PhysicalNode node;
  node.sig.name = name;
  node.sig.inputs = std::move(inputs);
  node.sig.output = output;
  node.spec.name = name;
  node.spec.template_id = "sql";
  node.spec.params.Set("query", Json::Str(query));
  node.spec.dependency_pattern = pattern;
  return node;
}

opt::PhysicalNode RecencyNode(const std::string& name,
                              const std::string& input,
                              const std::string& output,
                              const std::string& out_col) {
  opt::PhysicalNode node;
  node.sig.name = name;
  node.sig.inputs = {input};
  node.sig.output = output;
  node.spec.name = name;
  node.spec.template_id = "recency_score";
  node.spec.params.Set("output_column", Json::Str(out_col));
  node.spec.params.Set("min_year", Json::Double(1950));
  node.spec.params.Set("max_year", Json::Double(2026));
  node.spec.dependency_pattern = "one_to_one";
  return node;
}

/// select -> (recency b, recency c) -> join: the smallest plan with two
/// independent branches.
opt::PhysicalPlan DiamondPlan() {
  opt::PhysicalPlan plan;
  plan.nodes.push_back(SqlNode(
      "select_base", "SELECT mid, title, year FROM movie_table",
      {"movie_table"}, "diamond_base", "one_to_one"));
  plan.nodes.push_back(
      RecencyNode("score_left", "diamond_base", "diamond_left", "l_score"));
  plan.nodes.push_back(
      RecencyNode("score_right", "diamond_base", "diamond_right", "r_score"));
  plan.nodes.push_back(SqlNode(
      "merge_branches",
      "SELECT * FROM diamond_left l JOIN diamond_right r ON l.mid = r.mid",
      {"diamond_left", "diamond_right"}, "diamond_out"));
  plan.final_output = "diamond_out";
  plan.BuildEdges();
  return plan;
}

void ExpectSameTable(const rel::Table& a, const rel::Table& b,
                     bool compare_lids) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.schema().num_columns(), b.schema().num_columns());
  for (size_t c = 0; c < a.schema().num_columns(); ++c) {
    EXPECT_EQ(a.schema().column(c).name, b.schema().column(c).name);
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.schema().num_columns(); ++c) {
      EXPECT_EQ(a.at(r, c).ToString(), b.at(r, c).ToString())
          << "cell (" << r << "," << c << ")";
    }
    if (compare_lids) {
      EXPECT_EQ(a.row_lid(r), b.row_lid(r)) << "row " << r;
    }
  }
}

// ------------------------------------------------------- edge derivation

TEST(PlanEdgesTest, DiamondDepsDerivedFromSignatures) {
  opt::PhysicalPlan plan = DiamondPlan();
  ASSERT_EQ(plan.deps.size(), 4u);
  EXPECT_TRUE(plan.deps[0].empty());  // reads only the base relation
  EXPECT_EQ(plan.deps[1], std::vector<size_t>({0}));
  EXPECT_EQ(plan.deps[2], std::vector<size_t>({0}));
  EXPECT_EQ(plan.deps[3], std::vector<size_t>({1, 2}));
}

TEST(PlanEdgesTest, OptimizerEmitsEdgesForThePaperPlan) {
  auto db = MakeDb(10);
  auto user = PaperUser();
  auto outcome = db->Query(kPaperQuery, &user);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const opt::PhysicalPlan& plan = outcome->physical_plan;
  ASSERT_EQ(plan.deps.size(), plan.nodes.size());
  // The paper plan is a chain: every node after the first depends on its
  // predecessor.
  for (size_t i = 1; i < plan.nodes.size(); ++i) {
    ASSERT_FALSE(plan.deps[i].empty()) << plan.nodes[i].sig.name;
    EXPECT_EQ(plan.deps[i].front(), i - 1) << plan.nodes[i].sig.name;
  }
  // ToText renders the dependency annotations.
  EXPECT_NE(plan.ToText().find("(after "), std::string::npos);
}

// ------------------------------------------------------------- scheduler

TEST(DagSchedulerTest, ParallelDiamondMatchesSequential) {
  auto db = MakeDb(16);
  opt::PhysicalPlan plan = DiamondPlan();

  fao::ExecContext seq_ctx = db->MakeContext();
  Executor seq_exec(db->llm(), db->registry(), nullptr);
  auto seq = seq_exec.Run(plan, &seq_ctx);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();

  common::ThreadPool pool(4);
  ExecutorOptions par_opts;
  par_opts.max_parallel_nodes = 4;
  fao::ExecContext par_ctx = db->MakeContext();
  par_ctx.exec_pool = &pool;
  Executor par_exec(db->llm(), db->registry(), nullptr, par_opts);
  auto par = par_exec.Run(plan, &par_ctx);
  ASSERT_TRUE(par.ok()) << par.status().ToString();

  ASSERT_NE(seq->result, nullptr);
  ASSERT_NE(par->result, nullptr);
  EXPECT_EQ(par->final_output_name, "diamond_out");
  ExpectSameTable(*seq->result, *par->result, /*compare_lids=*/false);
  // node_runs keeps plan order regardless of completion order.
  ASSERT_EQ(par->node_runs.size(), 4u);
  EXPECT_EQ(par->node_runs[0].name, "select_base");
  EXPECT_EQ(par->node_runs[1].name, "score_left");
  EXPECT_EQ(par->node_runs[2].name, "score_right");
  EXPECT_EQ(par->node_runs[3].name, "merge_branches");
  for (const auto& run : par->node_runs) EXPECT_GT(run.output_rows, 0u);
}

TEST(DagSchedulerTest, BranchesActuallyOverlapUnderAWideBudget) {
  // Two independent "probe" nodes must both be in flight at once when
  // the budget allows it.
  opt::PhysicalPlan plan;
  plan.nodes.push_back(SqlNode("left", "SELECT 1", {}, "probe_left"));
  plan.nodes.push_back(SqlNode("right", "SELECT 1", {}, "probe_right"));
  plan.final_output = "probe_right";
  plan.BuildEdges();

  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  common::ThreadPool pool(2);
  SchedulerOptions opts;
  opts.max_parallel_nodes = 2;
  opts.pool = &pool;
  Status st = DagScheduler::RunAsync(
      plan, opts, [&](size_t, DagScheduler::DoneFn done) {
        int now = active.fetch_add(1) + 1;
        int prev = peak.load();
        while (now > prev && !peak.compare_exchange_weak(prev, now)) {
        }
        // Hold the node open long enough for the sibling to get
        // dispatched.
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        active.fetch_sub(1);
        done(Status::OK());
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(peak.load(), 2);
}

TEST(DagSchedulerTest, BranchErrorPropagates) {
  auto db = MakeDb(12);
  opt::PhysicalPlan plan = DiamondPlan();
  plan.nodes[2] = SqlNode("broken_branch", "SELECT ghost FROM diamond_base",
                          {"diamond_base"}, "diamond_right");
  plan.BuildEdges();

  common::ThreadPool pool(4);
  ExecutorOptions opts;
  opts.max_parallel_nodes = 4;
  opts.max_repair_attempts = 0;
  fao::ExecContext ctx = db->MakeContext();
  ctx.exec_pool = &pool;
  Executor executor(db->llm(), db->registry(), nullptr, opts);
  auto report = executor.Run(plan, &ctx);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsSyntacticError());
}

TEST(DagSchedulerTest, CyclicDepsAreRejectedInsteadOfHanging) {
  opt::PhysicalPlan plan;
  plan.nodes.push_back(SqlNode("a", "SELECT 1", {}, "cycle_a"));
  plan.nodes.push_back(SqlNode("b", "SELECT 1", {}, "cycle_b"));
  plan.final_output = "cycle_b";
  plan.deps = {{1}, {0}};  // hand-crafted cycle

  // Parallel and sequential runs validate the edges alike.
  common::ThreadPool pool(2);
  for (const SchedulerOptions& opts :
       {SchedulerOptions{2, &pool}, SchedulerOptions{1, nullptr}}) {
    Status st = DagScheduler::RunAsync(
        plan, opts,
        [](size_t, DagScheduler::DoneFn done) { done(Status::OK()); });
    ASSERT_FALSE(st.ok()) << "budget " << opts.max_parallel_nodes;
    EXPECT_NE(st.ToString().find("unsatisfiable"), std::string::npos)
        << "budget " << opts.max_parallel_nodes;
  }
}

TEST(DagSchedulerTest, OutOfRangeDepsAreRejected) {
  opt::PhysicalPlan plan;
  plan.nodes.push_back(SqlNode("a", "SELECT 1", {}, "oor_a"));
  plan.nodes.push_back(SqlNode("b", "SELECT 1", {}, "oor_b"));
  plan.final_output = "oor_b";
  plan.deps = {{5}, {}};  // hand-crafted dep past the plan

  // Parallel and sequential runs validate the edges alike.
  common::ThreadPool pool(2);
  for (const SchedulerOptions& opts :
       {SchedulerOptions{2, &pool}, SchedulerOptions{1, nullptr}}) {
    Status st = DagScheduler::RunAsync(
        plan, opts,
        [](size_t, DagScheduler::DoneFn done) { done(Status::OK()); });
    ASSERT_FALSE(st.ok()) << "budget " << opts.max_parallel_nodes;
    EXPECT_NE(st.ToString().find("out-of-range"), std::string::npos)
        << "budget " << opts.max_parallel_nodes;
  }
}

// ----------------------------------------------------------------- morsels

TEST(MorselTest, MorselMergeEqualsSequentialEvaluation) {
  auto db = MakeDb(25);
  fao::ExecContext ctx = db->MakeContext();
  auto base = db->catalog()->Get("movie_table");
  ASSERT_TRUE(base.ok());

  opt::PhysicalNode node =
      RecencyNode("gen_recency_score", "movie_table", "scored", "r_score");

  auto fn = fao::InstantiateFunction(node.spec);
  ASSERT_TRUE(fn.ok());
  auto whole = fn.value()->Evaluate({base.value()}, &ctx);
  ASSERT_TRUE(whole.ok());

  common::ThreadPool pool(4);
  fao::MorselOptions morsels;
  morsels.morsel_size = 4;
  morsels.pool = &pool;
  auto split = fao::EvaluateWithMorsels(node.spec, {base.value()}, &ctx,
                                        morsels);
  ASSERT_TRUE(split.ok()) << split.status().ToString();

  // Byte-identical rows in identical order, and the input lids carried
  // through the function body survive the split/merge unchanged.
  ExpectSameTable(whole.value(), split.value(), /*compare_lids=*/true);
  EXPECT_EQ(whole.value().name(), split.value().name());
}

TEST(MorselTest, PartitioningIsIndependentOfWorkerCount) {
  auto db = MakeDb(20);
  fao::ExecContext ctx = db->MakeContext();
  auto base = db->catalog()->Get("movie_table");
  ASSERT_TRUE(base.ok());
  opt::PhysicalNode node =
      RecencyNode("gen_recency_score", "movie_table", "scored", "r_score");

  fao::MorselOptions no_pool;
  no_pool.morsel_size = 3;
  auto a = fao::EvaluateWithMorsels(node.spec, {base.value()}, &ctx, no_pool);
  ASSERT_TRUE(a.ok());

  common::ThreadPool pool(4);
  fao::MorselOptions pooled;
  pooled.morsel_size = 3;
  pooled.pool = &pool;
  auto b = fao::EvaluateWithMorsels(node.spec, {base.value()}, &ctx, pooled);
  ASSERT_TRUE(b.ok());
  ExpectSameTable(a.value(), b.value(), /*compare_lids=*/true);
}

TEST(MorselTest, PerPartitionCacheKeysHitAcrossWorkerCounts) {
  auto db = MakeDb(24);
  service::ResultCache cache;
  fao::ExecContext ctx = db->MakeContext();
  ctx.result_cache = &cache;
  auto base = db->catalog()->Get("movie_table");
  ASSERT_TRUE(base.ok());
  size_t rows = base.value()->num_rows();
  opt::PhysicalNode node =
      RecencyNode("gen_recency_score", "movie_table", "scored", "r_score");

  fao::MorselOptions morsels;
  morsels.morsel_size = 5;
  size_t parts = (rows + morsels.morsel_size - 1) / morsels.morsel_size;

  // Cold run (sequential lanes): one miss per partition.
  ASSERT_TRUE(
      fao::EvaluateWithMorsels(node.spec, {base.value()}, &ctx, morsels)
          .ok());
  auto cold = cache.stats();
  EXPECT_EQ(cold.misses, static_cast<int64_t>(parts));
  EXPECT_EQ(cold.hits, 0);

  // Warm run with parallel lanes: the partition keys are a function of
  // morsel_size and content only, so every lookup hits.
  common::ThreadPool pool(4);
  morsels.pool = &pool;
  auto warm_result =
      fao::EvaluateWithMorsels(node.spec, {base.value()}, &ctx, morsels);
  ASSERT_TRUE(warm_result.ok());
  auto warm = cache.stats();
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_EQ(warm.hits, static_cast<int64_t>(parts));
}

TEST(MorselTest, SqlTemplateIsNeverSplit) {
  EXPECT_FALSE(fao::IsPureTemplate("sql"));
  EXPECT_TRUE(fao::IsPureTemplate("recency_score"));
  EXPECT_TRUE(fao::IsPureTemplate("classify_boring_cascade"));
}

// ------------------------------------- end-to-end parallel == sequential

TEST(ParallelEquivalenceTest, PaperQueryMatchesSequentialIncludingLineage) {
  auto seq_db = MakeDb(20);
  auto seq_user = PaperUser();
  auto seq = seq_db->Query(kPaperQuery, &seq_user);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();

  KathDBOptions par_opts;
  par_opts.executor.max_parallel_nodes = 4;
  par_opts.executor.morsel_size = 4;
  auto par_db = MakeDb(20, par_opts);
  auto par_user = PaperUser();
  auto par = par_db->Query(kPaperQuery, &par_user);
  ASSERT_TRUE(par.ok()) << par.status().ToString();

  // Byte-identical results; the paper plan is a chain, so even the
  // lineage lids (assigned per node, in order) must match exactly.
  ExpectSameTable(seq->result, par->result, /*compare_lids=*/true);
  EXPECT_EQ(seq_db->lineage()->num_entries(),
            par_db->lineage()->num_entries());
}

// ------------------------------------- batched == sequential differential

TEST(BatchedEquivalenceTest, PaperQueryMatchesSequentialAcrossKnobGrid) {
  // Pin the classifier implementation: "auto" profiles candidates by
  // wall-clock cost, so the chosen plan (and with it cache and meter
  // counters) would vary run to run. "pixels" is the vision-model path —
  // exactly the work batching is for.
  KathDBOptions seq_opts;
  seq_opts.optimizer.boring_impl = "pixels";
  // Reference: the classic synchronous run, no batching, no morsels.
  auto seq_db = MakeDb(20, seq_opts);
  auto seq_user = PaperUser();
  auto seq = seq_db->Query(kPaperQuery, &seq_user);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();

  for (int workers : {1, 4}) {
    for (int batch_size : {1, 4, 16}) {
      for (double deadline_ms : {0.0, 2.0}) {
        SCOPED_TRACE("workers=" + std::to_string(workers) +
                     " batch_size=" + std::to_string(batch_size) +
                     " deadline_ms=" + std::to_string(deadline_ms));
        KathDBOptions opts;
        opts.optimizer.boring_impl = "pixels";
        opts.executor.max_parallel_nodes = workers;
        opts.executor.morsel_size = 4;
        opts.executor.enable_llm_batching = true;
        auto db = MakeDb(20, opts);
        llm::BatchOptions bopts;
        bopts.max_batch_size = batch_size;
        bopts.flush_deadline_ms = deadline_ms;
        llm::BatchScheduler batcher(bopts);
        db->set_batch_scheduler(&batcher);

        auto user = PaperUser();
        auto out = db->Query(kPaperQuery, &user);
        ASSERT_TRUE(out.ok()) << out.status().ToString();

        // Byte-identical output *including lineage lids* — batching must
        // be pure scheduling, invisible to results and provenance.
        ExpectSameTable(seq->result, out->result, /*compare_lids=*/true);
        EXPECT_EQ(seq_db->lineage()->num_entries(),
                  db->lineage()->num_entries());
        // ... and invisible to usage accounting: exactly the same calls,
        // tokens and dollars as the synchronous run.
        EXPECT_EQ(seq_db->meter()->total_calls(), db->meter()->total_calls());
        EXPECT_EQ(seq_db->meter()->total_tokens(),
                  db->meter()->total_tokens());
        EXPECT_DOUBLE_EQ(seq_db->meter()->total_cost_usd(),
                         db->meter()->total_cost_usd());
        db->set_batch_scheduler(nullptr);
      }
    }
  }
}

TEST(BatchedEquivalenceTest, CacheCountersMatchSequentialMorselRun) {
  // Same spec, same input, same morsel geometry — so the per-partition
  // cache keys are identical — evaluated once through the synchronous
  // morsel path and once through the batched path. Cold run: one miss +
  // one insertion per partition on both sides (batching must not
  // double-insert or skip the cache). Warm run: one hit per partition on
  // both sides (cache lookup happens before submit).
  auto db = MakeDb(24);
  auto base = db->catalog()->Get("movie_table");
  ASSERT_TRUE(base.ok());
  size_t rows = base.value()->num_rows();
  opt::PhysicalNode node =
      RecencyNode("gen_recency_score", "movie_table", "scored", "r_score");
  fao::MorselOptions morsels;
  morsels.morsel_size = 5;
  size_t parts = (rows + morsels.morsel_size - 1) / morsels.morsel_size;

  service::ResultCache seq_cache;
  fao::ExecContext seq_ctx = db->MakeContext();
  seq_ctx.result_cache = &seq_cache;
  auto seq_cold =
      fao::EvaluateWithMorsels(node.spec, {base.value()}, &seq_ctx, morsels);
  ASSERT_TRUE(seq_cold.ok());
  ASSERT_TRUE(
      fao::EvaluateWithMorsels(node.spec, {base.value()}, &seq_ctx, morsels)
          .ok());

  service::ResultCache bat_cache;
  llm::BatchOptions bopts;
  bopts.max_batch_size = 3;  // forces a mid-node size flush
  bopts.flush_deadline_ms = 1.0;
  llm::BatchScheduler batcher(bopts);
  fao::ExecContext bat_ctx = db->MakeContext();
  bat_ctx.result_cache = &bat_cache;
  bat_ctx.batcher = &batcher;
  for (int i = 0; i < 2; ++i) {
    std::promise<Result<rel::Table>> landed;
    fao::EvaluateBatched(node.spec, {base.value()}, &bat_ctx, morsels,
                         [&landed](Result<rel::Table> r) {
                           landed.set_value(std::move(r));
                         });
    auto batched = landed.get_future().get();
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ExpectSameTable(seq_cold.value(), batched.value(),
                    /*compare_lids=*/true);
  }

  auto seq_stats = seq_cache.stats();
  auto bat_stats = bat_cache.stats();
  EXPECT_EQ(bat_stats.hits, seq_stats.hits);
  EXPECT_EQ(bat_stats.misses, seq_stats.misses);
  EXPECT_EQ(bat_stats.insertions, seq_stats.insertions);
  EXPECT_EQ(bat_stats.misses, static_cast<int64_t>(parts));
  EXPECT_EQ(bat_stats.hits, static_cast<int64_t>(parts));
}

TEST(BatchedEquivalenceTest, ServiceWithBatchingMatchesServiceWithout) {
  // The full service stack (admission, sessions, shared cache) with
  // batching on vs off: same tables out, same usage totals.
  auto run = [&](bool batching, rel::Table* table_out, int64_t* calls_out) {
    KathDBOptions db_opts;
    db_opts.optimizer.boring_impl = "pixels";
    auto db = MakeDb(16, db_opts);
    service::ServiceOptions opts;
    opts.workers = 4;
    opts.intra_query_parallelism = 2;
    opts.intra_query_morsel_size = 4;
    opts.adaptive_intra_query = false;
    opts.enable_result_cache = false;  // isolate the batching effect
    opts.enable_llm_batching = batching;
    opts.llm_batch_size = 4;
    opts.llm_flush_deadline_ms = 1.0;
    service::QueryService service(db.get(), opts);
    auto sid = service.OpenSession(
        {"uncommon scenes", "prefer recent movies", "OK"});
    std::vector<service::OutcomeFuture> futs;
    for (int i = 0; i < 6; ++i) {
      auto f = service.Submit(sid, kPaperQuery);
      ASSERT_TRUE(f.ok()) << f.status().ToString();
      futs.push_back(f.value());
    }
    service.Drain();
    std::vector<rel::Table> tables;
    for (auto& f : futs) {
      auto outcome = f.get();
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      tables.push_back(outcome.value().result);
    }
    for (size_t i = 1; i < tables.size(); ++i) {
      ExpectSameTable(tables[0], tables[i], /*compare_lids=*/false);
    }
    *table_out = tables[0];
    *calls_out = db->meter()->total_calls();
  };

  rel::Table sync_table, batch_table;
  int64_t sync_calls = 0, batch_calls = 0;
  run(false, &sync_table, &sync_calls);
  run(true, &batch_table, &batch_calls);
  ExpectSameTable(sync_table, batch_table, /*compare_lids=*/false);
  // Batching coalesces identical in-flight work, so it may *save* calls,
  // but it must never charge more than the synchronous service did.
  EXPECT_LE(batch_calls, sync_calls);
  EXPECT_GT(batch_calls, 0);
}

TEST(ParallelEquivalenceTest, ServiceBudgetRunsQueriesCorrectly) {
  auto db = MakeDb(16);
  service::ServiceOptions opts;
  opts.workers = 2;
  opts.intra_query_parallelism = 4;
  opts.intra_query_morsel_size = 4;
  opts.adaptive_intra_query = false;
  service::QueryService service(db.get(), opts);
  auto sid = service.OpenSession(
      {"uncommon scenes", "prefer recent movies", "OK"});
  auto a = service.Query(sid, kPaperQuery);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = service.Query(sid, kPaperQuery);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectSameTable(a->result, b->result, /*compare_lids=*/false);
  EXPECT_GT(a->result.num_rows(), 0u);
}

}  // namespace
}  // namespace kathdb::engine
