// Concurrency tests for the shared components of the service layer:
// thread pool semantics, atomic usage metering, mutex-striped cache
// access, and lineage/registry appends under parallel queries. Run under
// the ThreadSanitizer CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "fao/registry.h"
#include "lineage/lineage.h"
#include "llm/model.h"
#include "relational/catalog.h"
#include "service/result_cache.h"

namespace kathdb {
namespace {

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  common::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.TrySubmit([&count] { count.fetch_add(1); }));
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, BoundedQueueShedsLoad) {
  common::ThreadPool pool(1, /*max_queue=*/2);
  std::atomic<bool> release{false};
  // Occupy the single worker so submissions stack up in the queue.
  ASSERT_TRUE(pool.TrySubmit([&release] {
    while (!release.load()) std::this_thread::yield();
  }));
  // Wait until the blocker has left the queue for a worker.
  while (pool.queue_depth() > 0) std::this_thread::yield();
  EXPECT_TRUE(pool.TrySubmit([] {}));
  EXPECT_TRUE(pool.TrySubmit([] {}));
  EXPECT_FALSE(pool.TrySubmit([] {})) << "third pending task must be shed";
  release.store(true);
  pool.Wait();
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    common::ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(pool.TrySubmit([&count] { count.fetch_add(1); }));
    }
  }  // destructor == Shutdown: drains, then joins
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  common::ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_FALSE(pool.TrySubmit([] {}));
}

// ----------------------------------------------------------- UsageMeter

TEST(UsageMeterConcurrencyTest, HammeredFromManyThreads) {
  llm::UsageMeter meter;
  llm::ModelSpec spec{"hammer", 1.0, 2.0, 1.0};  // $1/$2 per 1k tokens
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&meter, &spec] {
      for (int i = 0; i < kPerThread; ++i) meter.Record(spec, 10, 5);
    });
  }
  for (auto& t : threads) t.join();
  constexpr int64_t kCalls = kThreads * kPerThread;
  EXPECT_EQ(meter.total_calls(), kCalls);
  EXPECT_EQ(meter.total_prompt_tokens(), kCalls * 10);
  EXPECT_EQ(meter.total_completion_tokens(), kCalls * 5);
  EXPECT_EQ(meter.tokens_for("hammer"), kCalls * 15);
  // CAS-accumulated cost is exact, not merely approximate:
  // 10/1000*$1 + 5/1000*$2 = $0.02 per call.
  EXPECT_NEAR(meter.total_cost_usd(), kCalls * 0.02, 1e-6);
}

// ---------------------------------------------------------- ResultCache

TEST(ResultCacheConcurrencyTest, ParallelGetPut) {
  service::ResultCacheOptions opts;
  opts.shards = 8;
  opts.capacity = 256;  // force eviction churn under contention
  service::ResultCache cache(opts);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (uint64_t i = 0; i < 2000; ++i) {
        uint64_t key = (i * 7 + static_cast<uint64_t>(t)) % 512;
        if (auto hit = cache.Get(key)) {
          EXPECT_EQ(hit->text, std::to_string(key));
        } else {
          cache.Put(key, service::CacheEntry{nullptr, std::to_string(key)});
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  service::ResultCacheStats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, int64_t{kThreads} * 2000);
  EXPECT_LE(cache.size(), 256u);
}

// --------------------------------------------------------- LineageStore

TEST(LineageConcurrencyTest, ParallelDerivationsKeepLidsUnique) {
  lineage::LineageStore store;
  int64_t root = store.RecordIngest("table://t", "load_data", 1,
                                    lineage::LineageDataType::kTable);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 512;
  constexpr int kBatch = 64;
  std::vector<std::vector<int64_t>> lids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    // Even threads record one row per call, odd threads 64-row batches.
    threads.emplace_back([&store, &lids, t, root] {
      if (t % 2 == 0) {
        for (int i = 0; i < kPerThread; ++i) {
          lids[t].push_back(store.RecordRowDerivation(root, "fn", 1));
        }
        return;
      }
      for (int i = 0; i < kPerThread; i += kBatch) {
        std::vector<int64_t> batch(kBatch, root);
        store.RecordRowDerivations(batch.data(), batch.size(), "batch_fn", 1,
                                   batch.data());
        for (int j = 1; j < kBatch; ++j) {
          EXPECT_EQ(batch[j], batch[j - 1] + 1) << "batch lids not contiguous";
        }
        lids[t].insert(lids[t].end(), batch.begin(), batch.end());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::set<int64_t> unique;
  for (const auto& per_thread : lids) {
    for (int64_t lid : per_thread) {
      EXPECT_NE(lid, 0);
      EXPECT_TRUE(unique.insert(lid).second) << "duplicate lid " << lid;
    }
  }
  EXPECT_EQ(store.num_entries(), 1u + kThreads * kPerThread);
  rel::Table table = store.ToTable();
  for (size_t r = 1; r < table.num_rows(); ++r) {
    EXPECT_LE(table.at(r - 1, 0).AsInt(), table.at(r, 0).AsInt());
  }
  // Every recorded edge still traces to the ingest root.
  for (int64_t lid : unique) {
    auto trace = store.TraceToSources(lid);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.back().src_uri, "table://t");
  }
}

// ----------------------------------------------------- FunctionRegistry

TEST(RegistryConcurrencyTest, ParallelVersionStampsAreMonotone) {
  fao::FunctionRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      fao::FunctionSpec spec;
      spec.name = "shared_fn";
      spec.template_id = "recency_score";
      for (int i = 0; i < kPerThread; ++i) {
        EXPECT_GT(registry.RegisterNewVersion(spec), 0);
      }
    });
  }
  for (auto& t : threads) t.join();
  auto versions = registry.VersionsOf("shared_fn");
  ASSERT_EQ(versions.size(), size_t{kThreads} * kPerThread);
  for (size_t i = 0; i < versions.size(); ++i) {
    EXPECT_EQ(versions[i].ver_id, static_cast<int64_t>(i + 1));
  }
}

// -------------------------------------------------------- Catalog reads

TEST(CatalogConcurrencyTest, ParallelReadersAndScopedWriters) {
  rel::Catalog base;
  auto t = std::make_shared<rel::Table>(
      "movies", rel::Schema({{"x", rel::DataType::kInt}}));
  t->AppendRow({rel::Value::Int(1)});
  ASSERT_TRUE(base.Register(t).ok());

  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&base, w] {
      rel::ScopedCatalog scoped(&base);
      for (int i = 0; i < 300; ++i) {
        // Every worker materializes the same intermediate name: with a
        // per-query overlay this must never collide.
        auto inter = std::make_shared<rel::Table>(
            "scored", rel::Schema({{"w", rel::DataType::kInt}}));
        inter->AppendRow({rel::Value::Int(w)});
        scoped.Upsert(inter);
        auto got = scoped.Get("scored");
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value()->at(0, 0).AsInt(), w);
        EXPECT_TRUE(scoped.Get("movies").ok());
        EXPECT_TRUE(base.Has("movies"));
      }
      EXPECT_FALSE(base.Has("scored")) << "overlay leaked into base";
    });
  }
  for (auto& t2 : threads) t2.join();
}

}  // namespace
}  // namespace kathdb
