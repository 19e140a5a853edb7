// Concurrent batch query engine tests: sharded, threaded execution must
// return exactly the results of a sequential linear scan over the whole
// database (same ids, distances, canonical (distance, id) order), and
// the engine's distance accounting must reproduce the single-threaded
// cost model no matter how many workers run.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "dataset/string_gen.h"
#include "dataset/vector_gen.h"
#include "engine/batch_stats.h"
#include "engine/query.h"
#include "engine/query_engine.h"
#include "engine/sharded_database.h"
#include "index/linear_scan.h"
#include "index/vp_tree.h"
#include "metric/lp.h"
#include "metric/string_metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace distperm {
namespace engine {
namespace {

using index::LinearScanIndex;
using index::SearchIndex;
using index::SearchResult;
using metric::Vector;

metric::Metric<Vector> L2() { return metric::LpMetric::L2(); }

// Sequential ground truth: one linear scan over the unsharded database.
template <typename P>
std::vector<std::vector<SearchResult>> SequentialTruth(
    const std::vector<P>& data, const metric::Metric<P>& metric,
    const std::vector<QuerySpec<P>>& batch) {
  LinearScanIndex<P> scan(data, metric);
  std::vector<std::vector<SearchResult>> truth;
  truth.reserve(batch.size());
  for (const auto& spec : batch) truth.push_back(scan.Search(spec).results);
  return truth;
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  util::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter]() { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, WaitIsABarrierAndPoolIsReusable) {
  util::ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 1; round <= 5; ++round) {
    for (int i = 0; i < 40; ++i) {
      pool.Submit([&counter]() { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), round * 40);
  }
}

TEST(ThreadPool, ZeroRequestedThreadsStillWorks) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran]() { ran.store(true); });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, WaitWithNoTasksReturnsImmediately) {
  util::ThreadPool pool(2);
  pool.Wait();
}

// Regression for destructor vs. Submit-from-task: destroying the pool
// while running tasks are still submitting chained work must drain
// every submission — idle workers may exit early on the shutdown flag,
// but a task's own worker always picks its chain up, so nothing is
// dropped.  Run under TSan by the CI tsan job.
TEST(ThreadPool, DestructorDrainsChainsStillSubmitting) {
  std::atomic<int> counter{0};
  for (int round = 0; round < 20; ++round) {
    counter.store(0);
    // Declared outside the pool's scope so chained tasks can still
    // call it while the destructor drains.
    std::function<void(int)> chain;
    {
      util::ThreadPool pool(3);
      chain = [&pool, &counter, &chain](int depth) {
        counter.fetch_add(1);
        if (depth > 0) pool.Submit([&chain, depth]() { chain(depth - 1); });
      };
      // Each root task submits a chain of depth 5 from within tasks;
      // the pool is destroyed immediately, with no Wait(), while the
      // chains are still growing.
      for (int i = 0; i < 4; ++i) {
        pool.Submit([&chain]() { chain(5); });
      }
    }
    // 4 roots x (1 + 5 chained) tasks each, none lost.
    EXPECT_EQ(counter.load(), 4 * 6) << "round " << round;
  }
}

// The pool's introspection accessors: submitted/executed counts are
// exact, and queue_depth reports tasks waiting behind a busy worker.
TEST(ThreadPool, CountersTrackSubmittedQueuedAndExecutedTasks) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.submitted_count(), 0u);
  EXPECT_EQ(pool.executed_count(), 0u);
  EXPECT_EQ(pool.queue_depth(), 0u);

  // Block the single worker so further submissions must queue.
  std::atomic<bool> release{false};
  std::atomic<bool> started{false};
  pool.Submit([&release, &started]() {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  for (int i = 0; i < 3; ++i) {
    pool.Submit([]() {});
  }
  EXPECT_EQ(pool.submitted_count(), 4u);
  EXPECT_EQ(pool.queue_depth(), 3u);  // blocker runs, three wait
  EXPECT_EQ(pool.executed_count(), 0u);

  release.store(true);
  pool.Wait();
  EXPECT_EQ(pool.submitted_count(), 4u);
  EXPECT_EQ(pool.executed_count(), 4u);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

// Parks a pool's only worker on a latch that the last task queued
// behind it opens, so only a Wait() that runs queued tasks itself can
// finish the batch.  A watchdog opens the latch after 30 s, so a
// Wait() that merely sleeps fails the test instead of hanging it.
struct BlockedWorker {
  explicit BlockedWorker(util::ThreadPool* pool) : pool(pool) {
    pool->Submit([this]() {
      started.store(true);
      while (!latch.load()) std::this_thread::yield();
    });
    while (!started.load()) std::this_thread::yield();
    watchdog = std::thread([this]() {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!latch.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      latch.store(true);
    });
  }
  ~BlockedWorker() { watchdog.join(); }

  /// Queues `count` tasks that record the thread running them, then one
  /// that opens the latch.
  void QueueTasks(size_t count) {
    ran_on.resize(count);
    for (size_t i = 0; i < count; ++i) {
      pool->Submit([this, i]() { ran_on[i] = std::this_thread::get_id(); });
    }
    pool->Submit([this]() { latch.store(true); });
  }

  util::ThreadPool* pool;
  std::atomic<bool> started{false};
  std::atomic<bool> latch{false};
  std::vector<std::thread::id> ran_on;
  std::thread watchdog;
};

TEST(ThreadPool, WaitRunsQueuedTasksWhileTheWorkerIsBlocked) {
  util::ThreadPool pool(1);
  BlockedWorker blocked(&pool);
  blocked.QueueTasks(3);
  pool.Wait();
  for (const std::thread::id& id : blocked.ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.executed_count(), 5u);
}

// Tasks the waiting thread runs count in executed_count() and in every
// instrument, exactly like a worker's.
TEST(ThreadPool, CallerRunTasksAreCountedAndInstrumented) {
  obs::MetricsRegistry registry("thread_pool_test");
  obs::ThreadPoolInstruments instruments;
  instruments.tasks_submitted = registry.GetCounter("submitted_total");
  instruments.tasks_executed = registry.GetCounter("executed_total");
  instruments.task_seconds = registry.GetHistogram("task_seconds");
  util::ThreadPool pool(1);
  pool.set_instruments(instruments);
  for (int round = 1; round <= 3; ++round) {
    BlockedWorker blocked(&pool);
    blocked.QueueTasks(6);
    pool.Wait();
    for (const std::thread::id& id : blocked.ran_on) {
      EXPECT_EQ(id, std::this_thread::get_id());
    }
    const uint64_t tasks = 8u * static_cast<uint64_t>(round);
    EXPECT_EQ(pool.submitted_count(), tasks);
    EXPECT_EQ(pool.executed_count(), tasks);
    EXPECT_EQ(instruments.tasks_submitted->Value(), tasks);
    EXPECT_EQ(instruments.tasks_executed->Value(), tasks);
    EXPECT_EQ(instruments.task_seconds->Snap().count(), tasks);
  }
}

TEST(ShardedDatabase, ContiguousSlicingCoversEveryPoint) {
  util::Rng rng(90);
  auto data = dataset::UniformCube(103, 2, &rng);  // not divisible by 4
  auto db = ShardedDatabase<Vector>::BuildFromRegistry(data, L2(), 4,
                                                       "linear-scan", 0)
                .value();
  ASSERT_EQ(db.shard_count(), 4u);
  EXPECT_EQ(db.size(), data.size());
  size_t covered = 0;
  for (size_t s = 0; s < db.shard_count(); ++s) {
    EXPECT_EQ(db.shard_offset(s), covered);
    for (size_t i = 0; i < db.shard(s).size(); ++i) {
      EXPECT_EQ(db.shard(s).points().Point(i), data[covered + i]);
    }
    covered += db.shard(s).size();
  }
  EXPECT_EQ(covered, data.size());
  EXPECT_EQ(db.index_name(), "linear-scan");
}

// The satellite-task test: batched sharded kNN/range results must be
// identical to sequential LinearScanIndex results across metrics, index
// types, shard counts, thread counts, and seeds.
TEST(QueryEngine, ShardedBatchesMatchSequentialLinearScanOnVectors) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(1000 + seed);
    auto data = dataset::UniformCube(350, 3, &rng);

    std::vector<QuerySpec<Vector>> batch;
    for (int q = 0; q < 12; ++q) {
      Vector point(3);
      for (auto& c : point) c = rng.NextDouble(-0.2, 1.2);
      if (q % 2 == 0) {
        batch.push_back(QuerySpec<Vector>::Knn(point, 1 + q));
      } else {
        batch.push_back(QuerySpec<Vector>::Range(point, 0.05 + 0.08 * q));
      }
    }
    auto truth = SequentialTruth(data, L2(), batch);

    for (const char* spec : {"linear-scan", "vp-tree", "laesa:k=6"}) {
      for (size_t shards : {1u, 3u, 4u, 7u}) {
        auto db = ShardedDatabase<Vector>::BuildFromRegistry(data, L2(), shards,
                                                             spec, seed)
                      .value();
        for (size_t threads : {1u, 4u}) {
          QueryEngine<Vector> engine(threads);
          auto out = engine.RunBatch(db, batch);
          ASSERT_EQ(out.results.size(), batch.size());
          for (size_t q = 0; q < batch.size(); ++q) {
            EXPECT_EQ(out.results[q], truth[q])
                << "spec=" << spec << " shards=" << shards
                << " threads=" << threads << " query=" << q;
          }
          EXPECT_EQ(AverageRecall(out.results, truth), 1.0);
        }
      }
    }
  }
}

TEST(QueryEngine, ShardedBatchesMatchSequentialLinearScanOnStrings) {
  util::Rng rng(77);
  auto words = dataset::DnaSequences(140, 4, 6, 16, 0.1, &rng);
  metric::Metric<std::string> lev((metric::LevenshteinMetric()));

  std::vector<QuerySpec<std::string>> batch;
  for (int q = 0; q < 10; ++q) {
    const std::string& point = words[rng.NextBounded(words.size())];
    if (q % 2 == 0) {
      batch.push_back(QuerySpec<std::string>::Knn(point, 5));
    } else {
      batch.push_back(QuerySpec<std::string>::Range(point, 3.0));
    }
  }
  auto truth = SequentialTruth(words, lev, batch);

  auto db = ShardedDatabase<std::string>::BuildFromRegistry(words, lev, 5,
                                                            "vp-tree", 9)
                .value();
  QueryEngine<std::string> engine(4);
  auto out = engine.RunBatch(db, batch);
  for (size_t q = 0; q < batch.size(); ++q) {
    EXPECT_EQ(out.results[q], truth[q]) << q;
  }
}

// Linear-scan shards make the cost model exactly additive: every query
// costs n metric evaluations regardless of sharding or threading.
TEST(QueryEngine, DistanceAccountingMatchesSingleThreadedCostModel) {
  util::Rng rng(31);
  const size_t n = 257;
  auto data = dataset::UniformCube(n, 2, &rng);
  std::vector<QuerySpec<Vector>> batch;
  for (int q = 0; q < 9; ++q) {
    batch.push_back(QuerySpec<Vector>::Knn({rng.NextDouble(),
                                            rng.NextDouble()},
                                           5));
  }
  for (size_t shards : {1u, 4u, 6u}) {
    auto db = ShardedDatabase<Vector>::BuildFromRegistry(data, L2(), shards,
                                                         "linear-scan", 0)
                  .value();
    for (size_t threads : {1u, 4u}) {
      QueryEngine<Vector> engine(threads);
      auto out = engine.RunBatch(db, batch);
      for (size_t q = 0; q < batch.size(); ++q) {
        EXPECT_EQ(out.per_query_distance_computations[q], n)
            << "shards=" << shards << " threads=" << threads;
      }
      EXPECT_EQ(out.stats.distance_computations, batch.size() * n);
    }
  }
}

// Any exact index's engine-reported counts must be independent of the
// worker count: threading may reorder work but never changes what the
// shards compute.
TEST(QueryEngine, ThreadCountDoesNotPerturbDistanceCounts) {
  util::Rng rng(32);
  auto data = dataset::UniformCube(300, 3, &rng);
  std::vector<QuerySpec<Vector>> batch;
  for (int q = 0; q < 8; ++q) {
    Vector point = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    batch.push_back(q % 2 == 0 ? QuerySpec<Vector>::Knn(point, 7)
                               : QuerySpec<Vector>::Range(point, 0.3));
  }
  auto db = ShardedDatabase<Vector>::BuildFromRegistry(data, L2(), 4,
                                                       "vp-tree", 21)
                .value();
  QueryEngine<Vector> single(1);
  QueryEngine<Vector> pooled(8);
  auto a = single.RunBatch(db, batch);
  auto b = pooled.RunBatch(db, batch);
  EXPECT_EQ(a.stats.distance_computations, b.stats.distance_computations);
  EXPECT_EQ(a.per_query_distance_computations,
            b.per_query_distance_computations);
  EXPECT_EQ(a.results, b.results);
}

TEST(QueryEngine, BatchStatsAreFilledIn) {
  util::Rng rng(33);
  auto data = dataset::UniformCube(120, 2, &rng);
  auto db = ShardedDatabase<Vector>::BuildFromRegistry(data, L2(), 3,
                                                       "linear-scan", 0)
                .value();
  QueryEngine<Vector> engine(2);
  std::vector<QuerySpec<Vector>> batch(
      6, QuerySpec<Vector>::Knn({0.5, 0.5}, 4));
  auto out = engine.RunBatch(db, batch);
  EXPECT_EQ(out.stats.query_count, 6u);
  EXPECT_EQ(out.stats.shard_count, 3u);
  EXPECT_EQ(out.stats.thread_count, 2u);
  EXPECT_GT(out.stats.wall_seconds, 0.0);
  EXPECT_EQ(out.stats.latency.count, 6u);
  EXPECT_GT(out.stats.latency.min_seconds, 0.0);
  EXPECT_LE(out.stats.latency.min_seconds, out.stats.latency.mean_seconds);
  EXPECT_LE(out.stats.latency.mean_seconds, out.stats.latency.max_seconds);
  EXPECT_LE(out.stats.latency.max_seconds, out.stats.wall_seconds);
}

TEST(QueryEngine, EdgeCases) {
  util::Rng rng(34);
  auto data = dataset::UniformCube(10, 2, &rng);
  // More shards than points: some shards are empty.
  auto db = ShardedDatabase<Vector>::BuildFromRegistry(data, L2(), 16,
                                                       "linear-scan", 0)
                .value();
  QueryEngine<Vector> engine(4);

  // Empty batch.
  auto empty = engine.RunBatch(db, {});
  EXPECT_TRUE(empty.results.empty());
  EXPECT_EQ(empty.stats.distance_computations, 0u);

  // k larger than the database.
  auto out = engine.RunBatch(db, {QuerySpec<Vector>::Knn({0.5, 0.5}, 50)});
  ASSERT_EQ(out.results.size(), 1u);
  EXPECT_EQ(out.results[0].size(), data.size());
  LinearScanIndex<Vector> scan(data, L2());
  EXPECT_EQ(out.results[0],
            scan.Search(QuerySpec<Vector>::Knn({0.5, 0.5}, 50)).results);

  // Radius nothing matches.
  auto none = engine.RunBatch(db, {QuerySpec<Vector>::Range({9.0, 9.0}, 0.01)});
  EXPECT_TRUE(none.results[0].empty());
}

// Direct concurrent queries against one shared index: the const API must
// be safe without the engine, and each call's stats must equal what the
// same query costs when run alone.
TEST(SearchIndexConcurrency, SharedIndexServesManyThreads) {
  util::Rng rng(35);
  auto data = dataset::UniformCube(400, 3, &rng);
  util::Rng tree_rng(36);
  const index::VpTreeIndex<Vector> shared(data, L2(), &tree_rng);
  LinearScanIndex<Vector> reference(data, L2());

  std::vector<QuerySpec<Vector>> queries;
  std::vector<std::vector<SearchResult>> truth;
  std::vector<uint64_t> alone_cost;
  for (int q = 0; q < 32; ++q) {
    Vector point = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    queries.push_back(QuerySpec<Vector>::Knn(std::move(point), 6));
    truth.push_back(reference.Search(queries.back()).results);
    alone_cost.push_back(
        shared.Search(queries.back()).stats.distance_computations);
  }

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> cost_mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t q = t; q < queries.size(); q += 4) {
        index::SearchResponse response = shared.Search(queries[q]);
        if (response.results != truth[q]) mismatches.fetch_add(1);
        if (response.stats.distance_computations != alone_cost[q]) {
          cost_mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(cost_mismatches.load(), 0u);
}

// Invalid requests in a batch come back with per-query statuses
// instead of asserting; valid queries in the same batch are answered
// exactly and the rejected ones cost nothing.
TEST(QueryEngine, PropagatesPerQueryStatuses) {
  util::Rng rng(44);
  auto data = dataset::UniformCube(150, 2, &rng);
  auto db = ShardedDatabase<Vector>::BuildFromRegistry(data, L2(), 3,
                                                       "linear-scan", 0)
                .value();
  QueryEngine<Vector> engine(2);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<QuerySpec<Vector>> batch = {
      QuerySpec<Vector>::Knn({0.5, 0.5}, 4),          // valid
      QuerySpec<Vector>::Knn({0.5, 0.5}, 0),          // k = 0
      QuerySpec<Vector>::Range({0.5, 0.5}, -2.0),     // negative radius
      QuerySpec<Vector>::Range({0.5, 0.5}, 0.2),      // valid
      QuerySpec<Vector>::Knn({nan, 0.5}, 3),          // NaN coordinate
  };
  auto out = engine.RunBatch(db, batch);
  ASSERT_EQ(out.statuses.size(), batch.size());
  EXPECT_FALSE(out.all_ok());
  EXPECT_TRUE(out.statuses[0].ok());
  EXPECT_TRUE(out.statuses[3].ok());
  for (size_t q : {1u, 2u, 4u}) {
    EXPECT_EQ(out.statuses[q].code(), util::StatusCode::kInvalidArgument)
        << q;
    EXPECT_TRUE(out.results[q].empty()) << q;
    EXPECT_EQ(out.per_query_distance_computations[q], 0u) << q;
  }
  // Valid queries are unperturbed: exact answers, exact accounting.
  LinearScanIndex<Vector> scan(data, L2());
  EXPECT_EQ(out.results[0],
            scan.Search(QuerySpec<Vector>::Knn({0.5, 0.5}, 4)).results);
  EXPECT_EQ(out.results[3],
            scan.Search(QuerySpec<Vector>::Range({0.5, 0.5}, 0.2)).results);
  EXPECT_EQ(out.per_query_distance_computations[0], data.size());
  // Only executed queries appear in the latency summary.
  EXPECT_EQ(out.stats.latency.count, 2u);
}

// A distance budget propagates through the engine: each shard task
// honors it, the per-query truncated flag reports it, and unbudgeted
// queries in the same batch keep their exact accounting.
TEST(QueryEngine, PropagatesTruncationUnderDistanceBudget) {
  util::Rng rng(45);
  const size_t n = 240;
  auto data = dataset::UniformCube(n, 2, &rng);
  const size_t shards = 3;
  auto db = ShardedDatabase<Vector>::BuildFromRegistry(data, L2(), shards,
                                                       "linear-scan", 0)
                .value();
  QueryEngine<Vector> engine(2);

  const uint64_t budget = 20;
  std::vector<QuerySpec<Vector>> batch = {
      QuerySpec<Vector>::Knn({0.4, 0.4}, 3).WithDistanceBudget(budget),
      QuerySpec<Vector>::Knn({0.4, 0.4}, 3),
  };
  auto out = engine.RunBatch(db, batch);
  ASSERT_TRUE(out.all_ok());
  EXPECT_TRUE(out.truncated[0]);
  // The budget applies per (query, shard) task.
  EXPECT_EQ(out.per_query_distance_computations[0], budget * shards);
  EXPECT_FALSE(out.truncated[1]);
  EXPECT_EQ(out.per_query_distance_computations[1], n);
}

// The kNN-within-radius mode flows through sharded execution: merged
// engine answers equal the single-index response.
TEST(QueryEngine, KnnWithinRadiusMatchesSingleIndex) {
  util::Rng rng(46);
  auto data = dataset::UniformCube(300, 3, &rng);
  auto db = ShardedDatabase<Vector>::BuildFromRegistry(data, L2(), 4,
                                                       "vp-tree", 11)
                .value();
  QueryEngine<Vector> engine(3);
  LinearScanIndex<Vector> scan(data, L2());
  std::vector<QuerySpec<Vector>> batch;
  for (int q = 0; q < 10; ++q) {
    Vector point = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    batch.push_back(
        QuerySpec<Vector>::KnnWithinRadius(point, 1 + q, 0.05 + 0.05 * q));
  }
  auto out = engine.RunBatch(db, batch);
  ASSERT_TRUE(out.all_ok());
  for (size_t q = 0; q < batch.size(); ++q) {
    auto truth = scan.Search(batch[q]);
    ASSERT_TRUE(truth.status.ok());
    EXPECT_EQ(out.results[q], truth.results) << q;
  }
}

TEST(BatchStatsHelpers, LatencySummary) {
  auto summary = SummarizeLatencies({0.4, 0.1, 0.3, 0.2});
  EXPECT_EQ(summary.count, 4u);
  EXPECT_DOUBLE_EQ(summary.min_seconds, 0.1);
  EXPECT_DOUBLE_EQ(summary.max_seconds, 0.4);
  EXPECT_DOUBLE_EQ(summary.mean_seconds, 0.25);
  // Interpolated percentiles: rank q * (n - 1) between the order
  // statistics, so p99 of 4 samples sits just below the max instead of
  // snapping to it (the old nearest-rank rule reported 0.4 here).
  EXPECT_DOUBLE_EQ(summary.p99_seconds,
                   0.3 + (0.99 * 3.0 - 2.0) * (0.4 - 0.3));
  EXPECT_DOUBLE_EQ(summary.p999_seconds,
                   0.3 + (0.999 * 3.0 - 2.0) * (0.4 - 0.3));
  EXPECT_EQ(SummarizeLatencies({}).count, 0u);
}

// One sample: every percentile is that sample, exactly.
TEST(BatchStatsHelpers, LatencySummarySingleElement) {
  auto summary = SummarizeLatencies({0.2});
  EXPECT_EQ(summary.count, 1u);
  EXPECT_DOUBLE_EQ(summary.min_seconds, 0.2);
  EXPECT_DOUBLE_EQ(summary.mean_seconds, 0.2);
  EXPECT_DOUBLE_EQ(summary.p99_seconds, 0.2);
  EXPECT_DOUBLE_EQ(summary.p999_seconds, 0.2);
  EXPECT_DOUBLE_EQ(summary.max_seconds, 0.2);
}

// Two samples {a, b}: quantile q interpolates to a + q * (b - a).
TEST(BatchStatsHelpers, LatencySummaryTwoElements) {
  auto summary = SummarizeLatencies({0.3, 0.1});
  EXPECT_EQ(summary.count, 2u);
  EXPECT_DOUBLE_EQ(summary.min_seconds, 0.1);
  EXPECT_DOUBLE_EQ(summary.max_seconds, 0.3);
  EXPECT_DOUBLE_EQ(summary.mean_seconds, 0.2);
  EXPECT_DOUBLE_EQ(summary.p99_seconds, 0.1 + 0.99 * (0.3 - 0.1));
  EXPECT_DOUBLE_EQ(summary.p999_seconds, 0.1 + 0.999 * (0.3 - 0.1));
}

// One hundred samples 0.01 .. 1.00: p99 interpolates between the 99th
// and 100th order statistics at rank 0.99 * 99 = 98.01, p999 at rank
// 98.901 — neither snaps to the max.
TEST(BatchStatsHelpers, LatencySummaryHundredElements) {
  std::vector<double> seconds(100);
  for (size_t i = 0; i < seconds.size(); ++i) {
    seconds[i] = static_cast<double>(i + 1) / 100.0;
  }
  auto summary = SummarizeLatencies(seconds);
  EXPECT_EQ(summary.count, 100u);
  EXPECT_DOUBLE_EQ(summary.min_seconds, 0.01);
  EXPECT_DOUBLE_EQ(summary.max_seconds, 1.0);
  const double p99_rank = 0.99 * 99.0;    // 98.01
  const double p999_rank = 0.999 * 99.0;  // 98.901
  EXPECT_DOUBLE_EQ(summary.p99_seconds,
                   0.99 + (p99_rank - 98.0) * (1.0 - 0.99));
  EXPECT_DOUBLE_EQ(summary.p999_seconds,
                   0.99 + (p999_rank - 98.0) * (1.0 - 0.99));
  EXPECT_LT(summary.p99_seconds, summary.p999_seconds);
  EXPECT_LT(summary.p999_seconds, summary.max_seconds);
}

// A batch where every query is rejected executes nothing: the latency
// summary must be the empty (all-zero) summary, not a summary of
// garbage slots, while the batch's wall clock still ticks.
TEST(QueryEngine, LatencySummaryOnFullyRejectedBatch) {
  util::Rng rng(47);
  auto data = dataset::UniformCube(80, 2, &rng);
  auto db = ShardedDatabase<Vector>::BuildFromRegistry(data, L2(), 2,
                                                       "linear-scan", 0)
                .value();
  QueryEngine<Vector> engine(2);
  std::vector<QuerySpec<Vector>> batch = {
      QuerySpec<Vector>::Knn({0.5, 0.5}, 0),       // k = 0
      QuerySpec<Vector>::Range({0.5, 0.5}, -1.0),  // negative radius
  };
  auto out = engine.RunBatch(db, batch);
  EXPECT_FALSE(out.all_ok());
  EXPECT_EQ(out.stats.latency.count, 0u);
  EXPECT_DOUBLE_EQ(out.stats.latency.min_seconds, 0.0);
  EXPECT_DOUBLE_EQ(out.stats.latency.mean_seconds, 0.0);
  EXPECT_DOUBLE_EQ(out.stats.latency.p99_seconds, 0.0);
  EXPECT_DOUBLE_EQ(out.stats.latency.max_seconds, 0.0);
  EXPECT_GT(out.stats.wall_seconds, 0.0);
  EXPECT_EQ(out.stats.distance_computations, 0u);
}

// With one executed query among rejected ones, the summary degenerates
// to that query's latency on every percentile.
TEST(QueryEngine, LatencySummaryWithSingleExecutedQuery) {
  util::Rng rng(48);
  auto data = dataset::UniformCube(80, 2, &rng);
  auto db = ShardedDatabase<Vector>::BuildFromRegistry(data, L2(), 2,
                                                       "linear-scan", 0)
                .value();
  QueryEngine<Vector> engine(2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<QuerySpec<Vector>> batch = {
      QuerySpec<Vector>::Knn({nan, 0.5}, 3),  // NaN coordinate
      QuerySpec<Vector>::Knn({0.5, 0.5}, 3),  // the only executed query
      QuerySpec<Vector>::Knn({0.5, 0.5}, 0),  // k = 0
  };
  auto out = engine.RunBatch(db, batch);
  EXPECT_FALSE(out.all_ok());
  EXPECT_TRUE(out.statuses[1].ok());
  EXPECT_EQ(out.stats.latency.count, 1u);
  EXPECT_GT(out.stats.latency.min_seconds, 0.0);
  EXPECT_DOUBLE_EQ(out.stats.latency.min_seconds,
                   out.stats.latency.max_seconds);
  EXPECT_DOUBLE_EQ(out.stats.latency.mean_seconds,
                   out.stats.latency.max_seconds);
  EXPECT_DOUBLE_EQ(out.stats.latency.p99_seconds,
                   out.stats.latency.max_seconds);
  EXPECT_LE(out.stats.latency.max_seconds, out.stats.wall_seconds);
}

// Tracing is pure observation: a traced batch returns bit-identical
// results and identical distance accounting to the untraced batch, and
// each traced query's spans partition its distance count exactly — one
// span per shard, spans ordered by start time, every span's window
// inside the batch wall clock, every span carrying the request's
// initial_radius_bound.
TEST(QueryEngine, TraceSpansPartitionDistanceCountsExactly) {
  util::Rng rng(49);
  auto data = dataset::UniformCube(320, 3, &rng);
  const size_t shards = 4;
  auto db = ShardedDatabase<Vector>::BuildFromRegistry(data, L2(), shards,
                                                       "vp-tree", 12)
                .value();
  QueryEngine<Vector> engine(3);

  std::vector<QuerySpec<Vector>> plain;
  for (int q = 0; q < 8; ++q) {
    Vector point = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    plain.push_back(q % 2 == 0 ? QuerySpec<Vector>::Knn(point, 5)
                               : QuerySpec<Vector>::Range(point, 0.25));
  }
  plain[0].WithInitialRadiusBound(0.5);
  std::vector<QuerySpec<Vector>> traced = plain;
  for (auto& spec : traced) spec.WithTrace();

  auto base = engine.RunBatch(db, plain);
  auto out = engine.RunBatch(db, traced);
  ASSERT_TRUE(out.all_ok());
  EXPECT_EQ(out.results, base.results);
  EXPECT_EQ(out.per_query_distance_computations,
            base.per_query_distance_computations);
  for (size_t q = 0; q < traced.size(); ++q) {
    // Untraced batches carry empty traces.
    EXPECT_TRUE(base.traces[q].empty()) << q;
    const obs::SearchTrace& trace = out.traces[q];
    ASSERT_EQ(trace.spans.size(), shards) << q;
    EXPECT_EQ(trace.total_distance_computations(),
              out.per_query_distance_computations[q])
        << q;
    std::vector<bool> seen(shards, false);
    for (size_t i = 0; i < trace.spans.size(); ++i) {
      const obs::SearchTrace::Span& span = trace.spans[i];
      EXPECT_FALSE(span.delta);
      ASSERT_LT(span.shard, shards);
      EXPECT_FALSE(seen[span.shard]);  // one span per shard
      seen[span.shard] = true;
      EXPECT_EQ(span.bound, traced[q].initial_radius_bound);
      EXPECT_GE(span.start_seconds, 0.0);
      EXPECT_LE(span.start_seconds, span.stop_seconds);
      EXPECT_LE(span.stop_seconds, out.stats.wall_seconds);
      if (i > 0) {
        EXPECT_LE(trace.spans[i - 1].start_seconds, span.start_seconds);
      }
    }
  }
}

// EnableMetrics wires the engine into a registry: after a batch the
// counters reproduce the batch's exact accounting, the latency
// histogram holds one observation per executed query, and both
// expositions name the engine series.
TEST(QueryEngine, EnableMetricsPopulatesRegistry) {
  util::Rng rng(51);
  auto data = dataset::UniformCube(200, 2, &rng);
  const size_t shards = 3;
  auto db = ShardedDatabase<Vector>::BuildFromRegistry(data, L2(), shards,
                                                       "linear-scan", 0)
                .value();
  obs::MetricsRegistry registry("test");
  QueryEngine<Vector> engine(2);
  engine.EnableMetrics(&registry);

  std::vector<QuerySpec<Vector>> batch = {
      QuerySpec<Vector>::Knn({0.5, 0.5}, 4),
      QuerySpec<Vector>::Range({0.2, 0.8}, 0.3),
      QuerySpec<Vector>::Knn({0.5, 0.5}, 0),  // rejected: k = 0
      QuerySpec<Vector>::Knn({0.1, 0.1}, 3).WithDistanceBudget(10),
  };
  auto out = engine.RunBatch(db, batch);

  EXPECT_EQ(registry.GetCounter("engine_queries_total")->Value(), 3u);
  EXPECT_EQ(registry.GetCounter("engine_queries_rejected_total")->Value(),
            1u);
  EXPECT_EQ(registry.GetCounter("engine_queries_truncated_total")->Value(),
            1u);
  EXPECT_EQ(registry.GetCounter("engine_shard_tasks_total")->Value(),
            3u * shards);
  EXPECT_EQ(
      registry.GetCounter("engine_distance_computations_total")->Value(),
      out.stats.distance_computations);
  EXPECT_EQ(
      registry.GetHistogram("engine_query_latency_seconds")->Snap().count(),
      3u);
  EXPECT_EQ(registry.GetHistogram("engine_task_run_seconds")->Snap().count(),
            3u * shards);
  EXPECT_EQ(registry.GetCounter("threadpool_tasks_executed_total")->Value(),
            3u * shards);

  // A second batch accumulates into the same instruments.
  engine.RunBatch(db, {QuerySpec<Vector>::Knn({0.3, 0.3}, 2)});
  EXPECT_EQ(registry.GetCounter("engine_queries_total")->Value(), 4u);

  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find("engine_queries_total 4"), std::string::npos) << text;
  EXPECT_NE(text.find("threadpool_queue_depth 0"), std::string::npos)
      << text;
  EXPECT_NE(text.find("engine_query_latency_seconds_count 4"),
            std::string::npos)
      << text;
  const std::string json = registry.JsonExposition();
  EXPECT_NE(json.find("\"engine_queries_total\": 4"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"engine_query_latency_seconds\""), std::string::npos)
      << json;
}

// Metrics record the pruning statistics indexes report; a LAESA-sharded
// engine exercises them.
TEST(QueryEngine, MetricsCoverPruningSeries) {
  util::Rng rng(52);
  auto data = dataset::UniformCube(300, 3, &rng);
  auto db = ShardedDatabase<Vector>::BuildFromRegistry(data, L2(), 4,
                                                       "laesa:k=6", 7)
                .value();
  obs::MetricsRegistry registry("pruning");
  QueryEngine<Vector> engine(4);
  engine.EnableMetrics(&registry);

  std::vector<QuerySpec<Vector>> batch;
  for (int q = 0; q < 6; ++q) {
    Vector point = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    batch.push_back(QuerySpec<Vector>::Knn(point, 4));
  }
  auto out = engine.RunBatch(db, batch);
  ASSERT_TRUE(out.all_ok());
  EXPECT_EQ(registry.GetCounter("engine_pruning_eliminated_total")->Value(),
            out.stats.pruning_eliminated);
  EXPECT_GT(out.stats.pruning_eliminated, 0u);
}

TEST(BatchStatsHelpers, AverageRecall) {
  std::vector<std::vector<SearchResult>> truth = {
      {{1, 0.1}, {2, 0.2}}, {{3, 0.3}}, {}};
  std::vector<std::vector<SearchResult>> actual = {
      {{1, 0.1}}, {{4, 0.4}}, {}};
  // Query 0: 1/2, query 1: 0/1, query 2 (empty truth): 1.
  EXPECT_DOUBLE_EQ(AverageRecall(actual, truth), (0.5 + 0.0 + 1.0) / 3.0);
  EXPECT_DOUBLE_EQ(AverageRecall(truth, truth), 1.0);
}

}  // namespace
}  // namespace engine
}  // namespace distperm
