// Cooperative cross-shard kNN pruning, split distance budgets, and
// parallel shard construction.
//
// The contracts pinned here: (1) cooperative scheduling (shared k-th
// distance bound, optionally seed-shard-first) returns merged results
// bit-identical to the independent fan-out — and to a single exact
// index — while never increasing the batch's total distance
// computations; (2) split_distance_budget bounds a budgeted query's
// total cost by the budget, not shards x budget; (3) parallel builds
// are deterministic: (data, spec, shard_count, seed) fixes the database
// bit-for-bit no matter how many build threads run; (4) the vectorized
// AESA matrix build matches the scalar pairwise loop bit-exactly;
// (5) a valid initial_radius_bound hint keeps results identical while
// only ever removing distance computations.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dataset/string_gen.h"
#include "dataset/vector_gen.h"
#include "engine/query.h"
#include "engine/query_engine.h"
#include "engine/sharded_database.h"
#include "index/aesa.h"
#include "index/laesa.h"
#include "index/linear_scan.h"
#include "index/vp_tree.h"
#include "metric/lp.h"
#include "metric/string_metrics.h"
#include "util/rng.h"

namespace distperm {
namespace engine {
namespace {

using index::LinearScanIndex;
using index::SearchRequest;
using index::SearchResult;
using index::ShardScheduling;
using metric::Metric;
using metric::Vector;

Metric<Vector> L2() { return metric::LpMetric::L2(); }

std::vector<QuerySpec<Vector>> KnnBatch(size_t count, size_t dim, size_t k,
                                        util::Rng* rng) {
  std::vector<QuerySpec<Vector>> batch;
  for (size_t q = 0; q < count; ++q) {
    Vector point(dim);
    for (double& c : point) c = rng->NextDouble();
    batch.push_back(QuerySpec<Vector>::Knn(point, k));
  }
  return batch;
}

/// Queries drawn near database points: the regime where a k-th-distance
/// bound has real pruning power (a uniform high-dimensional workload
/// defeats every metric index, bound or no bound).
std::vector<QuerySpec<Vector>> NearDataKnnBatch(
    const std::vector<Vector>& data, size_t count, size_t k,
    util::Rng* rng) {
  std::vector<QuerySpec<Vector>> batch;
  for (size_t q = 0; q < count; ++q) {
    Vector point = data[rng->NextBounded(data.size())];
    for (double& c : point) c += rng->NextDouble(-0.005, 0.005);
    batch.push_back(QuerySpec<Vector>::Knn(point, k));
  }
  return batch;
}

std::vector<QuerySpec<Vector>> WithScheduling(
    std::vector<QuerySpec<Vector>> batch, ShardScheduling policy) {
  for (auto& spec : batch) spec.shard_scheduling = policy;
  return batch;
}

uint64_t TotalDistances(
    const typename QueryEngine<Vector>::BatchOutput& out) {
  return out.stats.distance_computations;
}

TEST(SharedSearchBound, StartsUnboundedAndOnlyDecreases) {
  index::SharedSearchBound bound;
  EXPECT_EQ(bound.Load(), std::numeric_limits<double>::infinity());
  bound.UpdateMin(3.0);
  EXPECT_EQ(bound.Load(), 3.0);
  bound.UpdateMin(5.0);  // larger: no effect
  EXPECT_EQ(bound.Load(), 3.0);
  bound.UpdateMin(1.5);
  EXPECT_EQ(bound.Load(), 1.5);
  bound.Reset();
  EXPECT_EQ(bound.Load(), std::numeric_limits<double>::infinity());
  // Padded to a cache line so engine bound arrays never false-share.
  EXPECT_EQ(sizeof(index::SharedSearchBound) % 64, 0u);
}

TEST(SharedSearchBound, ConcurrentUpdatesKeepTheMinimum) {
  index::SharedSearchBound bound;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&bound, t]() {
      for (int i = 999; i >= 0; --i) {
        bound.UpdateMin(static_cast<double>(i * 4 + t));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bound.Load(), 0.0);
}

// The tentpole contract: cooperative scheduling changes which distances
// are evaluated, never which neighbours come back.  Merged results must
// be bit-identical to the independent fan-out and to a single exact
// index, across index types, shard counts, thread counts, and seeds.
TEST(CooperativePruning, MergedResultsBitIdenticalToIndependent) {
  const std::vector<std::string> specs = {"linear-scan", "vp-tree",
                                          "laesa:k=6", "aesa"};
  for (uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(4000 + seed);
    auto data = dataset::UniformCube(360, 4, &rng);
    auto batch = KnnBatch(10, 4, 7, &rng);
    // A couple of non-uniform k values and one range query (policies
    // must leave range untouched).
    batch[1].k = 1;
    batch[2].k = 23;
    batch.push_back(QuerySpec<Vector>::Range(batch[0].point, 0.3));

    LinearScanIndex<Vector> scan(data, L2());
    std::vector<std::vector<SearchResult>> truth;
    for (const auto& spec : batch) {
      truth.push_back(scan.Search(spec).results);
    }

    for (const std::string& spec : specs) {
      for (size_t shards : {1u, 2u, 5u, 8u}) {
        auto built = ShardedDatabase<Vector>::BuildFromRegistry(
            data, L2(), shards, spec, seed);
        ASSERT_TRUE(built.ok()) << spec;
        const ShardedDatabase<Vector>& db = built.value();
        for (size_t threads : {1u, 4u}) {
          QueryEngine<Vector> engine(&db, threads);
          for (ShardScheduling policy :
               {ShardScheduling::kCooperative, ShardScheduling::kSeedFirst}) {
            auto out = engine.RunBatch(WithScheduling(batch, policy));
            ASSERT_TRUE(out.all_ok());
            for (size_t q = 0; q < batch.size(); ++q) {
              EXPECT_EQ(out.results[q], truth[q])
                  << spec << " shards=" << shards << " threads=" << threads
                  << " policy=" << index::ShardSchedulingName(policy)
                  << " query=" << q << " seed=" << seed;
            }
          }
        }
      }
    }
  }
}

TEST(CooperativePruning, StringsUnderLevenshtein) {
  util::Rng rng(88);
  auto words = dataset::DnaSequences(150, 4, 6, 16, 0.1, &rng);
  Metric<std::string> lev((metric::LevenshteinMetric()));
  std::vector<QuerySpec<std::string>> batch;
  for (int q = 0; q < 8; ++q) {
    batch.push_back(QuerySpec<std::string>::Knn(
        words[rng.NextBounded(words.size())], 5));
    batch.back().shard_scheduling = q % 2 == 0
                                        ? ShardScheduling::kCooperative
                                        : ShardScheduling::kSeedFirst;
  }
  LinearScanIndex<std::string> scan(words, lev);
  auto built = ShardedDatabase<std::string>::BuildFromRegistry(
      words, lev, 5, "vp-tree", 9);
  ASSERT_TRUE(built.ok());
  QueryEngine<std::string> engine(&built.value(), 4);
  auto out = engine.RunBatch(batch);
  ASSERT_TRUE(out.all_ok());
  for (size_t q = 0; q < batch.size(); ++q) {
    EXPECT_EQ(out.results[q], scan.Search(batch[q]).results) << q;
  }
}

// The perf contract: sharing the bound can only remove work.  With a
// single engine thread the execution is deterministic (shard tasks run
// in submission order), so the comparison is exact; pruning indexes
// must show a real reduction at high shard counts, where the naive
// fan-out repeats the pruning-free startup cost per shard.
TEST(CooperativePruning, NeverIncreasesTotalDistanceComputations) {
  util::Rng rng(55);
  auto data = dataset::ClusteredCloud(960, 16, 16, 0.01, &rng);
  auto batch = NearDataKnnBatch(data, 16, 10, &rng);
  const std::vector<std::string> pruning_specs = {"vp-tree", "laesa:k=8",
                                                  "aesa"};
  for (const std::string& spec : pruning_specs) {
    for (size_t shards : {4u, 8u}) {
      auto built = ShardedDatabase<Vector>::BuildFromRegistry(
          data, L2(), shards, spec, 7);
      ASSERT_TRUE(built.ok()) << spec;
      QueryEngine<Vector> engine(&built.value(), 1);
      const uint64_t naive = TotalDistances(engine.RunBatch(
          WithScheduling(batch, ShardScheduling::kIndependent)));
      const uint64_t cooperative = TotalDistances(engine.RunBatch(
          WithScheduling(batch, ShardScheduling::kCooperative)));
      const uint64_t seed_first = TotalDistances(engine.RunBatch(
          WithScheduling(batch, ShardScheduling::kSeedFirst)));
      EXPECT_LE(cooperative, naive) << spec << " shards=" << shards;
      EXPECT_LE(seed_first, naive) << spec << " shards=" << shards;
      if (shards == 8) {
        // At 8 shards the pruning indexes must save at least 20%.
        EXPECT_LT(cooperative, naive - naive / 5)
            << spec << ": cooperative=" << cooperative
            << " naive=" << naive;
        EXPECT_LT(seed_first, naive - naive / 5)
            << spec << ": seed_first=" << seed_first << " naive=" << naive;
      }
    }
  }
}

// Multi-threaded cooperative runs have scheduling-dependent distance
// counts (documented in query_engine.h; the deterministic 1-thread
// test above gates the saving), but results must stay exact whatever
// the interleaving — the bound is only ever a valid over-estimate of
// the global k-th distance.
TEST(CooperativePruning, ConcurrentCooperativeRunsStayExact) {
  util::Rng rng(56);
  auto data = dataset::ClusteredCloud(960, 16, 16, 0.01, &rng);
  auto batch = NearDataKnnBatch(data, 16, 10, &rng);
  const std::vector<std::string> pruning_specs = {"vp-tree", "laesa:k=8"};
  for (const std::string& spec : pruning_specs) {
    auto built = ShardedDatabase<Vector>::BuildFromRegistry(data, L2(), 8,
                                                            spec, 7);
    ASSERT_TRUE(built.ok()) << spec;
    QueryEngine<Vector> engine(&built.value(), 4);
    const auto naive = engine.RunBatch(
        WithScheduling(batch, ShardScheduling::kIndependent));
    for (int round = 0; round < 3; ++round) {
      const auto cooperative = engine.RunBatch(
          WithScheduling(batch, ShardScheduling::kCooperative));
      EXPECT_EQ(cooperative.results, naive.results)
          << spec << " round=" << round;
    }
  }
}

TEST(SplitBudget, TotalCostBoundedByTheBudgetItself) {
  util::Rng rng(57);
  const size_t n = 240;
  auto data = dataset::UniformCube(n, 2, &rng);
  const size_t shards = 3;
  auto built = ShardedDatabase<Vector>::BuildFromRegistry(
      data, L2(), shards, "linear-scan", 7);
  ASSERT_TRUE(built.ok());
  QueryEngine<Vector> engine(&built.value(), 2);

  const uint64_t budget = 20;
  std::vector<QuerySpec<Vector>> batch = {
      // Split: the engine ceil-divides (7, 7, 6) and the total cost is
      // exactly the budget.
      QuerySpec<Vector>::Knn({0.4, 0.4}, 3)
          .WithDistanceBudget(budget)
          .WithSplitDistanceBudget(),
      // Naive (default): every shard gets the full budget.
      QuerySpec<Vector>::Knn({0.4, 0.4}, 3).WithDistanceBudget(budget),
      // Split budget below the shard count: starved shards spend
      // nothing and the total still equals the budget.
      QuerySpec<Vector>::Knn({0.4, 0.4}, 3)
          .WithDistanceBudget(2)
          .WithSplitDistanceBudget(),
      // Split budget large enough for every slice: exact answer, no
      // truncation, exact n evaluations.
      QuerySpec<Vector>::Knn({0.4, 0.4}, 3)
          .WithDistanceBudget(10 * n)
          .WithSplitDistanceBudget(),
  };
  auto out = engine.RunBatch(batch);
  ASSERT_TRUE(out.all_ok());
  EXPECT_EQ(out.per_query_distance_computations[0], budget);
  EXPECT_TRUE(out.truncated[0]);
  EXPECT_EQ(out.per_query_distance_computations[1], budget * shards);
  EXPECT_TRUE(out.truncated[1]);
  EXPECT_EQ(out.per_query_distance_computations[2], 2u);
  EXPECT_TRUE(out.truncated[2]);
  EXPECT_EQ(out.per_query_distance_computations[3], n);
  EXPECT_FALSE(out.truncated[3]);
  LinearScanIndex<Vector> scan(data, L2());
  EXPECT_EQ(out.results[3],
            scan.Search(SearchRequest<Vector>::Knn({0.4, 0.4}, 3)).results);
}

// (data, spec, shard_count, seed) pins the database bit-for-bit: the
// number of build threads may only change how fast it is built.
TEST(ParallelBuild, RegistryBuildsAreDeterministicAcrossThreadCounts) {
  util::Rng rng(58);
  auto data = dataset::UniformCube(320, 8, &rng);
  auto batch = KnnBatch(8, 8, 6, &rng);
  const std::vector<std::string> specs = {
      "vp-tree", "gh-tree", "laesa:k=6", "aesa",
      "distperm:k=6,fraction=0.3"};
  for (const std::string& spec : specs) {
    for (size_t shards : {3u, 5u}) {
      auto serial = ShardedDatabase<Vector>::BuildFromRegistry(
          data, L2(), shards, spec, 11, /*build_threads=*/1);
      auto parallel = ShardedDatabase<Vector>::BuildFromRegistry(
          data, L2(), shards, spec, 11, /*build_threads=*/4);
      ASSERT_TRUE(serial.ok() && parallel.ok()) << spec;
      EXPECT_EQ(serial.value().IndexBits(), parallel.value().IndexBits())
          << spec;
      EXPECT_EQ(serial.value().build_distance_computations(),
                parallel.value().build_distance_computations())
          << spec;
      QueryEngine<Vector> serial_engine(&serial.value(), 1);
      QueryEngine<Vector> parallel_engine(&parallel.value(), 1);
      auto a = serial_engine.RunBatch(batch);
      auto b = parallel_engine.RunBatch(batch);
      EXPECT_EQ(a.results, b.results) << spec << " shards=" << shards;
      EXPECT_EQ(a.per_query_distance_computations,
                b.per_query_distance_computations)
          << spec << " shards=" << shards;
    }
  }
}

TEST(ParallelBuild, FactoryPathBuildsConcurrentlyAndSlicesByMove) {
  util::Rng rng(59);
  auto data = dataset::UniformCube(103, 2, &rng);  // not divisible by 4
  auto factory = [](std::vector<Vector> shard_data,
                    const Metric<Vector>& metric, size_t) {
    return std::make_unique<LinearScanIndex<Vector>>(std::move(shard_data),
                                                     metric);
  };
  // Moved-in data slices by element moves; the shards must still cover
  // every point in order, identically to a copied build.
  std::vector<Vector> copy = data;
  auto moved =
      ShardedDatabase<Vector>::Build(std::move(copy), L2(), 4, factory,
                                     /*build_threads=*/4);
  auto copied = ShardedDatabase<Vector>::Build(data, L2(), 4, factory);
  ASSERT_EQ(moved.shard_count(), 4u);
  EXPECT_EQ(moved.size(), data.size());
  size_t covered = 0;
  for (size_t s = 0; s < moved.shard_count(); ++s) {
    EXPECT_EQ(moved.shard_offset(s), covered);
    EXPECT_EQ(moved.shard(s).size(), copied.shard(s).size());
    for (size_t i = 0; i < moved.shard(s).size(); ++i) {
      EXPECT_EQ(moved.shard(s).points().Point(i), data[covered + i]);
    }
    covered += moved.shard(s).size();
  }
  EXPECT_EQ(covered, data.size());
}

// The block-kernel AESA matrix build must be bit-identical to the
// scalar pairwise loop (the same contract the flat-path tests pin for
// LAESA's pivot table).
TEST(VectorizedBuild, AesaMatrixMatchesScalarMetricBuild) {
  util::Rng rng(60);
  auto data = dataset::UniformCube(120, 8, &rng);
  Metric<Vector> tagged(metric::LpMetric::L2());
  Metric<Vector> untagged(tagged.name(),
                          [tagged](const Vector& a, const Vector& b) {
                            return tagged(a, b);
                          });
  index::AesaIndex<Vector> flat(data, tagged);
  index::AesaIndex<Vector> scalar(data, untagged);
  EXPECT_EQ(flat.build_distance_computations(),
            scalar.build_distance_computations());
  EXPECT_EQ(flat.build_distance_computations(),
            data.size() * (data.size() - 1) / 2);
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t j = 0; j < data.size(); ++j) {
      ASSERT_EQ(flat.StoredDistance(i, j), scalar.StoredDistance(i, j))
          << i << "," << j;
    }
  }
  util::Rng query_rng(61);
  for (int q = 0; q < 6; ++q) {
    Vector point(8);
    for (double& c : point) c = query_rng.NextDouble();
    const auto request = SearchRequest<Vector>::Knn(point, 5);
    EXPECT_EQ(flat.Search(request).results, scalar.Search(request).results);
  }
}

// A valid upper bound on the k-th distance keeps results identical and
// only ever removes metric evaluations; a bogus bound is rejected.
TEST(InitialRadiusBound, ValidHintIsExactAndNeverCostsMore) {
  util::Rng rng(62);
  auto data = dataset::UniformCube(400, 6, &rng);
  LinearScanIndex<Vector> scan(data, L2());
  util::Rng laesa_rng(63), vp_rng(64);
  index::LaesaIndex<Vector> laesa(data, L2(), 8, &laesa_rng);
  index::VpTreeIndex<Vector> vp(data, L2(), &vp_rng);
  const index::SearchIndex<Vector>* indexes[] = {&laesa, &vp};

  uint64_t plain_total = 0;
  uint64_t hinted_total = 0;
  for (int q = 0; q < 12; ++q) {
    Vector point(6);
    for (double& c : point) c = rng.NextDouble();
    const auto truth =
        scan.Search(SearchRequest<Vector>::Knn(point, 10)).results;
    const double kth = truth.back().distance;
    for (const auto* index : indexes) {
      auto plain = index->Search(SearchRequest<Vector>::Knn(point, 10));
      auto hinted = index->Search(SearchRequest<Vector>::Knn(point, 10)
                                      .WithInitialRadiusBound(kth));
      ASSERT_TRUE(plain.status.ok() && hinted.status.ok());
      EXPECT_EQ(hinted.results, plain.results) << index->name() << " " << q;
      EXPECT_EQ(hinted.results, truth) << index->name() << " " << q;
      EXPECT_LE(hinted.stats.distance_computations,
                plain.stats.distance_computations)
          << index->name() << " " << q;
      plain_total += plain.stats.distance_computations;
      hinted_total += hinted.stats.distance_computations;
    }
  }
  // Across the workload the hint must actually prune.
  EXPECT_LT(hinted_total, plain_total);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(laesa.Search(SearchRequest<Vector>::Knn(data[0], 3)
                             .WithInitialRadiusBound(nan))
                .status.code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(laesa.Search(SearchRequest<Vector>::Knn(data[0], 3)
                             .WithInitialRadiusBound(-0.5))
                .status.code(),
            util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace engine
}  // namespace distperm
