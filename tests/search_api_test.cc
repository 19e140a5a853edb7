// Unified Search() API tests.
//
// Search(SearchRequest) is the one query entry point of an index.  This
// file pins, for every one of the seven index structures, across
// metrics (kernel-tagged L2 over vectors and scalar Levenshtein over
// strings) and seeds:
//   - shim equivalence: a one-shard QueryEngine batch, a thin layer over
//     the shard's Search, answers bit-for-bit like Search itself,
//     results and distance counts alike;
//   - central validation: invalid requests (k = 0, negative/NaN radius,
//     NaN coordinates, out-of-range fractions) are rejected with
//     InvalidArgument at zero cost;
//   - kNN-within-radius: the new mode equals the range answer truncated
//     to k for exact indexes;
//   - distance budgets: truncated = true with the budget respected, and
//     no cost-model perturbation when the budget does not bind.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dataset/string_gen.h"
#include "dataset/vector_gen.h"
#include "engine/query_engine.h"
#include "engine/sharded_database.h"
#include "index/linear_scan.h"
#include "index/registry.h"
#include "metric/lp.h"
#include "metric/string_metrics.h"
#include "util/rng.h"

namespace distperm {
namespace index {
namespace {

using metric::Vector;

metric::Metric<Vector> L2() { return metric::LpMetric::L2(); }

// The seven structures (distperm at full fraction, so every index is
// exact and must agree with the linear scan).
const char* kExactSpecs[] = {
    "linear-scan", "aesa",    "iaesa:k=6",
    "laesa:k=8",   "vp-tree", "gh-tree",
    "distperm:k=8,fraction=1.0",
};

template <typename P>
std::vector<std::unique_ptr<SearchIndex<P>>> BuildAll(
    const std::vector<P>& data, const metric::Metric<P>& metric,
    uint64_t seed) {
  std::vector<std::unique_ptr<SearchIndex<P>>> indexes;
  for (const char* spec : kExactSpecs) {
    util::Rng rng(seed);
    auto built = Registry<P>::Global().Create(spec, data, metric, &rng);
    EXPECT_TRUE(built.ok()) << spec << ": " << built.status();
    indexes.push_back(std::move(built).value());
  }
  return indexes;
}

// Runs `batch` through a one-shard QueryEngine over each structure and
// expects every query's results and distance count to equal the
// shard's own Search response.
template <typename P>
void ExpectEngineMatchesSearch(const std::vector<P>& data,
                               const metric::Metric<P>& metric,
                               uint64_t seed,
                               const std::vector<SearchRequest<P>>& batch) {
  for (auto& built : BuildAll(data, metric, seed)) {
    std::shared_ptr<const SearchIndex<P>> shard(std::move(built));
    auto db = engine::ShardedDatabase<P>::FromShards({shard});
    engine::QueryEngine<P> engine(1);
    auto out = engine.RunBatch(db, batch);
    for (size_t q = 0; q < batch.size(); ++q) {
      SearchResponse direct = shard->Search(batch[q]);
      EXPECT_TRUE(direct.status.ok()) << shard->name();
      EXPECT_FALSE(direct.truncated) << shard->name();
      EXPECT_EQ(out.results[q], direct.results)
          << shard->name() << " query " << q;
      EXPECT_EQ(out.per_query_distance_computations[q],
                direct.stats.distance_computations)
          << shard->name() << " query " << q;
    }
  }
}

class ShimEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ShimEquivalenceTest, VectorSpace) {
  const int seed = GetParam();
  util::Rng rng(21000 + seed);
  auto data = dataset::UniformCube(220, 3, &rng);
  std::vector<SearchRequest<Vector>> batch;
  for (int q = 0; q < 6; ++q) {
    Vector query(3);
    for (auto& coord : query) coord = rng.NextDouble(-0.2, 1.2);
    for (size_t k : {1u, 4u, 300u}) {
      batch.push_back(SearchRequest<Vector>::Knn(query, k));
    }
    for (double radius : {0.0, 0.15, 0.6}) {
      batch.push_back(SearchRequest<Vector>::Range(query, radius));
    }
  }
  ExpectEngineMatchesSearch(data, L2(), 600 + seed, batch);
}

TEST_P(ShimEquivalenceTest, StringSpace) {
  const int seed = GetParam();
  util::Rng rng(22000 + seed);
  auto words = dataset::DnaSequences(90, 4, 6, 14, 0.1, &rng);
  metric::Metric<std::string> lev((metric::LevenshteinMetric()));
  std::vector<SearchRequest<std::string>> batch;
  for (int q = 0; q < 5; ++q) {
    const std::string& query = words[rng.NextBounded(words.size())];
    batch.push_back(SearchRequest<std::string>::Knn(query, 5));
    batch.push_back(SearchRequest<std::string>::Range(query, 3.0));
  }
  ExpectEngineMatchesSearch(words, lev, 700 + seed, batch);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShimEquivalenceTest,
                         ::testing::Range(0, 3));

// kNN-within-radius must equal the range answer truncated to its k
// closest entries, for every exact index.
TEST(SearchApi, KnnWithinRadiusMatchesTruncatedRange) {
  util::Rng rng(23);
  auto data = dataset::UniformCube(250, 3, &rng);
  auto indexes = BuildAll(data, L2(), 80);
  for (int q = 0; q < 8; ++q) {
    Vector query(3);
    for (auto& coord : query) coord = rng.NextDouble();
    for (const auto& index : indexes) {
      for (double radius : {0.05, 0.25, 0.7}) {
        for (size_t k : {1u, 5u, 400u}) {
          auto expected =
              index->Search(SearchRequest<Vector>::Range(query, radius))
                  .results;
          if (expected.size() > k) expected.resize(k);
          auto response = index->Search(
              SearchRequest<Vector>::KnnWithinRadius(query, k, radius));
          EXPECT_TRUE(response.status.ok()) << index->name();
          EXPECT_EQ(response.results, expected)
              << index->name() << " k=" << k << " radius=" << radius;
        }
      }
    }
  }
}

// Invalid requests come back as InvalidArgument from every index and
// cost zero metric evaluations.
TEST(SearchApi, InvalidRequestsRejectedCentrally) {
  util::Rng rng(24);
  auto data = dataset::UniformCube(60, 2, &rng);
  auto indexes = BuildAll(data, L2(), 81);
  const Vector ok_point = {0.5, 0.5};
  const double nan = std::numeric_limits<double>::quiet_NaN();

  std::vector<SearchRequest<Vector>> bad = {
      SearchRequest<Vector>::Knn(ok_point, 0),
      SearchRequest<Vector>::KnnWithinRadius(ok_point, 0, 0.5),
      SearchRequest<Vector>::Range(ok_point, -0.25),
      SearchRequest<Vector>::Range(ok_point, nan),
      SearchRequest<Vector>::KnnWithinRadius(ok_point, 3, -1.0),
      SearchRequest<Vector>::Knn({0.5, nan}, 3),
      SearchRequest<Vector>::Range({nan, 0.5}, 0.5),
      SearchRequest<Vector>::Knn(ok_point, 3).WithCandidateFraction(1.5),
      SearchRequest<Vector>::Knn(ok_point, 3).WithCandidateFraction(-0.1),
      SearchRequest<Vector>::Knn(ok_point, 3).WithCandidateFraction(nan),
      SearchRequest<Vector>::Knn({0.5, 0.5, 0.5}, 3),  // wrong dimension
      SearchRequest<Vector>::Range({0.5}, 0.5),
  };
  for (const auto& index : indexes) {
    for (size_t b = 0; b < bad.size(); ++b) {
      auto response = index->Search(bad[b]);
      EXPECT_EQ(response.status.code(), util::StatusCode::kInvalidArgument)
          << index->name() << " case " << b << ": " << response.status;
      EXPECT_TRUE(response.results.empty()) << index->name();
      EXPECT_EQ(response.stats.distance_computations, 0u) << index->name();
      EXPECT_FALSE(response.truncated);
    }
  }
}

// A binding distance budget truncates: the response is flagged, the
// budget is respected, and a non-binding budget changes nothing — the
// exact paths' accounting is identical to an unbudgeted request.
TEST(SearchApi, DistanceBudgetTruncates) {
  util::Rng rng(25);
  auto data = dataset::UniformCube(300, 3, &rng);
  auto indexes = BuildAll(data, L2(), 82);
  Vector query = {0.4, 0.6, 0.2};
  for (const auto& index : indexes) {
    auto full = index->Search(SearchRequest<Vector>::Knn(query, 5));
    ASSERT_TRUE(full.status.ok());
    EXPECT_FALSE(full.truncated);
    ASSERT_GT(full.stats.distance_computations, 4u) << index->name();

    // Binding budget: fewer evaluations than the full search needs.
    const uint64_t budget = full.stats.distance_computations / 2;
    auto truncated = index->Search(
        SearchRequest<Vector>::Knn(query, 5).WithDistanceBudget(budget));
    ASSERT_TRUE(truncated.status.ok()) << index->name();
    EXPECT_TRUE(truncated.truncated) << index->name();
    EXPECT_LE(truncated.stats.distance_computations, budget)
        << index->name();

    // Non-binding budget: bit-identical to the unbudgeted search.
    auto unbound = index->Search(SearchRequest<Vector>::Knn(query, 5)
                                     .WithDistanceBudget(
                                         full.stats.distance_computations +
                                         1000));
    EXPECT_FALSE(unbound.truncated) << index->name();
    EXPECT_EQ(unbound.results, full.results) << index->name();
    EXPECT_EQ(unbound.stats.distance_computations,
              full.stats.distance_computations)
        << index->name();
  }
}

// The linear scan spends its budget exactly, on both the scalar path
// (strings) and the blocked flat path (vectors): a budget of B costs
// exactly B evaluations.
TEST(SearchApi, LinearScanBudgetIsExact) {
  util::Rng rng(26);
  auto data = dataset::UniformCube(700, 4, &rng);
  LinearScanIndex<Vector> flat(data, L2());
  auto words = dataset::DnaSequences(150, 4, 6, 12, 0.1, &rng);
  metric::Metric<std::string> lev((metric::LevenshteinMetric()));
  LinearScanIndex<std::string> scalar(words, lev);

  for (uint64_t budget : {1u, 100u, 300u, 555u}) {
    auto response = flat.Search(SearchRequest<Vector>::Knn({0.5, 0.5, 0.5,
                                                            0.5},
                                                           3)
                                    .WithDistanceBudget(budget));
    ASSERT_TRUE(response.status.ok());
    EXPECT_TRUE(response.truncated) << budget;
    EXPECT_EQ(response.stats.distance_computations, budget);
  }
  for (uint64_t budget : {1u, 42u, 149u}) {
    auto response = scalar.Search(
        SearchRequest<std::string>::Knn(words[0], 3)
            .WithDistanceBudget(budget));
    ASSERT_TRUE(response.status.ok());
    EXPECT_TRUE(response.truncated) << budget;
    EXPECT_EQ(response.stats.distance_computations, budget);
  }
  // A budget of exactly n completes the scan: nothing remains, so the
  // scan is not truncated.
  auto exact = flat.Search(SearchRequest<Vector>::Knn({0.1, 0.2, 0.3, 0.4},
                                                      3)
                               .WithDistanceBudget(data.size()));
  EXPECT_FALSE(exact.truncated);
  EXPECT_EQ(exact.stats.distance_computations, data.size());
  EXPECT_EQ(exact.results,
            flat.Search(SearchRequest<Vector>::Knn({0.1, 0.2, 0.3, 0.4}, 3))
                .results);
}

// approx_candidate_fraction overrides the distperm index's configured
// verification fraction per request: forcing 1.0 on an index built at
// fraction 0.05 yields the exact answer, and the default behavior is
// untouched afterwards.
TEST(SearchApi, CandidateFractionOverridesDistPermDefault) {
  util::Rng rng(27);
  auto data = dataset::UniformCube(500, 3, &rng);
  util::Rng site_rng(28);
  auto built = Registry<Vector>::Global().Create(
      "distperm:k=10,fraction=0.05", data, L2(), &site_rng);
  ASSERT_TRUE(built.ok()) << built.status();
  auto& index = *built.value();
  LinearScanIndex<Vector> reference(data, L2());
  for (int q = 0; q < 6; ++q) {
    Vector query(3);
    for (auto& coord : query) coord = rng.NextDouble();
    auto exact = index.Search(
        SearchRequest<Vector>::Knn(query, 5).WithCandidateFraction(1.0));
    ASSERT_TRUE(exact.status.ok());
    EXPECT_EQ(exact.results,
              reference.Search(SearchRequest<Vector>::Knn(query, 5)).results);
    // The per-request override must not stick: the default fraction
    // verifies ~5% of the database, far fewer evaluations than exact.
    auto defaulted = index.Search(SearchRequest<Vector>::Knn(query, 5));
    ASSERT_TRUE(defaulted.status.ok());
    EXPECT_LT(defaulted.stats.distance_computations,
              exact.stats.distance_computations / 2);
  }
}

// The pooled per-thread collector must not leak state between
// consecutive searches with different k on the same thread.
TEST(SearchApi, PooledCollectorIsResetBetweenQueries) {
  util::Rng rng(29);
  auto data = dataset::UniformCube(120, 2, &rng);
  LinearScanIndex<Vector> scan(data, L2());
  Vector query = {0.3, 0.8};
  auto big = scan.Search(SearchRequest<Vector>::Knn(query, 50));
  auto small = scan.Search(SearchRequest<Vector>::Knn(query, 2));
  auto big_again = scan.Search(SearchRequest<Vector>::Knn(query, 50));
  EXPECT_EQ(big.results, big_again.results);
  EXPECT_EQ(small.results.size(), 2u);
  EXPECT_EQ(small.results,
            std::vector<SearchResult>(big.results.begin(),
                                      big.results.begin() + 2));
}

}  // namespace
}  // namespace index
}  // namespace distperm
