// Correctness tests for every search index: each exact index must return
// exactly what the linear scan returns, on vector and string spaces; the
// approximate permutation index must be exact at fraction = 1 and must
// degrade gracefully below it.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "dataset/string_gen.h"
#include "dataset/vector_gen.h"
#include "index/aesa.h"
#include "index/distperm_index.h"
#include "index/gh_tree.h"
#include "index/iaesa.h"
#include "index/laesa.h"
#include "index/linear_scan.h"
#include "index/vp_tree.h"
#include "metric/lp.h"
#include "metric/string_metrics.h"
#include "util/rng.h"

namespace distperm {
namespace index {
namespace {

using metric::Vector;

metric::Metric<Vector> L2() { return metric::LpMetric::L2(); }

// Builds every exact index over the same data.
std::vector<std::unique_ptr<SearchIndex<Vector>>> BuildExactVectorIndexes(
    const std::vector<Vector>& data, uint64_t seed) {
  std::vector<std::unique_ptr<SearchIndex<Vector>>> indexes;
  util::Rng r1(seed), r2(seed), r3(seed), r4(seed), r5(seed);
  indexes.push_back(std::make_unique<LinearScanIndex<Vector>>(data, L2()));
  indexes.push_back(std::make_unique<AesaIndex<Vector>>(data, L2()));
  indexes.push_back(
      std::make_unique<LaesaIndex<Vector>>(data, L2(), 8, &r1));
  indexes.push_back(
      std::make_unique<IaesaIndex<Vector>>(data, L2(), 6, &r2));
  indexes.push_back(std::make_unique<VpTreeIndex<Vector>>(data, L2(), &r3));
  indexes.push_back(std::make_unique<GhTreeIndex<Vector>>(data, L2(), &r4));
  return indexes;
}

class ExactIndexAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExactIndexAgreementTest, RangeQueriesMatchLinearScan) {
  auto [seed, dim] = GetParam();
  util::Rng rng(11000 + seed);
  auto data = dataset::UniformCube(300, static_cast<size_t>(dim), &rng);
  auto indexes = BuildExactVectorIndexes(data, 500 + seed);
  auto& reference = *indexes[0];
  for (int q = 0; q < 10; ++q) {
    Vector query(dim);
    for (auto& coord : query) coord = rng.NextDouble(-0.2, 1.2);
    for (double radius : {0.0, 0.05, 0.2, 0.5, 2.0}) {
      const auto request = SearchRequest<Vector>::Range(query, radius);
      auto expected = reference.Search(request).results;
      for (size_t i = 1; i < indexes.size(); ++i) {
        auto actual = indexes[i]->Search(request).results;
        EXPECT_EQ(actual, expected)
            << indexes[i]->name() << " radius=" << radius;
      }
    }
  }
}

TEST_P(ExactIndexAgreementTest, KnnQueriesMatchLinearScan) {
  auto [seed, dim] = GetParam();
  util::Rng rng(12000 + seed);
  auto data = dataset::UniformCube(250, static_cast<size_t>(dim), &rng);
  auto indexes = BuildExactVectorIndexes(data, 700 + seed);
  auto& reference = *indexes[0];
  for (int q = 0; q < 10; ++q) {
    Vector query(dim);
    for (auto& coord : query) coord = rng.NextDouble();
    for (size_t k : {1u, 3u, 10u, 250u, 500u}) {
      const auto request = SearchRequest<Vector>::Knn(query, k);
      auto expected = reference.Search(request).results;
      for (size_t i = 1; i < indexes.size(); ++i) {
        auto actual = indexes[i]->Search(request).results;
        EXPECT_EQ(actual, expected) << indexes[i]->name() << " k=" << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExactIndexAgreementTest,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(2, 5)));

TEST(ExactIndexes, AgreeOnStringSpace) {
  util::Rng rng(13);
  auto words = dataset::DnaSequences(120, 4, 6, 16, 0.1, &rng);
  metric::Metric<std::string> lev((metric::LevenshteinMetric()));
  LinearScanIndex<std::string> reference(words, lev);
  util::Rng r1(5), r2(5), r3(5);
  LaesaIndex<std::string> laesa(words, lev, 6, &r1);
  VpTreeIndex<std::string> vp(words, lev, &r2);
  GhTreeIndex<std::string> gh(words, lev, &r3);
  AesaIndex<std::string> aesa(words, lev);
  for (int q = 0; q < 8; ++q) {
    const std::string& query = words[rng.NextBounded(words.size())];
    for (double radius : {0.0, 2.0, 5.0}) {
      const auto range = SearchRequest<std::string>::Range(query, radius);
      auto expected = reference.Search(range).results;
      EXPECT_EQ(laesa.Search(range).results, expected);
      EXPECT_EQ(vp.Search(range).results, expected);
      EXPECT_EQ(gh.Search(range).results, expected);
      EXPECT_EQ(aesa.Search(range).results, expected);
    }
    const auto knn = SearchRequest<std::string>::Knn(query, 5);
    auto expected = reference.Search(knn).results;
    EXPECT_EQ(laesa.Search(knn).results, expected);
    EXPECT_EQ(vp.Search(knn).results, expected);
    EXPECT_EQ(gh.Search(knn).results, expected);
    EXPECT_EQ(aesa.Search(knn).results, expected);
  }
}

TEST(ExactIndexes, HandleDuplicatePoints) {
  std::vector<Vector> data(40, Vector{0.5, 0.5});
  for (int i = 0; i < 10; ++i) {
    data.push_back({0.1 * i, 0.2});
  }
  auto indexes = BuildExactVectorIndexes(data, 77);
  auto& reference = *indexes[0];
  Vector query = {0.5, 0.5};
  const auto range = SearchRequest<Vector>::Range(query, 0.0);
  const auto knn = SearchRequest<Vector>::Knn(query, 45);
  auto expected_range = reference.Search(range).results;
  EXPECT_EQ(expected_range.size(), 40u);
  auto expected_knn = reference.Search(knn).results;
  for (size_t i = 1; i < indexes.size(); ++i) {
    EXPECT_EQ(indexes[i]->Search(range).results, expected_range)
        << indexes[i]->name();
    EXPECT_EQ(indexes[i]->Search(knn).results, expected_knn)
        << indexes[i]->name();
  }
}

TEST(KnnCollectorTest, KeepsBestK) {
  KnnCollector collector(3);
  collector.Offer(0, 5.0);
  collector.Offer(1, 1.0);
  collector.Offer(2, 3.0);
  collector.Offer(3, 2.0);
  collector.Offer(4, 10.0);
  auto results = collector.Take();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].id, 1u);
  EXPECT_EQ(results[1].id, 3u);
  EXPECT_EQ(results[2].id, 2u);
}

TEST(KnnCollectorTest, TieBreaksTowardLowerId) {
  KnnCollector collector(2);
  collector.Offer(5, 1.0);
  collector.Offer(2, 1.0);
  collector.Offer(9, 1.0);
  auto results = collector.Take();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, 2u);
  EXPECT_EQ(results[1].id, 5u);
}

TEST(KnnCollectorTest, ZeroK) {
  KnnCollector collector(0);
  collector.Offer(1, 1.0);
  EXPECT_TRUE(collector.Take().empty());
}

TEST(DistPerm, ExactAtFullFraction) {
  util::Rng rng(14);
  auto data = dataset::UniformCube(200, 3, &rng);
  util::Rng site_rng(15);
  DistPermIndex<Vector> index(data, L2(), 8, &site_rng, /*fraction=*/1.0);
  LinearScanIndex<Vector> reference(data, L2());
  for (int q = 0; q < 10; ++q) {
    Vector query(3);
    for (auto& coord : query) coord = rng.NextDouble();
    const auto knn = SearchRequest<Vector>::Knn(query, 5);
    const auto range = SearchRequest<Vector>::Range(query, 0.3);
    EXPECT_EQ(index.Search(knn).results, reference.Search(knn).results);
    EXPECT_EQ(index.Search(range).results, reference.Search(range).results);
  }
}

TEST(DistPerm, ApproximateRecallReasonable) {
  util::Rng rng(16);
  auto data = dataset::UniformCube(2000, 3, &rng);
  util::Rng site_rng(17);
  DistPermIndex<Vector> index(data, L2(), 12, &site_rng, /*fraction=*/0.2);
  LinearScanIndex<Vector> reference(data, L2());
  size_t hits = 0, total = 0;
  for (int q = 0; q < 20; ++q) {
    Vector query(3);
    for (auto& coord : query) coord = rng.NextDouble();
    const auto request = SearchRequest<Vector>::Knn(query, 10);
    auto expected = reference.Search(request).results;
    auto actual = index.Search(request).results;
    for (const auto& e : expected) {
      ++total;
      for (const auto& a : actual) {
        if (a.id == e.id) {
          ++hits;
          break;
        }
      }
    }
  }
  // Permutation prefiltering at 20% of the database should recover well
  // over half of the true 10-NN on smooth data.
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(total), 0.6);
}

TEST(DistPerm, StorageIsOneTableRowPerDistinctPermutation) {
  util::Rng rng(18);
  auto data = dataset::UniformCube(100, 2, &rng);
  util::Rng site_rng(19);
  DistPermIndex<Vector> index(data, L2(), 5, &site_rng);
  // N rows of k rank bytes and the 16-byte kernel tail, N + 1 32-bit
  // row offsets, plus one 32-bit id per point; in the plane N stays
  // below n.
  const uint64_t rows = index.DistinctPermutationCount();
  EXPECT_LT(rows, 100u);
  EXPECT_EQ(index.IndexBits(),
            8u * (rows * 5u + 16u + 4u * (rows + 1u) + 4u * 100u));
}

TEST(DistPerm, StoredPermutationsMatchFreshComputation) {
  util::Rng rng(20);
  auto data = dataset::UniformCube(60, 2, &rng);
  util::Rng site_rng(21);
  DistPermIndex<Vector> index(data, L2(), 6, &site_rng);
  const metric::Metric<Vector> l2 = L2();
  const std::vector<core::Permutation> stored = index.StoredPermutations();
  ASSERT_EQ(stored.size(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(stored[i],
              core::ComputeDistancePermutation(index.sites(), l2, data[i]))
        << i;
  }
}

TEST(DistPerm, ExportRestoreRoundTripKeepsPermutations) {
  util::Rng rng(27);
  auto data = dataset::UniformCube(300, 3, &rng);
  util::Rng site_rng(28);
  DistPermIndex<Vector> built(data, L2(), 7, &site_rng);
  DistPermIndex<Vector> restored(data, L2(), built.ExportState());
  EXPECT_EQ(restored.build_distance_computations(), 0u);
  EXPECT_EQ(restored.IndexBits(), built.IndexBits());
  EXPECT_EQ(restored.DistinctPermutationCount(),
            built.DistinctPermutationCount());
  EXPECT_EQ(restored.StoredPermutations(), built.StoredPermutations());
}

TEST(DistPerm, DistinctCountMatchesDirectCount) {
  util::Rng rng(22);
  auto data = dataset::UniformCube(500, 2, &rng);
  util::Rng site_rng(23);
  DistPermIndex<Vector> index(data, L2(), 6, &site_rng);
  std::unordered_set<uint64_t> seen;
  for (const core::Permutation& perm : index.StoredPermutations()) {
    seen.insert(core::RankPermutation(perm));
  }
  EXPECT_EQ(index.DistinctPermutationCount(), seen.size());
}

TEST(Counters, QueryCostOrdering) {
  // AESA must use (far) fewer query distance computations than a linear
  // scan; LAESA sits in between; all exact indexes return the truth.
  util::Rng rng(24);
  auto data = dataset::UniformCube(400, 4, &rng);
  LinearScanIndex<Vector> scan(data, L2());
  AesaIndex<Vector> aesa(data, L2());
  util::Rng r1(25);
  LaesaIndex<Vector> laesa(data, L2(), 12, &r1);
  uint64_t scan_cost = 0, aesa_cost = 0, laesa_cost = 0;
  for (int q = 0; q < 20; ++q) {
    Vector query(4);
    for (auto& coord : query) coord = rng.NextDouble();
    const auto request = SearchRequest<Vector>::Knn(query, 5);
    SearchResponse expected = scan.Search(request);
    SearchResponse by_aesa = aesa.Search(request);
    SearchResponse by_laesa = laesa.Search(request);
    EXPECT_EQ(by_aesa.results, expected.results);
    EXPECT_EQ(by_laesa.results, expected.results);
    scan_cost += expected.stats.distance_computations;
    aesa_cost += by_aesa.stats.distance_computations;
    laesa_cost += by_laesa.stats.distance_computations;
  }
  EXPECT_LT(aesa_cost, scan_cost / 4);
  EXPECT_LT(laesa_cost, scan_cost);
  EXPECT_EQ(scan_cost, 20u * 400u);
}

TEST(Counters, BuildCostsAccounted) {
  util::Rng rng(26);
  auto data = dataset::UniformCube(100, 2, &rng);
  AesaIndex<Vector> aesa(data, L2());
  EXPECT_EQ(aesa.build_distance_computations(), 100u * 99u / 2u);
  LinearScanIndex<Vector> scan(data, L2());
  EXPECT_EQ(scan.build_distance_computations(), 0u);
}

TEST(Indexes, EmptyAndTinyDatabases) {
  std::vector<Vector> one = {{0.5, 0.5}};
  util::Rng r1(1), r2(2), r3(3);
  VpTreeIndex<Vector> vp(one, L2(), &r1);
  GhTreeIndex<Vector> gh(one, L2(), &r2);
  AesaIndex<Vector> aesa(one, L2());
  Vector query = {0.0, 0.0};
  for (auto* idx :
       std::initializer_list<SearchIndex<Vector>*>{&vp, &gh, &aesa}) {
    auto knn = idx->Search(SearchRequest<Vector>::Knn(query, 3)).results;
    ASSERT_EQ(knn.size(), 1u) << idx->name();
    EXPECT_EQ(knn[0].id, 0u);
    EXPECT_EQ(
        idx->Search(SearchRequest<Vector>::Range(query, 10.0)).results.size(),
        1u);
    EXPECT_TRUE(
        idx->Search(SearchRequest<Vector>::Range(query, 0.1)).results.empty());
  }
}

TEST(PivotSelect, MaxMinSpreadsPivots) {
  // On a line, max-min pivots should grab the extremes first.
  std::vector<Vector> data;
  for (int i = 0; i <= 100; ++i) {
    data.push_back({static_cast<double>(i)});
  }
  util::Rng rng(27);
  uint64_t budget = 0;
  auto pivots = MaxMinPivots(PointStore<Vector>(data, L2()), 3, &rng, &budget);
  ASSERT_EQ(pivots.size(), 3u);
  EXPECT_EQ(budget, 2u * data.size());
  // After the random first pivot, the farthest point is an endpoint.
  bool has_endpoint = false;
  for (size_t p : pivots) has_endpoint |= (p == 0 || p == 100);
  EXPECT_TRUE(has_endpoint);
  // All distinct.
  EXPECT_NE(pivots[0], pivots[1]);
  EXPECT_NE(pivots[1], pivots[2]);
  EXPECT_NE(pivots[0], pivots[2]);
}

}  // namespace
}  // namespace index
}  // namespace distperm
