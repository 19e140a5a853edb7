// Tests for the truncated (prefix) variant of the permutation index and
// the prefix footrule.

#include <gtest/gtest.h>

#include "core/perm_metrics.h"
#include "dataset/vector_gen.h"
#include "index/distperm_index.h"
#include "index/linear_scan.h"
#include "metric/lp.h"
#include "util/rng.h"

namespace distperm {
namespace index {
namespace {

using core::Permutation;
using metric::Vector;

metric::Metric<Vector> L2() { return metric::LpMetric::L2(); }

TEST(PrefixFootrule, EqualPrefixesAreZero) {
  EXPECT_EQ(core::PrefixFootrule({0, 1}, {0, 1}, 5), 0);
  EXPECT_EQ(core::PrefixFootrule({}, {}, 5), 0);
}

TEST(PrefixFootrule, MatchesFullFootruleAtFullLength) {
  util::Rng rng(1);
  for (int t = 0; t < 30; ++t) {
    size_t k = 2 + rng.NextBounded(8);
    Permutation a(k), b(k);
    std::iota(a.begin(), a.end(), 0);
    std::iota(b.begin(), b.end(), 0);
    rng.Shuffle(&a);
    rng.Shuffle(&b);
    EXPECT_EQ(core::PrefixFootrule(a, b, k), core::SpearmanFootrule(a, b));
  }
}

TEST(PrefixFootrule, DisjointPrefixesKnownValue) {
  // k = 4, prefixes {0,1} vs {2,3}: every site is at rank 2 (missing) in
  // one prefix and at 0 or 1 in the other: |0-2|+|1-2| twice = 6.
  EXPECT_EQ(core::PrefixFootrule({0, 1}, {2, 3}, 4), 6);
}

TEST(PrefixFootrule, SwapWithinPrefix) {
  EXPECT_EQ(core::PrefixFootrule({0, 1}, {1, 0}, 4), 2);
}

TEST(PrefixFootrule, SymmetricAndTriangle) {
  util::Rng rng(2);
  const size_t k = 7, m = 3;
  std::vector<Permutation> prefixes;
  for (int i = 0; i < 10; ++i) {
    Permutation full(k);
    std::iota(full.begin(), full.end(), 0);
    rng.Shuffle(&full);
    full.resize(m);
    prefixes.push_back(full);
  }
  for (const auto& a : prefixes) {
    for (const auto& b : prefixes) {
      EXPECT_EQ(core::PrefixFootrule(a, b, k),
                core::PrefixFootrule(b, a, k));
      for (const auto& c : prefixes) {
        EXPECT_LE(core::PrefixFootrule(a, c, k),
                  core::PrefixFootrule(a, b, k) +
                      core::PrefixFootrule(b, c, k));
      }
    }
  }
}

TEST(DistPermPrefix, StoresPrefixesOnly) {
  util::Rng rng(3), site_rng(4);
  auto data = dataset::UniformCube(300, 3, &rng);
  DistPermIndex<Vector> index(data, L2(), 10, &site_rng, 0.5,
                              /*prefix_length=*/4);
  EXPECT_EQ(index.prefix_length(), 4u);
  EXPECT_EQ(index.name(), "distperm-prefix");
  const metric::Metric<Vector> l2 = L2();
  std::vector<double> distances(index.sites().size());
  const std::vector<core::Permutation> stored = index.StoredPermutations();
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t j = 0; j < distances.size(); ++j) {
      distances[j] = l2(index.sites()[j], data[i]);
    }
    EXPECT_EQ(stored[i], core::PermutationPrefixFromDistances(distances, 4))
        << i;
  }
  // A table row keeps one rank byte per site, prefix or not; then the
  // 16-byte kernel tail, N + 1 row offsets and one id per point.
  const uint64_t rows = index.DistinctPermutationCount();
  EXPECT_EQ(index.IndexBits(),
            8u * (rows * 10u + 16u + 4u * (rows + 1u) + 4u * 300u));
}

TEST(DistPermPrefix, PrefixConsistentWithFullIndex) {
  util::Rng rng(5), r1(6), r2(6);
  auto data = dataset::UniformCube(400, 3, &rng);
  DistPermIndex<Vector> full(data, L2(), 8, &r1, 1.0);
  DistPermIndex<Vector> truncated(data, L2(), 8, &r2, 1.0,
                                  /*prefix_length=*/3);
  // Same site RNG seed => same sites; the stored prefix must equal the
  // first entries of the full permutation.
  const std::vector<core::Permutation> full_perms = full.StoredPermutations();
  const std::vector<core::Permutation> prefixes =
      truncated.StoredPermutations();
  for (size_t i = 0; i < data.size(); i += 23) {
    const core::Permutation& full_perm = full_perms[i];
    const core::Permutation& prefix = prefixes[i];
    ASSERT_EQ(prefix.size(), 3u);
    for (size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(prefix[r], full_perm[r]);
    }
  }
}

TEST(DistPermPrefix, ExactAtFullFraction) {
  util::Rng rng(7), site_rng(8);
  auto data = dataset::UniformCube(250, 2, &rng);
  DistPermIndex<Vector> index(data, L2(), 10, &site_rng, 1.0,
                              /*prefix_length=*/4);
  LinearScanIndex<Vector> reference(data, L2());
  for (int q = 0; q < 8; ++q) {
    Vector query = {rng.NextDouble(), rng.NextDouble()};
    const auto request = SearchRequest<Vector>::Knn(query, 5);
    EXPECT_EQ(index.Search(request).results,
              reference.Search(request).results);
  }
}

TEST(DistPermPrefix, RecallDegradesGracefully) {
  util::Rng rng(9), r1(10), r2(10);
  auto data = dataset::UniformCube(2000, 3, &rng);
  DistPermIndex<Vector> full(data, L2(), 12, &r1, 0.1);
  DistPermIndex<Vector> truncated(data, L2(), 12, &r2, 0.1,
                                  /*prefix_length=*/4);
  LinearScanIndex<Vector> reference(data, L2());
  size_t full_hits = 0, prefix_hits = 0, total = 0;
  for (int q = 0; q < 15; ++q) {
    Vector query = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    const auto request = SearchRequest<Vector>::Knn(query, 10);
    auto truth = reference.Search(request).results;
    auto a = full.Search(request).results;
    auto b = truncated.Search(request).results;
    for (const auto& t : truth) {
      ++total;
      for (const auto& r : a) full_hits += r.id == t.id;
      for (const auto& r : b) prefix_hits += r.id == t.id;
    }
  }
  // The truncated index orders only each point's 4 closest sites but
  // must still beat random verification (which would land near
  // fraction = 0.1 recall).
  EXPECT_GT(static_cast<double>(prefix_hits) / total, 0.5);
  // And cannot beat the full-permutation ordering by much.
  EXPECT_LE(prefix_hits, full_hits + total / 10);
}

TEST(DistPermPrefix, DistinctCountsNeverExceedFullCounts) {
  util::Rng rng(11), r1(12), r2(12);
  auto data = dataset::UniformCube(1500, 2, &rng);
  DistPermIndex<Vector> full(data, L2(), 9, &r1, 0.1);
  DistPermIndex<Vector> truncated(data, L2(), 9, &r2, 0.1,
                                  /*prefix_length=*/3);
  // Truncation merges permutations, so the distinct count can only drop.
  EXPECT_LE(truncated.DistinctPermutationCount(),
            full.DistinctPermutationCount());
}

}  // namespace
}  // namespace index
}  // namespace distperm
