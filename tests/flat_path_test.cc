// Equivalence tests for the flat blocked data path: every index that
// adopts it (linear scan, LAESA, distperm) must return bit-identical
// results AND bit-identical distance-computation counts to the scalar
// Metric<P> path.  The scalar path is forced by wrapping the same
// kernel-tagged metric in an untagged lambda Metric — the distance
// function is the very same code, only the index's data path changes.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/distance_permutation.h"
#include "core/perm_metrics.h"
#include "dataset/vector_gen.h"
#include "gtest/gtest.h"
#include "index/distperm_index.h"
#include "index/laesa.h"
#include "index/linear_scan.h"
#include "metric/cosine.h"
#include "metric/lp.h"
#include "util/rng.h"

namespace distperm {
namespace {

using index::DistPermIndex;
using index::LaesaIndex;
using index::LinearScanIndex;
using index::SearchRequest;
using index::SearchResponse;
using index::SearchResult;
using metric::Metric;
using metric::Vector;

// The same distance function with the kernel tag stripped: forces the
// index onto the scalar point-at-a-time path.
Metric<Vector> Untagged(const Metric<Vector>& tagged) {
  return Metric<Vector>(tagged.name(),
                        [tagged](const Vector& a, const Vector& b) {
                          return tagged(a, b);
                        });
}

std::vector<Metric<Vector>> TaggedMetrics() {
  return {Metric<Vector>(metric::LpMetric::L1()),
          Metric<Vector>(metric::LpMetric::L2()),
          Metric<Vector>(metric::LpMetric::LInf()),
          Metric<Vector>(metric::DenseAngleMetric())};
}

std::vector<Vector> QueryPoints(size_t count, size_t dim, util::Rng* rng) {
  std::vector<Vector> queries;
  for (size_t q = 0; q < count; ++q) {
    Vector p(dim);
    for (double& c : p) c = rng->NextDouble();
    queries.push_back(std::move(p));
  }
  return queries;
}

TEST(FlatPath, LinearScanMatchesScalarPathBitExactly) {
  for (size_t dim : {3u, 8u, 32u}) {
    util::Rng rng(100 + dim);
    auto data = dataset::UniformCube(400, dim, &rng);
    auto queries = QueryPoints(12, dim, &rng);
    for (const Metric<Vector>& tagged : TaggedMetrics()) {
      LinearScanIndex<Vector> flat(data, tagged);
      LinearScanIndex<Vector> scalar(data, Untagged(tagged));
      for (const Vector& q : queries) {
        SearchResponse by_flat = flat.Search(SearchRequest<Vector>::Knn(q, 7));
        SearchResponse by_scalar =
            scalar.Search(SearchRequest<Vector>::Knn(q, 7));
        EXPECT_EQ(by_flat.results, by_scalar.results)
            << tagged.name() << " dim " << dim;
        EXPECT_EQ(by_flat.stats.distance_computations,
                  by_scalar.stats.distance_computations);
        const double radius = tagged.name() == "angle" ? 0.4 : 0.8;
        by_flat = flat.Search(SearchRequest<Vector>::Range(q, radius));
        by_scalar = scalar.Search(SearchRequest<Vector>::Range(q, radius));
        EXPECT_EQ(by_flat.results, by_scalar.results)
            << tagged.name() << " dim " << dim;
        EXPECT_EQ(by_flat.stats.distance_computations,
                  by_scalar.stats.distance_computations);
      }
    }
  }
}

TEST(FlatPath, LaesaMatchesScalarPathBitExactly) {
  for (size_t dim : {3u, 8u}) {
    util::Rng data_rng(200 + dim);
    auto data = dataset::UniformCube(300, dim, &data_rng);
    auto queries = QueryPoints(10, dim, &data_rng);
    for (const Metric<Vector>& tagged : TaggedMetrics()) {
      util::Rng flat_rng(7), scalar_rng(7);
      LaesaIndex<Vector> flat(data, tagged, 6, &flat_rng);
      LaesaIndex<Vector> scalar(data, Untagged(tagged), 6, &scalar_rng);
      ASSERT_EQ(flat.pivot_ids(), scalar.pivot_ids());
      EXPECT_EQ(flat.build_distance_computations(),
                scalar.build_distance_computations())
          << tagged.name();
      for (size_t i = 0; i < data.size(); ++i) {
        for (size_t j = 0; j < flat.pivot_ids().size(); ++j) {
          EXPECT_EQ(flat.StoredDistance(i, j), scalar.StoredDistance(i, j));
        }
      }
      for (const Vector& q : queries) {
        SearchResponse by_flat = flat.Search(SearchRequest<Vector>::Knn(q, 5));
        SearchResponse by_scalar =
            scalar.Search(SearchRequest<Vector>::Knn(q, 5));
        EXPECT_EQ(by_flat.results, by_scalar.results)
            << tagged.name() << " dim " << dim;
        EXPECT_EQ(by_flat.stats.distance_computations,
                  by_scalar.stats.distance_computations)
            << tagged.name() << " dim " << dim;
        const double radius = tagged.name() == "angle" ? 0.3 : 0.6;
        by_flat = flat.Search(SearchRequest<Vector>::Range(q, radius));
        by_scalar = scalar.Search(SearchRequest<Vector>::Range(q, radius));
        EXPECT_EQ(by_flat.results, by_scalar.results);
        EXPECT_EQ(by_flat.stats.distance_computations,
                  by_scalar.stats.distance_computations);
      }
    }
  }
}

TEST(FlatPath, DistPermMatchesScalarPathBitExactly) {
  for (size_t prefix : {0u, 3u}) {
    util::Rng data_rng(300 + prefix);
    auto data = dataset::UniformCube(350, 6, &data_rng);
    auto queries = QueryPoints(10, 6, &data_rng);
    for (const Metric<Vector>& tagged : TaggedMetrics()) {
      util::Rng flat_rng(9), scalar_rng(9);
      DistPermIndex<Vector> flat(data, tagged, 8, &flat_rng,
                                 /*fraction=*/0.25, prefix);
      DistPermIndex<Vector> scalar(data, Untagged(tagged), 8, &scalar_rng,
                                   /*fraction=*/0.25, prefix);
      EXPECT_EQ(flat.build_distance_computations(),
                scalar.build_distance_computations());
      ASSERT_EQ(flat.StoredPermutations(), scalar.StoredPermutations());
      for (const Vector& q : queries) {
        SearchResponse by_flat = flat.Search(SearchRequest<Vector>::Knn(q, 5));
        SearchResponse by_scalar =
            scalar.Search(SearchRequest<Vector>::Knn(q, 5));
        EXPECT_EQ(by_flat.results, by_scalar.results)
            << tagged.name() << " prefix " << prefix;
        EXPECT_EQ(by_flat.stats.distance_computations,
                  by_scalar.stats.distance_computations);
      }
    }
  }
}

// Reference candidate ranking — per-pair footrule over the stored
// permutations, bucketed over the full footrule range with ids
// ascending — the (footrule, id) order the index's counting sort over
// distinct permutations must reproduce.
std::vector<uint32_t> ReferenceCandidateOrder(
    const DistPermIndex<Vector>& index, const Vector& query, size_t budget) {
  const auto& metric = index.metric();
  const size_t k = index.sites().size();
  std::vector<double> distances(k);
  for (size_t j = 0; j < k; ++j) {
    distances[j] = metric(index.sites()[j], query);
  }
  const bool full = index.prefix_length() == k;
  core::Permutation query_perm =
      full ? core::PermutationFromDistances(distances)
           : core::PermutationPrefixFromDistances(distances,
                                                  index.prefix_length());
  const size_t max_footrule =
      full ? static_cast<size_t>(core::MaxFootrule(k))
           : k * index.prefix_length();
  std::vector<std::vector<uint32_t>> buckets(max_footrule + 1);
  const std::vector<core::Permutation> stored = index.StoredPermutations();
  for (size_t i = 0; i < index.size(); ++i) {
    const int f = full ? core::SpearmanFootrule(query_perm, stored[i])
                       : core::PrefixFootrule(query_perm, stored[i], k);
    buckets[static_cast<size_t>(f)].push_back(static_cast<uint32_t>(i));
  }
  std::vector<uint32_t> order;
  for (const auto& bucket : buckets) {
    for (uint32_t id : bucket) {
      if (order.size() >= budget) return order;
      order.push_back(id);
    }
  }
  return order;
}

// The ids an infinite-radius range query verifies under a budget of
// `max_distance_computations`, sorted.  Such a query returns exactly
// the verified ids; a budget b >= k verifies the first b - k candidates.
std::vector<uint32_t> VerifiedIds(const DistPermIndex<Vector>& index,
                                  const Vector& query,
                                  uint64_t max_distance_computations) {
  auto request = SearchRequest<Vector>::Range(
      query, std::numeric_limits<double>::infinity());
  request.max_distance_computations = max_distance_computations;
  std::vector<uint32_t> ids;
  for (const SearchResult& r : index.Search(request).results) {
    ids.push_back(static_cast<uint32_t>(r.id));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(FlatPath, DistPermPartialSelectionMatchesSeedOrdering) {
  const size_t n = 300;
  util::Rng data_rng(400);
  auto data = dataset::UniformCube(n, 5, &data_rng);
  auto queries = QueryPoints(4, 5, &data_rng);
  // k = 4 puts many points on every footrule, so the threshold
  // footrule is tied; 0.5 / n leaves a budget of one candidate.
  for (size_t k : {4u, 10u}) {
    for (size_t prefix : {size_t{0}, size_t{1}, k - 1}) {
      for (double fraction : {0.5 / n, 0.15, 1.0}) {
        util::Rng site_rng(21);
        DistPermIndex<Vector> index(data, metric::LpMetric::L2(), k,
                                    &site_rng, fraction, prefix);
        const size_t budget = std::max<size_t>(
            1, static_cast<size_t>(fraction * static_cast<double>(n)));
        for (const Vector& q : queries) {
          const std::vector<uint32_t> expect =
              ReferenceCandidateOrder(index, q, budget);
          ASSERT_EQ(expect.size(), budget);
          // Each budget k + j verifies exactly the first j candidates,
          // so every prefix of the order is pinned, not just the set.
          for (size_t j = 1; j <= budget; ++j) {
            std::vector<uint32_t> first(expect.begin(), expect.begin() + j);
            std::sort(first.begin(), first.end());
            ASSERT_EQ(VerifiedIds(index, q, k + j), first)
                << "k " << k << " prefix " << prefix << " fraction "
                << fraction << " candidate " << j;
          }
          std::vector<uint32_t> all = expect;
          std::sort(all.begin(), all.end());
          EXPECT_EQ(VerifiedIds(index, q, 0), all);
        }
      }
    }
  }
}

TEST(FlatPath, SparseDocumentSpacesStillUseScalarPath) {
  // Non-vector point types must compile and run through the generic
  // point store, one metric call per pair.
  util::Rng rng(31);
  std::vector<metric::SparseVector> docs;
  for (int i = 0; i < 40; ++i) {
    metric::SparseVector doc;
    for (uint32_t d = 0; d < 6; ++d) {
      doc.emplace_back(d, rng.NextDouble() + 0.1);
    }
    docs.push_back(std::move(doc));
  }
  Metric<metric::SparseVector> angle{metric::AngleMetric()};
  EXPECT_EQ(angle.vector_kernel(), metric::VectorKernelKind::kNone);
  LinearScanIndex<metric::SparseVector> scan(docs, angle);
  SearchResponse response =
      scan.Search(SearchRequest<metric::SparseVector>::Knn(docs[0], 3));
  ASSERT_EQ(response.results.size(), 3u);
  EXPECT_EQ(response.results[0].id, 0u);
  EXPECT_EQ(response.stats.distance_computations, docs.size());
}

TEST(IsPermutationBitmask, HandlesFullRangeAndDuplicates) {
  core::Permutation identity(200);
  for (size_t i = 0; i < identity.size(); ++i) {
    identity[i] = static_cast<uint8_t>(i);
  }
  EXPECT_TRUE(core::IsPermutation(identity));
  std::swap(identity[0], identity[199]);
  EXPECT_TRUE(core::IsPermutation(identity));
  identity[5] = identity[7];  // duplicate
  EXPECT_FALSE(core::IsPermutation(identity));

  EXPECT_TRUE(core::IsPermutation({}));
  EXPECT_TRUE(core::IsPermutation({0}));
  EXPECT_FALSE(core::IsPermutation({1}));     // out of range
  EXPECT_FALSE(core::IsPermutation({0, 0}));  // duplicate
}

TEST(FootruleFromRanks, AgreesWithSpearmanAndPrefixFootrule) {
  util::Rng rng(41);
  for (size_t k : {2u, 5u, 9u}) {
    for (int rep = 0; rep < 30; ++rep) {
      std::vector<double> da(k), db(k);
      for (double& v : da) v = rng.NextDouble();
      for (double& v : db) v = rng.NextDouble();
      core::Permutation a = core::PermutationFromDistances(da);
      core::Permutation b = core::PermutationFromDistances(db);
      core::Permutation ra = core::InvertPermutation(a);
      core::Permutation rb = core::InvertPermutation(b);
      EXPECT_EQ(core::FootruleFromRanks(ra.data(), rb.data(), k),
                core::SpearmanFootrule(a, b));

      const size_t prefix = (k + 1) / 2;
      core::Permutation pa = core::PermutationPrefixFromDistances(da, prefix);
      core::Permutation pb = core::PermutationPrefixFromDistances(db, prefix);
      std::vector<uint8_t> rank_a(k, static_cast<uint8_t>(prefix));
      std::vector<uint8_t> rank_b(k, static_cast<uint8_t>(prefix));
      for (size_t r = 0; r < prefix; ++r) {
        rank_a[pa[r]] = static_cast<uint8_t>(r);
        rank_b[pb[r]] = static_cast<uint8_t>(r);
      }
      EXPECT_EQ(core::FootruleFromRanks(rank_a.data(), rank_b.data(), k),
                core::PrefixFootrule(pa, pb, k));
    }
  }
}

}  // namespace
}  // namespace distperm
