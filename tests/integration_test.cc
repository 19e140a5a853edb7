// Cross-module integration tests: each one exercises the full pipeline
// (dataset -> metric -> permutations -> counting -> theory) and pins the
// result against an independently known value from the paper.

#include <gtest/gtest.h>

#include <numeric>

#include "core/all_perms_construction.h"
#include "core/dimension_estimate.h"
#include "core/euclidean_count.h"
#include "core/perm_counter.h"
#include "core/perm_table.h"
#include "core/bounds.h"
#include "core/tree_count.h"
#include "dataset/string_gen.h"
#include "dataset/vector_gen.h"
#include "geometry/arrangement2d.h"
#include "geometry/cell_enum.h"
#include "index/distperm_index.h"
#include "metric/lp.h"
#include "metric/string_metrics.h"
#include "util/rng.h"

namespace distperm {
namespace {

using core::Permutation;
using metric::Vector;

metric::Metric<Vector> L2() { return metric::LpMetric::L2(); }

TEST(Integration, OneDimensionalDataAchievesTheorem7Row1) {
  // d = 1, any Lp: the maximum C(k,2)+1 is achieved by dense uniform
  // data with probability 1 — the Table 3 d = 1 row is deterministic
  // (7, 29, 67 for k = 4, 8, 12).
  util::Rng rng(101);
  auto data = dataset::UniformCube(50000, 1, &rng);
  core::EuclideanCounter counter;
  for (size_t k : {4u, 8u, 12u}) {
    auto sites = core::SelectRandomSites(data, k, &rng);
    auto result = core::CountDistinctPermutations(data, sites, L2());
    EXPECT_EQ(result.distinct_permutations,
              counter.Count64(1, static_cast<int>(k)))
        << "k=" << k;
  }
}

TEST(Integration, Theorem6WitnessesCountedAsDatabase) {
  // Feed the Theorem 6 witness set through the generic database counter:
  // it must report exactly k! distinct permutations — the construction,
  // the counter, and the codec all agreeing.
  auto construction = core::BuildAllPermsConstruction(5, 2.0);
  auto result = core::CountDistinctPermutations(
      construction.witnesses, construction.sites, L2());
  EXPECT_EQ(result.distinct_permutations, 120u);
}

TEST(Integration, ArrangementSamplingAndRecurrenceAgree) {
  // Three independent methods, one answer: the Theorem 7 recurrence,
  // the exact rational bisector arrangement, and dense grid probing.
  std::vector<geometry::IntPoint2> int_sites = {
      {12, 7}, {93, 40}, {41, 88}, {70, 15}, {25, 51}};
  std::vector<Vector> sites;
  for (const auto& s : int_sites) {
    sites.push_back({static_cast<double>(s[0]) / 100.0,
                     static_cast<double>(s[1]) / 100.0});
  }
  core::EuclideanCounter counter;
  uint64_t predicted = counter.Count64(2, 5);  // 46
  auto arrangement = geometry::EuclideanBisectorArrangement(int_sites);
  EXPECT_EQ(arrangement.CountRegions(), predicted);
  // Grid probing needs both reach (outer unbounded cells) and density
  // (slivers between nearly parallel bisectors); 1500^2 probes over
  // [-9, 10]^2 resolves all 46 cells for this configuration.
  auto cells =
      geometry::EnumerateCellsByGrid(sites, 2.0, -9.0, 10.0, 1500);
  EXPECT_EQ(cells.count(), predicted);
}

TEST(Integration, DistPermIndexCountMatchesGenericCounter) {
  // The index's stored permutations and the standalone counter must see
  // the same number of distinct permutations when given the same sites.
  util::Rng rng(103);
  auto data = dataset::UniformCube(3000, 3, &rng);
  util::Rng site_rng(104);
  index::DistPermIndex<Vector> index(data, L2(), 7, &site_rng);
  auto result =
      core::CountDistinctPermutations(data, index.sites(), L2());
  EXPECT_EQ(index.DistinctPermutationCount(),
            result.distinct_permutations);
}

TEST(Integration, TreeCountersAgreeWithEuclideanLineEmbedding) {
  // A path tree is isometric to points on a line; the tree counter and
  // the vector-space counter over the embedded points must agree.
  auto pc = core::Corollary5Construction(5);
  size_t tree_count =
      core::CountTreePermutationsBruteForce(pc.tree, pc.sites);
  // Embed: vertex i -> the 1-D point (i).
  std::vector<Vector> embedded;
  for (size_t v = 0; v < pc.tree.size(); ++v) {
    embedded.push_back({static_cast<double>(v)});
  }
  std::vector<Vector> embedded_sites;
  for (size_t s : pc.sites) {
    embedded_sites.push_back({static_cast<double>(s)});
  }
  auto vector_count =
      core::CountDistinctPermutations(embedded, embedded_sites, L2());
  EXPECT_EQ(tree_count, vector_count.distinct_permutations);
  EXPECT_EQ(tree_count, core::TreePermutationBound(5));
}

TEST(Integration, PermTableCompressesIndexPermutations) {
  // Store the index's permutations in the table-compressed form and
  // verify the sizes relate as the paper's storage section claims.
  util::Rng rng(105);
  auto data = dataset::UniformCube(5000, 2, &rng);
  util::Rng site_rng(106);
  index::DistPermIndex<Vector> index(data, L2(), 10, &site_rng);
  const std::vector<Permutation> perms = index.StoredPermutations();
  auto table = core::PermutationTable::Build(perms);
  EXPECT_EQ(table.distinct(), index.DistinctPermutationCount());
  // d = 2, k = 10: at most N_{2,2}(10) = 916 permutations occur, so the
  // table index costs at most 10 bits/pt versus ceil(lg 10!) = 22.
  core::EuclideanCounter counter;
  EXPECT_LE(table.distinct(), counter.Count64(2, 10));
  EXPECT_LE(table.index_bits_per_point(), 10);
  EXPECT_LT(table.TotalBits(), table.RawBits());
  // Entropy can never exceed the index width.
  EXPECT_LE(core::PermutationEntropyBits(perms),
            table.index_bits_per_point());
}

TEST(Integration, DimensionEstimateOnStringsViaPrefixMetric) {
  // The prefix metric is a tree metric; trees behave like d ~ 1 spaces
  // (both have the C(k,2)+1 ceiling), so the estimator must report a
  // dimension of at most ~1 for prefix-metric data.
  util::Rng rng(107);
  dataset::LanguageProfile profile;
  profile.name = "IntegrationLang";
  auto words =
      dataset::MarkovWordGenerator(profile).Dictionary(5000, &rng);
  metric::Metric<std::string> prefix((metric::PrefixMetric()));
  auto sites = core::SelectRandomSites(words, 9, &rng);
  auto result = core::CountDistinctPermutations(words, sites, prefix);
  EXPECT_LE(result.distinct_permutations, core::TreePermutationBound(9));
  double estimate =
      core::EstimateEuclideanDimension(result.distinct_permutations, 9);
  EXPECT_LE(estimate, 1.0 + 1e-9);
}

TEST(Integration, CounterexampleSitesBeatEveryExactIndexCount) {
  // The paper's L1 sites: sampled enumeration exceeds the Euclidean
  // limit, and the Theorem 9 L1 bound covers whatever we find.
  std::vector<Vector> sites = {
      {0.205281, 0.621547, 0.332507}, {0.053421, 0.344351, 0.260859},
      {0.418166, 0.207143, 0.119789}, {0.735218, 0.653301, 0.650154},
      {0.527133, 0.814207, 0.704307},
  };
  util::Rng rng(108);
  auto cells =
      geometry::EnumerateCellsBySampling(sites, 1.0, 0.0, 1.0, 300000,
                                         &rng);
  EXPECT_GT(cells.count(), 96u);
  EXPECT_LE(util::BigUint(cells.count()),
            core::LpPermutationUpperBound(3, 1.0, 5));
}

}  // namespace
}  // namespace distperm
