// Deeper index tests: stored-structure invariants, cross-index
// agreement on non-vector metrics, and counter bookkeeping.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/perm_metrics.h"
#include "dataset/doc_gen.h"
#include "dataset/vector_gen.h"
#include "index/aesa.h"
#include "index/distperm_index.h"
#include "index/gh_tree.h"
#include "index/iaesa.h"
#include "index/laesa.h"
#include "index/linear_scan.h"
#include "index/vp_tree.h"
#include "metric/cosine.h"
#include "metric/lp.h"
#include "util/rng.h"

namespace distperm {
namespace index {
namespace {

using metric::SparseVector;
using metric::Vector;

metric::Metric<Vector> L2() { return metric::LpMetric::L2(); }
metric::Metric<Vector> L1() { return metric::LpMetric::L1(); }

TEST(AesaInternals, MatrixIsSymmetricWithZeroDiagonal) {
  util::Rng rng(51);
  auto data = dataset::UniformCube(40, 3, &rng);
  AesaIndex<Vector> aesa(data, L2());
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_DOUBLE_EQ(aesa.StoredDistance(i, i), 0.0);
    for (size_t j = 0; j < data.size(); ++j) {
      EXPECT_DOUBLE_EQ(aesa.StoredDistance(i, j),
                       aesa.StoredDistance(j, i));
    }
  }
}

TEST(AesaInternals, MatrixSatisfiesTriangleInequality) {
  util::Rng rng(52);
  auto data = dataset::UniformCube(25, 4, &rng);
  AesaIndex<Vector> aesa(data, L2());
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t j = 0; j < data.size(); ++j) {
      for (size_t k = 0; k < data.size(); ++k) {
        EXPECT_LE(aesa.StoredDistance(i, k),
                  aesa.StoredDistance(i, j) + aesa.StoredDistance(j, k) +
                      1e-9);
      }
    }
  }
}

TEST(LaesaInternals, TableMatchesMetric) {
  util::Rng rng(53), pivot_rng(54);
  auto data = dataset::UniformCube(60, 2, &rng);
  LaesaIndex<Vector> laesa(data, L2(), 5, &pivot_rng);
  ASSERT_EQ(laesa.pivot_ids().size(), 5u);
  metric::LpMetric l2 = metric::LpMetric::L2();
  for (size_t i = 0; i < data.size(); i += 7) {
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(laesa.StoredDistance(i, j),
                       l2(data[i], data[laesa.pivot_ids()[j]]));
    }
  }
}

TEST(Iaesa, AgreesWithAesaUnderL1) {
  util::Rng rng(55), site_rng(56);
  auto data = dataset::UniformCube(150, 4, &rng);
  AesaIndex<Vector> aesa(data, L1());
  IaesaIndex<Vector> iaesa(data, L1(), 8, &site_rng);
  for (int q = 0; q < 10; ++q) {
    Vector query(4);
    for (auto& coord : query) coord = rng.NextDouble();
    const auto knn = SearchRequest<Vector>::Knn(query, 7);
    const auto range = SearchRequest<Vector>::Range(query, 0.4);
    EXPECT_EQ(iaesa.Search(knn).results, aesa.Search(knn).results);
    EXPECT_EQ(iaesa.Search(range).results, aesa.Search(range).results);
  }
}

TEST(Indexes, AgreeOnSparseDocumentSpace) {
  util::Rng rng(57);
  dataset::DocCorpusProfile profile;
  profile.vocabulary = 500;
  profile.topics = 5;
  profile.terms_per_doc = 15;
  auto docs = dataset::DocumentVectors(120, profile, &rng);
  metric::Metric<SparseVector> angle((metric::AngleMetric()));
  LinearScanIndex<SparseVector> reference(docs, angle);
  util::Rng r1(58), r2(59);
  VpTreeIndex<SparseVector> vp(docs, angle, &r1);
  GhTreeIndex<SparseVector> gh(docs, angle, &r2);
  AesaIndex<SparseVector> aesa(docs, angle);
  for (int q = 0; q < 6; ++q) {
    const SparseVector& query = docs[rng.NextBounded(docs.size())];
    const auto knn = SearchRequest<SparseVector>::Knn(query, 4);
    auto expected = reference.Search(knn).results;
    EXPECT_EQ(vp.Search(knn).results, expected);
    EXPECT_EQ(gh.Search(knn).results, expected);
    EXPECT_EQ(aesa.Search(knn).results, expected);
    const auto range = SearchRequest<SparseVector>::Range(query, 0.8);
    auto expected_range = reference.Search(range).results;
    EXPECT_EQ(vp.Search(range).results, expected_range);
    EXPECT_EQ(gh.Search(range).results, expected_range);
  }
}

TEST(Indexes, QueryOutsideDataRangeStillCorrect) {
  util::Rng rng(60);
  auto data = dataset::UniformCube(200, 2, &rng);
  LinearScanIndex<Vector> reference(data, L2());
  util::Rng r1(61), r2(62), r3(62);
  VpTreeIndex<Vector> vp(data, L2(), &r1);
  GhTreeIndex<Vector> gh(data, L2(), &r2);
  LaesaIndex<Vector> laesa(data, L2(), 6, &r3);
  Vector far_query = {25.0, -13.0};
  const auto knn = SearchRequest<Vector>::Knn(far_query, 3);
  auto expected = reference.Search(knn).results;
  EXPECT_EQ(vp.Search(knn).results, expected);
  EXPECT_EQ(gh.Search(knn).results, expected);
  EXPECT_EQ(laesa.Search(knn).results, expected);
  // A huge radius returns everything, sorted.
  const auto range = SearchRequest<Vector>::Range(far_query, 100.0);
  auto all = reference.Search(range).results;
  EXPECT_EQ(all.size(), data.size());
  EXPECT_EQ(vp.Search(range).results, all);
}

TEST(Indexes, RadiusBoundaryIsInclusive) {
  std::vector<Vector> data = {{0.0, 0.0}, {3.0, 4.0}, {6.0, 8.0}};
  LinearScanIndex<Vector> scan(data, L2());
  // d to point 1 is 5.0
  auto hits =
      scan.Search(SearchRequest<Vector>::Range({0.0, 0.0}, 5.0)).results;
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[1].id, 1u);
  EXPECT_DOUBLE_EQ(hits[1].distance, 5.0);
}

TEST(DistPerm, WorksOnSparseDocuments) {
  util::Rng rng(63), site_rng(64);
  dataset::DocCorpusProfile profile;
  profile.vocabulary = 400;
  profile.topics = 4;
  auto docs = dataset::DocumentVectors(200, profile, &rng);
  metric::Metric<SparseVector> angle((metric::AngleMetric()));
  DistPermIndex<SparseVector> index(docs, angle, 6, &site_rng, 1.0);
  LinearScanIndex<SparseVector> reference(docs, angle);
  const SparseVector& query = docs[17];
  const auto request = SearchRequest<SparseVector>::Knn(query, 5);
  EXPECT_EQ(index.Search(request).results, reference.Search(request).results);
  EXPECT_GE(index.DistinctPermutationCount(), 1u);
  EXPECT_LE(index.DistinctPermutationCount(), docs.size());
}

// Random inverted-rank rows as the distperm table stores them: each
// row holds ranks 0..prefix-1 once and `prefix` at every other site.
std::vector<uint8_t> RandomRankRows(size_t rows, size_t k, size_t prefix,
                                    util::Rng* rng) {
  std::vector<uint8_t> table;
  std::vector<uint8_t> sites(k);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t site = 0; site < k; ++site) {
      sites[site] = static_cast<uint8_t>(site);
    }
    std::shuffle(sites.begin(), sites.end(), *rng);
    std::vector<uint8_t> row(k, static_cast<uint8_t>(prefix));
    for (size_t rank = 0; rank < prefix; ++rank) {
      row[sites[rank]] = static_cast<uint8_t>(rank);
    }
    table.insert(table.end(), row.begin(), row.end());
  }
  return table;
}

// The SAD block kernel and its scalar fallback both equal one
// FootruleFromRanks per row, for every k the index allows, full rows
// and prefix rows.  The tail past the last row is filled with junk
// instead of the index's zeros, so the last row's loads (which run into
// it) prove the masking.
TEST(DistPerm, FootruleBlockKernelsMatchFootruleFromRanks) {
  util::Rng rng(71);
  constexpr size_t kRows = 37;
  for (size_t k = 1; k <= core::kMaxRank64Sites; ++k) {
    for (size_t prefix : {k, (k + 1) / 2, size_t{1}}) {
      std::vector<uint8_t> table = RandomRankRows(kRows, k, prefix, &rng);
      table.resize(table.size() + core::kFootruleTableSlack, 0xee);
      const std::vector<uint8_t> query_row =
          RandomRankRows(1, k, prefix, &rng);
      uint8_t query[core::kFootruleBlockMaxSites] = {};
      std::copy(query_row.begin(), query_row.end(), query);
      std::vector<uint16_t> sad(kRows), scalar(kRows);
      core::FootruleBlock(query, table.data(), kRows, k, sad.data());
      core::FootruleBlockScalar(query, table.data(), kRows, k,
                                scalar.data());
      for (size_t r = 0; r < kRows; ++r) {
        const int want = core::FootruleFromRanks(query, &table[r * k], k);
        ASSERT_EQ(sad[r], want) << "k " << k << " prefix " << prefix
                                << " row " << r;
        ASSERT_EQ(scalar[r], want) << "k " << k << " prefix " << prefix
                                   << " row " << r;
      }
    }
  }
}

// Restore then export gives back the exported {table, ids} byte for
// byte — also for state whose ids are not in row order, which the
// index regroups by row on restore and scatters back on export.
TEST(DistPerm, RestoreExportRoundTripsStateByteForByte) {
  util::Rng rng(73);
  auto data = dataset::UniformCube(400, 3, &rng);
  for (size_t prefix : {size_t{0}, size_t{3}}) {
    util::Rng site_rng(74);
    DistPermIndex<Vector> built(data, L2(), 9, &site_rng, 0.2, prefix);
    const DistPermIndex<Vector>::State state = built.ExportState();
    ASSERT_EQ(state.ids.size(), data.size());
    ASSERT_EQ(state.table.size(), built.DistinctPermutationCount() * 9);
    DistPermIndex<Vector> restored(data, L2(), state);
    const DistPermIndex<Vector>::State again = restored.ExportState();
    EXPECT_EQ(again.table, state.table);
    EXPECT_EQ(again.ids, state.ids);
    EXPECT_EQ(again.prefix, state.prefix);
    EXPECT_EQ(again.fraction, state.fraction);
    EXPECT_EQ(again.sites, state.sites);
    EXPECT_EQ(restored.IndexBits(), built.IndexBits());
  }

  // A hand-made table of three rows over k = 2 whose ids interleave.
  std::vector<Vector> few = dataset::UniformCube(6, 2, &rng);
  DistPermIndex<Vector>::State state;
  state.sites = {few[0], few[1]};
  state.prefix = 2;
  state.fraction = 1.0;
  state.table = {0, 1, 1, 0, 1, 0};  // row 2 repeats row 1
  state.ids = {2, 0, 1, 2, 0, 2};
  ASSERT_TRUE(DistPermIndex<Vector>::ValidateState(state, few.size()).ok());
  DistPermIndex<Vector> restored(few, L2(), state);
  EXPECT_EQ(restored.DistinctPermutationCount(), 3u);
  const DistPermIndex<Vector>::State again = restored.ExportState();
  EXPECT_EQ(again.table, state.table);
  EXPECT_EQ(again.ids, state.ids);
}

TEST(Counters, QueriesLeaveBuildCountAlone) {
  util::Rng rng(65), site_rng(66);
  auto data = dataset::UniformCube(100, 2, &rng);
  DistPermIndex<Vector> index(data, L2(), 5, &site_rng);
  uint64_t build = index.build_distance_computations();
  EXPECT_EQ(build, 100u * 5u);
  SearchResponse response =
      index.Search(SearchRequest<Vector>::Knn(data[0], 3));
  EXPECT_GT(response.stats.distance_computations, 0u);
  EXPECT_EQ(index.build_distance_computations(), build);
}

TEST(VpTree, HandlesCollinearData) {
  // Degenerate geometry: all points on a line; median splits still work.
  std::vector<Vector> data;
  for (int i = 0; i < 64; ++i) data.push_back({static_cast<double>(i)});
  util::Rng rng(67);
  VpTreeIndex<Vector> vp(data, L2(), &rng);
  LinearScanIndex<Vector> reference(data, L2());
  for (double q : {-5.0, 0.0, 31.5, 63.0, 99.0}) {
    Vector query = {q};
    const auto request = SearchRequest<Vector>::Knn(query, 5);
    EXPECT_EQ(vp.Search(request).results, reference.Search(request).results)
        << q;
  }
}

TEST(GhTree, HandlesTwoPointDatabase) {
  std::vector<Vector> data = {{0.0}, {1.0}};
  util::Rng rng(68);
  GhTreeIndex<Vector> gh(data, L2(), &rng);
  auto hits = gh.Search(SearchRequest<Vector>::Knn({0.2}, 2)).results;
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 0u);
  EXPECT_EQ(hits[1].id, 1u);
}

}  // namespace
}  // namespace index
}  // namespace distperm
