// Parallel shard construction, the vectorized AESA build, and the
// initial_radius_bound hint.
//
// The contracts pinned here: (1) parallel builds are deterministic:
// (data, spec, shard_count, seed) fixes the database bit-for-bit no
// matter how many build threads run; (2) the vectorized AESA matrix
// build matches the scalar pairwise loop bit-exactly; (3) a valid
// initial_radius_bound hint keeps results identical while only ever
// removing distance computations.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dataset/vector_gen.h"
#include "engine/query.h"
#include "engine/query_engine.h"
#include "engine/sharded_database.h"
#include "index/aesa.h"
#include "index/laesa.h"
#include "index/linear_scan.h"
#include "index/vp_tree.h"
#include "metric/lp.h"
#include "util/rng.h"

namespace distperm {
namespace engine {
namespace {

using index::LinearScanIndex;
using index::SearchRequest;
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
      QueryEngine<Vector> engine(1);
      auto a = engine.RunBatch(serial.value(), batch);
      auto b = engine.RunBatch(parallel.value(), batch);
      EXPECT_EQ(a.results, b.results) << spec << " shards=" << shards;
      EXPECT_EQ(a.per_query_distance_computations,
                b.per_query_distance_computations)
          << spec << " shards=" << shards;
    }
  }
}

TEST(ParallelBuild, ConcurrentBuildSlicesByMove) {
  util::Rng rng(59);
  auto data = dataset::UniformCube(103, 2, &rng);  // not divisible by 4
  // Moved-in data slices by element moves; the shards must still cover
  // every point in order, identically to a copied build.
  std::vector<Vector> copy = data;
  auto moved = ShardedDatabase<Vector>::BuildFromRegistry(
                   std::move(copy), L2(), 4, "linear-scan", 0,
                   /*build_threads=*/4)
                   .value();
  auto copied = ShardedDatabase<Vector>::BuildFromRegistry(
                    data, L2(), 4, "linear-scan", 0)
                    .value();
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
