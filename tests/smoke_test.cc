// Build smoke test: instantiates one object from each library so missing
// symbols surface immediately.

#include <gtest/gtest.h>

#include "core/euclidean_count.h"
#include "dataset/vector_gen.h"
#include "geometry/arrangement2d.h"
#include "index/linear_scan.h"
#include "metric/lp.h"
#include "util/rng.h"

namespace distperm {
namespace {

TEST(Smoke, EverythingLinks) {
  util::Rng rng(1);
  auto data = dataset::UniformCube(16, 3, &rng);
  metric::Metric<metric::Vector> l2(metric::LpMetric::L2());
  index::LinearScanIndex<metric::Vector> scan(data, l2);
  auto hits =
      scan.Search(index::SearchRequest<metric::Vector>::Knn(data[0], 3))
          .results;
  EXPECT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].id, 0u);

  EXPECT_EQ(core::EuclideanPermutationCount(2, 4).ToUint64(), 18u);

  geometry::LineArrangement arrangement;
  arrangement.AddLine(1, 0, 0);
  arrangement.AddLine(0, 1, 0);
  EXPECT_EQ(arrangement.CountRegions(), 4u);
}

}  // namespace
}  // namespace distperm
