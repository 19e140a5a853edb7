// Tests for the vectorized distance kernels (metric/kernels.h), the
// vector point store (index/point_store.h), and the kernel
// tagging carried by Metric<Vector>.
//
// Tolerance contract, as documented in kernels.h: the kernels
// accumulate in four independent lanes combined as
// (acc0 + acc1) + (acc2 + acc3), which reassociates the naive
// sequential sum, and their translation unit is compiled for the host
// CPU, where the compiler may contract mul + add into FMA.  Both
// effects perturb the sum by at most a few ULP — the tests below pin a
// relative bound of 1e-13, orders of magnitude tighter than any
// distance comparison in the library — and cannot cause divergence
// inside the library because every code path calls the same compiled
// kernel symbols (see ScalarEntryPointsDelegateToKernels and the
// flat-vs-scalar index tests in flat_path_test.cc).  L-infinity (max)
// and the block-min helper involve no additions, so they must match
// the sequential reference exactly.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "index/point_store.h"
#include "metric/cosine.h"
#include "metric/kernels.h"
#include "metric/lp.h"
#include "metric/metric.h"
#include "util/rng.h"

namespace distperm {
namespace {

using metric::Vector;
using metric::VectorKernelKind;

const size_t kDims[] = {1, 3, 8, 32, 100};

Vector RandomVector(size_t dim, util::Rng* rng) {
  Vector v(dim);
  for (double& c : v) c = rng->NextDouble(-1.0, 1.0);
  return v;
}

// Naive sequential references: single accumulator, seed summation order.
double RefL1(const Vector& a, const Vector& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}
double RefL2sq(const Vector& a, const Vector& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}
double RefLInf(const Vector& a, const Vector& b) {
  double best = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(a[i] - b[i]);
    if (d > best) best = d;
  }
  return best;
}
double RefDot(const Vector& a, const Vector& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

TEST(Kernels, RawMatchesSequentialReferenceWithinTolerance) {
  util::Rng rng(11);
  for (size_t dim : kDims) {
    for (int rep = 0; rep < 20; ++rep) {
      Vector a = RandomVector(dim, &rng);
      Vector b = RandomVector(dim, &rng);
      const double tol = 1e-13;
      EXPECT_NEAR(metric::L1Raw(a.data(), b.data(), dim), RefL1(a, b),
                  tol * (1.0 + RefL1(a, b)))
          << "dim " << dim;
      EXPECT_NEAR(metric::L2sqRaw(a.data(), b.data(), dim), RefL2sq(a, b),
                  tol * (1.0 + RefL2sq(a, b)))
          << "dim " << dim;
      EXPECT_NEAR(metric::DotRaw(a.data(), b.data(), dim), RefDot(a, b),
                  tol * (1.0 + std::fabs(RefDot(a, b))))
          << "dim " << dim;
      // max is associative: exact equality for any lane count.
      EXPECT_EQ(metric::LInfRaw(a.data(), b.data(), dim), RefLInf(a, b))
          << "dim " << dim;
    }
  }
}

TEST(Kernels, BlockMatchesRawBitExactly) {
  util::Rng rng(13);
  for (size_t dim : kDims) {
    std::vector<Vector> points;
    for (int i = 0; i < 37; ++i) points.push_back(RandomVector(dim, &rng));
    // Rows `stride` doubles apart, as a snapshot lays them out.
    const size_t stride = index::PointStore<Vector>::StrideFor(dim);
    std::vector<double> rows(points.size() * stride, 0.0);
    for (size_t i = 0; i < points.size(); ++i) {
      std::copy(points[i].begin(), points[i].end(), &rows[i * stride]);
    }
    Vector query = RandomVector(dim, &rng);
    std::vector<double> out(points.size());

    metric::L1Block(query.data(), rows.data(), points.size(), stride, dim,
                    out.data());
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(out[i],
                metric::L1Raw(query.data(), points[i].data(), dim));
    }
    metric::L2sqBlock(query.data(), rows.data(), points.size(), stride, dim,
                      out.data());
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(out[i],
                metric::L2sqRaw(query.data(), points[i].data(), dim));
    }
    metric::LInfBlock(query.data(), rows.data(), points.size(), stride, dim,
                      out.data());
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(out[i],
                metric::LInfRaw(query.data(), points[i].data(), dim));
    }
    metric::DotBlock(query.data(), rows.data(), points.size(), stride, dim,
                     out.data());
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(out[i],
                metric::DotRaw(query.data(), points[i].data(), dim));
    }
  }
}

TEST(Kernels, ScalarEntryPointsDelegateToKernels) {
  // L1Distance & co. are the same computation as the raw kernels, so
  // every code path in the library sees identical distance bits.
  util::Rng rng(14);
  for (size_t dim : kDims) {
    Vector a = RandomVector(dim, &rng);
    Vector b = RandomVector(dim, &rng);
    EXPECT_EQ(metric::L1Distance(a, b),
              metric::L1Raw(a.data(), b.data(), dim));
    EXPECT_EQ(metric::L2DistanceSquared(a, b),
              metric::L2sqRaw(a.data(), b.data(), dim));
    EXPECT_EQ(metric::L2Distance(a, b),
              std::sqrt(metric::L2sqRaw(a.data(), b.data(), dim)));
    EXPECT_EQ(metric::LInfDistance(a, b),
              metric::LInfRaw(a.data(), b.data(), dim));
    EXPECT_EQ(metric::AngleDistanceDense(a, b),
              metric::AngleFromParts(
                  metric::DotRaw(a.data(), b.data(), dim),
                  std::sqrt(metric::DotRaw(a.data(), a.data(), dim)),
                  std::sqrt(metric::DotRaw(b.data(), b.data(), dim))));
  }
}

TEST(Kernels, MinRawMatchesSequentialScan) {
  util::Rng rng(15);
  for (size_t n : {1u, 2u, 5u, 64u, 257u}) {
    std::vector<double> x(n);
    for (double& v : x) v = rng.NextDouble(-10.0, 10.0);
    double expect = x[0];
    for (double v : x) expect = std::min(expect, v);
    EXPECT_EQ(metric::MinRaw(x.data(), n), expect) << n;
  }
  EXPECT_EQ(metric::MinRaw(nullptr, 0), 0.0);
}

TEST(PointStore, RoundTripsValuesExactly) {
  util::Rng rng(16);
  for (size_t dim : kDims) {
    std::vector<Vector> points;
    for (int i = 0; i < 19; ++i) points.push_back(RandomVector(dim, &rng));
    index::PointStore<Vector> store(points, metric::LpMetric::L2());
    ASSERT_EQ(store.size(), points.size());
    ASSERT_EQ(store.dim(), dim);
    EXPECT_EQ(store.HeapBytes(), points.size() * dim * sizeof(double));
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(store.Point(i), points[i]);
      for (size_t j = 0; j < dim; ++j) EXPECT_EQ(store.row(i)[j], points[i][j]);
    }
  }
}

TEST(PointStore, EmptyDatabaseYieldsEmptyStore) {
  index::PointStore<Vector> store(std::vector<Vector>{},
                                  metric::LpMetric::L2());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.dim(), 0u);
  EXPECT_EQ(store.HeapBytes(), 0u);
}

TEST(MetricTagging, KernelKindSurvivesTypeErasure) {
  EXPECT_EQ(metric::Metric<Vector>(metric::LpMetric::L1()).vector_kernel(),
            VectorKernelKind::kL1);
  EXPECT_EQ(metric::Metric<Vector>(metric::LpMetric::L2()).vector_kernel(),
            VectorKernelKind::kL2);
  EXPECT_EQ(
      metric::Metric<Vector>(metric::LpMetric::LInf()).vector_kernel(),
      VectorKernelKind::kLInf);
  EXPECT_EQ(
      metric::Metric<Vector>(metric::DenseAngleMetric()).vector_kernel(),
      VectorKernelKind::kAngle);
  // General p has no specialized kernel.
  EXPECT_EQ(metric::Metric<Vector>(metric::LpMetric(3.0)).vector_kernel(),
            VectorKernelKind::kNone);
  // A bare lambda metric is untagged.
  metric::Metric<Vector> lambda("custom", [](const Vector& a,
                                             const Vector& b) {
    return metric::L2Distance(a, b);
  });
  EXPECT_EQ(lambda.vector_kernel(), VectorKernelKind::kNone);
}

TEST(LpMetricDispatch, ConstructionTimeDispatchMatchesLpDistance) {
  // The p == 1 / 2 / inf dispatch is hoisted into the constructor; the
  // functor must still agree with the free function for every order.
  util::Rng rng(18);
  const double inf = std::numeric_limits<double>::infinity();
  for (size_t dim : kDims) {
    Vector a = RandomVector(dim, &rng);
    Vector b = RandomVector(dim, &rng);
    for (double p : {1.0, 2.0, 3.0, 4.5, inf}) {
      metric::LpMetric m(p);
      EXPECT_EQ(m(a, b), metric::LpDistance(a, b, p)) << "p=" << p;
    }
    EXPECT_EQ(metric::LpMetric::L1()(a, b), metric::L1Distance(a, b));
    EXPECT_EQ(metric::LpMetric::L2()(a, b), metric::L2Distance(a, b));
    EXPECT_EQ(metric::LpMetric::LInf()(a, b), metric::LInfDistance(a, b));
  }
}

}  // namespace
}  // namespace distperm
