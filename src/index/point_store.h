// One copy of an index's points, and the one path every index computes
// distances through.
//
// PointStore<P> holds the database exactly once.  For every point type
// it can keep the std::vector<P> a build hands it, as is.  A vector
// store can instead borrow its rows from a snapshot's file mapping (see
// engine/generation_store.h): one row-major block whose rows start on
// 64-byte (cache-line) boundaries, padded from `dim` to `stride`
// doubles (dim rounded up to a multiple of 8; the padding is never
// read), which the blocked kernels of metric/kernels.h stream over with
// unit-stride loads; a shared_ptr to the mapping keeps the rows alive.
//
// A build keeps its input rows instead of packing them: the input is
// resident when the build starts and, scattered across the heap, cannot
// be returned to the system row by row, so a packed copy would add its
// full size to the process's peak memory.
//
// Every P offers the same row API:
//
//   auto q = store.MakeQuery(query);          // or MakeRowQuery(i)
//   store.RowDistance(q, i)                   // metric(point i, query)
//   store.BlockScores(q, begin, count, out)   // rows begin.. as scores
//   store.RowPairDistance(i, j)               // metric(point i, point j)
//
// plus charged forms that add exactly one distance computation per row
// to a counter (a QueryStats field or the build counter) — the paper's
// cost model, whatever evaluates the distance.
//
// A kernel-tagged vector metric (L1, L2, L-infinity, angle) evaluates
// rows with the kernels; the scalar Lp/angle entry points delegate to
// the same kernels, so a row distance is bit-identical to calling the
// metric on the two points.  For L2 the scores are squared distances so
// sqrt stays out of the inner loop: ScoreToDistance finishes survivors
// and RangeScoreBound gives a conservative squared-radius filter.  An
// untagged vector metric (general-p Lp, test lambdas) sees its points
// through per-thread scratch Vectors; this store is the only place that
// knows the difference.

#ifndef DISTPERM_INDEX_POINT_STORE_H_
#define DISTPERM_INDEX_POINT_STORE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "metric/cosine.h"
#include "metric/kernels.h"
#include "metric/metric.h"
#include "util/status.h"

namespace distperm {
namespace index {

/// Rows evaluated per blocked-kernel call: large enough to amortize the
/// loop setup, small enough that a block of scores stays in L1.
inline constexpr size_t kDistanceBlockRows = 256;

namespace internal {

/// The part of the row API written once over a store's own
/// MakeRowQuery / BlockScores / RowDistance / RowPairDistance.
template <typename Store>
class PointStoreOps {
 public:
  /// RowDistance, charging one distance computation to `counter`.
  template <typename Query>
  double ChargedRowDistance(const Query& query, size_t i,
                            uint64_t* counter) const {
    ++*counter;
    return self().RowDistance(query, i);
  }

  /// RowPairDistance, charging one distance computation to `counter`.
  double ChargedRowPairDistance(size_t i, size_t j, uint64_t* counter) const {
    ++*counter;
    return self().RowPairDistance(i, j);
  }

  /// Calls fn(row, metric(point row, point i)) for every row in
  /// [begin, end), evaluated a block at a time, charging one distance
  /// computation per row — the build loop of AESA's matrix and LAESA's
  /// pivot table.
  template <typename Fn>
  void ForEachRowDistance(size_t i, size_t begin, size_t end,
                          uint64_t* counter, const Fn& fn) const {
    const auto query = self().MakeRowQuery(i);
    double block[kDistanceBlockRows];
    for (size_t b = begin; b < end; b += kDistanceBlockRows) {
      const size_t count = std::min(kDistanceBlockRows, end - b);
      self().BlockScores(query, b, count, block);
      *counter += count;
      for (size_t r = 0; r < count; ++r) {
        fn(b + r, self().ScoreToDistance(block[r]));
      }
    }
  }

 private:
  const Store& self() const { return static_cast<const Store&>(*this); }
};

}  // namespace internal

/// Points without a flat layout, evaluated one pair at a time.
template <typename P>
class PointStore : public internal::PointStoreOps<PointStore<P>> {
 public:
  struct QueryContext {
    const P* query = nullptr;
  };

  PointStore(std::vector<P> points, metric::Metric<P> metric)
      : points_(std::move(points)), metric_(std::move(metric)) {}

  size_t size() const { return points_.size(); }
  /// 0: these points carry no dimension to check queries against.
  size_t dim() const { return 0; }
  const P& Point(size_t i) const { return points_[i]; }
  const metric::Metric<P>& metric() const { return metric_; }

  /// A store of copies of the points at `ids`, in that order.
  PointStore Subset(const std::vector<size_t>& ids) const {
    std::vector<P> picked;
    for (size_t id : ids) picked.push_back(points_[id]);
    return PointStore(std::move(picked), metric_);
  }

  QueryContext MakeQuery(const P& query) const { return {&query}; }
  QueryContext MakeRowQuery(size_t i) const { return {&points_[i]}; }

  void BlockScores(const QueryContext& query, size_t begin, size_t count,
                   double* out) const {
    for (size_t r = 0; r < count; ++r) out[r] = RowDistance(query, begin + r);
  }
  double RowDistance(const QueryContext& query, size_t i) const {
    return metric_(points_[i], *query.query);
  }
  double RowPairDistance(size_t i, size_t j) const {
    return metric_(points_[i], points_[j]);
  }
  double ScoreToDistance(double score) const { return score; }
  double RangeScoreBound(double radius) const { return radius; }

 private:
  std::vector<P> points_;
  metric::Metric<P> metric_;
};

/// Dense vectors: the build's row vectors, or 64-byte-aligned flat rows
/// borrowed from a mapping.  Immutable once built.
template <>
class PointStore<metric::Vector>
    : public internal::PointStoreOps<PointStore<metric::Vector>> {
 public:
  /// Row alignment in bytes (one x86 cache line).
  static constexpr size_t kRowAlignBytes = 64;

  /// Doubles per flat row for points of dimension `dim`.
  static size_t StrideFor(size_t dim) {
    constexpr size_t kDoublesPerLine = kRowAlignBytes / sizeof(double);
    return (dim + kDoublesPerLine - 1) / kDoublesPerLine * kDoublesPerLine;
  }

  /// The query side of a row distance: its coordinates and, for the
  /// angle metric, its norm.  Valid against any store of the same
  /// dimension and metric, not only the one that made it.
  struct QueryContext {
    const double* query = nullptr;
    size_t dim = 0;
    double query_norm = 0.0;
  };

  /// Keeps `points` as the rows.  All points must share one dimension
  /// >= 1 (fatal otherwise).
  PointStore(std::vector<metric::Vector> points,
             metric::Metric<metric::Vector> metric);

  /// Borrows `size` rows of `dim` doubles at `rows` (64-byte aligned,
  /// StrideFor(dim) doubles apart); `owner` keeps that memory alive for
  /// as long as any copy of the store exists.
  PointStore(std::shared_ptr<const void> owner, const double* rows,
             size_t size, size_t dim, metric::Metric<metric::Vector> metric);

  size_t size() const { return size_; }
  /// Dimension of the stored points; 0 for an empty store, which
  /// accepts queries of any dimension.
  size_t dim() const { return dim_; }
  /// Row i: dim() doubles.
  const double* row(size_t i) const {
    return owned_.empty() ? rows_ + i * stride_ : owned_[i].data();
  }
  /// Bytes of heap holding point coordinates: size() x dim() x 8 for a
  /// store keeping its build's rows, 0 for one borrowing a mapping.
  uint64_t HeapBytes() const {
    return static_cast<uint64_t>(owned_.size()) * dim_ * sizeof(double);
  }
  /// Copy of point i.
  metric::Vector Point(size_t i) const {
    return metric::Vector(row(i), row(i) + dim_);
  }
  const metric::Metric<metric::Vector>& metric() const { return metric_; }

  /// A store of copies of the points at `ids`, in that order.
  PointStore Subset(const std::vector<size_t>& ids) const {
    std::vector<metric::Vector> picked;
    for (size_t id : ids) picked.push_back(Point(id));
    return PointStore(std::move(picked), metric_);
  }

  QueryContext MakeQuery(const metric::Vector& query) const {
    DP_CHECK_MSG(size_ == 0 || query.size() == dim_, "dimension mismatch");
    QueryContext context{query.data(), query.size(), 0.0};
    if (kind_ == metric::VectorKernelKind::kAngle) {
      context.query_norm =
          std::sqrt(metric::DotRaw(context.query, context.query, context.dim));
    }
    return context;
  }

  /// Query context over stored row i.
  QueryContext MakeRowQuery(size_t i) const {
    return {row(i), dim_, Norm(i)};
  }

  /// Scores for rows [begin, begin + count): the squared distance for
  /// L2, the distance itself for every other metric.  Monotone in the
  /// true distance in every case.
  void BlockScores(const QueryContext& query, size_t begin, size_t count,
                   double* out) const {
    if (!owned_.empty() || kind_ == metric::VectorKernelKind::kNone) {
      for (size_t r = 0; r < count; ++r) {
        out[r] = Score(row(begin + r), query.query, query.dim,
                       Norm(begin + r), query.query_norm);
      }
      return;
    }
    const double* rows = row(begin);
    switch (kind_) {
      case metric::VectorKernelKind::kL1:
        return metric::L1Block(query.query, rows, count, stride_, query.dim,
                               out);
      case metric::VectorKernelKind::kL2:
        return metric::L2sqBlock(query.query, rows, count, stride_,
                                 query.dim, out);
      case metric::VectorKernelKind::kLInf:
        return metric::LInfBlock(query.query, rows, count, stride_,
                                 query.dim, out);
      case metric::VectorKernelKind::kAngle:
        metric::DotBlock(query.query, rows, count, stride_, query.dim, out);
        for (size_t r = 0; r < count; ++r) {
          out[r] = metric::AngleFromParts(out[r], query.query_norm,
                                          norms_[begin + r]);
        }
        return;
      case metric::VectorKernelKind::kNone:
        return;
    }
  }

  double RowDistance(const QueryContext& query, size_t i) const {
    return ScoreToDistance(
        Score(row(i), query.query, query.dim, Norm(i), query.query_norm));
  }
  double RowPairDistance(size_t i, size_t j) const {
    return ScoreToDistance(Score(row(i), row(j), dim_, Norm(i), Norm(j)));
  }

  /// Maps a score back to the true distance (sqrt for L2).
  double ScoreToDistance(double score) const {
    return kind_ == metric::VectorKernelKind::kL2 ? std::sqrt(score) : score;
  }

  /// Conservative score-space filter for a range query of `radius`:
  /// every row within the radius scores <= the bound, so the block
  /// filter never drops a result; survivors are re-checked exactly.
  /// For L2 the slack covers the rounding of radius^2 and of the
  /// correctly rounded sqrt (a few ULP).
  double RangeScoreBound(double radius) const {
    if (kind_ != metric::VectorKernelKind::kL2) return radius;
    const double rr = radius * radius;
    return rr + 8.0 * (std::numeric_limits<double>::epsilon() * rr +
                       std::numeric_limits<double>::denorm_min());
  }

 private:
  void ComputeNorms();

  double Norm(size_t i) const { return norms_.empty() ? 0.0 : norms_[i]; }

  /// The score (see BlockScores) of a row of this store against `dim`
  /// doubles at `b`; the norms are read by the angle metric only.
  double Score(const double* a, const double* b, size_t dim, double norm_a,
               double norm_b) const {
    switch (kind_) {
      case metric::VectorKernelKind::kL1:
        return metric::L1Raw(a, b, dim);
      case metric::VectorKernelKind::kL2:
        return metric::L2sqRaw(a, b, dim);
      case metric::VectorKernelKind::kLInf:
        return metric::LInfRaw(a, b, dim);
      case metric::VectorKernelKind::kAngle:
        return metric::AngleFromParts(metric::DotRaw(a, b, dim), norm_a,
                                      norm_b);
      case metric::VectorKernelKind::kNone:
        break;
    }
    // Untagged: the metric sees Vectors, copied into per-thread scratch
    // (allocation-free once the scratch has grown).
    thread_local metric::Vector scratch_a, scratch_b;
    scratch_a.assign(a, a + dim_);
    scratch_b.assign(b, b + dim);
    return metric_(scratch_a, scratch_b);
  }

  std::vector<metric::Vector> owned_;  // a build's rows; else empty
  std::shared_ptr<const void> owner_;  // keeps borrowed rows_ alive
  const double* rows_ = nullptr;       // borrowed rows, stride_ apart
  size_t size_ = 0;
  size_t dim_ = 0;
  size_t stride_ = 0;
  metric::Metric<metric::Vector> metric_;
  metric::VectorKernelKind kind_;
  std::vector<double> norms_;  // per-row L2 norms; angle metric only
};

}  // namespace index
}  // namespace distperm

#endif  // DISTPERM_INDEX_POINT_STORE_H_
