// Core metric-space abstractions.
//
// A metric space in this library is a point type P plus a distance
// function.  Distances are type-erased into Metric<P> so indexes and
// counters can be written once per point type; the concrete metric
// classes (LpMetric, LevenshteinMetric, ...) live in sibling headers and
// convert implicitly.
//
// The paper's definition (Section 1): <S, d> is a metric space; given k
// sites x_1..x_k, the distance permutation of y sorts site indices by
// increasing d(x_i, y), breaking ties by increasing index.

#ifndef DISTPERM_METRIC_METRIC_H_
#define DISTPERM_METRIC_METRIC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace distperm {
namespace metric {

/// Dense real vector point type used by the Lp spaces.
using Vector = std::vector<double>;

/// Sparse vector (sorted by dimension id) used by document spaces.
using SparseVector = std::vector<std::pair<uint32_t, double>>;

/// Identifies a dense-vector metric with a vectorized kernel (see
/// kernels.h).  Metrics tagged with anything but kNone evaluate, on
/// contiguous rows, bit-identically to their scalar entry points, so
/// a vector point store (index/point_store.h) routes bulk distance work
/// through the blocked kernels without perturbing results or the
/// distance-computation cost model.
enum class VectorKernelKind : uint8_t {
  kNone = 0,  ///< No raw kernel; always evaluate through the functor.
  kL1,        ///< Manhattan distance.
  kL2,        ///< Euclidean distance (kernels score in squared form).
  kLInf,      ///< Chebyshev distance.
  kAngle,     ///< Dense angle distance (kernels precompute norms).
};

/// A named, type-erased distance function over points of type P.
///
/// Wrapping costs one std::function indirection per distance evaluation;
/// the library's cost model (like the paper's) counts metric evaluations,
/// which dominate any real workload, so the indirection is irrelevant.
template <typename P>
class Metric {
 public:
  using PointType = P;
  using Fn = std::function<double(const P&, const P&)>;

  /// Constructs a metric from a name and a distance callable.
  Metric(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  /// Constructs from any copyable metric object exposing
  /// `double operator()(const P&, const P&) const` and `name()`.  If the
  /// object also exposes `vector_kernel()`, the kernel tag is carried
  /// through the type erasure so point stores can select the kernels.
  template <typename M>
    requires requires(const M& m, const P& p) {
      { m(p, p) } -> std::convertible_to<double>;
      { m.name() } -> std::convertible_to<std::string>;
    }
  Metric(const M& m)  // NOLINT: implicit by design
      : name_(m.name()), fn_(m) {
    if constexpr (requires {
                    { m.vector_kernel() } ->
                        std::convertible_to<VectorKernelKind>;
                  }) {
      kernel_ = m.vector_kernel();
    }
  }

  /// Evaluates the distance.
  double operator()(const P& a, const P& b) const { return fn_(a, b); }

  /// Human-readable name ("L2", "levenshtein", ...).
  const std::string& name() const { return name_; }

  /// Vectorized-kernel tag (kNone unless the wrapped metric declared
  /// one).  Purely an optimization hint: evaluating through operator()
  /// and through the tagged kernel give bit-identical distances.
  VectorKernelKind vector_kernel() const { return kernel_; }

 private:
  std::string name_;
  Fn fn_;
  VectorKernelKind kernel_ = VectorKernelKind::kNone;
};

/// The discrete metric: 0 if equal, 1 otherwise.  Useful as a degenerate
/// test space (every non-site point has the identity distance
/// permutation under the tie-break rule).
template <typename P>
class DiscreteMetric {
 public:
  double operator()(const P& a, const P& b) const { return a == b ? 0 : 1; }
  std::string name() const { return "discrete"; }
};

}  // namespace metric
}  // namespace distperm

#endif  // DISTPERM_METRIC_METRIC_H_
