// Vectorizable distance kernels over raw contiguous rows.
//
// These are the hot inner loops of every Section 5 experiment: one
// query vector against one row, or one query against a whole block of
// rows packed contiguously (see index::PointStore).  The kernels
// take plain `const double* __restrict` pointers and accumulate into
// four independent partial sums so the compiler can auto-vectorize
// under the default (non--ffast-math) floating-point rules; the scalar
// entry points in lp.h/cosine.h delegate here, so every code path in
// the library computes bit-identical distances.
//
// Summation order: lanes i, i+1, i+2, i+3 accumulate independently and
// combine as (acc0 + acc1) + (acc2 + acc3), then any tail (dim % 4)
// adds sequentially.  This translation unit is additionally compiled
// for the host CPU (see DISTPERM_KERNEL_NATIVE in CMakeLists.txt), so
// the compiler may contract mul + add into FMA.  Together these
// perturb a sum by at most a few ULP versus the naive sequential loop
// (tests/kernels_test.cc pins the tolerance) and can never cause
// divergence between code paths, because there is exactly one compiled
// definition of each kernel and every distance evaluation in the
// library calls it.  L-infinity and the block-min helper perform no
// additions and match the sequential reference exactly.

#ifndef DISTPERM_METRIC_KERNELS_H_
#define DISTPERM_METRIC_KERNELS_H_

#include <cstddef>

namespace distperm {
namespace metric {

// ------------------------------------------------------------- one pair

/// Sum of |a_i - b_i| over `dim` entries.
double L1Raw(const double* a, const double* b, size_t dim);

/// Sum of (a_i - b_i)^2 over `dim` entries (no sqrt).
double L2sqRaw(const double* a, const double* b, size_t dim);

/// Max of |a_i - b_i| over `dim` entries.  Bit-identical to the
/// sequential loop for any lane count (max is associative).
double LInfRaw(const double* a, const double* b, size_t dim);

/// Dot product of a and b over `dim` entries.
double DotRaw(const double* a, const double* b, size_t dim);

// -------------------------------------------- one query vs a row block

// Block kernels evaluate one query against `row_count` rows stored
// contiguously at a fixed `stride` (in doubles, >= dim; the padding
// lanes are never read).  out[r] receives the kernel value for row r.
// Each row's result is bit-identical to the corresponding *Raw call.

void L1Block(const double* query, const double* rows, size_t row_count,
             size_t stride, size_t dim, double* out);

void L2sqBlock(const double* query, const double* rows, size_t row_count,
               size_t stride, size_t dim, double* out);

void LInfBlock(const double* query, const double* rows, size_t row_count,
               size_t stride, size_t dim, double* out);

void DotBlock(const double* query, const double* rows, size_t row_count,
              size_t stride, size_t dim, double* out);

/// Minimum of x[0..n): one vectorized pass used to discard whole score
/// blocks whose best candidate cannot beat the current kNN radius.
/// Comparison-based (like the Linf kernel), exact for any lane count.
double MinRaw(const double* x, size_t n);

}  // namespace metric
}  // namespace distperm

#endif  // DISTPERM_METRIC_KERNELS_H_
