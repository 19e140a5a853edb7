// AESA (Vidal 1986): the classic distance-matrix elimination search.
//
// Stores the full O(n^2) matrix of pairwise distances.  At query time it
// repeatedly picks a live candidate, measures its true distance, and uses
// the stored row to tighten every other candidate's triangle-inequality
// lower bound, discarding candidates whose bound exceeds the query
// radius.  Query cost in metric evaluations is famously near-constant;
// the price is the quadratic storage the paper's introduction criticises.

#ifndef DISTPERM_INDEX_AESA_H_
#define DISTPERM_INDEX_AESA_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "index/index.h"

namespace distperm {
namespace index {

/// Full-matrix AESA.  Build cost n(n-1)/2 metric evaluations; memory
/// O(n^2) doubles — use only for small databases.
template <typename P>
class AesaIndex : public SearchIndex<P> {
 public:
  using typename SearchIndex<P>::QueryContext;
  using SearchIndex<P>::points_;

  AesaIndex(std::vector<P> data, metric::Metric<P> metric)
      : AesaIndex(PointStore<P>(std::move(data), std::move(metric))) {}

  /// Builds the pairwise matrix: the strict upper triangle row by row,
  /// each row against the block of rows i+1..n (for vector data the
  /// one-query-vs-block kernels, which vectorizes the O(n^2) build).
  explicit AesaIndex(PointStore<P> points)
      : SearchIndex<P>(std::move(points)),
        matrix_(points_.size() * points_.size(), 0.0) {
    const size_t n = points_.size();
    for (size_t i = 0; i < n; ++i) {
      points_.ForEachRowDistance(i, i + 1, n, &this->build_count_,
                                 [this, i, n](size_t j, double d) {
                                   matrix_[i * n + j] = d;
                                   matrix_[j * n + i] = d;
                                 });
    }
  }

  std::string name() const override { return "aesa"; }

  uint64_t IndexBits() const override {
    return static_cast<uint64_t>(matrix_.size()) * sizeof(double) * 8;
  }

  /// The stored distance between database points i and j.
  double StoredDistance(size_t i, size_t j) const {
    return matrix_[i * points_.size() + j];
  }

 protected:
  void SearchImpl(const SearchRequest<P>&, const QueryContext& query,
                  SearchContext* context) const override {
    EliminationSearch(query, MinLowerBoundPicker(), context);
  }

  /// Core elimination loop, shared by every search mode and picker
  /// (iAESA supplies a permutation-guided picker).  `pick` chooses the
  /// next live candidate (or returns n when none remain); the context
  /// supplies the mode-aware pruning radius (it shrinks as a kNN
  /// collector fills) and receives every point whose true distance is
  /// computed.  All per-query state lives on the caller's stack, so
  /// concurrent searches never interfere.
  template <typename Picker>
  void EliminationSearch(const QueryContext& query, const Picker& pick,
                         SearchContext* context) const {
    const size_t n = points_.size();
    std::vector<double> lower(n, 0.0);
    std::vector<bool> dead(n, false);
    while (true) {
      size_t next = pick(lower, dead);
      if (next == n) break;
      if (context->StopAfterBudget()) return;
      dead[next] = true;
      if (lower[next] > context->Radius()) continue;  // cannot qualify
      double d = this->QueryDist(query, next, context->stats());
      context->Emit(next, d);
      const double radius = context->Radius();
      const double* row = &matrix_[next * n];
      for (size_t i = 0; i < n; ++i) {
        if (dead[i]) continue;
        double bound = std::fabs(d - row[i]);
        if (bound > lower[i]) lower[i] = bound;
        if (lower[i] > radius) dead[i] = true;
      }
    }
  }

  /// AESA's classic ordering: the live candidate with the smallest
  /// triangle-inequality lower bound.
  auto MinLowerBoundPicker() const {
    return [](const std::vector<double>& lower,
              const std::vector<bool>& dead) {
      const size_t n = lower.size();
      size_t best = n;
      double best_bound = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < n; ++i) {
        if (!dead[i] && lower[i] < best_bound) {
          best_bound = lower[i];
          best = i;
        }
      }
      return best;
    };
  }

  std::vector<double> matrix_;
};

}  // namespace index
}  // namespace distperm

#endif  // DISTPERM_INDEX_AESA_H_
