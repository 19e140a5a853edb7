// LAESA (Mico, Oncina & Vidal 1994): linear-storage AESA.
//
// Instead of the full distance matrix, LAESA stores the distances from
// every database point to k chosen pivots — Theta(n k) numbers.  A query
// measures its distance to each pivot, lower-bounds every candidate by
// max_j |d(q, p_j) - d(x, p_j)|, and verifies survivors in increasing
// bound order.  This is the storage baseline the permutation index
// improves on: k distances of lg n bits each versus one permutation of
// lg k! bits.

#ifndef DISTPERM_INDEX_LAESA_H_
#define DISTPERM_INDEX_LAESA_H_

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "index/index.h"
#include "index/pivot_select.h"
#include "index/query_scratch.h"
#include "metric/kernels.h"
#include "util/rng.h"

namespace distperm {
namespace index {

/// Pivot-table index with exact range and kNN search.
template <typename P>
class LaesaIndex : public SearchIndex<P> {
 public:
  using typename SearchIndex<P>::QueryContext;
  using SearchIndex<P>::points_;

  LaesaIndex(std::vector<P> data, metric::Metric<P> metric,
             size_t pivot_count, util::Rng* rng)
      : LaesaIndex(PointStore<P>(std::move(data), std::move(metric)),
                   pivot_count, rng) {}

  /// Builds with `pivot_count` max-min pivots chosen using `rng`.  The
  /// n x k table is filled one pivot at a time, the pivot row against
  /// blocks of the whole store — for vector data the one-query-vs-block
  /// kernels, which vectorizes the O(nk) build.
  LaesaIndex(PointStore<P> points, size_t pivot_count, util::Rng* rng)
      : SearchIndex<P>(std::move(points)) {
    pivot_ids_ = MaxMinPivots(points_, pivot_count, rng, &this->build_count_);
    const size_t n = points_.size();
    const size_t k = pivot_ids_.size();
    table_.resize(n * k);
    for (size_t j = 0; j < k; ++j) {
      points_.ForEachRowDistance(pivot_ids_[j], 0, n, &this->build_count_,
                                 [this, j, k](size_t i, double d) {
                                   table_[i * k + j] = d;
                                 });
    }
  }

  std::string name() const override { return "laesa"; }

  uint64_t IndexBits() const override {
    return static_cast<uint64_t>(table_.size()) * sizeof(double) * 8;
  }

  /// The pivot ids, in selection order.
  const std::vector<size_t>& pivot_ids() const { return pivot_ids_; }

  /// Stored distance from point i to pivot j.
  double StoredDistance(size_t i, size_t j) const {
    return table_[i * pivot_ids_.size() + j];
  }

 protected:
  void SearchImpl(const SearchRequest<P>& request, const QueryContext& query,
                  SearchContext* context) const override {
    QueryStats* stats = context->stats();
    std::vector<double> query_to_pivot;
    if (!MeasurePivots(query, context, &query_to_pivot)) return;
    for (size_t j = 0; j < pivot_ids_.size(); ++j) {
      context->Emit(pivot_ids_[j], query_to_pivot[j]);
    }
    if (request.mode == SearchMode::kRange) {
      // Fixed radius: the candidate set is known up front, so verify
      // survivors in id order without building the bound ordering.
      for (size_t i = 0; i < points_.size(); ++i) {
        if (IsPivot(i)) continue;
        if (LowerBound(i, query_to_pivot) > request.radius) {
          ++stats->pruning_eliminated;
          continue;
        }
        if (context->StopAfterBudget()) return;
        context->Emit(i, this->QueryDist(query, i, stats));
      }
      return;
    }
    // kNN modes: verify non-pivot candidates in increasing lower-bound
    // order; stop once the bound exceeds the shrinking radius.  The
    // order array is per-thread scratch, reused allocation-free across
    // the batch.
    std::vector<std::pair<double, size_t>>& order =
        QueryScratch::ForThread().bounds;
    order.clear();
    order.reserve(points_.size());
    for (size_t i = 0; i < points_.size(); ++i) {
      if (IsPivot(i)) continue;
      order.emplace_back(LowerBound(i, query_to_pivot), i);
    }
    std::sort(order.begin(), order.end());
    size_t verified = 0;
    for (const auto& [bound, i] : order) {
      if (bound > context->Radius()) break;
      if (context->StopAfterBudget()) return;
      context->Emit(i, this->QueryDist(query, i, stats));
      ++verified;
    }
    // Everything past the stopping point was eliminated by its lower
    // bound alone — no metric evaluation spent.
    stats->pruning_eliminated += order.size() - verified;
  }

 private:
  /// Measures the query against every pivot, charging one evaluation
  /// each.  Returns false when the distance budget runs out mid-way.
  bool MeasurePivots(const QueryContext& query, SearchContext* context,
                     std::vector<double>* distances) const {
    distances->resize(pivot_ids_.size());
    for (size_t j = 0; j < pivot_ids_.size(); ++j) {
      if (context->StopAfterBudget()) return false;
      (*distances)[j] =
          this->QueryDist(query, pivot_ids_[j], context->stats());
    }
    return true;
  }

  double LowerBound(size_t i, const std::vector<double>& query_to_pivot)
      const {
    // max_j |d(q, p_j) - d(x, p_j)| is exactly the L-infinity kernel
    // over the contiguous pivot-table row (max is associative, so the
    // vectorized form is bit-identical to the scalar loop).
    return metric::LInfRaw(query_to_pivot.data(),
                           &table_[i * pivot_ids_.size()],
                           pivot_ids_.size());
  }

  bool IsPivot(size_t i) const {
    return std::find(pivot_ids_.begin(), pivot_ids_.end(), i) !=
           pivot_ids_.end();
  }

  std::vector<size_t> pivot_ids_;
  std::vector<double> table_;  // row-major n x k
};

}  // namespace index
}  // namespace distperm

#endif  // DISTPERM_INDEX_LAESA_H_
