// iAESA (Figueroa, Chavez, Navarro & Paredes 2006): AESA with
// permutation-guided pivot selection.
//
// iAESA keeps AESA's full distance matrix and elimination rule, but picks
// the next candidate to measure by similarity between the candidate's
// stored distance permutation (with respect to a fixed set of sites) and
// the query's permutation, rather than by the smallest lower bound.
// Permutation similarity is a better predictor of actual proximity, so
// good pivots are found sooner and elimination is faster.  The paper
// notes the improved pivot selection is separable from the storage
// question this library studies.

#ifndef DISTPERM_INDEX_IAESA_H_
#define DISTPERM_INDEX_IAESA_H_

#include <limits>
#include <string>
#include <vector>

#include "core/distance_permutation.h"
#include "core/perm_metrics.h"
#include "index/aesa.h"
#include "index/pivot_select.h"
#include "util/rng.h"

namespace distperm {
namespace index {

/// AESA with footrule-ordered candidate selection.
template <typename P>
class IaesaIndex : public AesaIndex<P> {
 public:
  using typename SearchIndex<P>::QueryContext;
  using SearchIndex<P>::points_;

  IaesaIndex(std::vector<P> data, metric::Metric<P> metric,
             size_t site_count, util::Rng* rng)
      : IaesaIndex(PointStore<P>(std::move(data), std::move(metric)),
                   site_count, rng) {}

  /// Builds the full matrix plus per-point permutations over
  /// `site_count` random sites.
  IaesaIndex(PointStore<P> points, size_t site_count, util::Rng* rng)
      : AesaIndex<P>(std::move(points)),
        sites_(points_.Subset(
            RandomPivots(points_.size(), site_count, rng))) {
    DP_CHECK(site_count >= 1 && site_count <= core::kMaxRank64Sites);
    permutations_.reserve(points_.size());
    std::vector<double> distances(site_count);
    for (size_t i = 0; i < points_.size(); ++i) {
      const QueryContext point = points_.MakeRowQuery(i);
      for (size_t j = 0; j < site_count; ++j) {
        distances[j] =
            sites_.ChargedRowDistance(point, j, &this->build_count_);
      }
      permutations_.push_back(core::PermutationFromDistances(distances));
    }
  }

  std::string name() const override { return "iaesa"; }

 protected:
  void SearchImpl(const SearchRequest<P>&, const QueryContext& query,
                  SearchContext* context) const override {
    std::vector<int> footrule;
    if (!QueryFootrules(query, context, &footrule)) return;
    this->EliminationSearch(query, FootrulePicker(footrule), context);
  }

 private:
  /// Footrule distance from the query's permutation to every stored
  /// permutation.  Per-call state: lives on the caller's stack so
  /// concurrent queries never share it.  Returns false when the
  /// distance budget runs out while measuring the sites (the search
  /// then stops with whatever has been emitted — nothing).
  bool QueryFootrules(const QueryContext& query, SearchContext* context,
                      std::vector<int>* footrule) const {
    const size_t k = sites_.size();
    std::vector<double> distances(k);
    for (size_t j = 0; j < k; ++j) {
      if (context->StopAfterBudget()) return false;
      distances[j] = sites_.ChargedRowDistance(
          query, j, &context->stats()->distance_computations);
    }
    core::Permutation query_perm =
        core::PermutationFromDistances(distances);
    footrule->resize(points_.size());
    for (size_t i = 0; i < points_.size(); ++i) {
      (*footrule)[i] = core::SpearmanFootrule(query_perm, permutations_[i]);
    }
    return true;
  }

  /// Picks the live candidate whose stored permutation is footrule-
  /// closest to the query's (ties toward smaller lower bound).
  static auto FootrulePicker(const std::vector<int>& footrule) {
    return [&footrule](const std::vector<double>& lower,
                       const std::vector<bool>& dead) {
      const size_t n = lower.size();
      size_t best = n;
      int best_footrule = std::numeric_limits<int>::max();
      double best_bound = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < n; ++i) {
        if (dead[i]) continue;
        int f = footrule[i];
        if (f < best_footrule ||
            (f == best_footrule && lower[i] < best_bound)) {
          best_footrule = f;
          best_bound = lower[i];
          best = i;
        }
      }
      return best;
    };
  }

  PointStore<P> sites_;  // copies of the sites, in selection order
  std::vector<core::Permutation> permutations_;
};

}  // namespace index
}  // namespace distperm

#endif  // DISTPERM_INDEX_IAESA_H_
