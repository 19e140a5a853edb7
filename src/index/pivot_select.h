// Pivot (site) selection strategies.
//
// Random selection is the paper's protocol for its counting experiments;
// max-min (farthest-first) selection is the standard heuristic for
// LAESA-style pivot tables.

#ifndef DISTPERM_INDEX_PIVOT_SELECT_H_
#define DISTPERM_INDEX_PIVOT_SELECT_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "index/point_store.h"
#include "util/rng.h"
#include "util/status.h"

namespace distperm {
namespace index {

/// `count` distinct random indices into a database of `n` points.
inline std::vector<size_t> RandomPivots(size_t n, size_t count,
                                        util::Rng* rng) {
  DP_CHECK(count <= n);
  return rng->SampleDistinct(n, count);
}

/// Farthest-first (max-min) pivots: the first pivot is random; each
/// subsequent pivot maximises its minimum distance to the pivots chosen
/// so far.  `distance_count` is incremented by the number of metric
/// evaluations used (n per added pivot).
template <typename P>
std::vector<size_t> MaxMinPivots(const PointStore<P>& points, size_t count,
                                 util::Rng* rng, uint64_t* distance_count) {
  const size_t n = points.size();
  DP_CHECK(count <= n);
  std::vector<size_t> pivots;
  if (count == 0) return pivots;
  pivots.reserve(count);
  pivots.push_back(static_cast<size_t>(rng->NextBounded(n)));
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  while (pivots.size() < count) {
    size_t latest = pivots.back();
    size_t best = 0;
    double best_distance = -1.0;
    for (size_t i = 0; i < n; ++i) {
      double d = points.ChargedRowPairDistance(latest, i, distance_count);
      if (d < nearest[i]) nearest[i] = d;
      if (nearest[i] > best_distance) {
        best_distance = nearest[i];
        best = i;
      }
    }
    if (best_distance <= 0.0) {
      // Degenerate database (all remaining points coincide with pivots);
      // fall back to an arbitrary unused index.
      for (size_t i = 0; i < n; ++i) {
        if (nearest[i] > 0.0 ||
            std::find(pivots.begin(), pivots.end(), i) == pivots.end()) {
          best = i;
          break;
        }
      }
    }
    pivots.push_back(best);
  }
  return pivots;
}

}  // namespace index
}  // namespace distperm

#endif  // DISTPERM_INDEX_PIVOT_SELECT_H_
