// Linear scan baseline: the naive algorithm the paper's introduction
// describes — one distance computation per database point per query.
//
// The scan runs a block of rows at a time through the point store
// (for kernel-tagged vector metrics, the blocked kernels over the
// packed rows, L2 in squared form with sqrt only on results), which is
// the cache-friendly hot loop bench_kernel_throughput measures.  Exactly
// one distance computation is charged per point.

#ifndef DISTPERM_INDEX_LINEAR_SCAN_H_
#define DISTPERM_INDEX_LINEAR_SCAN_H_

#include <algorithm>
#include <string>
#include <vector>

#include "index/index.h"
#include "index/query_scratch.h"

namespace distperm {
namespace index {

/// Exhaustive scan.  No build cost, no auxiliary storage, n distance
/// computations per query (fewer only under a distance budget).
template <typename P>
class LinearScanIndex : public SearchIndex<P> {
 public:
  using typename SearchIndex<P>::QueryContext;
  using SearchIndex<P>::points_;

  LinearScanIndex(std::vector<P> data, metric::Metric<P> metric)
      : LinearScanIndex(PointStore<P>(std::move(data), std::move(metric))) {}
  explicit LinearScanIndex(PointStore<P> points)
      : SearchIndex<P>(std::move(points)) {}

  std::string name() const override { return "linear-scan"; }

  uint64_t IndexBits() const override { return 0; }

 protected:
  /// Blocked scan.  Scores are only used to prune: Radius() is mapped
  /// into score space conservatively, chunks of scores are discarded
  /// with one vectorized min pass each, and only candidates surviving
  /// the score filter pay ScoreToDistance and touch the result set — so
  /// emitted distances are bit-identical to evaluating the metric point
  /// by point.  A distance budget sizes the final block down to the
  /// remaining allowance, so a budgeted scan charges exactly the
  /// budget.
  void SearchImpl(const SearchRequest<P>&, const QueryContext& query,
                  SearchContext* context) const override {
    std::vector<double>& block = QueryScratch::ForThread().distance_block;
    block.resize(kDistanceBlockRows);
    const size_t n = points_.size();
    constexpr size_t kMinChunk = 64;
    double score_bound = points_.RangeScoreBound(context->Radius());
    for (size_t begin = 0; begin < n;) {
      if (context->StopAfterBudget()) return;
      const size_t count =
          std::min({kDistanceBlockRows, n - begin,
                    static_cast<size_t>(std::min<uint64_t>(
                        context->BudgetRemaining(), kDistanceBlockRows))});
      points_.BlockScores(query, begin, count, block.data());
      context->stats()->distance_computations += count;
      for (size_t c = 0; c < count; c += kMinChunk) {
        const size_t chunk = std::min(kMinChunk, count - c);
        if (metric::MinRaw(block.data() + c, chunk) > score_bound) {
          context->stats()->pruning_eliminated += chunk;
          continue;
        }
        for (size_t j = c; j < c + chunk; ++j) {
          if (block[j] > score_bound) {
            ++context->stats()->pruning_eliminated;
            continue;
          }
          context->Emit(begin + j, points_.ScoreToDistance(block[j]));
          score_bound = points_.RangeScoreBound(context->Radius());
        }
      }
      begin += count;
    }
  }
};

}  // namespace index
}  // namespace distperm

#endif  // DISTPERM_INDEX_LINEAR_SCAN_H_
