// Proximity-search index interface.
//
// The cost model follows the similarity-search literature (and the
// paper): metric evaluations are the expensive operation, so every index
// counts the distance computations it performs, separately for build and
// query phases.  Each index holds its database once, in an
// index::PointStore, and computes every distance through it; results
// identify points by their position in that store.
//
// Queries are const and safe to issue from many threads at once: each
// call accumulates its metric evaluations in a private QueryStats that
// comes back in its SearchResponse, so the per-call numbers reproduce
// the paper's single-threaded cost model exactly no matter how the
// calls are scheduled.  Callers that want a total sum the responses.
//
// The query surface is one entry point: Search() takes an
// index::SearchRequest (kNN / range / kNN-within-radius, plus optional
// distance budget and candidate-fraction knobs — see search.h) and
// returns an index::SearchResponse.  Implementations override the
// single SearchImpl virtual.

#ifndef DISTPERM_INDEX_INDEX_H_
#define DISTPERM_INDEX_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "index/point_store.h"
#include "index/query_scratch.h"
#include "index/search.h"
#include "metric/metric.h"
#include "util/status.h"

namespace distperm {
namespace index {

/// Abstract proximity index over points of type P.
///
/// Thread-safety contract: after construction, Search is const and may
/// be called concurrently.
/// Implementations must keep all per-query state on the stack or in the
/// per-thread QueryScratch and charge metric evaluations to the
/// SearchContext's QueryStats, never to index members.
template <typename P>
class SearchIndex {
 public:
  using QueryContext = typename PointStore<P>::QueryContext;

  /// Takes the database's one copy.
  explicit SearchIndex(PointStore<P> points) : points_(std::move(points)) {}
  virtual ~SearchIndex() = default;

  SearchIndex(const SearchIndex&) = delete;
  SearchIndex& operator=(const SearchIndex&) = delete;

  /// Short name for reports ("linear-scan", "laesa", ...).  Every name
  /// is also a key in index::Registry, so name() round-trips through
  /// Registry::Create.
  virtual std::string name() const = 0;

  /// Answers one SearchRequest.  The request is validated first
  /// (InvalidArgument on k = 0 in a kNN mode, negative or NaN radius,
  /// NaN query coordinates, a query dimension other than the stored
  /// points', out-of-range candidate fraction) — a rejected request
  /// costs zero metric evaluations.  The response's stats cover exactly
  /// this call.  The search answers as if the `removed` points were
  /// absent.
  SearchResponse Search(const SearchRequest<P>& request,
                        const RemovedIds* removed = nullptr) const {
    SearchResponse response;
    response.status = ValidateRequest(request, points_.dim());
    if (!response.status.ok()) return response;
    KnnCollector* collector = nullptr;
    if (request.mode != SearchMode::kRange) {
      collector = &QueryScratch::ForThread().collector;
      collector->Reset(request.k);
      collector->Reserve(std::min(request.k, points_.size()));
    }
    SearchContext context(request.mode, request.radius,
                          request.max_distance_computations,
                          &response.stats, collector,
                          request.initial_radius_bound, removed);
    SearchImpl(request, points_.MakeQuery(request.point), &context);
    response.results = context.TakeResults();
    response.truncated = context.truncated();
    return response;
  }

  /// Bits of auxiliary storage the index keeps beyond the raw data.
  virtual uint64_t IndexBits() const = 0;

  /// Database size.
  size_t size() const { return points_.size(); }
  /// The stored database.
  const PointStore<P>& points() const { return points_; }
  /// The metric.
  const metric::Metric<P>& metric() const { return points_.metric(); }

  /// Metric evaluations spent building the index.
  uint64_t build_distance_computations() const { return build_count_; }

 protected:
  /// The one query implementation: const, reentrant, and required to
  /// charge every metric evaluation to `context->stats()` (via
  /// QueryDist or the store's charged helpers).  `query` is the
  /// request's point as a PointStore query context.  The
  /// implementation drives its loop with the context's Emit / Radius /
  /// StopAfterBudget and must return promptly once StopAfterBudget()
  /// reports the budget spent.  The request is pre-validated.
  virtual void SearchImpl(const SearchRequest<P>& request,
                          const QueryContext& query,
                          SearchContext* context) const = 0;

  /// Distance from stored point i to the query, charged to the query
  /// phase.
  double QueryDist(const QueryContext& query, size_t i,
                   QueryStats* stats) const {
    return points_.ChargedRowDistance(query, i, &stats->distance_computations);
  }
  /// Distance between stored points i and j, charged to the build
  /// phase (construction is single-threaded, so a plain counter
  /// suffices).
  double BuildDist(size_t i, size_t j) {
    return points_.ChargedRowPairDistance(i, j, &build_count_);
  }

  PointStore<P> points_;
  uint64_t build_count_ = 0;
};

}  // namespace index
}  // namespace distperm

#endif  // DISTPERM_INDEX_INDEX_H_
