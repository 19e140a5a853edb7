// Batch query descriptions for the concurrent engine.
//
// A batch is a vector of QuerySpec — which is exactly
// index::SearchRequest: the engine and the index layer share one typed
// request object, so every index-layer scenario (kNN, range,
// kNN-within-radius, distance budgets, per-request candidate fractions)
// is available in batches with no engine-side mirroring.  Results come
// back in batch order with global database ids, so callers never see
// the sharding.

#ifndef DISTPERM_ENGINE_QUERY_H_
#define DISTPERM_ENGINE_QUERY_H_

#include "index/search.h"

namespace distperm {
namespace engine {

/// One query in a batch: an index::SearchRequest.  Construct with the
/// factories — QuerySpec<P>::Knn(point, k), ::Range(point, radius),
/// ::KnnWithinRadius(point, k, radius) — and the With* knob setters.
template <typename P>
using QuerySpec = index::SearchRequest<P>;

}  // namespace engine
}  // namespace distperm

#endif  // DISTPERM_ENGINE_QUERY_H_
