// The unified query surface of the index layer.
//
// Every query against a SearchIndex is one typed SearchRequest: a mode
// (kNN, range, or kNN-within-radius), the query point, and optional
// execution knobs — a distance-computation budget and an approximate-
// candidate fraction.  Every answer is one SearchResponse: results in
// the canonical (distance, id) order, the call's QueryStats, a
// util::Status (invalid requests are rejected centrally instead of
// CHECK-failing inside an index), and a `truncated` flag that reports
// whether a budget stopped the search before it finished.
//
// Adding a query scenario therefore means adding a field here — not a
// new virtual pair on SearchIndex and a mirrored enum in the engine.

#ifndef DISTPERM_INDEX_SEARCH_H_
#define DISTPERM_INDEX_SEARCH_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace distperm {
namespace index {

/// One match: database position plus its distance to the query.
struct SearchResult {
  size_t id = 0;
  double distance = 0.0;

  friend bool operator==(const SearchResult& a, const SearchResult& b) {
    return a.id == b.id && a.distance == b.distance;
  }
};

/// Sorts results by (distance, id) — the canonical result order.
void SortResults(std::vector<SearchResult>* results);

/// Per-call accounting of the paper's cost model.  Each query call gets
/// its own accumulator, so concurrent callers never contend and a
/// caller's numbers cover exactly its own call.
struct QueryStats {
  uint64_t distance_computations = 0;
  /// Candidates a pruning filter discarded before the result stage:
  /// pivot lower-bound elimination (LAESA) and footrule cutoff
  /// (distperm) skip the metric evaluation itself; the flat scan's
  /// block-min score filter skips the emit work of scores already
  /// charged.  Indexes that prune whole subtrees without visiting them
  /// (vp/gh trees) report 0: counting those would require per-node
  /// subtree sizes the structures do not store.
  uint64_t pruning_eliminated = 0;
  /// Candidates verified by a true distance in an approximate index's
  /// verification stage (distperm's footrule ranking).  The verified
  /// fraction of a distperm query is candidates_verified / database
  /// size.  Exact indexes report 0.
  uint64_t candidates_verified = 0;
};

/// What a SearchRequest asks for.
enum class SearchMode : uint8_t {
  kKnn = 0,              ///< The k nearest points.
  kRange = 1,            ///< All points within `radius` (inclusive).
  kKnnWithinRadius = 2,  ///< The k nearest among points within `radius`.
};

/// Human-readable mode name ("knn", "range", "knn-within-radius").
const char* SearchModeName(SearchMode mode);

/// Delta-merge hook for live stores (engine::LiveDatabase).  A live
/// query runs in two legs: the pinned generation's index search (whose
/// SearchContext skips the window's removed ids and prunes against the
/// delta's k-th distance through initial_radius_bound — any k delta
/// hits upper-bound the merged k-th distance, so the cap is exact) and
/// the delta leg over the window's alive inserts.  This folds the two
/// legs together: appends the already-verified delta hits, restores
/// canonical (distance, id) order, and re-trims the kNN modes to k.
/// `base` results keep generation ids; delta hits carry their
/// delta-assigned ids — disjoint by construction, so the merged order
/// is well defined.
void MergeDeltaResults(std::vector<SearchResult>* base,
                       std::vector<SearchResult> delta_hits,
                       SearchMode mode, size_t k);

/// The ids a live store removed as of one pinned delta window, as plain
/// data (engine::DeltaLog owns the array).  Id i's removal position —
/// the log position of the remove that retired it, UINT32_MAX if none
/// did — is removed_at[ids[i]] when `ids` is set (a side run's scattered
/// insert ids), else removed_at[i]; i is removed iff it is below `end`,
/// the window's length.
struct RemovedIds {
  const std::atomic<uint32_t>* removed_at = nullptr;
  size_t end = 0;
  const size_t* ids = nullptr;

  bool Contains(size_t i) const {
    const size_t slot = ids != nullptr ? ids[i] : i;
    return removed_at[slot].load(std::memory_order_relaxed) < end;
  }
};

/// One query: a mode, a point, and the mode's parameters, plus optional
/// execution knobs.  Construct with the factories (Knn, Range,
/// KnnWithinRadius) and chain the With* setters for the knobs:
///
///   index.Search(SearchRequest<Vector>::Knn(q, 10)
///                    .WithDistanceBudget(500));
///
/// The engine's QuerySpec<P> is an alias of this type, so one request
/// object describes a query identically everywhere.
template <typename P>
struct SearchRequest {
  SearchMode mode = SearchMode::kKnn;
  P point{};
  /// Number of neighbours (kKnn / kKnnWithinRadius modes; must be >= 1).
  size_t k = 0;
  /// Query radius, inclusive (kRange / kKnnWithinRadius; must be >= 0).
  double radius = 0.0;
  /// Distance-computation budget: when non-zero, the index stops
  /// searching once this many metric evaluations have been charged and
  /// the response reports truncated = true.  Results found so far are
  /// returned; they may be incomplete (and for kNN not yet the true
  /// neighbours).  0 means unlimited — the exact search, with cost
  /// accounting identical to a request without the field.
  uint64_t max_distance_computations = 0;
  /// For approximate indexes (distperm): fraction of the database to
  /// verify on this call, overriding the index's configured default.
  /// 0 means "use the index default"; exact indexes ignore the knob.
  double approx_candidate_fraction = 0.0;
  /// Upper bound on the k-th neighbour distance, known before the
  /// search starts (e.g. from a replica, a cache, or an earlier probe).
  /// kNN-mode searches prune against it from the first candidate on.
  /// Exactness contract: results stay bit-identical to an unhinted
  /// search as long as the bound really is >= the true k-th distance; a
  /// tighter (invalid) bound turns the search approximate.  Must be
  /// >= 0 and not NaN; +infinity (the default) is a no-op.  Range-mode
  /// searches ignore the field (their radius already bounds them).
  double initial_radius_bound = std::numeric_limits<double>::infinity();
  /// When true, QueryEngine::RunBatch attaches an obs::SearchTrace to
  /// this query's BatchOutput slot: one span per shard task (plus the
  /// delta leg on the live path) with timing, distance counts, and the
  /// radius bound the span searched under.  Observation only — results and
  /// distance accounting are bit-identical with tracing on.  Ignored
  /// by single-index Search().
  bool collect_trace = false;

  static SearchRequest Knn(P point, size_t k) {
    SearchRequest request;
    request.mode = SearchMode::kKnn;
    request.point = std::move(point);
    request.k = k;
    return request;
  }

  static SearchRequest Range(P point, double radius) {
    SearchRequest request;
    request.mode = SearchMode::kRange;
    request.point = std::move(point);
    request.radius = radius;
    return request;
  }

  static SearchRequest KnnWithinRadius(P point, size_t k, double radius) {
    SearchRequest request;
    request.mode = SearchMode::kKnnWithinRadius;
    request.point = std::move(point);
    request.k = k;
    request.radius = radius;
    return request;
  }

  SearchRequest& WithDistanceBudget(uint64_t budget) {
    max_distance_computations = budget;
    return *this;
  }

  SearchRequest& WithCandidateFraction(double fraction) {
    approx_candidate_fraction = fraction;
    return *this;
  }

  SearchRequest& WithInitialRadiusBound(double bound) {
    initial_radius_bound = bound;
    return *this;
  }

  SearchRequest& WithTrace(bool trace = true) {
    collect_trace = trace;
    return *this;
  }
};

/// The answer to one SearchRequest.  `results` is empty and `stats` is
/// zero whenever `status` is not OK (invalid requests are rejected
/// before any metric evaluation).
struct SearchResponse {
  std::vector<SearchResult> results;
  QueryStats stats;
  util::Status status;
  /// True iff a distance budget stopped the search before it finished
  /// (the result set may be incomplete); always false for unbudgeted
  /// requests.
  bool truncated = false;
};

namespace internal {

/// NaN detection for query points.  The generic form accepts every
/// point type; the overloads cover the coordinate-bearing ones.
template <typename P>
inline bool HasNanCoordinate(const P&) {
  return false;
}
inline bool HasNanCoordinate(const std::vector<double>& point) {
  for (double coordinate : point) {
    if (std::isnan(coordinate)) return true;
  }
  return false;
}
inline bool HasNanCoordinate(
    const std::vector<std::pair<uint32_t, double>>& point) {
  for (const auto& [dimension, value] : point) {
    if (std::isnan(value)) return true;
  }
  return false;
}

}  // namespace internal

/// Dimension of a point: its length for dense vectors, 0 (none) for
/// every other point type.
template <typename P>
inline size_t PointDimension(const P&) {
  return 0;
}
inline size_t PointDimension(const std::vector<double>& point) {
  return point.size();
}

/// InvalidArgument when `point` is a dense vector of a dimension other
/// than `dim`, the dimension of the stored points.  dim 0 — a store
/// holding no points, or a point type without a dimension — accepts
/// every point.  `what` names the point in the message.
template <typename P>
util::Status ValidateDimension(const P& point, size_t dim, const char* what) {
  const size_t got = PointDimension(point);
  if (dim == 0 || got == dim) return util::Status::OK();
  return util::Status::InvalidArgument(
      std::string(what) + " has dimension " + std::to_string(got) +
      " but the stored points have dimension " + std::to_string(dim));
}

/// Central request validation, shared by SearchIndex::Search and the
/// engine's RunBatch: k = 0 in a kNN mode, a negative or NaN radius, a
/// NaN query coordinate, a query dimension other than `dim` (the
/// stored points', see ValidateDimension), or an out-of-range
/// candidate fraction all yield InvalidArgument here instead of
/// undefined behavior (or a CHECK-death) inside an index
/// implementation.
template <typename P>
util::Status ValidateRequest(const SearchRequest<P>& request, size_t dim) {
  const bool wants_knn = request.mode != SearchMode::kRange;
  const bool wants_radius = request.mode != SearchMode::kKnn;
  if (wants_knn && request.k == 0) {
    return util::Status::InvalidArgument(
        "SearchRequest: k must be >= 1 for kNN modes");
  }
  if (wants_radius) {
    if (std::isnan(request.radius)) {
      return util::Status::InvalidArgument("SearchRequest: radius is NaN");
    }
    if (request.radius < 0.0) {
      return util::Status::InvalidArgument(
          "SearchRequest: radius must be >= 0");
    }
  }
  if (std::isnan(request.approx_candidate_fraction) ||
      request.approx_candidate_fraction < 0.0 ||
      request.approx_candidate_fraction > 1.0) {
    return util::Status::InvalidArgument(
        "SearchRequest: approx_candidate_fraction must be in [0, 1]");
  }
  if (std::isnan(request.initial_radius_bound) ||
      request.initial_radius_bound < 0.0) {
    return util::Status::InvalidArgument(
        "SearchRequest: initial_radius_bound must be >= 0 and not NaN");
  }
  if (internal::HasNanCoordinate(request.point)) {
    return util::Status::InvalidArgument(
        "SearchRequest: query point has a NaN coordinate");
  }
  return ValidateDimension(request.point, dim, "SearchRequest: query point");
}

/// Keeps the k best (smallest-distance) results seen so far; ties broken
/// toward lower ids.  Used by the kNN search loops.  Reusable: Reset()
/// re-arms a collector without releasing its heap storage, so the
/// per-thread pooled instance (index::QueryScratch) serves a whole
/// batch allocation-free after warm-up.
class KnnCollector {
 public:
  explicit KnnCollector(size_t k) : k_(k) {}

  /// Re-arms the collector for a new query: drops all kept results
  /// (capacity is retained) and sets the new k.
  void Reset(size_t k) {
    k_ = k;
    heap_.clear();
  }

  /// Pre-allocates heap storage for up to `k` kept results.
  void Reserve(size_t k) { heap_.reserve(k); }

  /// Offers a candidate.
  void Offer(size_t id, double distance);

  /// Current pruning radius: distance of the worst kept result, or
  /// +infinity while fewer than k results are kept (-infinity when
  /// k = 0: nothing can ever be kept).
  double Radius() const;

  /// Extracts the results, sorted by (distance, id).
  std::vector<SearchResult> Take();

  size_t size() const { return heap_.size(); }
  size_t k() const { return k_; }

 private:
  // Max-heap by (distance, id) so the worst kept result is on top.
  struct Entry {
    double distance;
    size_t id;
    friend bool operator<(const Entry& a, const Entry& b) {
      if (a.distance != b.distance) return a.distance < b.distance;
      return a.id < b.id;
    }
  };
  size_t k_;
  std::vector<Entry> heap_;
};

/// Per-call execution state handed to SearchImpl: result collection,
/// the mode-aware pruning radius, and budget tracking.  Implementations
/// drive their search loop with Emit/Radius/StopAfterBudget and never
/// branch on the mode themselves, so one loop serves every mode.
///
/// The pruning radius additionally caps itself at the request's
/// initial_radius_bound, so every index's pruning — block-min score
/// filtering, ball pruning, lower-bound elimination — starts from the
/// best k-th distance known before the search.  The cap applies only to
/// the kNN modes: a range search must report every in-range point.  Emit
/// drops a live store's removed ids, so the kNN radius is the k-th
/// distance over live points and every index's pruning stays exact.
class SearchContext {
 public:
  /// `collector` must be non-null for the kNN modes (it is pooled from
  /// QueryScratch by SearchIndex::Search) and is unused for kRange.
  /// `initial_bound` is the request's initial_radius_bound.  `removed`
  /// (null: nothing is removed) names the ids to drop.
  SearchContext(SearchMode mode, double radius, uint64_t budget,
                QueryStats* stats, KnnCollector* collector,
                double initial_bound, const RemovedIds* removed = nullptr)
      : mode_(mode),
        radius_(radius),
        budget_(budget),
        initial_bound_(initial_bound),
        stats_(stats),
        collector_(collector),
        removed_(removed) {}

  SearchContext(const SearchContext&) = delete;
  SearchContext& operator=(const SearchContext&) = delete;

  /// Where implementations charge their metric evaluations.
  QueryStats* stats() const { return stats_; }

  /// True iff `id` was removed; an index may skip it unmeasured.
  bool Removed(size_t id) const {
    return removed_ != nullptr && removed_->Contains(id);
  }

  /// Offers a verified (id, true distance) pair to the result set; a
  /// removed id is dropped.
  void Emit(size_t id, double distance) {
    if (Removed(id)) return;
    switch (mode_) {
      case SearchMode::kRange:
        if (distance <= radius_) range_results_.push_back({id, distance});
        break;
      case SearchMode::kKnn:
        collector_->Offer(id, distance);
        break;
      case SearchMode::kKnnWithinRadius:
        if (distance <= radius_) collector_->Offer(id, distance);
        break;
    }
  }

  /// Current pruning radius: any point farther than this cannot enter
  /// the result set.  Fixed for kRange; shrinks as the collector fills
  /// for the kNN modes, where it is additionally capped by the
  /// request's initial bound.
  double Radius() const {
    switch (mode_) {
      case SearchMode::kRange:
        return radius_;
      case SearchMode::kKnn:
        return std::min(collector_->Radius(), initial_bound_);
      case SearchMode::kKnnWithinRadius:
        return std::min({radius_, collector_->Radius(), initial_bound_});
    }
    return radius_;  // unreachable; placates -Wreturn-type
  }

  /// True once the request's distance budget is spent, in which case
  /// the search is marked truncated and the implementation must stop.
  /// Always false (and free of side effects) for unbudgeted requests,
  /// so exact-path cost accounting is untouched.
  bool StopAfterBudget() {
    if (budget_ == 0 || stats_->distance_computations < budget_) {
      return false;
    }
    truncated_ = true;
    return true;
  }

  bool truncated() const { return truncated_; }

  /// Metric evaluations left under the budget (saturating at 0);
  /// effectively unlimited for unbudgeted requests.  Lets block-at-a-
  /// time implementations size their final block to the budget instead
  /// of overshooting by a block.
  uint64_t BudgetRemaining() const {
    if (budget_ == 0) return std::numeric_limits<uint64_t>::max();
    const uint64_t spent = stats_->distance_computations;
    return spent >= budget_ ? 0 : budget_ - spent;
  }

  /// Extracts the final result set in canonical (distance, id) order.
  std::vector<SearchResult> TakeResults();

 private:
  const SearchMode mode_;
  const double radius_;
  const uint64_t budget_;
  const double initial_bound_;
  QueryStats* const stats_;
  KnnCollector* const collector_;
  const RemovedIds* const removed_;
  std::vector<SearchResult> range_results_;
  bool truncated_ = false;
};

}  // namespace index
}  // namespace distperm

#endif  // DISTPERM_INDEX_SEARCH_H_
