// The permutation index of Chavez, Figueroa & Navarro (2005) — the
// "distperm" index the paper instruments for its Section 5 experiments.
//
// Per database point the index stores only the point's distance
// permutation with respect to k sites, or optionally just the prefix
// naming its `prefix_length` closest sites — the truncated variant used
// in practice when k is large.  The permutation is kept inverted, as one
// byte per site holding that site's rank (k bytes per point), because
// that is the form the query-time footrule reads.  At query time the
// query's own permutation is computed (k metric evaluations) and
// candidates are verified in increasing Spearman-footrule order;
// reviewing only a fraction f of the database gives the probabilistic
// search of the original paper.  The index also reports the number of
// distinct permutations it stores — the quantity this paper counts — and
// the bytes its rank table occupies.

#ifndef DISTPERM_INDEX_DISTPERM_INDEX_H_
#define DISTPERM_INDEX_DISTPERM_INDEX_H_

#include <algorithm>
#include <atomic>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/distance_permutation.h"
#include "core/perm_codec.h"
#include "core/perm_metrics.h"
#include "index/index.h"
#include "index/pivot_select.h"
#include "index/query_scratch.h"
#include "util/rng.h"
#include "util/status.h"

namespace distperm {
namespace index {

/// Permutation (distperm) index.  Range and kNN queries are approximate:
/// they verify the `fraction` of the database whose stored permutations
/// are footrule-closest to the query's permutation.  fraction = 1.0
/// degenerates to an ordered linear scan (exact).
template <typename P>
class DistPermIndex : public SearchIndex<P> {
 public:
  using typename SearchIndex<P>::QueryContext;
  using SearchIndex<P>::points_;

  DistPermIndex(std::vector<P> data, metric::Metric<P> metric,
                size_t site_count, util::Rng* rng, double fraction = 0.1,
                size_t prefix_length = 0)
      : DistPermIndex(PointStore<P>(std::move(data), std::move(metric)),
                      site_count, rng, fraction, prefix_length) {}

  /// Builds with `site_count` random sites (the paper's protocol) and
  /// the given default verification fraction.  `prefix_length` = 0 (the
  /// default) stores full permutations; a value m in [1, site_count)
  /// stores only each point's m closest sites.
  DistPermIndex(PointStore<P> points, size_t site_count, util::Rng* rng,
                double fraction = 0.1, size_t prefix_length = 0)
      : SearchIndex<P>(std::move(points)),
        sites_(points_.Subset(
            RandomPivots(points_.size(), site_count, rng))),
        fraction_(fraction) {
    DP_CHECK(site_count >= 1 && site_count <= core::kMaxRank64Sites);
    DP_CHECK(fraction > 0.0 && fraction <= 1.0);
    prefix_ = prefix_length == 0 ? site_count
                                 : std::min(prefix_length, site_count);
    inv_ranks_.assign(points_.size() * site_count, 0);
    std::vector<double> distances(site_count);
    for (size_t i = 0; i < points_.size(); ++i) {
      const QueryContext point = points_.MakeRowQuery(i);
      for (size_t j = 0; j < site_count; ++j) {
        distances[j] =
            sites_.ChargedRowDistance(point, j, &this->build_count_);
      }
      core::Permutation perm =
          prefix_ == site_count
              ? core::PermutationFromDistances(distances)
              : core::PermutationPrefixFromDistances(distances, prefix_);
      // Invert once at build time: inv_ranks_[i*k + site] is the site's
      // rank in point i's permutation, or prefix_ for sites absent from
      // a truncated prefix.  Footrule at query time is then a single
      // O(k) pass over two rank arrays with no per-pair inversion.
      uint8_t* ranks = &inv_ranks_[i * site_count];
      std::fill(ranks, ranks + site_count, static_cast<uint8_t>(prefix_));
      for (size_t r = 0; r < perm.size(); ++r) {
        ranks[perm[r]] = static_cast<uint8_t>(r);
      }
    }
  }

  /// Everything the index keeps besides the data itself — the exact
  /// members search reads.  Exported for snapshot persistence and fed
  /// back through the restore constructor: a restored index answers
  /// bit-identically to the one that exported, because SearchImpl
  /// depends on nothing outside this state.
  struct State {
    std::vector<P> sites;
    size_t prefix = 0;
    double fraction = 0.1;
    std::vector<uint8_t> inv_ranks;
  };

  State ExportState() const {
    State state;
    state.sites = sites();
    state.prefix = prefix_;
    state.fraction = fraction();
    state.inv_ranks = inv_ranks_;
    return state;
  }

  /// Checks that `state` can back an index over `point_count` points:
  /// 1..kMaxRank64Sites sites, a prefix in [1, k], a fraction in (0, 1],
  /// point_count x k ranks, and no rank above the prefix.  For state
  /// read from outside the program, which the restore constructor would
  /// otherwise CHECK-fail on.  One pass over the rank table.
  static util::Status ValidateState(const State& state, size_t point_count) {
    const size_t k = state.sites.size();
    if (k == 0 || k > core::kMaxRank64Sites) {
      return util::Status::InvalidArgument(
          "site count " + std::to_string(k) + " is outside 1.." +
          std::to_string(core::kMaxRank64Sites));
    }
    if (state.prefix < 1 || state.prefix > k) {
      return util::Status::InvalidArgument(
          "prefix " + std::to_string(state.prefix) + " is outside [1, " +
          std::to_string(k) + "]");
    }
    if (!(state.fraction > 0.0 && state.fraction <= 1.0)) {
      return util::Status::InvalidArgument(
          "fraction " + std::to_string(state.fraction) +
          " is outside (0, 1]");
    }
    if (state.inv_ranks.size() != point_count * k) {
      return util::Status::InvalidArgument(
          std::to_string(state.inv_ranks.size()) + " ranks for " +
          std::to_string(point_count) + " points x " + std::to_string(k) +
          " sites");
    }
    uint8_t max_rank = 0;
    for (uint8_t rank : state.inv_ranks) max_rank = std::max(max_rank, rank);
    if (max_rank > state.prefix) {
      return util::Status::InvalidArgument(
          "rank " + std::to_string(max_rank) + " exceeds prefix " +
          std::to_string(state.prefix));
    }
    return util::Status::OK();
  }

  DistPermIndex(std::vector<P> data, metric::Metric<P> metric,
                State state)
      : DistPermIndex(PointStore<P>(std::move(data), std::move(metric)),
                      std::move(state)) {}

  /// Restores an index from previously exported state without paying
  /// the n x k build-time distance evaluations.  The state must match
  /// `points` (same point count it was exported over); this is checked.
  /// build_distance_computations() reports 0 for a restored index —
  /// restoration computes no distances.
  DistPermIndex(PointStore<P> points, State state)
      : SearchIndex<P>(std::move(points)),
        sites_(std::move(state.sites), points_.metric()),
        prefix_(state.prefix),
        inv_ranks_(std::move(state.inv_ranks)),
        fraction_(state.fraction) {
    DP_CHECK(sites_.size() >= 1 && sites_.size() <= core::kMaxRank64Sites);
    DP_CHECK(prefix_ >= 1 && prefix_ <= sites_.size());
    DP_CHECK(fraction() > 0.0 && fraction() <= 1.0);
    DP_CHECK_MSG(inv_ranks_.size() == points_.size() * sites_.size(),
                 "restored distperm state does not match the data: "
                     << inv_ranks_.size() << " ranks for " << points_.size()
                     << " points x " << sites_.size() << " sites");
  }

  std::string name() const override {
    return prefix_ == sites_.size() ? "distperm" : "distperm-prefix";
  }

  /// Bits the rank table occupies: one byte per (point, site).
  uint64_t IndexBits() const override { return 8 * inv_ranks_.size(); }

  /// Number of distinct (possibly truncated) permutations stored — the
  /// paper's counted quantity.  A rank row determines its permutation
  /// (prefix) and back, so distinct rows are distinct permutations.
  size_t DistinctPermutationCount() const {
    const size_t k = sites_.size();
    const char* rows = reinterpret_cast<const char*>(inv_ranks_.data());
    std::unordered_set<std::string_view> seen;
    for (size_t i = 0; i < points_.size(); ++i) {
      seen.emplace(rows + i * k, k);
    }
    return seen.size();
  }

  /// The stored permutation (or prefix) of database point i, read back
  /// from its rank row.
  core::Permutation StoredPermutation(size_t i) const {
    const uint8_t* ranks = &inv_ranks_[i * sites_.size()];
    core::Permutation perm(prefix_);
    for (size_t site = 0; site < sites_.size(); ++site) {
      if (ranks[site] < prefix_) {
        perm[ranks[site]] = static_cast<uint8_t>(site);
      }
    }
    return perm;
  }

  /// Copies of the sites used by the index, in selection order.
  std::vector<P> sites() const {
    std::vector<P> sites;
    sites.reserve(sites_.size());
    for (size_t j = 0; j < sites_.size(); ++j) sites.push_back(sites_.Point(j));
    return sites;
  }

  /// Stored prefix length (equals sites().size() for full permutations).
  size_t prefix_length() const { return prefix_; }

  /// Default fraction of the database verified per query.  Stored in an
  /// atomic so the engine can retune it while queries are in flight.
  double fraction() const {
    return fraction_.load(std::memory_order_relaxed);
  }
  void set_fraction(double fraction) {
    DP_CHECK(fraction > 0.0 && fraction <= 1.0);
    fraction_.store(fraction, std::memory_order_relaxed);
  }

 protected:
  void SearchImpl(const SearchRequest<P>& request, const QueryContext& query,
                  SearchContext* context) const override {
    ScanByFootrule(query, VerifyBudget(request.approx_candidate_fraction),
                   context);
  }

 private:
  /// Points to verify on this call: `override_fraction` (a per-request
  /// SearchRequest::approx_candidate_fraction, validated to [0, 1])
  /// when non-zero, the index's configured default otherwise.
  size_t VerifyBudget(double override_fraction) const {
    const double f =
        override_fraction > 0.0 ? override_fraction : fraction();
    size_t budget =
        static_cast<size_t>(f * static_cast<double>(points_.size()));
    return std::max<size_t>(1, std::min(budget, points_.size()));
  }

  /// Computes the query permutation, scores every stored point with the
  /// O(k) rank-array footrule, selects the `budget` footrule-closest
  /// candidates with std::nth_element (partial selection — the N-budget
  /// unverified scores are never fully ordered), sorts only the
  /// selected slice into the canonical (footrule, id) order, and
  /// verifies it.  The candidate sequence is identical to fully
  /// ordering the database by (footrule, id) and taking the first
  /// `budget`, i.e. to the original full-sort formulation.
  void ScanByFootrule(const QueryContext& query, size_t budget,
                      SearchContext* context) const {
    QueryStats* stats = context->stats();
    const size_t k = sites_.size();
    std::vector<double> distances(k);
    for (size_t j = 0; j < k; ++j) {
      if (context->StopAfterBudget()) return;
      distances[j] =
          sites_.ChargedRowDistance(query, j, &stats->distance_computations);
    }
    core::Permutation query_perm =
        prefix_ == k ? core::PermutationFromDistances(distances)
                     : core::PermutationPrefixFromDistances(distances,
                                                            prefix_);
    uint8_t query_ranks[core::kMaxSites];
    std::fill(query_ranks, query_ranks + k, static_cast<uint8_t>(prefix_));
    for (size_t r = 0; r < query_perm.size(); ++r) {
      query_ranks[query_perm[r]] = static_cast<uint8_t>(r);
    }

    std::vector<std::pair<uint32_t, uint32_t>>& scored =
        QueryScratch::ForThread().scored;
    scored.clear();
    scored.reserve(points_.size());
    const uint8_t* inv = inv_ranks_.data();
    for (size_t i = 0; i < points_.size(); ++i) {
      const int f = core::FootruleFromRanks(query_ranks, inv + i * k, k);
      scored.emplace_back(static_cast<uint32_t>(f),
                          static_cast<uint32_t>(i));
    }
    budget = std::min(budget, scored.size());
    if (budget < scored.size()) {
      std::nth_element(scored.begin(), scored.begin() + budget,
                       scored.end());
    }
    std::sort(scored.begin(), scored.begin() + budget);

    // Candidates past the verification budget are dropped on their
    // footrule score alone; everything inside it pays a true distance.
    stats->pruning_eliminated += scored.size() - budget;

    for (size_t v = 0; v < budget; ++v) {
      if (context->StopAfterBudget()) return;
      const size_t id = scored[v].second;
      context->Emit(id, this->QueryDist(query, id, stats));
      ++stats->candidates_verified;
    }
  }

  PointStore<P> sites_;  // copies of the sites, in selection order
  size_t prefix_ = 0;
  /// Row i holds the inverted permutation of point i: entry `site` is
  /// the site's rank, or prefix_length() for sites outside a stored
  /// prefix.  Flat n x k layout, one cache-resident O(k) pass per
  /// (query, point) footrule.
  std::vector<uint8_t> inv_ranks_;
  std::atomic<double> fraction_;
};

}  // namespace index
}  // namespace distperm

#endif  // DISTPERM_INDEX_DISTPERM_INDEX_H_
