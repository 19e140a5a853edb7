// The permutation index of Chavez, Figueroa & Navarro (2005) — the
// "distperm" index the paper instruments for its Section 5 experiments.
//
// Per database point the index stores only the point's distance
// permutation with respect to k sites, or optionally just the prefix
// naming its `prefix_length` closest sites — the truncated variant used
// in practice when k is large.  Following the paper's Section 4
// observation that only N << k! permutations occur, the index keeps
// each distinct permutation once, in a table of N inverted-rank rows
// (one byte per site holding that site's rank, the form the footrule
// reads), and the point ids grouped by row in CSR form: N + 1 row
// offsets and n ids, ascending within each row.  At query time the
// query's own permutation is computed (k metric evaluations), and the
// footrule is computed once per distinct row by core::FootruleBlock —
// one _mm_sad_epu8 per row on x86-64, over a table that carries 16
// zero bytes of tail slack for the kernel's unaligned loads.  A count
// of points per footrule value (small integers) fixes the threshold
// footrule at which the budget is reached.  Only the rows at or under
// it are walked: their ids are marked in a bitmap of n bits, and one
// scan of its words yields them by ascending id, each moved into its
// footrule's next slot.  Selection thus costs O(N + selected + n / 64)
// instead of a random-access pass over all n ids, and needs no
// comparison sort.  The candidates come out in increasing
// (footrule, id) order; reviewing only a fraction f of the database
// gives the probabilistic search of the original paper.  The index also
// reports the number of distinct permutations it stores — the quantity
// this paper counts — and, as IndexBits, the bytes of its table, row
// offsets and grouped ids.

#ifndef DISTPERM_INDEX_DISTPERM_INDEX_H_
#define DISTPERM_INDEX_DISTPERM_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
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
    DP_CHECK(points_.size() <= std::numeric_limits<uint32_t>::max());
    prefix_ = prefix_length == 0 ? site_count
                                 : std::min(prefix_length, site_count);
    // Invert each permutation once at build time: entry `site` of a row
    // is the site's rank, or prefix_ for sites absent from a truncated
    // prefix.  Equal rows are stored once; ids[i] names point i's row.
    std::unordered_map<std::string, uint32_t> row_of;
    std::string row(site_count, '\0');
    std::vector<double> distances(site_count);
    std::vector<uint32_t> ids(points_.size());
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
      std::fill(row.begin(), row.end(), static_cast<char>(prefix_));
      for (size_t r = 0; r < perm.size(); ++r) {
        row[perm[r]] = static_cast<char>(r);
      }
      const uint32_t next = static_cast<uint32_t>(row_of.size());
      auto [it, added] = row_of.emplace(row, next);
      if (added) table_.insert(table_.end(), row.begin(), row.end());
      ids[i] = it->second;
    }
    GroupByRow(ids);
  }

  /// Everything the index keeps besides the data itself, in the
  /// per-point form the snapshot format stores; the index keeps the
  /// same ids grouped by row and rebuilds that grouping on restore.
  /// Exported for snapshot persistence and fed back through the restore
  /// constructor: a restored index answers bit-identically to the one
  /// that exported, because SearchImpl depends on nothing outside this
  /// state.
  struct State {
    std::vector<P> sites;
    size_t prefix = 0;
    double fraction = 0.1;
    /// The distinct inverted-rank rows, k bytes each.
    std::vector<uint8_t> table;
    /// Per point, the index of its row in `table`.
    std::vector<uint32_t> ids;
  };

  State ExportState() const {
    State state;
    state.sites = sites();
    state.prefix = prefix_;
    state.fraction = fraction();
    state.table.assign(table_.begin(),
                       table_.end() - core::kFootruleTableSlack);
    state.ids.resize(row_ids_.size());
    for (size_t r = 0; r < DistinctPermutationCount(); ++r) {
      for (uint32_t j = row_start_[r]; j < row_start_[r + 1]; ++j) {
        state.ids[row_ids_[j]] = static_cast<uint32_t>(r);
      }
    }
    return state;
  }

  /// Checks that `state` can back an index over `point_count` points:
  /// 1..kMaxRank64Sites sites, a prefix in [1, k], a fraction in (0, 1],
  /// a table of whole k-byte rows each holding ranks 0..prefix-1 once
  /// and prefix everywhere else, and one id per point naming a table
  /// row.  For state read from outside the program, which the restore
  /// constructor would otherwise CHECK-fail on.  One pass over the
  /// table and one over the ids.
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
    if (state.table.size() % k != 0) {
      return util::Status::InvalidArgument(
          "table of " + std::to_string(state.table.size()) +
          " bytes is not whole rows of " + std::to_string(k) + " sites");
    }
    if (state.ids.size() != point_count) {
      return util::Status::InvalidArgument(
          std::to_string(state.ids.size()) + " table ids for " +
          std::to_string(point_count) + " points");
    }
    const size_t rows = state.table.size() / k;
    for (size_t r = 0; r < rows; ++r) {
      const uint8_t* row = &state.table[r * k];
      auto bad_row = [r](const std::string& what) {
        return util::Status::InvalidArgument(what + " in table row " +
                                             std::to_string(r));
      };
      bool seen[core::kMaxRank64Sites] = {};
      size_t ranked = 0;
      for (size_t site = 0; site < k; ++site) {
        const size_t rank = row[site];
        if (rank == state.prefix) continue;
        if (rank > state.prefix) {
          return bad_row("rank " + std::to_string(rank) + " exceeds prefix " +
                         std::to_string(state.prefix));
        }
        if (seen[rank]) {
          return bad_row("rank " + std::to_string(rank) + " repeats");
        }
        seen[rank] = true;
        ++ranked;
      }
      if (ranked != state.prefix) {
        return bad_row(std::to_string(ranked) + " of " +
                       std::to_string(state.prefix) + " ranks present");
      }
    }
    for (size_t i = 0; i < state.ids.size(); ++i) {
      if (state.ids[i] >= rows) {
        return util::Status::InvalidArgument(
            "table id " + std::to_string(state.ids[i]) + " of point " +
            std::to_string(i) + " is past the " + std::to_string(rows) +
            "-row table");
      }
    }
    return util::Status::OK();
  }

  DistPermIndex(std::vector<P> data, metric::Metric<P> metric,
                State state)
      : DistPermIndex(PointStore<P>(std::move(data), std::move(metric)),
                      std::move(state)) {}

  /// Restores an index from previously exported state without paying
  /// the n x k build-time distance evaluations or rehashing the table;
  /// regrouping the ids by row is O(n + N).  The state must match
  /// `points` (same point count it was exported over); this is checked.
  /// build_distance_computations() reports 0 for a restored index —
  /// restoration computes no distances.
  DistPermIndex(PointStore<P> points, State state)
      : SearchIndex<P>(std::move(points)),
        sites_(std::move(state.sites), points_.metric()),
        prefix_(state.prefix),
        table_(std::move(state.table)),
        fraction_(state.fraction) {
    DP_CHECK(sites_.size() >= 1 && sites_.size() <= core::kMaxRank64Sites);
    DP_CHECK(prefix_ >= 1 && prefix_ <= sites_.size());
    DP_CHECK(fraction() > 0.0 && fraction() <= 1.0);
    DP_CHECK(table_.size() % sites_.size() == 0);
    DP_CHECK_MSG(state.ids.size() == points_.size(),
                 "restored distperm state does not match the data: "
                     << state.ids.size() << " table ids for "
                     << points_.size() << " points");
    GroupByRow(state.ids);
  }

  std::string name() const override {
    return prefix_ == sites_.size() ? "distperm" : "distperm-prefix";
  }

  /// Bits the permutation table occupies: the N distinct k-byte rows
  /// and the kernel's 16-byte tail, N + 1 32-bit row offsets, and one
  /// 32-bit id per point.
  uint64_t IndexBits() const override {
    return 8 * (table_.size() +
                sizeof(uint32_t) * (row_start_.size() + row_ids_.size()));
  }

  /// Number of distinct (possibly truncated) permutations stored — the
  /// paper's counted quantity, and the number of table rows.  A rank
  /// row determines its permutation (prefix) and back.
  size_t DistinctPermutationCount() const { return row_start_.size() - 1; }

  /// The stored permutation (or prefix) of every database point, in id
  /// order, read back from the table in one walk over the rows.
  std::vector<core::Permutation> StoredPermutations() const {
    std::vector<core::Permutation> perms(row_ids_.size());
    for (size_t r = 0; r < DistinctPermutationCount(); ++r) {
      const uint8_t* ranks = &table_[r * sites_.size()];
      core::Permutation perm(prefix_);
      for (size_t site = 0; site < sites_.size(); ++site) {
        if (ranks[site] < prefix_) {
          perm[ranks[site]] = static_cast<uint8_t>(site);
        }
      }
      for (uint32_t j = row_start_[r]; j < row_start_[r + 1]; ++j) {
        perms[row_ids_[j]] = perm;
      }
    }
    return perms;
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

  /// Default fraction of the database verified per query; a request
  /// overrides it through SearchRequest::approx_candidate_fraction.
  double fraction() const { return fraction_; }

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

  /// Computes the query permutation, the footrule of each distinct
  /// table row (N work), and from the rows' point counts the footrule
  /// at which the `budget` is reached.  The points of the rows scoring
  /// at most that footrule are then placed by ascending id into their
  /// footrule's slots, the threshold footrule's only up to the budget,
  /// and the slice is verified.  The candidate sequence is identical to
  /// fully ordering the database by (footrule, id) and taking the first
  /// `budget`.
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
    // Zero past k, as FootruleBlock reads it.
    uint8_t query_ranks[core::kFootruleBlockMaxSites] = {};
    std::fill(query_ranks, query_ranks + k, static_cast<uint8_t>(prefix_));
    for (size_t r = 0; r < query_perm.size(); ++r) {
      query_ranks[query_perm[r]] = static_cast<uint8_t>(r);
    }

    // Candidates past the verification budget are dropped on their
    // footrule score alone; everything inside it pays a true distance.
    const size_t n = points_.size();
    budget = std::min(budget, n);
    stats->pruning_eliminated += n - budget;
    if (budget == 0) return;

    // slot[f] first counts the points scoring footrule f, then becomes
    // the next free candidate slot of footrule f.
    QueryScratch& scratch = QueryScratch::ForThread();
    const size_t rows = DistinctPermutationCount();
    std::vector<uint16_t>& row_footrule = scratch.row_footrule;
    row_footrule.resize(rows);
    core::FootruleBlock(query_ranks, table_.data(), rows, k,
                        row_footrule.data());
    uint32_t slot[kFootruleBuckets] = {};
    for (size_t r = 0; r < rows; ++r) {
      slot[row_footrule[r]] += row_start_[r + 1] - row_start_[r];
    }
    // Footrules below the threshold fit the budget whole; the threshold
    // footrule takes its lowest ids up to the budget.
    size_t threshold = 0;
    for (uint32_t start = 0;; ++threshold) {
      const uint32_t count = slot[threshold];
      slot[threshold] = start;
      if (start + count >= budget) break;
      start += count;
    }
    // The rows at or under the threshold mark their points, noting each
    // one's footrule; a scan of the marks then visits them by ascending
    // id and moves each into its footrule's next slot.
    std::vector<uint64_t>& marked = scratch.marked;
    std::vector<uint16_t>& point_footrule = scratch.point_footrule;
    marked.assign((n + 63) / 64, 0);
    point_footrule.resize(n);
    for (size_t r = 0; r < rows; ++r) {
      const uint16_t f = row_footrule[r];
      if (f > threshold) continue;
      for (uint32_t j = row_start_[r]; j < row_start_[r + 1]; ++j) {
        const uint32_t id = row_ids_[j];
        marked[id / 64] |= uint64_t{1} << (id % 64);
        point_footrule[id] = f;
      }
    }
    std::vector<uint32_t>& candidates = scratch.candidates;
    candidates.resize(budget);
    for (size_t word = 0; word < marked.size(); ++word) {
      for (uint64_t bits = marked[word]; bits != 0; bits &= bits - 1) {
        const uint32_t id =
            static_cast<uint32_t>(word * 64 + std::countr_zero(bits));
        const size_t f = point_footrule[id];
        if (slot[f] < budget) candidates[slot[f]++] = id;
      }
    }

    // A removed candidate keeps its slot but is never measured.
    for (size_t v = 0; v < budget; ++v) {
      if (context->StopAfterBudget()) return;
      const size_t id = candidates[v];
      if (context->Removed(id)) continue;
      context->Emit(id, this->QueryDist(query, id, stats));
      ++stats->candidates_verified;
    }
  }

  /// Appends the kernel's zero tail to table_ and groups the point ids
  /// by table row: row r's points are row_ids_[row_start_[r] ..
  /// row_start_[r + 1]), ascending.  `ids` names each point's row.
  void GroupByRow(const std::vector<uint32_t>& ids) {
    const size_t rows = table_.size() / sites_.size();
    table_.resize(table_.size() + core::kFootruleTableSlack, 0);
    row_start_.assign(rows + 1, 0);
    for (uint32_t id : ids) {
      DP_CHECK(id < rows);
      ++row_start_[id + 1];
    }
    for (size_t r = 0; r < rows; ++r) row_start_[r + 1] += row_start_[r];
    std::vector<uint32_t> next(row_start_.begin(), row_start_.end() - 1);
    row_ids_.resize(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      row_ids_[next[ids[i]]++] = static_cast<uint32_t>(i);
    }
  }

  /// Each of the k sites adds at most prefix_ to a footrule, so every
  /// footrule lies in [0, kMaxRank64Sites^2].
  static constexpr size_t kFootruleBuckets =
      core::kMaxRank64Sites * core::kMaxRank64Sites + 1;
  static_assert(core::kMaxRank64Sites <= core::kFootruleBlockMaxSites);

  PointStore<P> sites_;  // copies of the sites, in selection order
  size_t prefix_ = 0;
  /// The N distinct inverted permutations, k bytes per row in order of
  /// first use: entry `site` is the site's rank, or prefix_length() for
  /// sites outside a stored prefix.  Followed by kFootruleTableSlack
  /// zero bytes that FootruleBlock's loads may read.
  std::vector<uint8_t> table_;
  /// Row r's points are row_ids_[row_start_[r] .. row_start_[r + 1]),
  /// ascending; N + 1 offsets and n ids.
  std::vector<uint32_t> row_start_;
  std::vector<uint32_t> row_ids_;
  double fraction_;
};

}  // namespace index
}  // namespace distperm

#endif  // DISTPERM_INDEX_DISTPERM_INDEX_H_
