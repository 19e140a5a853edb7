// Side runs: exact indexes over the covered prefix of a delta window,
// so a query's delta leg stops being a flat scan of the whole window.
//
// Each shard keeps a stack of runs, the logarithmic method of Bentley
// & Saxe ("Decomposable searching problems I", J. Algorithms 1980): an
// Extend() gives every shard that received inserts one new run over
// them, and that run absorbs the stack's trailing runs while they are
// no larger than it (a binary counter), so a covered insert is rebuilt
// O(log window) times in all.  Range and kNN search decompose over
// runs, so the answers stay exact.  A stack is immutable once built and
// shares its untouched runs with its predecessor.

#ifndef DISTPERM_ENGINE_SIDE_RUNS_H_
#define DISTPERM_ENGINE_SIDE_RUNS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "engine/delta_log.h"
#include "engine/query.h"
#include "engine/sharded_database.h"
#include "index/index.h"
#include "index/point_store.h"
#include "index/search.h"
#include "metric/metric.h"
#include "util/status.h"

namespace distperm {
namespace engine {

/// The one registry spec every side run is built with.  LAESA is exact,
/// so the runs change a query's cost, never its answer.
inline constexpr char kSideRunSpec[] = "laesa:k=4";

/// One query's delta-leg answer.
struct DeltaHits {
  /// Exact hits over the window's alive inserts: every hit within the
  /// radius for range queries, the k nearest in (distance, id) order
  /// for kNN modes.
  std::vector<index::SearchResult> results;
  uint64_t distance_computations = 0;
};

/// An immutable stack of side runs per shard over a prefix of one
/// delta log.  A default-constructed stack covers nothing.
template <typename P>
class SideRuns {
 public:
  using Entry = typename DeltaLog<P>::Entry;

  /// Log position the stack covers; entries at and past it are
  /// flat-scanned by queries (the uncovered tail).
  size_t covers() const { return covers_; }

  size_t run_count() const {
    size_t count = 0;
    for (const auto& runs : shards_) count += runs.size();
    return count;
  }

  /// Points fed to run builds by the Extend() that made this stack (a
  /// merge counts every point it rebuilds).
  size_t points_built() const { return points_built_; }

  /// `previous` extended to cover `log`'s first `committed` entries:
  /// the inserts in [previous.covers(), committed) still alive there
  /// are routed by their shard tag, and each of the `shard_count`
  /// shards that received some gets one new run, which absorbs the
  /// stack's trailing runs no larger than itself.  Every other run
  /// carries over by shared_ptr.  `seed` is the store's; runs draw from
  /// the stream seed + 1, distinct from the base shards'.
  static std::shared_ptr<const SideRuns> Extend(
      const SideRuns& previous, const DeltaLog<P>& log, size_t committed,
      const metric::Metric<P>& metric, uint64_t seed, size_t shard_count) {
    auto next = std::make_shared<SideRuns>();
    next->covers_ = committed;
    const index::RemovedIds removed = log.RemovedIn(committed);
    std::vector<std::vector<const Entry*>> fresh(shard_count);
    for (size_t i = previous.covers_; i < committed; ++i) {
      const Entry& entry = log.entry(i);
      if (entry.is_remove || removed.Contains(entry.id)) continue;
      DP_CHECK(entry.shard < shard_count);
      fresh[entry.shard].push_back(&entry);
    }
    next->shards_ = previous.shards_;
    next->shards_.resize(shard_count);
    for (size_t s = 0; s < shard_count; ++s) {
      if (fresh[s].empty()) continue;
      // Binary-counter rule: the new run absorbs trailing runs while
      // each is no larger than the run grown so far.  Absorbed runs are
      // older, so their survivors go first, keeping arrival order.
      auto& runs = next->shards_[s];
      size_t keep = runs.size();
      size_t size = fresh[s].size();
      while (keep > 0 && runs[keep - 1]->ids.size() <= size) {
        size += runs[--keep]->ids.size();
      }
      auto run = std::make_shared<Run>();
      std::vector<P> points;
      points.reserve(size);
      run->ids.reserve(size);
      for (size_t r = keep; r < runs.size(); ++r) {
        const Run& absorbed = *runs[r];
        for (size_t j = 0; j < absorbed.ids.size(); ++j) {
          if (removed.Contains(absorbed.ids[j])) continue;
          points.push_back(absorbed.index->points().Point(j));
          run->ids.push_back(absorbed.ids[j]);
        }
      }
      for (const Entry* entry : fresh[s]) {
        points.push_back(entry->point);
        run->ids.push_back(entry->id);
      }
      runs.resize(keep);
      next->points_built_ += points.size();
      auto built = ShardedDatabase<P>::CreateShard(
          kSideRunSpec, seed + 1, s,
          index::PointStore<P>(std::move(points), metric));
      DP_CHECK(built.ok());  // laesa indexes any non-empty point set
      run->index = std::move(built).value();
      runs.push_back(std::move(run));
    }
    return next;
  }

  /// The delta leg of `spec` over the pinned window of `log`'s first
  /// `end` entries, which this stack covers a prefix of: the alive
  /// inserts of the uncovered tail [covers(), end) flat, then every
  /// run, whose searches skip the inserts removed by `end`.  The tail
  /// goes first, so its hits already bound the runs' kNN searches.  The
  /// hit set is the flat scan's whatever the stack's shape — the runs
  /// are exact and the collector's (distance, id) tie-break is
  /// order-independent — so only the distance count depends on the
  /// stack.
  DeltaHits Search(const QuerySpec<P>& spec, const DeltaLog<P>& log,
                   size_t end, const metric::Metric<P>& metric) const {
    DeltaHits out;
    const bool range = spec.mode == index::SearchMode::kRange;
    index::KnnCollector collector(spec.k);
    const auto offer = [&](size_t id, double d) {
      range ? out.results.push_back({id, d}) : collector.Offer(id, d);
    };
    const auto scan = [&](size_t id, const P& point) {
      const double d = metric(spec.point, point);
      ++out.distance_computations;
      if (spec.mode == index::SearchMode::kKnn || d <= spec.radius) {
        offer(id, d);
      }
    };
    index::RemovedIds removed = log.RemovedIn(end);
    for (size_t i = covers_; i < end; ++i) {
      const Entry& entry = log.entry(i);
      if (!entry.is_remove && !removed.Contains(entry.id)) {
        scan(entry.id, entry.point);
      }
    }
    QuerySpec<P> request =
        range ? QuerySpec<P>::Range(spec.point, spec.radius)
        : spec.mode == index::SearchMode::kKnnWithinRadius
            ? QuerySpec<P>::KnnWithinRadius(spec.point, spec.k, spec.radius)
            : QuerySpec<P>::Knn(spec.point, spec.k);
    for (const auto& runs : shards_) {
      for (const auto& run : runs) {
        // Once k hits are in hand, their k-th distance bounds every
        // further run's useful hits, so each run prunes against it.
        if (!range && collector.size() == spec.k) {
          request.initial_radius_bound = collector.Radius();
        }
        removed.ids = run->ids.data();
        index::SearchResponse resp = run->index->Search(request, &removed);
        if (!resp.status.ok()) {
          // The run rejected the request (an inserted point with a NaN
          // coordinate can make the carried bound NaN): measure the
          // run's alive points flat.
          const index::PointStore<P>& points = run->index->points();
          for (size_t j = 0; j < run->ids.size(); ++j) {
            if (!removed.Contains(j)) scan(run->ids[j], points.Point(j));
          }
          continue;
        }
        out.distance_computations += resp.stats.distance_computations;
        for (const index::SearchResult& r : resp.results) {
          offer(run->ids[r.id], r.distance);
        }
      }
    }
    if (!range) out.results = collector.Take();
    return out;
  }

 private:
  struct Run {
    /// kSideRunSpec index over the points of the inserts routed to the
    /// run's shard that were alive when the run was built, in arrival
    /// (= id) order.
    std::unique_ptr<index::SearchIndex<P>> index;
    /// The store id of each local id.  Inserts removed after the build
    /// are skipped inside the run's search, by the pinned window's
    /// removal record, and dropped when a newer run absorbs this one.
    std::vector<size_t> ids;
  };

  size_t covers_ = 0;
  size_t points_built_ = 0;
  /// Per shard, its runs oldest (and largest) first.
  std::vector<std::vector<std::shared_ptr<const Run>>> shards_;
};

}  // namespace engine
}  // namespace distperm

#endif  // DISTPERM_ENGINE_SIDE_RUNS_H_
