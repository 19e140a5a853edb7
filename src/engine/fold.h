// The fold: base ⊕ delta window → the next generation, as a function.
//
// Fold() rebuilds only the shards whose delta slice is non-empty and
// shares the rest by pointer (engine/generation.h gives the argument),
// so the result answers bit-identically to a from-scratch build over
// MaterializeRouted()'s slices.  When a slice goes empty it rebuilds
// every shard over the concatenated slices instead, which restores
// balance and keeps perm-family specs (which reject empty shards)
// buildable.  It takes no lock and touches no file: the caller
// (LiveDatabase::CompactPrefix) owns the snapshot write, the WAL
// rotation, the install and the metrics.

#ifndef DISTPERM_ENGINE_FOLD_H_
#define DISTPERM_ENGINE_FOLD_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/delta_log.h"
#include "engine/generation.h"
#include "engine/sharded_database.h"
#include "index/point_store.h"
#include "metric/metric.h"
#include "util/status.h"

namespace distperm {
namespace engine {

/// What one successful compaction did — the incremental accounting the
/// bench gates on: a fold with one dirty shard of eight must report
/// shards_rebuilt=1, shards_shared=7, and a build_distance_computations
/// figure proportional to the dirty slice, not the database.
struct LiveCompactionStats {
  uint64_t folded_entries = 0;
  uint64_t shards_rebuilt = 0;
  uint64_t shards_shared = 0;
  /// Metric evaluations spent building the rebuilt shards (shared
  /// shards contribute zero — their indexes were reused verbatim).
  uint64_t build_distance_computations = 0;
  /// True when a shard's slice went empty and the fold fell back to a
  /// full uniform rebuild to restore balanced (buildable) shards.
  bool rebalanced = false;
  double seconds = 0.0;
};

/// Post-fold id of a surviving pre-fold id, answered on demand in
/// O(log removals) from the routed shape instead of an O(n) survivor
/// map: base survivors keep their shard-relative order minus the
/// removals before them, and folded inserts (at most one per folded
/// window entry) are recorded explicitly.  Folding a skewed window
/// must not pay a full-database pass just to remap the log tail.
struct FoldIdRemap {
  size_t base_size = 0;
  std::vector<size_t> old_offsets;  ///< pre-fold shard offsets
  std::vector<size_t> new_offsets;  ///< post-fold slice offsets
  std::vector<size_t> removed_base;  ///< sorted removed base ids
  std::unordered_map<size_t, size_t> folded_inserts;

  size_t At(size_t old_id) const {
    if (old_id >= base_size) {
      const auto it = folded_inserts.find(old_id);
      DP_CHECK(it != folded_inserts.end());
      return it->second;
    }
    size_t s = old_offsets.size() - 1;
    while (old_offsets[s] > old_id) --s;
    const auto lo = std::lower_bound(removed_base.begin(),
                                     removed_base.end(), old_offsets[s]);
    const auto hi = std::lower_bound(removed_base.begin(),
                                     removed_base.end(), old_id);
    return new_offsets[s] + (old_id - old_offsets[s]) -
           static_cast<size_t>(hi - lo);
  }
};

/// The routed layout's shape — per-shard logical slice sizes and
/// dirtiness — computed without copying a single point.  Lets the
/// fold decide which shards to rebuild (and whether to rebalance)
/// before paying to materialize anything beyond the dirty slices,
/// which is what keeps a skewed fold O(dirty) instead of O(n).
/// Also emits the FoldIdRemap — everything it needs falls out of the
/// same walk over `log`'s first `end` entries.
template <typename P>
void RoutedShape(const Generation<P>& generation, const DeltaLog<P>& log,
                 size_t end, std::vector<size_t>* sizes,
                 std::vector<bool>* dirty, FoldIdRemap* remap) {
  const ShardedDatabase<P>& db = generation.database();
  const size_t shard_count = db.shard_count();
  const size_t base_size = generation.size();
  *sizes = db.ShardSizes();
  dirty->assign(shard_count, false);
  std::vector<size_t> removed_in_shard(shard_count, 0);
  const index::RemovedIds removed = log.RemovedIn(end);
  size_t alive_inserts = 0;
  for (size_t i = 0; i < end; ++i) {
    const typename DeltaLog<P>::Entry& entry = log.entry(i);
    if (entry.is_remove) {
      if (entry.id >= base_size) continue;  // insert-then-remove
      const uint32_t s = db.ShardOf(entry.id);
      --(*sizes)[s];
      ++removed_in_shard[s];
      (*dirty)[s] = true;
      remap->removed_base.push_back(entry.id);
    } else if (!removed.Contains(entry.id)) {
      ++(*sizes)[entry.shard];
      (*dirty)[entry.shard] = true;
      ++alive_inserts;
    }
  }
  std::sort(remap->removed_base.begin(), remap->removed_base.end());

  remap->base_size = base_size;
  remap->old_offsets.resize(shard_count);
  remap->new_offsets.resize(shard_count);
  size_t next = 0;
  for (size_t s = 0; s < shard_count; ++s) {
    remap->old_offsets[s] = db.shard_offset(s);
    remap->new_offsets[s] = next;
    next += (*sizes)[s];
  }
  // Folded inserts follow their shard's base survivors, in arrival
  // order, as MaterializeRouted lays them out.
  std::vector<size_t> next_insert_id(shard_count);
  for (size_t s = 0; s < shard_count; ++s) {
    next_insert_id[s] = remap->new_offsets[s] + db.shard(s).size() -
                        removed_in_shard[s];
  }
  remap->folded_inserts.reserve(alive_inserts);
  for (size_t i = 0; i < end; ++i) {
    const typename DeltaLog<P>::Entry& entry = log.entry(i);
    if (entry.is_remove || removed.Contains(entry.id)) continue;
    remap->folded_inserts.emplace(entry.id, next_insert_id[entry.shard]++);
  }
}

/// The dataset of `log`'s first `end` entries over `generation`,
/// routed into per-shard slices: slice s holds shard s's base
/// survivors in id order, then the alive inserts routed to s in
/// arrival order.  A non-null `fill` restricts point copying to the
/// flagged shards: an unflagged shard is clean by construction (no
/// removals, no routed inserts) and its slice is left empty — the
/// incremental fold passes its dirty set here so clean shards cost no
/// copies.
template <typename P>
std::vector<std::vector<P>> MaterializeRouted(
    const Generation<P>& generation, const DeltaLog<P>& log, size_t end,
    const std::vector<bool>* fill = nullptr) {
  const ShardedDatabase<P>& db = generation.database();
  std::vector<std::vector<P>> slices(db.shard_count());
  const index::RemovedIds removed = log.RemovedIn(end);
  for (size_t s = 0; s < db.shard_count(); ++s) {
    if (fill != nullptr && !(*fill)[s]) continue;  // clean: no copies
    const index::PointStore<P>& base = db.shard(s).points();
    const size_t offset = db.shard_offset(s);
    slices[s].reserve(base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      if (!removed.Contains(offset + i)) slices[s].push_back(base.Point(i));
    }
  }
  for (size_t i = 0; i < end; ++i) {
    const typename DeltaLog<P>::Entry& entry = log.entry(i);
    if (entry.is_remove || removed.Contains(entry.id)) continue;
    DP_CHECK(entry.shard < db.shard_count());
    // Copy: pinned readers keep scanning the log entries.
    slices[entry.shard].push_back(entry.point);
  }
  return slices;
}

/// The slices' points in shard order — a view's dataset in
/// compaction order.
template <typename P>
std::vector<P> Concatenate(std::vector<std::vector<P>> slices) {
  size_t total = 0;
  for (const auto& slice : slices) total += slice.size();
  std::vector<P> data;
  data.reserve(total);
  for (auto& slice : slices) {
    for (auto& point : slice) data.push_back(std::move(point));
  }
  return data;
}

/// What Fold() produces: the next generation, the post-fold id of every
/// surviving pre-fold id, and the accounting (`seconds` left unset).
template <typename P>
struct FoldOutput {
  std::shared_ptr<const Generation<P>> generation;
  FoldIdRemap remap;
  LiveCompactionStats stats;
};

/// Folds `log`'s first `end` entries into `base`, building generation
/// base.number() + 1 with base's spec, seed and shard count on
/// `build_threads` workers (builds are bit-identical at any count).
/// Returns the registry's error when a rebuilt shard cannot be built.
template <typename P>
util::Result<FoldOutput<P>> Fold(const Generation<P>& base,
                                 const DeltaLog<P>& log, size_t end,
                                 const metric::Metric<P>& metric,
                                 size_t build_threads) {
  const ShardedDatabase<P>& old_db = base.database();
  const size_t shard_count = old_db.shard_count();
  const uint64_t number = base.number() + 1;
  FoldOutput<P> out;
  out.stats.folded_entries = end;

  // The shape pass is copy-free, so the common skewed fold
  // materializes only the dirty slices.
  std::vector<size_t> slice_sizes;
  std::vector<bool> dirty;
  RoutedShape(base, log, end, &slice_sizes, &dirty, &out.remap);
  const bool rebalance =
      std::count(slice_sizes.begin(), slice_sizes.end(), size_t{0}) > 0;
  std::vector<std::vector<P>> slices =
      MaterializeRouted(base, log, end, rebalance ? nullptr : &dirty);
  if (rebalance) {
    // Exactly Generation::Build over the concatenated slices.
    slices = ShardedDatabase<P>::SliceData(Concatenate(std::move(slices)),
                                           shard_count);
    dirty.assign(shard_count, true);
  }

  // A clean shard comes back as its predecessor's pointer: the
  // per-shard RNG stream depends only on (seed, shard), so it is
  // bit-identical to what a per-slice rebuild would produce.
  using SharedShard = typename ShardedDatabase<P>::SharedShard;
  util::Result<ShardedDatabase<P>> db = ShardedDatabase<P>::BuildShards(
      shard_count,
      [&](size_t s) -> util::Result<SharedShard> {
        if (!dirty[s]) return old_db.shared_shard(s);
        auto built = ShardedDatabase<P>::CreateShard(
            base.index_spec(), base.seed(), s,
            index::PointStore<P>(std::move(slices[s]), metric));
        if (!built.ok()) return built.status();
        return SharedShard(std::move(built).value());
      },
      build_threads);
  if (!db.ok()) return db.status();
  std::vector<uint64_t> epochs = base.epochs();
  out.stats.rebalanced = rebalance;
  for (size_t s = 0; s < shard_count; ++s) {
    if (dirty[s]) {
      epochs[s] = number;
      ++out.stats.shards_rebuilt;
      out.stats.build_distance_computations +=
          db.value().shard(s).build_distance_computations();
    } else {
      ++out.stats.shards_shared;
    }
  }
  out.generation = Generation<P>::Assemble(std::move(db).value(),
                                           base.index_spec(), base.seed(),
                                           number, std::move(epochs));
  return out;
}

}  // namespace engine
}  // namespace distperm

#endif  // DISTPERM_ENGINE_FOLD_H_
