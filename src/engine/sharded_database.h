// Sharded database: one SearchIndex per contiguous slice of the data.
//
// Shard s owns the global id range [offset(s), offset(s) + shard size);
// a shard-local result id maps back to a global id by adding the
// offset.  Contiguous slicing keeps that mapping O(1) and makes the
// sharded cost model additive: the metric evaluations of one query
// summed over all shards equal the evaluations a single index over the
// whole database would spend (exactly, for the linear scan).
//
// Builds scale with cores: `build_threads` > 1 constructs the shard
// indexes concurrently on a transient util::ThreadPool.  Shard builds
// are independent jobs (AESA's O(n^2) matrix, LAESA's O(nk) pivot
// table) and every shard's RNG stream is derived deterministically from
// (seed, shard number), so a given (data, spec, shard_count, seed)
// builds bit-identical shards no matter how many build threads run.
// `data` is taken by value: callers that move their vector in hand each
// shard its slice by element moves, and the shard's index::PointStore
// keeps that slice — the one copy of the shard's points.
//
// Shards are held by shared_ptr so incremental compaction can assemble
// a successor database that reuses untouched shards from its
// predecessor (FromShards) instead of rebuilding them.  The per-shard
// RNG stream depends only on (seed, shard number) — never on the
// generation number — which is what makes sharing sound: a clean
// shard's index is bit-identical to what a fresh per-slice rebuild
// would produce over the same slice.

#ifndef DISTPERM_ENGINE_SHARDED_DATABASE_H_
#define DISTPERM_ENGINE_SHARDED_DATABASE_H_

#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index/index.h"
#include "index/registry.h"
#include "metric/metric.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace distperm {
namespace engine {

/// Owns `shard_count` indexes built over contiguous slices of one
/// database.  Immutable (and therefore freely shareable across query
/// threads) once built.
template <typename P>
class ShardedDatabase {
 public:
  using SharedShard = std::shared_ptr<const index::SearchIndex<P>>;
  using ShardPtr = std::unique_ptr<index::SearchIndex<P>>;

  /// Splits `data` into `shard_count` contiguous slices (sizes differing
  /// by at most one) and builds an index over each, on `build_threads`
  /// workers (1 = on the calling thread, the default).  Pass the data
  /// with std::move to slice by element moves instead of copies.  The
  /// index type and its options come from a runtime `index_spec`
  /// string resolved through index::Registry (e.g. "vp-tree",
  /// "laesa:k=16", "distperm:k=8,fraction=0.2").
  /// Each shard gets its own deterministic RNG stream derived from
  /// `seed`, so a given (data, spec, shard_count, seed) always builds
  /// the same database — with any number of build threads.  Returns the
  /// registry's or parser's error for bad specs instead of dying; with
  /// several failing shards the lowest-numbered shard's error wins, so
  /// the reported status is deterministic too.
  static util::Result<ShardedDatabase> BuildFromRegistry(
      std::vector<P> data, const metric::Metric<P>& metric,
      size_t shard_count, const std::string& index_spec, uint64_t seed,
      size_t build_threads = 1) {
    if (shard_count < 1) {
      return util::Status::InvalidArgument(
          "ShardedDatabase: shard_count must be >= 1");
    }
    return BuildFromRegistrySliced(SliceData(std::move(data), shard_count),
                                   metric, index_spec, seed, build_threads);
  }

  /// Registry build over pre-routed slices.  The slices ARE the shard
  /// layout: shard s serves global ids [sum of earlier slice sizes,
  /// +slices[s].size()).  Shard s's RNG stream is derived from
  /// (seed, s) alone, so a shard built here over a given slice is
  /// bit-identical to the same shard inside any other build whose slice
  /// s matches — the property incremental compaction relies on to share
  /// clean shards.
  static util::Result<ShardedDatabase> BuildFromRegistrySliced(
      std::vector<std::vector<P>> slices, const metric::Metric<P>& metric,
      const std::string& index_spec, uint64_t seed,
      size_t build_threads = 1) {
    if (slices.empty()) {
      return util::Status::InvalidArgument(
          "ShardedDatabase: need at least one slice");
    }
    return BuildShards(
        slices.size(),
        [&](size_t s) {
          return CreateShard(index_spec, seed, s,
                             index::PointStore<P>(std::move(slices[s]),
                                                  metric));
        },
        build_threads);
  }

  /// Builds shard s through the registry over `points`, with the RNG
  /// stream every registry build derives from (seed, s).
  static util::Result<ShardPtr> CreateShard(const std::string& index_spec,
                                            uint64_t seed, size_t s,
                                            index::PointStore<P> points) {
    util::Rng rng(seed * 0x9e3779b97f4a7c15ull + s);
    return index::Registry<P>::Global().Create(index_spec, std::move(points),
                                               &rng);
  }

  /// Builds `shard_count` shards with build(s), on `build_threads`
  /// workers (1 = in shard order on the calling thread); the calls run
  /// concurrently otherwise, so `build` must be thread-safe.  build(s)
  /// returns a Result of a fresh ShardPtr or a shared SharedShard.  Shard s
  /// serves the global ids after every earlier shard's.  With several
  /// failing shards the lowest-numbered shard's error wins, so the
  /// reported status is deterministic.
  template <typename BuildShard>
  static util::Result<ShardedDatabase> BuildShards(size_t shard_count,
                                                   const BuildShard& build,
                                                   size_t build_threads) {
    std::vector<SharedShard> shards(shard_count);
    std::vector<util::Status> statuses(shard_count, util::Status::OK());
    ForEachShard(shard_count, build_threads, [&](size_t s) {
      auto built = build(s);
      if (!built.ok()) {
        statuses[s] = built.status();
        return;
      }
      shards[s] = std::move(built).value();
    });
    for (size_t s = 0; s < shard_count; ++s) {
      if (!statuses[s].ok()) {
        return util::Status(statuses[s].code(),
                            "shard " + std::to_string(s) + ": " +
                                statuses[s].message());
      }
    }
    return FromShards(std::move(shards));
  }

  /// Assembles a database from already-built shards — the incremental
  /// compaction path: clean shards are the predecessor's shared_ptrs,
  /// dirty shards are freshly registry-built over their new slice.
  /// Offsets are recomputed from the shard sizes in order.
  static ShardedDatabase FromShards(std::vector<SharedShard> shards) {
    DP_CHECK(!shards.empty());
    ShardedDatabase db;
    size_t offset = 0;
    for (const auto& shard : shards) {
      DP_CHECK(shard != nullptr);
      db.offsets_.push_back(offset);
      offset += shard->size();
      if (db.dim_ == 0) db.dim_ = shard->points().dim();
    }
    db.total_size_ = offset;
    db.shards_ = std::move(shards);
    return db;
  }

  size_t shard_count() const { return shards_.size(); }
  size_t size() const { return total_size_; }
  /// Dimension of the stored points (index::PointStore::dim()): 0 when
  /// the database holds no points or its points have no dimension.
  size_t dim() const { return dim_; }

  /// The index serving shard s.
  const index::SearchIndex<P>& shard(size_t s) const { return *shards_[s]; }

  /// Shard s as a shareable reference — what a successor generation
  /// adopts verbatim when the shard's slice was untouched by the delta.
  const SharedShard& shared_shard(size_t s) const { return shards_[s]; }

  /// Global id of shard s's local id 0.
  size_t shard_offset(size_t s) const { return offsets_[s]; }

  /// The shard whose id range holds global `id` (< size()).
  uint32_t ShardOf(size_t id) const {
    size_t s = shards_.size() - 1;
    while (s > 0 && offsets_[s] > id) --s;
    return static_cast<uint32_t>(s);
  }

  /// Per-shard sizes in shard order (the layout a snapshot records so
  /// restore can slice the points identically).
  std::vector<size_t> ShardSizes() const {
    std::vector<size_t> sizes;
    sizes.reserve(shards_.size());
    for (const auto& shard : shards_) sizes.push_back(shard->size());
    return sizes;
  }

  /// Name of the underlying index type (from shard 0).
  std::string index_name() const { return shards_.front()->name(); }

  /// Metric evaluations spent building all shards.
  uint64_t build_distance_computations() const {
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->build_distance_computations();
    }
    return total;
  }

  /// Auxiliary storage across all shards, in bits.
  uint64_t IndexBits() const {
    uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->IndexBits();
    return total;
  }

  /// Moves `data` apart into `shard_count` contiguous slices whose
  /// sizes differ by at most one.  Element moves, not copies: the
  /// caller already owns `data` by value.
  static std::vector<std::vector<P>> SliceData(std::vector<P> data,
                                               size_t shard_count) {
    const size_t base = data.size() / shard_count;
    const size_t extra = data.size() % shard_count;
    std::vector<std::vector<P>> slices;
    slices.reserve(shard_count);
    size_t offset = 0;
    for (size_t s = 0; s < shard_count; ++s) {
      const size_t size = base + (s < extra ? 1 : 0);
      auto begin = data.begin() + static_cast<ptrdiff_t>(offset);
      slices.emplace_back(std::make_move_iterator(begin),
                          std::make_move_iterator(begin + size));
      offset += size;
    }
    return slices;
  }

 private:
  ShardedDatabase() = default;

  /// Runs `build` for every shard number: in shard order on the calling
  /// thread when `build_threads` <= 1, otherwise concurrently on a
  /// transient pool (one task per shard; the per-shard work is
  /// self-contained, so no synchronization beyond the final Wait).
  template <typename BuildShard>
  static void ForEachShard(size_t shard_count, size_t build_threads,
                           const BuildShard& build) {
    if (build_threads <= 1 || shard_count <= 1) {
      for (size_t s = 0; s < shard_count; ++s) build(s);
      return;
    }
    util::ThreadPool pool(std::min(build_threads, shard_count));
    for (size_t s = 0; s < shard_count; ++s) {
      pool.Submit([&build, s]() { build(s); });
    }
    pool.Wait();
  }

  std::vector<SharedShard> shards_;
  std::vector<size_t> offsets_;
  size_t total_size_ = 0;
  size_t dim_ = 0;
};

}  // namespace engine
}  // namespace distperm

#endif  // DISTPERM_ENGINE_SHARDED_DATABASE_H_
