// One generation of a live database: an immutable, refcounted snapshot.
//
// A Generation owns a fully built ShardedDatabase plus the metadata
// needed to rebuild its successor deterministically (index spec, seed,
// shard count) and a monotone generation number.  Generations are
// shared as std::shared_ptr<const Generation>: queries pin the current
// one with a single atomic load, compaction builds the next one off to
// the side, and the swap retires the old generation as soon as the last
// in-flight query drops its reference — no reader ever blocks a writer
// and no writer ever invalidates a reader's view.
//
// Rebuild determinism is the property that makes generations testable:
// Build with the same (data, spec, shard_count, seed) produces a
// bit-identical database at any build_threads (pinned since PR 4), so
// "the compacted generation" and "a fresh ShardedDatabase over the
// equivalent final dataset" are the same object, results included.
//
// Incremental compaction extends that contract per shard: each shard
// records the generation number that last rebuilt it (`epochs()`), and
// a shard whose delta slice was empty is *shared* into the successor by
// shared_ptr, keeping its old epoch.  Because per-shard RNG streams
// depend only on (seed, shard number), the shared shard is bit-identical
// to what a fresh per-slice rebuild would have produced — so the
// incremental generation and ShardedDatabase::BuildFromRegistrySliced
// over the same slices are the same object, epochs aside.

#ifndef DISTPERM_ENGINE_GENERATION_H_
#define DISTPERM_ENGINE_GENERATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/shard_router.h"
#include "engine/sharded_database.h"
#include "metric/metric.h"
#include "util/status.h"

namespace distperm {
namespace engine {

/// Immutable snapshot: shards + indexes + rebuild metadata.  Create
/// through Build / Assemble, share via shared_ptr.
template <typename P>
class Generation {
 public:
  /// Builds generation `number` over `data` through the index registry
  /// (same contract as ShardedDatabase::BuildFromRegistry, including
  /// per-shard RNG streams derived from `seed`).  Returns the registry
  /// or parser error for bad specs.  Every shard's epoch is `number`.
  static util::Result<std::shared_ptr<const Generation>> Build(
      std::vector<P> data, const metric::Metric<P>& metric,
      size_t shard_count, const std::string& index_spec, uint64_t seed,
      uint64_t number, size_t build_threads = 1) {
    util::Result<ShardedDatabase<P>> built =
        ShardedDatabase<P>::BuildFromRegistry(std::move(data), metric,
                                              shard_count, index_spec,
                                              seed, build_threads);
    if (!built.ok()) return built.status();
    return std::shared_ptr<const Generation>(new Generation(
        std::move(built).value(), index_spec, seed, number,
        std::vector<uint64_t>(shard_count, number)));
  }

  /// Wraps an assembled database as generation `number`: shared clean
  /// shards + freshly built dirty shards after an incremental fold (see
  /// ShardedDatabase::FromShards), or the shards a snapshot restore
  /// produced (engine/generation_store.h), whose contract is that they
  /// are bit-identical to what Build produced for the same slices.
  /// `epochs[s]` is the generation that last rebuilt shard s: `number`
  /// for dirty shards, the predecessor's epoch for shared ones, the
  /// recorded epoch for restored ones.
  static std::shared_ptr<const Generation> Assemble(
      ShardedDatabase<P> db, std::string index_spec, uint64_t seed,
      uint64_t number, std::vector<uint64_t> epochs) {
    return std::shared_ptr<const Generation>(
        new Generation(std::move(db), std::move(index_spec), seed, number,
                       std::move(epochs)));
  }

  const ShardedDatabase<P>& database() const { return db_; }

  /// Monotone generation counter (the first built generation is 1).
  uint64_t number() const { return number_; }

  /// Number of points in this generation's base dataset.
  size_t size() const { return db_.size(); }

  const std::string& index_spec() const { return index_spec_; }
  uint64_t seed() const { return seed_; }

  /// Per-shard rebuild epochs: epochs()[s] is the generation number
  /// that last rebuilt shard s (== number() when s was rebuilt this
  /// fold, older when it was shared from the predecessor).  Snapshots
  /// persist this so replicas and crash recovery agree on sharing
  /// decisions exactly.
  const std::vector<uint64_t>& epochs() const { return epochs_; }

  /// Routes a point to its owning shard under this generation's
  /// layout.  Deterministic: derived purely from the shard slices, so
  /// primary, replica, and recovery route identically.
  const ShardRouter<P>& router() const { return router_; }

 private:
  Generation(ShardedDatabase<P> db, std::string index_spec, uint64_t seed,
             uint64_t number, std::vector<uint64_t> epochs)
      : db_(std::move(db)),
        index_spec_(std::move(index_spec)),
        seed_(seed),
        number_(number),
        epochs_(std::move(epochs)),
        router_(ShardRouter<P>::ForShards(
            db_.shard_count(),
            [this](size_t s) -> const index::PointStore<P>& {
              return db_.shard(s).points();
            })) {
    DP_CHECK(epochs_.size() == db_.shard_count());
  }

  const ShardedDatabase<P> db_;
  const std::string index_spec_;
  const uint64_t seed_;
  const uint64_t number_;
  const std::vector<uint64_t> epochs_;
  const ShardRouter<P> router_;
};

}  // namespace engine
}  // namespace distperm

#endif  // DISTPERM_ENGINE_GENERATION_H_
