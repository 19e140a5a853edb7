// Shard routing for live-delta entries: which shard owns a point.
//
// Incremental compaction folds only the shards a delta touched, so
// every insert (and every removed base id) must name an owning shard
// deterministically.  The router is derived purely from a generation's
// shard layout:
//
//  - vectors route to the shard whose slice centroid (per-coordinate
//    mean) is L2-nearest, ties to the lowest shard number — new points
//    land in the shard already holding their neighborhood, which keeps
//    the dirty set small for clustered ingest;
//  - strings route by FNV-1a hash of the bytes mod shard_count —
//    there is no cheap geometric summary for edit distance, so an
//    even, deterministic spread is the right default.
//
// Determinism is the load-bearing property: the primary, a replica
// replaying the same rotation, and crash recovery replaying the same
// WAL all rebuild the router from bit-identical shard layouts and must
// route every point to the same shard.  Nothing here consults an RNG,
// wall clock, or pointer value.

#ifndef DISTPERM_ENGINE_SHARD_ROUTER_H_
#define DISTPERM_ENGINE_SHARD_ROUTER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/status.h"

namespace distperm {
namespace engine {

namespace internal {

inline uint64_t Fnv1a64(const char* bytes, size_t length) {
  uint64_t hash = 1469598103934665603ull;
  for (size_t i = 0; i < length; ++i) {
    hash ^= static_cast<unsigned char>(bytes[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace internal

/// Routes points to owning shards.  Built once per generation from the
/// shard slices (ShardRouter::ForSlices) and immutable afterwards —
/// safe to share with the generation across reader threads.
template <typename P>
class ShardRouter;

template <>
class ShardRouter<std::vector<double>> {
 public:
  using Point = std::vector<double>;

  /// Builds the router from a generation's shard slices: one centroid
  /// per non-empty shard.  `slice_of(s)` must return shard s's points
  /// (a const index::PointStore<Point>&).  Slices may be empty (a fresh
  /// store with fewer points than shards); if every shard is empty the
  /// router falls back to hashing, so routing is total either way.
  template <typename SliceFn>
  static ShardRouter ForShards(size_t shard_count, const SliceFn& slice_of) {
    DP_CHECK(shard_count >= 1);
    ShardRouter router;
    router.shard_count_ = shard_count;
    for (size_t s = 0; s < shard_count; ++s) {
      const auto& slice = slice_of(s);
      if (slice.size() == 0) continue;
      std::vector<double> centroid(slice.dim(), 0.0);
      for (size_t i = 0; i < slice.size(); ++i) {
        const double* point = slice.row(i);
        for (size_t d = 0; d < centroid.size(); ++d) {
          centroid[d] += point[d];
        }
      }
      const double inverse = 1.0 / static_cast<double>(slice.size());
      for (double& c : centroid) c *= inverse;
      router.centroids_.push_back(std::move(centroid));
      router.centroid_shards_.push_back(s);
    }
    return router;
  }

  /// Owning shard for `point`: nearest centroid by squared L2, ties to
  /// the lowest shard number (centroids are visited in shard order and
  /// only a strictly smaller distance displaces the winner).
  uint32_t Route(const Point& point) const {
    if (centroids_.empty()) {
      return static_cast<uint32_t>(
          internal::Fnv1a64(
              reinterpret_cast<const char*>(point.data()),
              point.size() * sizeof(double)) %
          shard_count_);
    }
    size_t best = 0;
    double best_distance = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < centroids_.size(); ++c) {
      const std::vector<double>& centroid = centroids_[c];
      double distance = 0.0;
      const size_t dims = std::min(centroid.size(), point.size());
      for (size_t d = 0; d < dims; ++d) {
        const double diff = point[d] - centroid[d];
        distance += diff * diff;
      }
      if (distance < best_distance) {
        best_distance = distance;
        best = c;
      }
    }
    return static_cast<uint32_t>(centroid_shards_[best]);
  }

  size_t shard_count() const { return shard_count_; }

 private:
  size_t shard_count_ = 1;
  std::vector<std::vector<double>> centroids_;
  std::vector<size_t> centroid_shards_;
};

template <>
class ShardRouter<std::string> {
 public:
  using Point = std::string;

  template <typename SliceFn>
  static ShardRouter ForShards(size_t shard_count, const SliceFn& slice_of) {
    (void)slice_of;
    DP_CHECK(shard_count >= 1);
    ShardRouter router;
    router.shard_count_ = shard_count;
    return router;
  }

  /// Owning shard for `point`: FNV-1a over the bytes, mod shard count.
  uint32_t Route(const Point& point) const {
    return static_cast<uint32_t>(
        internal::Fnv1a64(point.data(), point.size()) % shard_count_);
  }

  size_t shard_count() const { return shard_count_; }

 private:
  size_t shard_count_ = 1;
};

}  // namespace engine
}  // namespace distperm

#endif  // DISTPERM_ENGINE_SHARD_ROUTER_H_
