// The benchmark's workloads: store configuration, offered rate, and the
// seeded inputs (data, held-out queries, the hot set, the insert region)
// that both the serving process and the load generator derive from the
// same --seed.

#ifndef WIREBENCH_WORKLOADS_H_
#define WIREBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "metric/lp.h"
#include "util/rng.h"

namespace wirebench {

using Vector = distperm::metric::Vector;

struct Workload {
  std::string name;
  /// Registry spec the shards are built with (no live knobs).
  std::string spec;
  /// Live knobs appended for durable stores (wal_dir is added per run).
  std::string live_knobs;
  size_t shards = 1;
  size_t points = 0;
  size_t ambient = 32;
  size_t intrinsic = 4;
  bool durable = false;
  /// Perm-cache answer capacity (0 = cache off).
  size_t cache_capacity = 0;
  /// Open-loop offered rate, operations per second: 10-16% of the
  /// closed-loop capacity measured on a 4-vCPU x86 VM, low enough that
  /// the loop stays below capacity when host contention halves it.
  double rate = 0.0;
  /// Operations per closed-loop capacity slice: about one second's
  /// worth at the capacity measured on a 4-core x86 host.
  size_t slice_ops = 0;
  /// Operation mix; the rest are kNN queries.
  double insert_share = 0.0;
  double remove_share = 0.0;
  /// Share of queries drawn from the Zipf-skewed hot set.
  double hot_share = 0.0;
  /// The auto_compact_threshold in live_knobs (0 = no auto-compaction).
  size_t compact_threshold = 0;
  /// replica_catchup: unfolded WAL records behind the primary's
  /// snapshot.
  size_t wal_records = 0;
  /// Server starts per run; setup_s is their median.
  size_t setups = 3;
};

inline constexpr size_t kNeighbours = 10;
inline constexpr size_t kHotSet = 256;
inline constexpr double kZipfExponent = 1.0;
inline constexpr size_t kEngineThreads = 2;
/// The store's build seed (vantage points, pivots, sites).  Fixed, so
/// a run's --seed varies the inputs but not the index's own randomness.
inline constexpr uint64_t kStoreSeed = 2008;
/// Held-out queries generated alongside the data (same embedding).
inline constexpr size_t kQueryPool = 24000;
/// In-process probes (traced runs) and end-of-run answer checks.
inline constexpr size_t kProbeQueries = 200;
/// Candidate points for the skewed insert region, and its size.
inline constexpr size_t kInsertCandidates = 60000;
inline constexpr size_t kInsertRegion = 6000;

/// Every workload, in BENCHMARK.json order.
const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// Data and held-out points of one (workload, seed).
struct Inputs {
  std::vector<Vector> data;
  /// Held-out queries: [0, kHotSet) is the hot set, the probe queries
  /// follow, the rest are the unique queries in issue order.
  std::vector<Vector> pool;
  /// Insert region: points of one neighbourhood of the embedding.
  std::vector<Vector> region;

  const Vector& hot(size_t i) const { return pool[i]; }
  const Vector& probe(size_t i) const { return pool[kHotSet + i]; }
  size_t unique_count() const {
    return pool.size() - kHotSet - kProbeQueries;
  }
  const Vector& unique(size_t i) const {
    return pool[kHotSet + kProbeQueries + i % unique_count()];
  }
};
Inputs MakeInputs(const Workload& workload, uint64_t seed);

/// A point of the insert region, perturbed so repeated picks differ.
Vector InsertPoint(const Inputs& inputs, size_t i, distperm::util::Rng* rng);

/// One scheduled operation of a run.
struct Op {
  enum Kind : uint8_t { kQuery = 0, kInsert = 1, kRemove = 2 };
  Kind kind = kQuery;
  /// kQuery: hot-set index when `hot`, else unique-query index.
  bool hot = false;
  uint32_t index = 0;
};

/// Seeded operation stream: the workload's mix, Zipf hot picks, and
/// unique queries numbered in issue order from `first_unique`.
class OpStream {
 public:
  OpStream(const Workload& workload, uint64_t seed, size_t first_unique);
  Op Next();
  size_t uniques_issued() const { return next_unique_ - first_unique_; }

 private:
  const Workload& workload_;
  distperm::util::Rng rng_;
  std::vector<double> zipf_cdf_;
  size_t first_unique_;
  size_t next_unique_;
};

/// Metric names and units the result line carries: every end-to-end
/// metric in untraced runs, every per-layer metric in traced runs.  The
/// same lists are declared in BENCHMARK.json (run.py checks both ways).
using MetricList = std::vector<std::pair<std::string, std::string>>;
const MetricList& EndToEndMetrics();
const MetricList& PerLayerMetrics();

/// The store's full live spec for a run directory ("" = in memory).
std::string LiveSpec(const Workload& workload, const std::string& dir);

}  // namespace wirebench

#endif  // WIREBENCH_WORKLOADS_H_
