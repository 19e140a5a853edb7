#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dataset/vector_gen.h"

namespace wirebench {

namespace {

/// Isotropic noise around the embedded subspace.
constexpr double kNoise = 0.001;
/// Fixes each workload's embedding (see MakeInputs).
constexpr uint64_t kCloudSeed = 0x5eed2008;

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = [] {
    std::vector<Workload> list;
    Workload exact;
    exact.name = "exact_read";
    exact.spec = "vp-tree";
    exact.shards = 8;
    exact.points = 100000;
    exact.intrinsic = 4;
    exact.cache_capacity = 4096;
    exact.rate = 150;
    exact.slice_ops = 1000;
    exact.hot_share = 0.2;
    exact.setups = 7;
    list.push_back(exact);

    Workload distperm;
    distperm.name = "distperm_read";
    distperm.spec = "distperm:k=12,fraction=0.01";
    distperm.live_knobs = "fsync=batched";
    distperm.shards = 4;
    distperm.points = 200000;
    distperm.intrinsic = 3;
    distperm.durable = true;
    distperm.cache_capacity = 4096;
    distperm.rate = 60;
    distperm.slice_ops = 300;
    distperm.setups = 9;
    list.push_back(distperm);

    Workload mixed;
    mixed.name = "mixed_write";
    mixed.spec = "vp-tree";
    mixed.compact_threshold = 200;
    mixed.live_knobs = "fsync=batched,delta_scan_limit=4096,"
                       "auto_compact_threshold=" +
                       std::to_string(mixed.compact_threshold);
    mixed.shards = 4;
    mixed.points = 50000;
    mixed.intrinsic = 4;
    mixed.durable = true;
    mixed.cache_capacity = 4096;
    mixed.rate = 150;
    mixed.slice_ops = 1000;
    mixed.insert_share = 0.3;
    mixed.remove_share = 0.1;
    mixed.hot_share = 0.2;
    mixed.setups = 7;
    list.push_back(mixed);

    Workload replica;
    replica.name = "replica_catchup";
    replica.spec = "vp-tree";
    replica.live_knobs = "fsync=batched,delta_scan_limit=60000";
    replica.shards = 4;
    replica.points = 50000;
    replica.intrinsic = 4;
    replica.durable = true;
    replica.wal_records = 15000;
    replica.remove_share = 0.1;
    replica.setups = 9;
    list.push_back(replica);
    return list;
  }();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

Inputs MakeInputs(const Workload& workload, uint64_t seed) {
  // One point cloud per workload (its subspace fixed by kCloudSeed);
  // the run's seed shuffles it, so each seed stores, queries and
  // inserts a different sample of the same shape.  Run-to-run spread
  // then reflects sampling, not a new random geometry per seed.
  distperm::util::Rng cloud_rng(kCloudSeed + workload.intrinsic);
  const bool writes = workload.insert_share > 0 || workload.wal_records > 0;
  const size_t candidates = writes ? kInsertCandidates : 0;
  std::vector<Vector> all = distperm::dataset::LowDimEmbedding(
      workload.points + kQueryPool + candidates, workload.ambient,
      workload.intrinsic, kNoise, &cloud_rng);
  distperm::util::Rng rng(seed);
  for (size_t i = all.size() - 1; i > 0; --i) {
    std::swap(all[i], all[rng.NextBounded(i + 1)]);
  }
  Inputs inputs;
  inputs.data.assign(std::make_move_iterator(all.begin()),
                     std::make_move_iterator(all.begin() + workload.points));
  inputs.pool.assign(
      std::make_move_iterator(all.begin() + workload.points),
      std::make_move_iterator(all.begin() + workload.points + kQueryPool));
  if (candidates == 0) return inputs;
  std::vector<Vector> pick(
      std::make_move_iterator(all.begin() + workload.points + kQueryPool),
      std::make_move_iterator(all.end()));
  if (workload.insert_share > 0) {
    // Skewed writes: the region is the neighbourhood of one candidate,
    // so inserts route to few shards and most folds share the rest.
    const distperm::metric::Metric<Vector> l2(
        distperm::metric::LpMetric::L2());
    const Vector center = pick[0];
    std::vector<std::pair<double, size_t>> order;
    order.reserve(pick.size());
    for (size_t i = 0; i < pick.size(); ++i) {
      order.emplace_back(l2(center, pick[i]), i);
    }
    std::partial_sort(order.begin(), order.begin() + kInsertRegion,
                      order.end());
    for (size_t i = 0; i < kInsertRegion; ++i) {
      inputs.region.push_back(pick[order[i].second]);
    }
  } else {
    inputs.region = std::move(pick);
  }
  return inputs;
}

Vector InsertPoint(const Inputs& inputs, size_t i, distperm::util::Rng* rng) {
  Vector point = inputs.region[i % inputs.region.size()];
  for (double& coordinate : point) coordinate += 1e-4 * rng->NextGaussian();
  return point;
}

OpStream::OpStream(const Workload& workload, uint64_t seed,
                   size_t first_unique)
    : workload_(workload),
      rng_(seed),
      first_unique_(first_unique),
      next_unique_(first_unique) {
  double total = 0.0;
  for (size_t i = 0; i < kHotSet; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
}

Op OpStream::Next() {
  Op op;
  const double kind = rng_.NextDouble();
  if (kind < workload_.insert_share) {
    op.kind = Op::kInsert;
    return op;
  }
  if (kind < workload_.insert_share + workload_.remove_share) {
    op.kind = Op::kRemove;
    return op;
  }
  if (rng_.NextDouble() < workload_.hot_share) {
    const double u = rng_.NextDouble();
    op.hot = true;
    op.index = static_cast<uint32_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    op.index = std::min<uint32_t>(op.index, kHotSet - 1);
    return op;
  }
  op.index = static_cast<uint32_t>(next_unique_++);
  return op;
}

const MetricList& EndToEndMetrics() {
  static const MetricList list = {
      {"setup_s", "s"},          {"op_p50_ms", "ms"},
      {"dist_per_query", "count"}, {"recall_at_10", "ratio"},
      {"rss_mb", "MB"},
  };
  return list;
}

const MetricList& PerLayerMetrics() {
  static const MetricList list = {
      {"net.decode_us", "us"},
      {"net.encode_us", "us"},
      {"net.resp_bytes", "bytes"},
      {"server.batch_size", "count"},
      {"server.cache_hit_ratio", "ratio"},
      {"server.cache_bound_seed_ratio", "ratio"},
      {"server.cache_probe_us", "us"},
      {"server.cache_invalidations", "count"},
      {"server.overload_rejected", "count"},
      {"server.repl_apply_us", "us"},
      {"server.repl_frames", "count"},
      {"server.repl_snapshot_bytes", "bytes"},
      {"server.repl_catchup_vs_replay", "ratio"},
      {"server.replica_rss_mb", "MB"},
      {"engine.query_p99_ms", "ms"},
      {"engine.queue_wait_p99_ms", "ms"},
      {"engine.task_run_p50_ms", "ms"},
      {"engine.shard_tasks_per_query", "count"},
      {"engine.self_us", "us"},
      {"engine.delta_us", "us"},
      {"engine.delta_depth_mean", "count"},
      {"engine.compactions", "count"},
      {"engine.compaction_s", "s"},
      {"engine.shards_shared_ratio", "ratio"},
      {"engine.backpressure", "count"},
      {"index.shard_search_us", "us"},
      {"index.pruned_per_query", "count"},
      {"index.verified_per_query", "count"},
      {"index.bytes_per_point", "bytes"},
      {"metric.ns_per_distance", "ns"},
      {"core.perm_us_per_point", "us"},
      {"core.distinct_perm_ratio", "ratio"},
      {"storage.wal_fsync_p99_ms", "ms"},
      {"storage.wal_bytes_per_write", "bytes"},
      {"storage.snapshot_write_s", "s"},
      {"storage.write_amp", "ratio"},
      {"storage.snapshot_open_s", "s"},
      {"storage.replay_records_per_s", "1/s"},
      {"loadgen.late_p99_ms", "ms"},
      {"loadgen.achieved_rate", "1/s"},
      {"trace.overhead_frac", "ratio"},
      {"e2e.capacity_ops_s", "1/s"},
      {"e2e.cpu_us_per_op", "us"},
      {"e2e.op_p90_ms", "ms"},
      {"e2e.op_p99_ms", "ms"},
      {"e2e.query_p50_ms", "ms"},
      {"e2e.query_p99_ms", "ms"},
      {"e2e.write_p50_ms", "ms"},
      {"e2e.write_p99_ms", "ms"},
      {"e2e.catchup_s", "s"},
      {"e2e.error_rate", "ratio"},
  };
  return list;
}

std::string LiveSpec(const Workload& workload, const std::string& dir) {
  if (!workload.durable) return workload.spec;
  std::string spec = workload.spec;
  spec += spec.find(':') == std::string::npos ? ":" : ",";
  spec += "wal_dir=" + dir;
  if (!workload.live_knobs.empty()) spec += "," + workload.live_knobs;
  return spec;
}

}  // namespace wirebench
