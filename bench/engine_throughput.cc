// Batch engine throughput, parallel shard construction, live ingest,
// incremental compaction, observability, durability, serving, and
// replication.  Prints one table per section, then one line per gate,
// and writes a machine-readable JSON report (BENCH_engine.json by
// default) so CI can track the engine's perf trajectory next to the
// kernel numbers.
//
// Eight sections:
//
//  1. Throughput sweep — shard count x worker threads x index type:
//     batch wall-clock, queries/second, speedup over the 1-thread
//     execution of the same sharded database, per-query metric
//     evaluations, and recall against the exact linear scan.  Two
//     invariants are checked on every row ("cost" column): the
//     engine's distance counts with T threads must equal the counts
//     with 1 thread (independent shard tasks never perturb the paper's
//     cost model), and linear-scan shards must cost exactly n per
//     query.
//
//  2. Parallel build — ShardedDatabase::BuildFromRegistry wall time at
//     1/2/4/8 build threads for an AESA (O(n^2)) and a LAESA (O(nk))
//     table build: speedup over the serial build, with
//     build_distance_computations and IndexBits required identical at
//     every thread count (builds are deterministic).  Speedup is
//     hardware-dependent and reported, not gated.
//
//  3. Live ingest — a LiveDatabase serving the same batch continuously
//     while a writer thread streams inserts (~1k/s) and background
//     compactions fold the delta into new generations: q/s during the
//     whole ingest window (delta scans + compaction CPU + writer
//     contention) versus the steady-state reference, taken as the mean
//     of rest-state q/s at the initial and at the final compacted size
//     (the dataset grows during the window; the bracket separates
//     ingest overhead from the inherent cost of serving more data).
//     The final compacted store is compared with a fresh build over
//     its materialized dataset.
//
//  4. Incremental compaction — a delta routed to one of eight shards,
//     folded incrementally versus the full per-slice rebuild: wall
//     time and build distance computations, shards rebuilt and shared,
//     and the folded store's answers against the rebuild.
//
//  5. Observability — q/s of a metrics-off engine versus the same
//     engine wired into an obs::MetricsRegistry, the median of paired
//     alternating batches with its quartiles, plus per-query trace
//     exactness: bit-identical results with spans that partition each
//     query's distance count.
//
//  6. Durability — the cost of the write-ahead log and the payoff of
//     snapshots.  (a) Insert throughput of a durable store
//     (fsync=batched) versus the identical in-memory store.  (b)
//     LiveDatabase::Open of a snapshotted distperm generation (mmap +
//     checksum + state decode, no distance computations) versus the
//     cold in-memory build over the same dataset.  (c) The durable
//     store, closed and recovered from disk, answering the batch
//     against its pre-close self.
//
//  7. Serving — the network front door versus the in-process engine
//     it fronts: the same batch answered by LiveDatabase::RunBatch on
//     one thread, over a loopback TCP connection with the perm cache
//     bypassed (kRequestNoCache), and from the warmed
//     distance-permutation cache.  Wire answers are compared with the
//     in-process engine — ids, distances, AND per-query distance
//     counts (cache-probe site distances are accounted separately,
//     never folded into query stats).
//
//  8. Replication — wire catch-up versus local recovery over the same
//     WAL delta: a primary seeded with the base dataset plus an
//     unfolded R-record delta is (a) reopened locally (recovery
//     replays the delta) and (b) tailed by a fresh replica that
//     bootstraps the snapshot over loopback TCP and applies the R
//     frames through its own durable write path.  The caught-up
//     replica is compared with the primary — generation, delta,
//     materialized points, and batch answers.
//
// Every pass/fail rule lives in one table, kGates.  A row is exact (a
// count or a bit-identity check, the same on any hardware) or
// wall-clock (a ratio of two rates measured in the same process, so
// shared-host noise hits both sides).  Exact rows are always enforced;
// wall-clock rows are enforced in optimized (NDEBUG) builds at every
// size.  --smoke only shrinks the workloads, except that it waives
// the fold wall-speedup row, whose small shards are dominated by
// fixed per-fold overhead.  The exit status is the verdict: 0 iff
// every enforced row holds and the JSON report was written.
//
// Index structures are selected at runtime through the index registry;
// --index=<spec> restricts the throughput sweep to a single entry.
//
// Usage: engine_throughput [--points=4000] [--queries=48] [--dim=16]
//                          [--k=10] [--seed=7] [--index=<spec>]
//                          [--smoke] [--out=BENCH_engine.json]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dataset/vector_gen.h"
#include "engine/batch_stats.h"
#include "engine/live_database.h"
#include "engine/query.h"
#include "engine/query_engine.h"
#include "engine/sharded_database.h"
#include "index/linear_scan.h"
#include "metric/lp.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "server/replica_server.h"
#include "server/search_server.h"
#include "storage/env.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table_printer.h"

using distperm::engine::QueryEngine;
using distperm::engine::QuerySpec;
using distperm::engine::ShardedDatabase;
using distperm::metric::Metric;
using distperm::metric::Vector;
using distperm::util::Rng;

namespace {

std::string Ms(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", seconds * 1e3);
  return buffer;
}

std::string Fixed(double v, int digits) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, v);
  return buffer;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Quantile q of `values` by linear interpolation between order
// statistics (rank q * (n - 1)); 0 when empty.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t low = static_cast<size_t>(rank);
  const size_t high = std::min(low + 1, values.size() - 1);
  return values[low] +
         (rank - static_cast<double>(low)) * (values[high] - values[low]);
}

struct ThroughputRow {
  std::string index;
  size_t shards = 0;
  size_t threads = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  double speedup = 1.0;
  double dist_per_query = 0.0;
  bool cost_ok = true;
  double recall = 0.0;
};

struct BuildRow {
  std::string index;
  size_t threads = 0;
  double wall_ms = 0.0;
  double speedup = 1.0;
  bool counts_match = true;
};

struct ObservabilityResult {
  double qps_off = 0.0;  // metrics disabled (the seed behavior), median
  double qps_on = 0.0;   // EnableMetrics wired into a registry, median
  // 1 - off / on over the per-sample time ratios on / off: the median,
  // floored at 0 (gated), and the quartiles (the spread, signed).
  double overhead_fraction = 0.0;
  double overhead_q25 = 0.0;
  double overhead_q75 = 0.0;
  size_t samples = 0;
  bool trace_exact = true;
};

struct DurabilityResult {
  std::string ingest_spec;
  std::string snapshot_spec;
  double memory_inserts_per_s = 0.0;  // in-memory store, no WAL, median
  double wal_inserts_per_s = 0.0;     // fsync=batched WAL ahead of commit
  // 100 * wal / memory over the paired samples' rate ratios: the median
  // (gated) and the quartiles (the spread).
  double wal_ratio_pct = 0.0;
  double wal_ratio_q25 = 0.0;
  double wal_ratio_q75 = 0.0;
  size_t snapshot_points = 0;
  double cold_build_s = 0.0;   // fresh in-memory build over the dataset
  double snapshot_open_s = 0.0;  // Open() from the snapshot on disk
  double open_ratio_pct = 0.0;   // 100 * open / cold
  bool recovered_match = true;   // reopened store == pre-close answers
};

struct LiveIngestResult {
  std::string spec;
  double steady_before_qps = 0.0;  // rest state at the initial size
  double steady_after_qps = 0.0;   // rest state at the final size
  double steady_qps = 0.0;         // the mean: the gate's reference
  double ingest_qps = 0.0;
  double ratio_pct = 0.0;
  size_t inserted = 0;
  size_t compactions = 0;
  size_t final_size = 0;
  bool results_match = true;
};

struct IncrementalCompactionResult {
  std::string spec;
  size_t shards = 0;
  size_t base_points = 0;
  size_t delta_inserts = 0;
  size_t shards_rebuilt = 0;
  size_t shards_shared = 0;
  double incremental_s = 0.0;      // best fold wall time
  double full_rebuild_s = 0.0;     // best per-slice full rebuild
  double wall_speedup = 0.0;       // full / incremental
  uint64_t incremental_build_distances = 0;
  uint64_t full_build_distances = 0;
  double work_ratio = 0.0;         // full / incremental
  bool results_match = true;       // post-fold store == sliced rebuild
};

struct ReplicationResult {
  std::string spec;
  size_t records = 0;        // WAL delta records both sides apply
  double replay_rps = 0.0;   // local recovery replay, records/s
  double catchup_rps = 0.0;  // wire catch-up into a fresh replica
  double catchup_ratio_pct = 0.0;  // 100 * catchup/replay
  double bootstrap_s = 0.0;  // snapshot transfer + replica open
  bool converged = true;     // replica == primary after catch-up
};

struct ServingResult {
  std::string spec;
  double inproc_qps = 0.0;    // LiveDatabase::RunBatch, 1 engine thread
  double loopback_qps = 0.0;  // same batch over TCP, cache bypassed
  double loopback_ratio_pct = 0.0;  // 100 * loopback/inproc
  double uncached_qps = 0.0;  // == loopback (kRequestNoCache path)
  double cached_qps = 0.0;    // warm perm-cache replays over the wire
  double cached_speedup = 0.0;  // cached / uncached
  size_t cache_hits = 0;        // hits in the last cached round
  bool results_match = true;    // wire == in-process, incl. counts
};

/// Everything the gates read.
struct Report {
  bool cost_model_ok = true;
  bool build_counts_ok = true;
  LiveIngestResult live;
  IncrementalCompactionResult incremental;
  ObservabilityResult obs;
  DurabilityResult durability;
  ServingResult serving;
  ReplicationResult replication;
};

// ------------------------------------------------------------- gates
enum class Kind { kExact, kWallClock };
enum class Cmp { kEq, kGe, kLe, kLt };
/// Where a row applies beyond what its kind allows.
enum class Scope { kAlways, kFullSize, kMultiCore };

struct Gate {
  const char* name;
  double (*value)(const Report&);
  Cmp cmp;
  double threshold;
  Kind kind;
  Scope scope = Scope::kAlways;
};

#ifdef NDEBUG
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

constexpr size_t kIncShards = 8;

// Paired samples behind the observability overhead: one batch per
// engine each, ~16 ms at the section's floor size on a 4-vCPU host.
constexpr size_t kObsSamples = 201;

// Paired samples behind the WAL ingest ratio: one in-memory and one
// durable insert-and-fold round each, ~20 ms apiece at --smoke size on
// a 4-vCPU host.
constexpr size_t kWalSamples = 15;

constexpr double Bit(bool b) { return b ? 1.0 : 0.0; }

// The one definition of every pass/fail rule.  Boolean checks gate as
// value == 1.  The fold's wall speedup needs full-size shards (fixed
// per-fold overhead dominates --smoke shards); the catch-up ratio needs
// >= 2 cores, because it assumes the primary's send side and the
// replica's apply side overlap as a pipeline while the replay baseline
// is one thread.
constexpr Gate kGates[] = {
    {"cost_model", [](const Report& r) { return Bit(r.cost_model_ok); },
     Cmp::kEq, 1, Kind::kExact},
    {"build_determinism",
     [](const Report& r) { return Bit(r.build_counts_ok); }, Cmp::kEq, 1,
     Kind::kExact},
    {"live_ingest.results_match",
     [](const Report& r) { return Bit(r.live.results_match); }, Cmp::kEq, 1,
     Kind::kExact},
    {"live_ingest.ratio_pct",
     [](const Report& r) { return r.live.ratio_pct; }, Cmp::kGe, 70,
     Kind::kWallClock},
    {"incremental_compaction.results_match",
     [](const Report& r) { return Bit(r.incremental.results_match); },
     Cmp::kEq, 1, Kind::kExact},
    {"incremental_compaction.shards_rebuilt",
     [](const Report& r) {
       return static_cast<double>(r.incremental.shards_rebuilt);
     },
     Cmp::kEq, 1, Kind::kExact},
    {"incremental_compaction.shards_shared",
     [](const Report& r) {
       return static_cast<double>(r.incremental.shards_shared);
     },
     Cmp::kEq, kIncShards - 1, Kind::kExact},
    {"incremental_compaction.work_ratio",
     [](const Report& r) { return r.incremental.work_ratio; }, Cmp::kGe, 4,
     Kind::kExact},
    {"incremental_compaction.wall_speedup",
     [](const Report& r) { return r.incremental.wall_speedup; }, Cmp::kGe,
     4, Kind::kWallClock, Scope::kFullSize},
    {"observability.trace_exact",
     [](const Report& r) { return Bit(r.obs.trace_exact); }, Cmp::kEq, 1,
     Kind::kExact},
    {"observability.overhead_fraction",
     [](const Report& r) { return r.obs.overhead_fraction; }, Cmp::kLe,
     0.03, Kind::kWallClock},
    {"durability.recovered_match",
     [](const Report& r) { return Bit(r.durability.recovered_match); },
     Cmp::kEq, 1, Kind::kExact},
    {"durability.wal_ratio_pct",
     [](const Report& r) { return r.durability.wal_ratio_pct; }, Cmp::kGe,
     60, Kind::kWallClock},
    {"durability.open_ratio_pct",
     [](const Report& r) { return r.durability.open_ratio_pct; }, Cmp::kLt,
     10, Kind::kWallClock},
    {"serving.results_match",
     [](const Report& r) { return Bit(r.serving.results_match); },
     Cmp::kEq, 1, Kind::kExact},
    {"serving.loopback_ratio_pct",
     [](const Report& r) { return r.serving.loopback_ratio_pct; },
     Cmp::kGe, 50, Kind::kWallClock},
    {"serving.cached_speedup",
     [](const Report& r) { return r.serving.cached_speedup; }, Cmp::kGe, 5,
     Kind::kWallClock},
    {"replication.converged",
     [](const Report& r) { return Bit(r.replication.converged); },
     Cmp::kEq, 1, Kind::kExact},
    {"replication.catchup_ratio_pct",
     [](const Report& r) { return r.replication.catchup_ratio_pct; },
     Cmp::kGe, 50, Kind::kWallClock, Scope::kMultiCore},
};

const char* CmpName(Cmp cmp) {
  switch (cmp) {
    case Cmp::kEq: return "==";
    case Cmp::kGe: return ">=";
    case Cmp::kLe: return "<=";
    case Cmp::kLt: return "<";
  }
  return "?";
}

bool Holds(Cmp cmp, double value, double threshold) {
  switch (cmp) {
    case Cmp::kEq: return value == threshold;
    case Cmp::kGe: return value >= threshold;
    case Cmp::kLe: return value <= threshold;
    case Cmp::kLt: return value < threshold;
  }
  return false;
}

/// One gate evaluated against a run.
struct Verdict {
  const Gate* gate;
  double value;
  const char* waived;  // why the row is not enforced; nullptr if it is
  bool ok;
};

std::vector<Verdict> Evaluate(const Report& report, bool smoke,
                              size_t hardware) {
  std::vector<Verdict> verdicts;
  for (const Gate& gate : kGates) {
    const char* waived = nullptr;
    if (gate.kind == Kind::kWallClock && !kOptimizedBuild) {
      waived = "unoptimized build";
    } else if (gate.scope == Scope::kFullSize && smoke) {
      waived = "--smoke size";
    } else if (gate.scope == Scope::kMultiCore && hardware < 2) {
      waived = "single-core host";
    }
    const double value = gate.value(report);
    verdicts.push_back(
        {&gate, value, waived, Holds(gate.cmp, value, gate.threshold)});
  }
  return verdicts;
}

bool Pass(const std::vector<Verdict>& verdicts) {
  return std::all_of(verdicts.begin(), verdicts.end(),
                     [](const Verdict& v) { return v.waived || v.ok; });
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  return buffer;
}

bool WriteJson(const std::string& path, size_t points, size_t queries,
               size_t dim, size_t build_dim, size_t k, uint64_t seed,
               bool smoke, size_t hardware,
               const std::vector<ThroughputRow>& throughput,
               const std::vector<BuildRow>& builds,
               const Report& report, const std::vector<Verdict>& verdicts) {
  const LiveIngestResult& live = report.live;
  const IncrementalCompactionResult& incremental = report.incremental;
  const ObservabilityResult& obs = report.obs;
  const DurabilityResult& durability = report.durability;
  const ServingResult& serving = report.serving;
  const ReplicationResult& replication = report.replication;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  out << "{\n";
  out << "  \"schema\": \"BENCH_engine\",\n";
  out << "  \"config\": {\"points\": " << points
      << ", \"queries\": " << queries << ", \"dim\": " << dim
      << ", \"build_dim\": " << build_dim << ", \"k\": " << k
      << ", \"seed\": " << seed
      << ", \"smoke\": " << (smoke ? "true" : "false")
      << ", \"hardware_threads\": " << hardware << "},\n";
  out << "  \"throughput\": [\n";
  for (size_t i = 0; i < throughput.size(); ++i) {
    const ThroughputRow& r = throughput[i];
    out << "    {\"index\": \"" << r.index << "\", \"shards\": " << r.shards
        << ", \"threads\": " << r.threads
        << ", \"wall_ms\": " << Fixed(r.wall_ms, 3)
        << ", \"qps\": " << Fixed(r.qps, 1)
        << ", \"speedup\": " << Fixed(r.speedup, 3)
        << ", \"dist_per_query\": " << Fixed(r.dist_per_query, 1)
        << ", \"cost_ok\": " << (r.cost_ok ? "true" : "false")
        << ", \"recall\": " << Fixed(r.recall, 4) << "}"
        << (i + 1 < throughput.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"parallel_build\": [\n";
  for (size_t i = 0; i < builds.size(); ++i) {
    const BuildRow& r = builds[i];
    out << "    {\"index\": \"" << r.index
        << "\", \"threads\": " << r.threads
        << ", \"wall_ms\": " << Fixed(r.wall_ms, 2)
        << ", \"speedup\": " << Fixed(r.speedup, 3)
        << ", \"counts_match\": " << (r.counts_match ? "true" : "false")
        << "}" << (i + 1 < builds.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"live_ingest\": {\"spec\": \"" << live.spec
      << "\", \"steady_before_qps\": " << Fixed(live.steady_before_qps, 1)
      << ", \"steady_after_qps\": " << Fixed(live.steady_after_qps, 1)
      << ", \"steady_qps\": " << Fixed(live.steady_qps, 1)
      << ", \"ingest_qps\": " << Fixed(live.ingest_qps, 1)
      << ", \"ratio_pct\": " << Fixed(live.ratio_pct, 1)
      << ", \"inserted\": " << live.inserted
      << ", \"compactions\": " << live.compactions
      << ", \"final_size\": " << live.final_size
      << ", \"results_match\": " << (live.results_match ? "true" : "false")
      << "},\n";
  out << "  \"incremental_compaction\": {\"spec\": \"" << incremental.spec
      << "\", \"shards\": " << incremental.shards
      << ", \"base_points\": " << incremental.base_points
      << ", \"delta_inserts\": " << incremental.delta_inserts
      << ", \"shards_rebuilt\": " << incremental.shards_rebuilt
      << ", \"shards_shared\": " << incremental.shards_shared
      << ", \"incremental_s\": " << Fixed(incremental.incremental_s, 5)
      << ", \"full_rebuild_s\": " << Fixed(incremental.full_rebuild_s, 5)
      << ", \"wall_speedup\": " << Fixed(incremental.wall_speedup, 2)
      << ", \"incremental_build_distances\": "
      << incremental.incremental_build_distances
      << ", \"full_build_distances\": "
      << incremental.full_build_distances
      << ", \"work_ratio\": " << Fixed(incremental.work_ratio, 2)
      << ", \"results_match\": "
      << (incremental.results_match ? "true" : "false") << "},\n";
  out << "  \"observability\": {\"qps_metrics_off\": "
      << Fixed(obs.qps_off, 1)
      << ", \"qps_metrics_on\": " << Fixed(obs.qps_on, 1)
      << ", \"overhead_fraction\": " << Fixed(obs.overhead_fraction, 4)
      << ", \"overhead_q25\": " << Fixed(obs.overhead_q25, 4)
      << ", \"overhead_q75\": " << Fixed(obs.overhead_q75, 4)
      << ", \"samples\": " << obs.samples
      << ", \"trace_exact\": " << (obs.trace_exact ? "true" : "false")
      << "},\n";
  out << "  \"durability\": {\"ingest_spec\": \"" << durability.ingest_spec
      << "\", \"snapshot_spec\": \"" << durability.snapshot_spec
      << "\", \"memory_inserts_per_s\": "
      << Fixed(durability.memory_inserts_per_s, 1)
      << ", \"wal_inserts_per_s\": "
      << Fixed(durability.wal_inserts_per_s, 1)
      << ", \"wal_ratio_pct\": " << Fixed(durability.wal_ratio_pct, 1)
      << ", \"wal_ratio_q25\": " << Fixed(durability.wal_ratio_q25, 1)
      << ", \"wal_ratio_q75\": " << Fixed(durability.wal_ratio_q75, 1)
      << ", \"snapshot_points\": " << durability.snapshot_points
      << ", \"cold_build_s\": " << Fixed(durability.cold_build_s, 4)
      << ", \"snapshot_open_s\": " << Fixed(durability.snapshot_open_s, 4)
      << ", \"open_ratio_pct\": " << Fixed(durability.open_ratio_pct, 1)
      << ", \"recovered_match\": "
      << (durability.recovered_match ? "true" : "false") << "},\n";
  out << "  \"serving\": {\"spec\": \"" << serving.spec
      << "\", \"inproc_qps\": " << Fixed(serving.inproc_qps, 1)
      << ", \"loopback_qps\": " << Fixed(serving.loopback_qps, 1)
      << ", \"loopback_ratio_pct\": "
      << Fixed(serving.loopback_ratio_pct, 1)
      << ", \"uncached_qps\": " << Fixed(serving.uncached_qps, 1)
      << ", \"cached_qps\": " << Fixed(serving.cached_qps, 1)
      << ", \"cached_speedup\": " << Fixed(serving.cached_speedup, 2)
      << ", \"cache_hits\": " << serving.cache_hits
      << ", \"results_match\": "
      << (serving.results_match ? "true" : "false") << "},\n";
  out << "  \"replication\": {\"spec\": \"" << replication.spec
      << "\", \"records\": " << replication.records
      << ", \"replay_records_per_s\": " << Fixed(replication.replay_rps, 1)
      << ", \"catchup_records_per_s\": "
      << Fixed(replication.catchup_rps, 1)
      << ", \"catchup_ratio_pct\": "
      << Fixed(replication.catchup_ratio_pct, 1)
      << ", \"bootstrap_s\": " << Fixed(replication.bootstrap_s, 4)
      << ", \"converged\": "
      << (replication.converged ? "true" : "false") << "},\n";
  out << "  \"gates\": [\n";
  for (size_t i = 0; i < verdicts.size(); ++i) {
    const Verdict& v = verdicts[i];
    out << "    {\"name\": \"" << v.gate->name << "\", \"kind\": \""
        << (v.gate->kind == Kind::kExact ? "exact" : "wall-clock")
        << "\", \"value\": " << Num(v.value) << ", \"cmp\": \""
        << CmpName(v.gate->cmp) << "\", \"threshold\": "
        << Num(v.gate->threshold)
        << ", \"enforced\": " << (v.waived ? "false" : "true")
        << ", \"waived\": "
        << (v.waived ? "\"" + std::string(v.waived) + "\"" : "null")
        << ", \"ok\": " << (v.ok ? "true" : "false") << "}"
        << (i + 1 < verdicts.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"pass\": " << (Pass(verdicts) ? "true" : "false") << "\n";
  out << "}\n";
  out.flush();
  if (!out) {
    std::cerr << "failed writing " << path << "\n";
    return false;
  }
  std::cout << "\nwrote " << path << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = distperm::util::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n";
    return 1;
  }
  const bool smoke = flags.value().GetBool("smoke", false);
  const size_t points = static_cast<size_t>(
      flags.value().GetInt("points", smoke ? 1500 : 4000));
  const size_t queries = static_cast<size_t>(
      flags.value().GetInt("queries", smoke ? 24 : 48));
  const size_t dim = static_cast<size_t>(flags.value().GetInt("dim", 16));
  const size_t k = static_cast<size_t>(flags.value().GetInt("k", 10));
  const uint64_t seed =
      static_cast<uint64_t>(flags.value().GetInt("seed", 7));
  const std::string out_path =
      flags.value().GetString("out", "BENCH_engine.json");

  // Registry specs to sweep: the default four, or the single spec the
  // caller asked for.
  std::vector<std::string> specs = {"linear-scan", "vp-tree", "laesa:k=8",
                                    "distperm:k=10,fraction=0.2"};
  if (flags.value().Has("index")) {
    specs = {flags.value().GetString("index", "linear-scan")};
  }

  Rng rng(seed);
  auto data = distperm::dataset::UniformCube(points, dim, &rng);
  Metric<Vector> l2(distperm::metric::LpMetric::L2());

  std::vector<QuerySpec<Vector>> batch;
  for (size_t q = 0; q < queries; ++q) {
    Vector point(dim);
    for (auto& coord : point) coord = rng.NextDouble();
    batch.push_back(QuerySpec<Vector>::Knn(point, k));
  }

  // Exact ground truth for recall, from the unsharded linear scan.
  distperm::index::LinearScanIndex<Vector> scan(data, l2);
  std::vector<std::vector<distperm::index::SearchResult>> truth;
  for (const auto& spec : batch) {
    truth.push_back(scan.Search(QuerySpec<Vector>::Knn(spec.point, k)).results);
  }

  const size_t hardware = std::thread::hardware_concurrency();
  std::cout << "engine throughput: n=" << points << ", d=" << dim
            << ", batch=" << queries << " x " << k
            << "-NN, hardware threads=" << hardware
            << (smoke ? " (smoke)" : "") << "\n\n";

  distperm::util::TablePrinter table;
  table.SetHeader({"index", "shards", "threads", "wall ms", "q/s",
                   "speedup", "dist/query", "cost", "recall"});

  Report report;
  std::vector<ThroughputRow> throughput_rows;
  bool& cost_model_ok = report.cost_model_ok;
  bool concurrency_win = false;
  double best_speedup = 1.0;
  for (const std::string& spec : specs) {
    for (size_t shards : {1u, 4u, 8u}) {
      auto built = ShardedDatabase<Vector>::BuildFromRegistry(
          data, l2, shards, spec, seed);
      if (!built.ok()) {
        std::cerr << "failed to build '" << spec << "': " << built.status()
                  << "\n";
        return 1;
      }
      const ShardedDatabase<Vector>& db = built.value();
      // Single-threaded reference execution of the same sharded queries:
      // the baseline for speedup and for cost-model equality.
      QueryEngine<Vector> sequential(1);
      auto base = sequential.RunBatch(db, batch);

      for (size_t threads : {1u, 2u, 4u, 8u}) {
        // The 1-thread row is the base run itself; rerunning it would
        // double the work and decouple the row from its own baseline.
        auto out = base;
        if (threads > 1) {
          QueryEngine<Vector> engine(threads);
          out = engine.RunBatch(db, batch);
        }

        bool counts_match =
            out.stats.distance_computations ==
                base.stats.distance_computations &&
            out.per_query_distance_computations ==
                base.per_query_distance_computations;
        if (spec == "linear-scan") {
          for (uint64_t per_query : out.per_query_distance_computations) {
            counts_match = counts_match && per_query == points;
          }
        }
        cost_model_ok = cost_model_ok && counts_match;

        double speedup = threads == 1
                             ? 1.0
                             : base.stats.wall_seconds /
                                   out.stats.wall_seconds;
        if (threads >= 4 && shards >= 4 && speedup > 1.05) {
          concurrency_win = true;
          if (speedup > best_speedup) best_speedup = speedup;
        }
        double qps = static_cast<double>(queries) / out.stats.wall_seconds;
        double recall = distperm::engine::AverageRecall(out.results, truth);
        table.AddRow(
            {spec, std::to_string(shards), std::to_string(threads),
             Ms(out.stats.wall_seconds), Fixed(qps, 0), Fixed(speedup, 2),
             Fixed(static_cast<double>(out.stats.distance_computations) /
                       static_cast<double>(queries),
                   1),
             counts_match ? "OK" : "MISMATCH", Fixed(recall, 3)});
        throughput_rows.push_back(
            {spec, shards, threads, out.stats.wall_seconds * 1e3, qps,
             speedup,
             static_cast<double>(out.stats.distance_computations) /
                 static_cast<double>(queries),
             counts_match, recall});
      }
    }
  }
  table.Print(std::cout);

  if (concurrency_win) {
    std::cout << "concurrency: with >=4 threads on >=4 shards the batch "
                 "ran up to "
              << Fixed(best_speedup, 2)
              << "x faster than the same sharded execution on 1 thread\n";
  } else {
    std::cout << "concurrency: no wall-clock win measured (hardware "
                 "threads="
              << hardware
              << "); on a multi-core host >=4 threads on >=4 shards beat "
                 "sequential execution\n";
  }

  // ------------------------------------------------- parallel builds
  // Clustered dim-16 data, 8 shards.  AESA's matrix is quadratic, so it
  // builds over a capped slice.
  const size_t build_dim = std::max<size_t>(dim, 16);
  Rng build_rng(seed + 1);
  auto clustered = distperm::dataset::ClusteredCloud(
      points, build_dim, std::max<size_t>(8, points / 60), 0.01, &build_rng);
  const size_t aesa_points = std::min<size_t>(points, 1500);
  std::cout << "\nparallel shard construction (8 shards, wall time of "
               "BuildFromRegistry):\n\n";
  distperm::util::TablePrinter build_table;
  build_table.SetHeader({"index", "build threads", "wall ms", "speedup",
                         "determinism"});
  std::vector<BuildRow> build_rows;
  bool& build_counts_ok = report.build_counts_ok;
  struct BuildCase {
    std::string spec;
    const std::vector<Vector>* data;
  };
  std::vector<Vector> aesa_data(clustered.begin(),
                                clustered.begin() +
                                    static_cast<ptrdiff_t>(aesa_points));
  const std::vector<BuildCase> build_cases = {
      {"aesa", &aesa_data}, {"laesa:k=64", &clustered}};
  for (const BuildCase& c : build_cases) {
    uint64_t serial_counts = 0;
    uint64_t serial_bits = 0;
    double serial_ms = 0.0;
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      double best = 1e100;
      uint64_t counts = 0;
      uint64_t bits = 0;
      const int reps = smoke ? 2 : 3;
      for (int rep = 0; rep < reps; ++rep) {
        // Copy outside the timed window and move in: the timer covers
        // the build itself, not a serial deep copy of the dataset.
        std::vector<Vector> rep_data = *c.data;
        const double t0 = Now();
        auto built = ShardedDatabase<Vector>::BuildFromRegistry(
            std::move(rep_data), l2, 8, c.spec, seed, threads);
        best = std::min(best, Now() - t0);
        if (!built.ok()) {
          std::cerr << "failed to build '" << c.spec
                    << "': " << built.status() << "\n";
          return 1;
        }
        counts = built.value().build_distance_computations();
        bits = built.value().IndexBits();
      }
      if (threads == 1) {
        serial_counts = counts;
        serial_bits = bits;
        serial_ms = best * 1e3;
      }
      const bool counts_match = counts == serial_counts &&
                                bits == serial_bits;
      build_counts_ok = build_counts_ok && counts_match;
      BuildRow row;
      row.index = c.spec;
      row.threads = threads;
      row.wall_ms = best * 1e3;
      row.speedup = serial_ms / row.wall_ms;
      row.counts_match = counts_match;
      build_table.AddRow({c.spec, std::to_string(threads),
                          Fixed(row.wall_ms, 2), Fixed(row.speedup, 2),
                          counts_match ? "OK" : "MISMATCH"});
      build_rows.push_back(row);
    }
  }
  build_table.Print(std::cout);

  // -------------------------------------------------- live ingest
  // The same batch served continuously from a LiveDatabase: first with
  // the store idle (steady state), then across a whole ingest window —
  // a writer thread streaming inserts, auto-compactions folding the
  // delta into new generations in the background, every query paying
  // its pinned delta scan — then the final compacted store against a
  // fresh build over its materialized dataset.
  using distperm::engine::LiveDatabase;
  LiveIngestResult& live_row = report.live;
  // Scale the fold threshold with the database: the per-query delta
  // scan stays a small fraction of the base query cost at any
  // --points, so the gate measures compaction overhead, not a
  // mis-sized buffer.
  const size_t compact_threshold = std::max<size_t>(32, points / 24);
  live_row.spec = "vp-tree:auto_compact_threshold=" +
                  std::to_string(compact_threshold) +
                  ",delta_scan_limit=" +
                  std::to_string(8 * compact_threshold);
  const size_t ingest_total = smoke ? 500 : 1000;
  {
    auto opened =
        LiveDatabase<Vector>::Open(data, l2, 4, live_row.spec, seed);
    if (!opened.ok()) {
      std::cerr << "failed to open live store: " << opened.status() << "\n";
      return 1;
    }
    LiveDatabase<Vector>& live = *opened.value();
    QueryEngine<Vector> engine(2);

    const int steady_reps = smoke ? 8 : 16;
    const auto measure_steady = [&live, &engine, &batch, queries,
                                 steady_reps]() {
      live.RunBatch(engine, live.Pin(), batch);  // warm the scratch buffers
      const double t0 = Now();
      for (int rep = 0; rep < steady_reps; ++rep) {
        live.RunBatch(engine, live.Pin(), batch);
      }
      return static_cast<double>(steady_reps) *
             static_cast<double>(queries) / (Now() - t0);
    };
    live_row.steady_before_qps = measure_steady();

    std::atomic<bool> writer_done{false};
    std::thread writer([&live, &writer_done, ingest_total, seed, dim]() {
      Rng writer_rng(seed + 99);
      for (size_t i = 0; i < ingest_total;) {
        Vector p;
        p.reserve(dim);
        for (size_t d = 0; d < dim; ++d) p.push_back(writer_rng.NextDouble());
        if (live.Insert(std::move(p)).ok()) {
          ++i;
          // A paced insert stream (~1k/s) so the window spans many
          // compaction cycles instead of one burst.
          std::this_thread::sleep_for(std::chrono::microseconds(1000));
        } else {
          // Backpressure: let a compaction fold the delta.
          std::this_thread::sleep_for(std::chrono::microseconds(1000));
        }
      }
      writer_done.store(true);
    });

    size_t ingest_batches = 0;
    const double t0 = Now();
    while (!writer_done.load(std::memory_order_relaxed)) {
      live.RunBatch(engine, live.Pin(), batch);
      ++ingest_batches;
    }
    const double ingest_elapsed = Now() - t0;
    writer.join();
    live_row.ingest_qps = static_cast<double>(ingest_batches) *
                          static_cast<double>(queries) / ingest_elapsed;
    live_row.inserted = ingest_total;

    live.WaitForCompaction();
    // Count only the compactions the measured window ran against; the
    // forced fold below is post-measurement cleanup.
    live_row.compactions = live.generation_number() - 1;
    const auto final_fold = live.Compact();
    const auto background = live.last_background_compact_status();
    if (!final_fold.ok() || !background.ok()) {
      // A compaction error is its own failure, not a determinism
      // divergence — say which one happened before failing the gate.
      std::cerr << "live ingest: compaction failed — foreground: "
                << final_fold << ", background: " << background << "\n";
      live_row.results_match = false;
    }
    auto snapshot = live.Pin();
    live_row.final_size = snapshot.live_size();

    // The dataset grows by `ingest_total` during the window, so the
    // fair steady-state reference brackets it: the mean of rest-state
    // throughput at the initial size and at the final (compacted)
    // size.  The ratio then isolates the ingest machinery's overhead —
    // delta scans, compaction CPU, writer contention — from the
    // inherent cost of serving a larger database.
    live_row.steady_after_qps = measure_steady();
    live_row.steady_qps =
        0.5 * (live_row.steady_before_qps + live_row.steady_after_qps);
    live_row.ratio_pct =
        100.0 * live_row.ingest_qps / live_row.steady_qps;

    // Bit-identical serving after the swaps: the compacted store vs. a
    // full per-slice rebuild of the same routed layout
    // (MaterializeSlices is the reference an incremental fold must
    // reproduce shard for shard).
    auto fresh = ShardedDatabase<Vector>::BuildFromRegistrySliced(
        snapshot.MaterializeSlices(), l2, live.index_spec(), seed);
    if (!fresh.ok()) {
      live_row.results_match = false;
    } else {
      auto want = engine.RunBatch(fresh.value(), batch);
      auto got = live.RunBatch(engine, live.Pin(), batch);
      live_row.results_match =
          live_row.results_match && got.results == want.results;
    }
  }
  std::cout << "\nlive ingest (" << live_row.spec << ", "
            << ingest_total << " inserts streamed):\n\n";
  distperm::util::TablePrinter live_table;
  live_table.SetHeader({"phase", "q/s", "ratio", "compactions", "final n",
                        "results"});
  live_table.AddRow({"steady (initial size)",
                     Fixed(live_row.steady_before_qps, 0), "-", "-", "-",
                     "-"});
  live_table.AddRow({"steady (final size)",
                     Fixed(live_row.steady_after_qps, 0), "-", "-", "-",
                     "-"});
  live_table.AddRow({"steady reference (mean)",
                     Fixed(live_row.steady_qps, 0), "100%", "-", "-", "-"});
  live_table.AddRow(
      {"ingest", Fixed(live_row.ingest_qps, 0),
       Fixed(live_row.ratio_pct, 1) + "%",
       std::to_string(live_row.compactions),
       std::to_string(live_row.final_size),
       live_row.results_match ? "OK" : "MISMATCH"});
  live_table.Print(std::cout);

  // -------------------------------------- incremental compaction
  // Eight well-separated clusters laid out in cluster order, so
  // generation 1's uniform split makes shard s = cluster s and a delta
  // streamed at cluster 3's center routes to exactly one shard.
  // Folding that delta incrementally is compared with the full
  // per-slice rebuild — wall time AND build distance computations —
  // and the folded store's answers (results and per-query counts) with
  // the rebuild's.  Both sides build single-threaded, so the ratio
  // measures shards skipped, not threads.
  IncrementalCompactionResult& inc_row = report.incremental;
  {
    const size_t per_cluster = smoke ? 600 : 2000;
    const size_t inc_dim = 4;
    const size_t delta_inserts = 64;
    inc_row.spec = "laesa:k=32";
    inc_row.shards = kIncShards;
    inc_row.base_points = kIncShards * per_cluster;
    inc_row.delta_inserts = delta_inserts;

    Rng inc_rng(seed + 31);
    std::vector<Vector> inc_base;
    inc_base.reserve(inc_row.base_points);
    for (size_t c = 0; c < kIncShards; ++c) {
      for (size_t i = 0; i < per_cluster; ++i) {
        Vector p(inc_dim);
        for (double& x : p) x = 10.0 * c + inc_rng.NextDouble();
        inc_base.push_back(std::move(p));
      }
    }
    std::vector<Vector> inc_delta;
    inc_delta.reserve(delta_inserts);
    for (size_t i = 0; i < delta_inserts; ++i) {
      Vector p(inc_dim);
      for (double& x : p) x = 30.0 + inc_rng.NextDouble();
      inc_delta.push_back(std::move(p));
    }
    std::vector<QuerySpec<Vector>> inc_batch;
    for (int q = 0; q < 24; ++q) {
      const size_t c = inc_rng.NextBounded(kIncShards);
      Vector p(inc_dim);
      for (double& x : p) x = 10.0 * c + inc_rng.NextDouble();
      inc_batch.push_back(QuerySpec<Vector>::Knn(p, 10));
    }
    const std::string live_spec = inc_row.spec + ",delta_scan_limit=256";

    inc_row.incremental_s = std::numeric_limits<double>::infinity();
    inc_row.full_rebuild_s = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 3; ++round) {
      auto opened = LiveDatabase<Vector>::Open(inc_base, l2, kIncShards,
                                               live_spec, seed);
      if (!opened.ok()) {
        std::cerr << "incremental compaction open failed: "
                  << opened.status() << "\n";
        return 1;
      }
      LiveDatabase<Vector>& live = *opened.value();
      bool inserted = true;
      for (const Vector& p : inc_delta) {
        inserted = inserted && live.Insert(p).ok();
      }
      if (!inserted) {
        std::cerr << "incremental compaction insert failed\n";
        return 1;
      }
      auto snapshot = live.Pin();
      auto slices = snapshot.MaterializeSlices();

      const double fold_t0 = Now();
      if (const auto folded = live.Compact(); !folded.ok()) {
        std::cerr << "incremental compaction fold failed: " << folded
                  << "\n";
        return 1;
      }
      inc_row.incremental_s =
          std::min(inc_row.incremental_s, Now() - fold_t0);
      const auto stats = live.last_compaction_stats();
      inc_row.shards_rebuilt = stats.shards_rebuilt;
      inc_row.shards_shared = stats.shards_shared;
      inc_row.incremental_build_distances =
          stats.build_distance_computations;

      const double full_t0 = Now();
      auto full = ShardedDatabase<Vector>::BuildFromRegistrySliced(
          std::move(slices), l2, inc_row.spec, seed);
      if (!full.ok()) {
        std::cerr << "full sliced rebuild failed: " << full.status()
                  << "\n";
        return 1;
      }
      inc_row.full_rebuild_s =
          std::min(inc_row.full_rebuild_s, Now() - full_t0);
      inc_row.full_build_distances =
          full.value().build_distance_computations();

      if (round == 0) {
        QueryEngine<Vector> engine(1);
        auto want = engine.RunBatch(full.value(), inc_batch);
        auto got = live.RunBatch(engine, live.Pin(), inc_batch);
        inc_row.results_match =
            got.results == want.results &&
            got.per_query_distance_computations ==
                want.per_query_distance_computations;
      }
    }
    inc_row.wall_speedup = inc_row.full_rebuild_s / inc_row.incremental_s;
    inc_row.work_ratio =
        inc_row.incremental_build_distances == 0
            ? 0.0
            : static_cast<double>(inc_row.full_build_distances) /
                  static_cast<double>(inc_row.incremental_build_distances);
  }
  std::cout << "\nincremental compaction (" << inc_row.spec << ", "
            << inc_row.shards << " shards, " << inc_row.delta_inserts
            << " inserts routed to one shard):\n\n";
  distperm::util::TablePrinter inc_table;
  inc_table.SetHeader({"fold", "wall s", "build distances", "shards built",
                       "results"});
  inc_table.AddRow({"full per-slice rebuild",
                    Fixed(inc_row.full_rebuild_s, 4),
                    std::to_string(inc_row.full_build_distances),
                    std::to_string(inc_row.shards), "-"});
  inc_table.AddRow({"incremental", Fixed(inc_row.incremental_s, 4),
                    std::to_string(inc_row.incremental_build_distances),
                    std::to_string(inc_row.shards_rebuilt),
                    inc_row.results_match ? "OK" : "MISMATCH"});
  inc_table.Print(std::cout);

  // -------------------------------------------------- observability
  // Metrics overhead: the same sharded batch on two engines over one
  // database — one plain (the seed behavior: no registry, no clock
  // reads), one wired into a MetricsRegistry.  One sample times one
  // batch on each engine, the two in alternating order, and yields the
  // ratio of the two times; the gated overhead is the median ratio's,
  // reported with the quartiles.  A ratio of adjacent timings cancels
  // the host's slow drifts, and the median of many samples ignores the
  // preempted ones.  Tracing is then checked for exactness:
  // bit-identical results and spans that partition each query's
  // distance count.
  //
  // The workload is floored at 20000 points x 48 queries regardless of
  // --points/--queries: the overhead gate measures per-task instrument
  // cost amortized over serving-regime shard searches (5000-point
  // shards here; the repo benchmark serves 50000-point ones).  On
  // 1000-point shards the fixed per-task cost reads near 2%, within the
  // noise of a 4-vCPU host (sample quartiles about 5% apart) of the
  // 0.03 gate, so the verdict was a coin flip.
  ObservabilityResult& obs_row = report.obs;
  const size_t obs_points = std::max<size_t>(points, 20000);
  const size_t obs_queries = std::max<size_t>(queries, 48);
  {
    Rng obs_rng(seed);
    auto obs_data = distperm::dataset::UniformCube(obs_points, dim, &obs_rng);
    std::vector<QuerySpec<Vector>> obs_batch;
    for (size_t q = 0; q < obs_queries; ++q) {
      Vector point(dim);
      for (auto& coord : point) coord = obs_rng.NextDouble();
      obs_batch.push_back(QuerySpec<Vector>::Knn(point, k));
    }
    auto built = ShardedDatabase<Vector>::BuildFromRegistry(
        std::move(obs_data), l2, 4, "vp-tree", seed);
    if (!built.ok()) {
      std::cerr << "failed to build 'vp-tree': " << built.status() << "\n";
      return 1;
    }
    const ShardedDatabase<Vector>& db = built.value();
    distperm::obs::MetricsRegistry registry("bench");
    QueryEngine<Vector> plain_engine(4);
    QueryEngine<Vector> metered_engine(4);
    metered_engine.EnableMetrics(&registry);
    plain_engine.RunBatch(db, obs_batch);  // warm both pools and the scratch
    metered_engine.RunBatch(db, obs_batch);

    const auto time_batch = [&](QueryEngine<Vector>& engine) {
      const double t0 = Now();
      engine.RunBatch(db, obs_batch);
      return Now() - t0;
    };
    std::vector<double> off_s, on_s, overheads;
    for (size_t sample = 0; sample < kObsSamples; ++sample) {
      double off = 0.0, on = 0.0;
      if (sample % 2 == 0) {
        off = time_batch(plain_engine);
        on = time_batch(metered_engine);
      } else {
        on = time_batch(metered_engine);
        off = time_batch(plain_engine);
      }
      off_s.push_back(off);
      on_s.push_back(on);
      overheads.push_back(1.0 - off / on);
    }
    const double queries_per_batch = static_cast<double>(obs_queries);
    obs_row.qps_off = queries_per_batch / Quantile(off_s, 0.5);
    obs_row.qps_on = queries_per_batch / Quantile(on_s, 0.5);
    obs_row.overhead_fraction = std::max(0.0, Quantile(overheads, 0.5));
    obs_row.overhead_q25 = Quantile(overheads, 0.25);
    obs_row.overhead_q75 = Quantile(overheads, 0.75);
    obs_row.samples = kObsSamples;

    auto traced_batch = obs_batch;
    for (auto& q : traced_batch) q.WithTrace();
    auto want = plain_engine.RunBatch(db, obs_batch);
    auto got = metered_engine.RunBatch(db, traced_batch);
    obs_row.trace_exact = got.results == want.results;
    for (size_t q = 0; q < traced_batch.size(); ++q) {
      obs_row.trace_exact =
          obs_row.trace_exact &&
          got.traces[q].total_distance_computations() ==
              got.per_query_distance_computations[q];
    }
  }
  std::cout << "\nobservability (vp-tree, n=" << obs_points << ", "
            << obs_queries << " x " << k
            << "-NN, 4 shards, 4 threads, median of " << kObsSamples
            << " alternating paired batches):\n\n";
  distperm::util::TablePrinter obs_table;
  obs_table.SetHeader({"mode", "q/s", "overhead", "quartiles", "traces"});
  obs_table.AddRow(
      {"metrics off", Fixed(obs_row.qps_off, 0), "-", "-", "-"});
  obs_table.AddRow({"metrics on", Fixed(obs_row.qps_on, 0),
                    Fixed(100.0 * obs_row.overhead_fraction, 2) + "%",
                    Fixed(100.0 * obs_row.overhead_q25, 2) + "% .. " +
                        Fixed(100.0 * obs_row.overhead_q75, 2) + "%",
                    obs_row.trace_exact ? "exact" : "MISMATCH"});
  obs_table.Print(std::cout);

  // ---------------------------------------------------- durability
  // (a) WAL ingest tax: the same insert stream into the same store
  // spec, once purely in memory and once with a batched-fsync WAL
  // ahead of every commit.  (b) Snapshot payoff: Open() of a
  // snapshotted distperm generation (mmap + checksums + state decode)
  // versus the cold build, at 100k points so both sides are well out
  // of the noise.  (c) Recovery exactness: the durable store closed
  // and reopened must answer the batch bit-identically.
  DurabilityResult& durability = report.durability;
  {
    const char* tmp_env = std::getenv("TMPDIR");
    const std::string tmp_root = tmp_env != nullptr ? tmp_env : "/tmp";
    distperm::storage::Env* env = distperm::storage::Env::Default();
    const auto fresh_dir = [&](const std::string& name) {
      const std::string dir = tmp_root + "/distperm_bench_" + name;
      env->CreateDir(dir);
      auto listing = env->ListDir(dir);
      if (listing.ok()) {
        for (const std::string& file : listing.value()) {
          env->DeleteFile(dir + "/" + file);
        }
      }
      return dir;
    };
    const std::string wal_dir = fresh_dir("wal_ingest");
    const std::string snap_dir = fresh_dir("snapshot");

    // --- (a) ingest: in-memory versus WAL (fsync=batched).  The timed
    // window is the whole pipeline — the insert stream plus the
    // compaction that folds it into a new generation — because an
    // ingest session is not done until the delta is folded; a raw
    // memory append (~ns) against a logged append (~µs) would compare
    // a mutex increment to real I/O and say nothing about ingest.
    // Auto-compaction is off so both sides fold exactly once, at the
    // same point in the stream.  laesa:k=128 is the engine's exact
    // pivot-table tier at production pivot counts (section 3 runs the
    // same index at k=64): the fold pays 128 pivot distances per
    // point, which is the compute any exact-search deployment pays,
    // while the durable side's extra cost — WAL group commits plus the
    // snapshot+rename syncs — is bounded by bytes, not by k.
    const std::string ingest_base = "laesa:k=128,delta_scan_limit=20000";
    durability.ingest_spec = ingest_base + ",wal_dir=<dir>,fsync=batched";
    const size_t ingest_inserts = smoke ? 2000 : 8000;
    Rng ingest_rng(seed + 7);
    std::vector<Vector> stream;
    stream.reserve(ingest_inserts);
    for (size_t i = 0; i < ingest_inserts; ++i) {
      Vector p(dim);
      for (double& c : p) c = ingest_rng.NextDouble();
      stream.push_back(std::move(p));
    }
    const auto timed_ingest = [&](const std::string& spec,
                                  double* out_rate) {
      auto opened = LiveDatabase<Vector>::Open(data, l2, 4, spec, seed);
      if (!opened.ok()) {
        std::cerr << "durable ingest open failed: " << opened.status()
                  << "\n";
        return false;
      }
      const double t0 = Now();
      for (const Vector& p : stream) {
        if (!opened.value()->Insert(p).ok()) {
          std::cerr << "durable ingest insert failed\n";
          return false;
        }
      }
      if (!opened.value()->Compact().ok()) {
        std::cerr << "durable ingest compact failed\n";
        return false;
      }
      *out_rate = static_cast<double>(ingest_inserts) / (Now() - t0);
      return true;
    };
    // Paired samples, as for the metrics overhead above: one sample
    // runs one in-memory and one durable round, in alternating order,
    // and yields the ratio of their rates; the gated ratio is the
    // median's, reported with the quartiles.  A round lasts ~20 ms at
    // --smoke size, so one slow fsync or preempted round moves its
    // sample a lot: best-of-3 per side let such a round decide the
    // verdict (about one --smoke run in twelve missed), while the
    // median of paired ratios ignores it.  Each durable round starts
    // from an emptied directory so every run seeds, streams, and folds
    // the same store from scratch; the last durable round's store is
    // left on disk for the recovery check in (c).
    std::vector<double> memory_rates, wal_rates, wal_ratios;
    for (size_t sample = 0; sample < kWalSamples; ++sample) {
      double memory = 0.0, wal = 0.0;
      const auto memory_round = [&]() {
        return timed_ingest(ingest_base, &memory);
      };
      const auto wal_round = [&]() {
        fresh_dir("wal_ingest");
        return timed_ingest(
            ingest_base + ",wal_dir=" + wal_dir + ",fsync=batched", &wal);
      };
      const bool ran = sample % 2 == 0 ? memory_round() && wal_round()
                                       : wal_round() && memory_round();
      if (!ran) return 1;
      memory_rates.push_back(memory);
      wal_rates.push_back(wal);
      wal_ratios.push_back(100.0 * wal / memory);
    }
    durability.memory_inserts_per_s = Quantile(memory_rates, 0.5);
    durability.wal_inserts_per_s = Quantile(wal_rates, 0.5);
    durability.wal_ratio_pct = Quantile(wal_ratios, 0.5);
    durability.wal_ratio_q25 = Quantile(wal_ratios, 0.25);
    durability.wal_ratio_q75 = Quantile(wal_ratios, 0.75);

    // --- (c) recovery exactness on the store (a) just wrote: reopen
    // from disk and require bit-identical batch answers.  A compaction
    // first folds the delta so the reopened store restores the distperm
    // case's sections rather than replaying thousands of records.
    {
      const std::string spec =
          ingest_base + ",wal_dir=" + wal_dir + ",fsync=batched";
      auto reopened = LiveDatabase<Vector>::Open({}, l2, 4, spec, seed);
      if (!reopened.ok()) {
        std::cerr << "durable reopen failed: " << reopened.status() << "\n";
        durability.recovered_match = false;
      } else {
        LiveDatabase<Vector>& store = *reopened.value();
        QueryEngine<Vector> engine(1);
        auto got = store.RunBatch(engine, store.Pin(), batch);
        // The restored generation carries the routed slicing the fold
        // produced, so the reference is a per-slice rebuild, not a
        // uniform split of the flattened dataset.
        auto fresh = ShardedDatabase<Vector>::BuildFromRegistrySliced(
            reopened.value()->Pin().MaterializeSlices(), l2,
            reopened.value()->index_spec(), seed);
        if (!fresh.ok()) {
          durability.recovered_match = false;
        } else {
          auto want = engine.RunBatch(fresh.value(), batch);
          durability.recovered_match = got.results == want.results;
        }
      }
    }

    // --- (b) snapshot open versus cold rebuild.  distperm:k=20 keeps
    // the build doing real work (20 anchor distances + a permutation
    // sort per point) while the snapshot restore does none of it.
    // dim 8 is inside the paper's experimental range (uniform [0,1]^d,
    // d <= 10) and packs each row into exactly one 64-byte aligned
    // stride, so the restore's byte sweeps measure payload, not
    // padding.
    const std::string snap_base = "distperm:k=20,fraction=0.2";
    const size_t snap_dim = 8;
    durability.snapshot_spec = snap_base;
    durability.snapshot_points = smoke ? 20000 : 100000;
    Rng snap_rng(seed + 8);
    auto snap_data = distperm::dataset::UniformCube(
        durability.snapshot_points, snap_dim, &snap_rng);
    // Best-of-3 on both sides, like the observability section's
    // interleaved rounds: one build or open is a single sample of a
    // noisy disk/allocator, and the gate compares medians of nothing.
    durability.cold_build_s = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 3; ++round) {
      const double t0 = Now();
      auto cold = LiveDatabase<Vector>::Open(snap_data, l2, 4, snap_base,
                                             seed);
      const double elapsed = Now() - t0;
      if (!cold.ok()) {
        std::cerr << "cold build failed: " << cold.status() << "\n";
        return 1;
      }
      durability.cold_build_s = std::min(durability.cold_build_s, elapsed);
    }
    const std::string snap_spec = snap_base + ",wal_dir=" + snap_dir;
    {
      auto seeded = LiveDatabase<Vector>::Open(snap_data, l2, 4, snap_spec,
                                               seed);
      if (!seeded.ok()) {
        std::cerr << "snapshot seed failed: " << seeded.status() << "\n";
        return 1;
      }
    }
    durability.snapshot_open_s = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 3; ++round) {
      const double t0 = Now();
      auto opened = LiveDatabase<Vector>::Open({}, l2, 4, snap_spec, seed);
      const double elapsed = Now() - t0;
      if (!opened.ok()) {
        std::cerr << "snapshot open failed: " << opened.status() << "\n";
        return 1;
      }
      durability.snapshot_open_s =
          std::min(durability.snapshot_open_s, elapsed);
    }
    durability.open_ratio_pct =
        100.0 * durability.snapshot_open_s / durability.cold_build_s;
  }
  std::cout << "\ndurability (WAL fsync=batched ingest, median of "
            << kWalSamples << " alternating paired rounds; snapshot open "
            << "at n=" << durability.snapshot_points << "):\n\n";
  distperm::util::TablePrinter dur_table;
  dur_table.SetHeader({"measurement", "baseline", "durable", "ratio",
                       "recovery"});
  dur_table.AddRow({"ingest inserts/s",
                    Fixed(durability.memory_inserts_per_s, 0),
                    Fixed(durability.wal_inserts_per_s, 0),
                    Fixed(durability.wal_ratio_pct, 1) + "% (" +
                        Fixed(durability.wal_ratio_q25, 1) + ".." +
                        Fixed(durability.wal_ratio_q75, 1) + ")",
                    durability.recovered_match ? "OK" : "MISMATCH"});
  dur_table.AddRow({"open vs cold build (s)",
                    Fixed(durability.cold_build_s, 3),
                    Fixed(durability.snapshot_open_s, 3),
                    Fixed(durability.open_ratio_pct, 1) + "%", "-"});
  dur_table.Print(std::cout);

  // ------------------------------------------------------ serving
  // The network front door versus the in-process engine it fronts.
  // Both sides run one engine thread over the same LiveDatabase; the
  // wire side adds codec + epoll + TCP loopback, and the cached side
  // answers from the distance-permutation cache after a warm pass.
  // Every wire round is verified against the in-process reference —
  // ids, distances, and per-query distance counts must be
  // bit-identical (the cache probe's site distances are accounted in
  // perm_cache_probe_distances_total, never in query stats).
  ServingResult& serving = report.serving;
  serving.spec = "vp-tree";
  {
    auto opened = LiveDatabase<Vector>::Open(data, l2, 4, serving.spec, seed);
    if (!opened.ok()) {
      std::cerr << "serving: open failed: " << opened.status() << "\n";
      return 1;
    }
    LiveDatabase<Vector>& live = *opened.value();
    QueryEngine<Vector> engine(1);

    const int serve_reps = smoke ? 12 : 24;
    live.RunBatch(engine, live.Pin(), batch);  // warm the scratch buffers
    double best_local = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < serve_reps; ++rep) {
      const double t0 = Now();
      live.RunBatch(engine, live.Pin(), batch);
      best_local = std::min(best_local, Now() - t0);
    }
    serving.inproc_qps = static_cast<double>(queries) / best_local;
    const auto want = live.RunBatch(engine, live.Pin(), batch);

    distperm::server::SearchServer<Vector>::Options server_options;
    server_options.engine_threads = 1;
    server_options.perm_cache_capacity = 4096;
    server_options.perm_cache_sites = 12;
    distperm::server::SearchServer<Vector> server(&live, server_options);
    if (auto status = server.Start(0); !status.ok()) {
      std::cerr << "serving: " << status << "\n";
      return 1;
    }
    std::thread serve_thread([&server]() { server.Run(); });
    bool wire_up = true;
    {
      auto connected =
          distperm::net::Client::Connect("127.0.0.1", server.port());
      if (!connected.ok()) {
        std::cerr << "serving: " << connected.status() << "\n";
        wire_up = false;
        serving.results_match = false;
      } else {
        distperm::net::Client& client = *connected.value();
        // One wire round: the whole batch pipelined on one
        // connection, every response checked against the reference.
        size_t round_hits = 0;
        const auto wire_round = [&](bool no_cache) {
          auto responses = client.SearchBatch(batch, no_cache);
          if (!responses.ok()) {
            std::cerr << "serving: " << responses.status() << "\n";
            serving.results_match = false;
            return false;
          }
          round_hits = 0;
          for (size_t q = 0; q < responses.value().size(); ++q) {
            const auto& r = responses.value()[q];
            if (!r.status.ok() || r.results != want.results[q] ||
                r.stats.distance_computations !=
                    want.per_query_distance_computations[q]) {
              serving.results_match = false;
            }
            if (r.cache_hit) ++round_hits;
          }
          return true;
        };

        // (a) uncached loopback: kRequestNoCache skips the cache
        // probe entirely, so this is the plain serving path — decode,
        // admit, engine, encode.
        double best_wire = std::numeric_limits<double>::infinity();
        if (wire_round(true)) {  // warm the connection
          for (int rep = 0; rep < serve_reps; ++rep) {
            const double t0 = Now();
            if (!wire_round(true)) break;
            best_wire = std::min(best_wire, Now() - t0);
          }
        }
        serving.loopback_qps = static_cast<double>(queries) / best_wire;
        serving.uncached_qps = serving.loopback_qps;
        serving.loopback_ratio_pct =
            100.0 * serving.loopback_qps / serving.inproc_qps;

        // (b) cached: the first default-flag pass fills the cache,
        // later rounds replay the stored responses verbatim.
        double best_cached = std::numeric_limits<double>::infinity();
        if (wire_round(false)) {  // fill the cache
          for (int rep = 0; rep < serve_reps; ++rep) {
            const double t0 = Now();
            if (!wire_round(false)) break;
            best_cached = std::min(best_cached, Now() - t0);
          }
        }
        serving.cached_qps = static_cast<double>(queries) / best_cached;
        serving.cache_hits = round_hits;
        serving.cached_speedup =
            serving.cached_qps / serving.uncached_qps;
      }
    }
    server.Shutdown();
    serve_thread.join();
    if (!wire_up) {
      std::cerr << "serving: loopback connection failed\n";
    }
  }
  std::cout << "\nserving (" << serving.spec
            << ", 1 engine thread, loopback TCP, best of "
            << (smoke ? 12 : 24) << " rounds):\n\n";
  distperm::util::TablePrinter serve_table;
  serve_table.SetHeader({"path", "q/s", "ratio", "cache hits", "results"});
  serve_table.AddRow({"in-process", Fixed(serving.inproc_qps, 0), "100%",
                      "-", "-"});
  serve_table.AddRow({"loopback (uncached)", Fixed(serving.loopback_qps, 0),
                      Fixed(serving.loopback_ratio_pct, 1) + "%", "-",
                      serving.results_match ? "OK" : "MISMATCH"});
  serve_table.AddRow({"loopback (perm cache)", Fixed(serving.cached_qps, 0),
                      Fixed(serving.cached_speedup, 2) + "x uncached",
                      std::to_string(serving.cache_hits),
                      serving.results_match ? "OK" : "MISMATCH"});
  serve_table.Print(std::cout);

  // --------------------------------------------------- replication
  // How fast a fresh replica catches up over the wire versus the local
  // recovery path replaying the same WAL delta.  A primary is seeded
  // with the base dataset (folded into its generation-1 snapshot) plus
  // an unfolded delta of R records; (a) reopening that directory
  // replays the R records through recovery, best-of-3; (b) a replica
  // bootstraps the snapshot over loopback TCP, then the timed window
  // covers the streamed records a poller observes between the first
  // applied record and applied_records() == R — framed records plus
  // the replica's own WAL append per record, with connect/handshake
  // constants excluded.  Convergence compares the replica with the
  // primary, including batch answers.
  ReplicationResult& replication = report.replication;
  replication.spec = "vp-tree";
  {
    const char* tmp_env = std::getenv("TMPDIR");
    const std::string tmp_root = tmp_env != nullptr ? tmp_env : "/tmp";
    distperm::storage::Env* env = distperm::storage::Env::Default();
    const auto fresh_dir = [&](const std::string& name) {
      const std::string dir = tmp_root + "/distperm_bench_" + name;
      env->CreateDir(dir);
      if (auto listing = env->ListDir(dir); listing.ok()) {
        for (const std::string& file : listing.value()) {
          env->DeleteFile(dir + "/" + file);
        }
      }
      return dir;
    };
    const std::string primary_dir = fresh_dir("repl_primary");
    const std::string replica_dir = fresh_dir("repl_replica");
    // delta_scan_limit is a live knob (stripped from the identity the
    // handshake checks); raised so the delta holds the whole stream
    // without backpressure on either side.
    const std::string primary_spec = std::string(replication.spec) +
                                     ":delta_scan_limit=20000,wal_dir=" +
                                     primary_dir;

    replication.records = smoke ? 4000 : 12000;
    Rng repl_rng(seed + 9);
    {
      auto seeded = LiveDatabase<Vector>::Open(data, l2, 4, primary_spec,
                                               seed);
      if (!seeded.ok()) {
        std::cerr << "replication seed failed: " << seeded.status() << "\n";
        return 1;
      }
      for (size_t i = 0; i < replication.records; ++i) {
        Vector p(dim);
        for (double& c : p) c = repl_rng.NextDouble();
        if (!seeded.value()->Insert(p).ok()) {
          std::cerr << "replication seed insert failed\n";
          return 1;
        }
      }
    }  // closed without Compact(): the delta stays in the WAL

    // (a) local replay: every reopen replays the same R records.
    double best_replay = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 3; ++round) {
      const double t0 = Now();
      auto reopened = LiveDatabase<Vector>::Open({}, l2, 4, primary_spec,
                                                 seed);
      const double elapsed = Now() - t0;
      if (!reopened.ok()) {
        std::cerr << "replication reopen failed: " << reopened.status()
                  << "\n";
        return 1;
      }
      best_replay = std::min(best_replay, elapsed);
    }
    replication.replay_rps =
        static_cast<double>(replication.records) / best_replay;

    // (b) wire catch-up into a fresh replica.
    auto primary = LiveDatabase<Vector>::Open({}, l2, 4, primary_spec,
                                              seed);
    if (!primary.ok()) {
      std::cerr << "replication primary open failed: " << primary.status()
                << "\n";
      return 1;
    }
    distperm::server::SearchServer<Vector>::Options primary_options;
    primary_options.engine_threads = 1;
    distperm::server::SearchServer<Vector> primary_server(
        primary.value().get(), primary_options);
    if (auto status = primary_server.Start(0); !status.ok()) {
      std::cerr << "replication primary start: " << status << "\n";
      return 1;
    }
    std::thread primary_thread([&primary_server]() { primary_server.Run(); });

    typename distperm::server::ReplicaServer<Vector>::Options replica_options;
    replica_options.dir = replica_dir;
    replica_options.index_spec = replication.spec;
    replica_options.seed = seed;
    replica_options.shard_count = 4;
    replica_options.live_knobs = "delta_scan_limit=20000";
    replica_options.replication.primary_port = primary_server.port();
    replica_options.replication.idle_timeout_ms = 250;
    const double boot0 = Now();
    auto replica =
        distperm::server::ReplicaServer<Vector>::Open(l2, replica_options);
    replication.bootstrap_s = Now() - boot0;
    if (!replica.ok()) {
      std::cerr << "replica open failed: " << replica.status() << "\n";
      return 1;
    }
    if (auto status = replica.value()->Start(0); !status.ok()) {
      std::cerr << "replica start: " << status << "\n";
      return 1;
    }
    const double start0 = Now();
    std::thread replica_thread([&replica]() { replica.value()->Run(); });
    // The timed window opens at the first applied record the poller
    // observes, so connect + handshake + thread-spawn constants don't
    // pollute the rate; the applied count is sampled at both window
    // edges because on a single-core host the apply thread can run an
    // arbitrary burst between two polls.
    const double deadline = Now() + 60.0;
    while (replica.value()->replication().applied_records() < 1 &&
           Now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const double t0 = Now();
    const uint64_t n0 = replica.value()->replication().applied_records();
    while (replica.value()->replication().applied_records() <
               replication.records &&
           Now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const double t1 = Now();
    const uint64_t n1 = replica.value()->replication().applied_records();
    replication.converged = n1 == replication.records;
    // A fast stream can outrun the poller: when most records land
    // before the first observation the [t0, t1] window is degenerate.
    // Use the in-window rate only when the window saw at least half
    // the stream; otherwise fall back to the Start()-anchored span — a
    // conservative lower bound that includes the connect + handshake
    // constants.
    if (n1 > n0 && n1 - n0 >= replication.records / 2) {
      replication.catchup_rps =
          static_cast<double>(n1 - n0) / (t1 - t0);
    } else {
      replication.catchup_rps = static_cast<double>(n1) / (t1 - start0);
    }
    if (replication.converged) {
      LiveDatabase<Vector>& replica_db = replica.value()->db();
      LiveDatabase<Vector>& primary_db = *primary.value();
      QueryEngine<Vector> engine(1);
      replication.converged =
          replica.value()->db().generation_number() ==
              primary.value()->generation_number() &&
          replica.value()->db().delta_entries() ==
              primary.value()->delta_entries() &&
          replica.value()->db().Pin().Materialize() ==
              primary.value()->Pin().Materialize() &&
          replica_db.RunBatch(engine, replica_db.Pin(), batch).results ==
              primary_db.RunBatch(engine, primary_db.Pin(), batch).results;
    }
    replica.value()->Shutdown();
    replica_thread.join();
    primary_server.Shutdown();
    primary_thread.join();
  }
  replication.catchup_ratio_pct =
      100.0 * replication.catchup_rps / replication.replay_rps;
  std::cout << "\nreplication (" << replication.spec << ", "
            << replication.records
            << "-record WAL delta, loopback TCP):\n\n";
  distperm::util::TablePrinter repl_table;
  repl_table.SetHeader({"path", "records/s", "ratio", "converged"});
  repl_table.AddRow({"local WAL replay", Fixed(replication.replay_rps, 0),
                     "100%", "-"});
  repl_table.AddRow({"wire catch-up", Fixed(replication.catchup_rps, 0),
                     Fixed(replication.catchup_ratio_pct, 1) + "%",
                     replication.converged ? "OK" : "DIVERGED"});
  repl_table.Print(std::cout);

  const std::vector<Verdict> verdicts = Evaluate(report, smoke, hardware);
  std::cout << "\ngates (" << (kOptimizedBuild ? "optimized" : "unoptimized")
            << " build" << (smoke ? ", --smoke" : "") << "):\n\n";
  distperm::util::TablePrinter gate_table;
  gate_table.SetHeader({"gate", "kind", "value", "rule", "enforced", "ok"});
  for (const Verdict& v : verdicts) {
    gate_table.AddRow(
        {v.gate->name,
         v.gate->kind == Kind::kExact ? "exact" : "wall-clock",
         Num(v.value),
         std::string(CmpName(v.gate->cmp)) + " " + Num(v.gate->threshold),
         v.waived ? "no: " + std::string(v.waived) : "yes",
         v.ok ? "ok" : "MISS"});
  }
  gate_table.Print(std::cout);
  const bool wrote =
      WriteJson(out_path, points, queries, dim, build_dim, k, seed, smoke,
                hardware, throughput_rows, build_rows, report, verdicts);
  const bool pass = wrote && Pass(verdicts);
  std::cout << "\nRESULT: " << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
