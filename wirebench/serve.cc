// `wirebench serve`: the serving process of one run.  It builds or
// reopens the workload's store, puts a SearchServer (or, for the
// replica role, a ReplicaServer) in front of it, prints one READY line,
// and serves until SIGTERM.  After the drain it runs the end-of-run
// checks and, in traced runs, the in-process layer probes, and prints
// their outcomes as "RESULT <name> <value>" lines.
//
// Roles:
//   prepare  build the durable store the run reopens, then exit
//   primary  serve the workload's store (the default)
//   replica  bootstrap from --primary-port, report convergence

#include <malloc.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/distance_permutation.h"
#include "engine/live_database.h"
#include "engine/sharded_database.h"
#include "harness.h"
#include "index/distperm_index.h"
#include "metric/lp.h"
#include "obs/metrics.h"
#include "server/perm_cache.h"
#include "server/replica_server.h"
#include "server/search_server.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "util/flags.h"
#include "workloads.h"

namespace wirebench {

namespace {

using distperm::engine::LiveDatabase;
using distperm::engine::QueryEngine;
using distperm::engine::QuerySpec;
using distperm::server::ReplicaServer;
using distperm::server::SearchServer;

volatile std::sig_atomic_t g_stop = 0;
void HandleStop(int) { g_stop = 1; }

void WaitForStop() {
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

const distperm::metric::Metric<Vector>& L2() {
  static const distperm::metric::Metric<Vector> l2(
      distperm::metric::LpMetric::L2());
  return l2;
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

void Result(const std::string& name, double value) {
  std::cout << "RESULT " << name << " " << value << "\n";
}

/// Hands freed heap pages back to the kernel and resets the peak-RSS
/// mark (VmHWM) to the current RSS, so that the peak read later covers
/// the store, not the benchmark's discarded inputs.  Where the kernel
/// refuses the reset, the peak also covers everything before it.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set (VmHWM) since start or the last ResetPeakRss(), MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

QuerySpec<Vector> Knn(const Vector& point) {
  QuerySpec<Vector> query;
  query.mode = distperm::index::SearchMode::kKnn;
  query.point = point;
  query.k = kNeighbours;
  return query;
}

/// Order-sensitive FNV-1a over the live view: generation, window
/// length, and every materialized coordinate's bits.
uint64_t Digest(const LiveDatabase<Vector>& db) {
  const auto snapshot = db.Pin();
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (word >> (8 * i)) & 0xff;
      hash *= 1099511628211ULL;
    }
  };
  mix(snapshot.generation_number());
  mix(snapshot.delta_entries());
  for (const Vector& point : snapshot.Materialize()) {
    for (double coordinate : point) {
      uint64_t bits = 0;
      std::memcpy(&bits, &coordinate, sizeof(bits));
      mix(bits);
    }
  }
  return hash;
}

// ------------------------------------------------------------------ probes

/// The traced run's in-process spans, written to --spans at exit.
class SpanLog {
 public:
  uint64_t Add(const std::string& name, uint64_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns) {
    Span span;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.request = request;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    spans_.push_back(span);
    return span.id;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// engine / index: one traced single-query batch per probe query.  The
/// engine span wraps the RunBatch call; the engine's own trace spans
/// (one per shard task, one for the delta leg) become its children.
void ProbeEngine(LiveDatabase<Vector>* db, const Inputs& inputs,
                 SpanLog* log) {
  QueryEngine<Vector> engine(kEngineThreads);
  for (size_t i = 0; i < kProbeQueries; ++i) {
    std::vector<QuerySpec<Vector>> batch = {Knn(inputs.probe(i))};
    batch[0].WithTrace();
    const auto snapshot = db->Pin();
    const int64_t start = NowNs();
    const auto out = db->RunBatch(engine, snapshot, batch);
    const int64_t end = NowNs();
    const uint64_t request = i + 1;
    const uint64_t parent = log->Add("engine", 0, request, start, end);
    if (out.traces.empty()) continue;
    for (const auto& span : out.traces[0].spans) {
      log->Add(span.delta ? "engine.delta" : "index.shard_search", parent,
               request, start + static_cast<int64_t>(span.start_seconds * 1e9),
               start + static_cast<int64_t>(span.stop_seconds * 1e9));
    }
  }
  const auto self = SelfTimes(log->spans());
  Result("engine.self_us",
         MeanSelfUsPerRequest(log->spans(), self, "engine", kProbeQueries));
  Result("engine.delta_us", MeanSelfUsPerRequest(log->spans(), self,
                                                 "engine.delta",
                                                 kProbeQueries));
  Result("index.shard_search_us",
         MeanSelfUsPerRequest(log->spans(), self, "index.shard_search",
                              kProbeQueries));
}

/// metric: the L2 kernel over probe x data pairs.
void ProbeMetric(const Inputs& inputs, SpanLog* log) {
  const size_t points = std::min<size_t>(inputs.data.size(), 20000);
  const size_t queries = 16;
  double sink = 0.0;
  const int64_t start = NowNs();
  for (size_t q = 0; q < queries; ++q) {
    for (size_t i = 0; i < points; ++i) {
      sink += L2()(inputs.probe(q), inputs.data[i]);
    }
  }
  const int64_t end = NowNs();
  log->Add("metric.kernel", 0, 0, start, end);
  volatile double keep = sink;  // the sum must not be optimized away
  (void)keep;
  Result("metric.ns_per_distance",
         static_cast<double>(end - start) /
             static_cast<double>(points * queries));
}

/// core: distance permutations of every stored point at the index's k
/// (a distperm shard's own sites, else 12 evenly spaced points, the perm
/// cache's site count), their cost, and how many distinct ones occur
/// (N/n).
void ProbeCore(LiveDatabase<Vector>* db, SpanLog* log) {
  const auto snapshot = db->Pin();
  const std::vector<Vector> data = snapshot.Materialize();
  std::vector<Vector> sites;
  const auto& database = snapshot.database();
  if (const auto* distperm =
          dynamic_cast<const distperm::index::DistPermIndex<Vector>*>(
              &database.shard(0))) {
    sites = distperm->sites();
  } else {
    for (size_t i = 0; i < 12; ++i) sites.push_back(data[i * data.size() / 12]);
  }
  std::vector<distperm::core::Permutation> perms;
  perms.reserve(data.size());
  const int64_t start = NowNs();
  for (const Vector& point : data) {
    perms.push_back(
        distperm::core::ComputeDistancePermutation(sites, L2(), point));
  }
  const int64_t end = NowNs();
  std::unordered_set<std::string> distinct;
  for (const auto& perm : perms) distinct.emplace(perm.begin(), perm.end());
  log->Add("core.perm", 0, 0, start, end);
  Result("core.perm_us_per_point", static_cast<double>(end - start) / 1e3 /
                                       static_cast<double>(data.size()));
  Result("core.distinct_perm_ratio", static_cast<double>(distinct.size()) /
                                         static_cast<double>(data.size()));
}

/// server: a perm cache configured like the server's, probed with the
/// probe queries against a cold store (every probe misses — the
/// overhead a miss adds in front of the engine).
void ProbeCache(LiveDatabase<Vector>* db, const Workload& workload,
                const Inputs& inputs, SpanLog* log) {
  if (workload.cache_capacity == 0) return;
  distperm::server::PermCache<Vector>::Options options;
  options.capacity = workload.cache_capacity;
  distperm::server::PermCache<Vector> cache(L2(), options);
  const auto snapshot = db->Pin();
  const size_t n = snapshot.database().size() + snapshot.delta_entries();
  std::vector<Vector> sites;
  for (size_t i = 0; i < 12; ++i) {
    auto point = snapshot.ResolvePoint(i * n / 12);
    if (point.ok()) sites.push_back(std::move(point).value());
  }
  cache.SetSites(std::move(sites));
  distperm::server::CacheTags tags;
  tags.generation = db->generation_number();
  tags.mutation_clock = db->mutation_clock();
  tags.remove_clock = db->remove_clock();
  int64_t total = 0;
  for (size_t i = 0; i < kProbeQueries; ++i) {
    const QuerySpec<Vector> query = Knn(inputs.probe(i));
    const int64_t start = NowNs();
    cache.Lookup(query, tags, workload.spec.rfind("distperm", 0) != 0);
    const int64_t end = NowNs();
    log->Add("server.cache_probe", 0, i + 1, start, end);
    total += end - start;
  }
  Result("server.cache_probe_us",
         static_cast<double>(total) / 1e3 / kProbeQueries);
}

void ProbeIndexBytes(LiveDatabase<Vector>* db) {
  const auto snapshot = db->Pin();
  Result("index.bytes_per_point",
         static_cast<double>(snapshot.database().IndexBits()) / 8.0 /
             static_cast<double>(snapshot.database().size()));
}

/// storage + replica apply.  Restores copies of the primary's snapshot
/// alone and of the snapshot plus its WAL delta, three times each in
/// turn: the replay rate is the difference of the two medians, and a
/// single host stall would swamp a difference of two single opens.
/// Then pushes the WAL records into the snapshot-only copy through the
/// replica apply path, one call (and one span) at a time.
void ProbeReplicaApply(LiveDatabase<Vector>* db, const Workload& workload,
                       const std::string& scratch, SpanLog* log) {
  namespace fs = std::filesystem;
  const std::string snapshot_name =
      distperm::engine::SnapshotFileName(db->generation_number());
  const std::string wal_name =
      distperm::engine::WalFileName(db->generation_number());
  const std::string snapshot_only = scratch + "/snapshot";
  const std::string with_wal = scratch + "/wal";
  for (const std::string& dir : {snapshot_only, with_wal}) {
    fs::create_directories(dir);
    fs::copy_file(db->wal_dir() + "/" + snapshot_name,
                  dir + "/" + snapshot_name,
                  fs::copy_options::overwrite_existing);
  }
  fs::copy_file(db->wal_dir() + "/" + wal_name, with_wal + "/" + wal_name,
                fs::copy_options::overwrite_existing);
  const auto open = [&](const std::string& dir) {
    return LiveDatabase<Vector>::Open({}, L2(), workload.shards,
                                      LiveSpec(workload, dir), db->seed());
  };
  std::vector<double> snapshot_s, with_wal_s;
  for (int i = 0; i < 3; ++i) {
    for (const std::string& dir : {snapshot_only, with_wal}) {
      const int64_t start = NowNs();
      const auto opened = open(dir);
      const int64_t end = NowNs();
      if (!opened.ok()) {
        std::cerr << "probe: reopen " << dir << ": " << opened.status()
                  << "\n";
        return;
      }
      if (dir == snapshot_only) {
        log->Add("storage.snapshot_open", 0, 0, start, end);
        snapshot_s.push_back(Seconds(start, end));
      } else {
        log->Add("storage.wal_open", 0, 0, start, end);
        with_wal_s.push_back(Seconds(start, end));
      }
    }
  }
  Result("storage.snapshot_open_s", Median(snapshot_s));
  auto copy = open(snapshot_only);
  if (!copy.ok()) {
    std::cerr << "probe: snapshot reopen: " << copy.status() << "\n";
    return;
  }
  auto wal = distperm::storage::ReadWal(
      distperm::storage::Env::Default(),
      db->wal_dir() + "/" +
          distperm::engine::WalFileName(db->generation_number()),
      1);
  if (!wal.ok()) {
    std::cerr << "probe: read wal: " << wal.status() << "\n";
    return;
  }
  const auto& records = wal.value().records;
  int64_t total = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    auto op = distperm::engine::DecodeWalRecord<Vector>(records[i].payload);
    if (!op.ok()) continue;
    const int64_t start = NowNs();
    const auto status =
        copy.value()->ApplyReplicated(std::move(op).value(),
                                      records[i].payload);
    const int64_t end = NowNs();
    if (!status.ok()) {
      std::cerr << "probe: apply record " << i + 1 << ": " << status << "\n";
      return;
    }
    log->Add("server.repl_apply", 0, i + 1, start, end);
    total += end - start;
  }
  if (!records.empty()) {
    Result("server.repl_apply_us", static_cast<double>(total) / 1e3 /
                                       static_cast<double>(records.size()));
    const double replay_s = Median(with_wal_s) - Median(snapshot_s);
    if (replay_s > 0) {
      Result("storage.replay_records_per_s",
             static_cast<double>(records.size()) / replay_s);
    }
  }
  copy.value().reset();
  fs::remove_all(scratch);
}

/// mixed_write's end-of-run check: fold the delta, then answer the
/// probe queries from the live store and from a fresh build over its
/// materialized slices; both must agree bit for bit.
void CheckAgainstFreshBuild(LiveDatabase<Vector>* db, const Inputs& inputs) {
  db->WaitForCompaction();
  const auto status = db->Compact();
  if (!status.ok()) {
    std::cerr << "final compact: " << status << "\n";
    Result("check.mismatches", kProbeQueries);
    return;
  }
  const auto snapshot = db->Pin();
  auto fresh = distperm::engine::ShardedDatabase<Vector>::
      BuildFromRegistrySliced(snapshot.MaterializeSlices(), L2(),
                              db->index_spec(), db->seed(), kEngineThreads);
  if (!fresh.ok()) {
    std::cerr << "fresh build: " << fresh.status() << "\n";
    Result("check.mismatches", kProbeQueries);
    return;
  }
  std::vector<QuerySpec<Vector>> batch;
  for (size_t i = 0; i < kProbeQueries; ++i) batch.push_back(Knn(inputs.probe(i)));
  QueryEngine<Vector> engine(kEngineThreads);
  const auto live = db->RunBatch(engine, snapshot, batch);
  const auto reference = engine.RunBatch(fresh.value(), batch);
  size_t mismatches = 0;
  size_t overlap = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (live.results[i] != reference.results[i]) ++mismatches;
    std::set<size_t> ids;
    for (const auto& r : reference.results[i]) ids.insert(r.id);
    for (const auto& r : live.results[i]) overlap += ids.count(r.id);
  }
  Result("check.probes", static_cast<double>(batch.size()));
  Result("check.mismatches", static_cast<double>(mismatches));
  Result("check.recall", static_cast<double>(overlap) /
                             static_cast<double>(batch.size() * kNeighbours));
}

// ------------------------------------------------------------------ roles

int Prepare(const Workload& workload, uint64_t seed, const std::string& dir) {
  Inputs inputs = MakeInputs(workload, seed);
  distperm::engine::LiveOptions options;
  options.build_threads = kEngineThreads;
  auto opened = LiveDatabase<Vector>::Open(std::move(inputs.data), L2(),
                                           workload.shards,
                                           LiveSpec(workload, dir),
                                           kStoreSeed, options);
  if (!opened.ok()) {
    std::cerr << "prepare: " << opened.status() << "\n";
    return 1;
  }
  LiveDatabase<Vector>& db = *opened.value();
  // The unfolded WAL delta a replica streams: inserts spread over the
  // region, removes walking the id space upward (always live; see
  // run.cc's writer).
  distperm::util::Rng rng(seed + 1);
  size_t next_remove = 0;
  for (size_t i = 0; i < workload.wal_records; ++i) {
    if (rng.NextDouble() < workload.remove_share) {
      if (auto status = db.Remove(next_remove++); !status.ok()) {
        std::cerr << "prepare remove: " << status << "\n";
        return 1;
      }
    } else if (auto id = db.Insert(InsertPoint(inputs, i, &rng)); !id.ok()) {
      std::cerr << "prepare insert: " << id.status() << "\n";
      return 1;
    }
  }
  if (auto status = db.SyncWal(); !status.ok()) {
    std::cerr << "prepare sync: " << status << "\n";
    return 1;
  }
  std::cout << "PREPARED " << db.size() << "\n";
  return 0;
}

int Primary(const Workload& workload, uint64_t seed, const std::string& dir,
            bool trace, const std::string& spans_path,
            const std::string& scratch) {
  distperm::obs::MetricsRegistry metrics("wirebench");
  // Durable reopens need no inputs before serving; builds generate
  // theirs here, keep only the data the store takes, and report the
  // time so setup_s can exclude it.
  const bool reopen = workload.durable && workload.insert_share == 0;
  const int64_t gen_start = NowNs();
  std::vector<Vector> data;
  if (!reopen) {
    data = MakeInputs(workload, seed).data;
    ResetPeakRss();
  }
  const int64_t gen_end = NowNs();
  distperm::engine::LiveOptions live_options;
  live_options.build_threads = kEngineThreads;
  live_options.metrics = &metrics;
  const int64_t open_start = NowNs();
  auto opened = LiveDatabase<Vector>::Open(std::move(data), L2(),
                                           workload.shards,
                                           LiveSpec(workload, dir),
                                           kStoreSeed, live_options);
  const int64_t open_end = NowNs();
  if (!opened.ok()) {
    std::cerr << "open: " << opened.status() << "\n";
    return 1;
  }
  LiveDatabase<Vector>& db = *opened.value();
  SearchServer<Vector>::Options options;
  options.engine_threads = kEngineThreads;
  options.perm_cache_capacity = workload.cache_capacity;
  options.metrics = &metrics;
  SearchServer<Vector> server(&db, options);
  if (auto status = server.Start(0); !status.ok()) {
    std::cerr << "start: " << status << "\n";
    return 1;
  }
  if (auto status = server.StartMetrics(0); !status.ok()) {
    std::cerr << "metrics: " << status << "\n";
    return 1;
  }
  std::thread serving([&server]() { server.Run(); });
  std::cout << "READY " << server.port() << " " << server.metrics_port()
            << " " << Seconds(gen_start, gen_end) << " "
            << Seconds(open_start, open_end) << " " << db.delta_entries()
            << std::endl;
  WaitForStop();
  server.Shutdown();
  serving.join();
  Result("serve.peak_rss_mb", PeakRssMb());

  // The inputs feed only the serving probes and the write workload's
  // check, so they are generated again here, after the peak was read.
  Inputs inputs;
  if ((trace && workload.wal_records == 0) || workload.insert_share > 0) {
    inputs = MakeInputs(workload, seed);
  }
  // Probes first: they see the store as the load left it (a live delta
  // included); the write workload's check then folds it.
  if (trace) {
    SpanLog log;
    if (workload.wal_records > 0) {
      ProbeReplicaApply(&db, workload, scratch, &log);
    } else {
      ProbeEngine(&db, inputs, &log);
      ProbeMetric(inputs, &log);
      ProbeCore(&db, &log);
      ProbeCache(&db, workload, inputs, &log);
      ProbeIndexBytes(&db);
      if (workload.durable && workload.insert_share == 0) {
        Result("storage.snapshot_open_s", Seconds(open_start, open_end));
      }
    }
    if (!spans_path.empty()) {
      std::ofstream(spans_path) << FormatSpans(log.spans());
    }
  }
  if (workload.insert_share > 0) CheckAgainstFreshBuild(&db, inputs);
  if (workload.wal_records > 0) {
    Result("check.digest", static_cast<double>(Digest(db) >> 12));
  }
  if (workload.durable) {
    const std::string name =
        distperm::engine::SnapshotFileName(db.generation_number());
    std::error_code error;
    Result("storage.snapshot_bytes",
           static_cast<double>(
               std::filesystem::file_size(dir + "/" + name, error)));
  }
  std::cout << "DONE" << std::endl;
  return 0;
}

int Replica(const Workload& workload, const std::string& dir,
            uint16_t primary_port, uint64_t expect) {
  distperm::obs::MetricsRegistry metrics("wirebench_replica");
  ReplicaServer<Vector>::Options options;
  options.dir = dir;
  options.index_spec = workload.spec;
  options.seed = kStoreSeed;
  options.shard_count = workload.shards;
  options.live_knobs = workload.live_knobs;
  options.build_threads = kEngineThreads;
  options.engine_threads = kEngineThreads;
  options.metrics = &metrics;
  options.replication.primary_port = primary_port;
  options.replication.idle_timeout_ms = 250;
  auto opened = ReplicaServer<Vector>::Open(L2(), options);
  if (!opened.ok()) {
    std::cerr << "replica open: " << opened.status() << "\n";
    return 1;
  }
  ReplicaServer<Vector>& replica = *opened.value();
  if (auto status = replica.Start(0); !status.ok()) {
    std::cerr << "replica start: " << status << "\n";
    return 1;
  }
  if (auto status = replica.StartMetrics(0); !status.ok()) {
    std::cerr << "replica metrics: " << status << "\n";
    return 1;
  }
  std::thread serving([&replica]() { replica.Run(); });
  std::cout << "READY " << replica.server().port() << " "
            << replica.server().metrics_port() << std::endl;
  // Progress of the stream: when half, 90%, 99% and all of the
  // expected records had been applied (steady-clock ns, comparable with
  // the orchestrator's spawn time).
  const uint64_t half = (expect + 1) / 2;
  const uint64_t most = (expect * 9 + 9) / 10;
  const uint64_t nearly = (expect * 99 + 99) / 100;
  int64_t t_half = 0;
  int64_t t_most = 0;
  int64_t t_nearly = 0;
  int64_t t_all = 0;
  const int64_t deadline = NowNs() + 120'000'000'000LL;
  while (g_stop == 0 && NowNs() < deadline) {
    const uint64_t applied = replica.replication().applied_records();
    const int64_t now = NowNs();
    if (t_half == 0 && applied >= half) t_half = now;
    if (t_most == 0 && applied >= most) t_most = now;
    if (t_nearly == 0 && applied >= nearly) t_nearly = now;
    if (applied >= expect) {
      t_all = now;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  if (t_all != 0) {
    std::cout << "CONVERGED " << t_half << " " << t_most << " " << t_nearly
              << " " << t_all
              << " " << (Digest(replica.db()) >> 12) << std::endl;
  }
  WaitForStop();
  replica.Shutdown();
  serving.join();
  std::cout << "DONE" << std::endl;
  return 0;
}

}  // namespace

int ServeMain(const distperm::util::Flags& flags) {
  std::signal(SIGTERM, HandleStop);
  std::signal(SIGINT, HandleStop);
  std::signal(SIGPIPE, SIG_IGN);
  std::cout.precision(17);
  const Workload* workload = FindWorkload(flags.GetString("workload", ""));
  if (workload == nullptr) {
    std::cerr << "serve: unknown --workload\n";
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string dir = flags.GetString("dir", "");
  const std::string role = flags.GetString("role", "primary");
  if (role == "prepare") return Prepare(*workload, seed, dir);
  if (role == "replica") {
    return Replica(*workload, dir,
                   static_cast<uint16_t>(flags.GetInt("primary-port", 0)),
                   static_cast<uint64_t>(flags.GetInt("expect", 0)));
  }
  return Primary(*workload, seed, dir, flags.GetInt("trace", 0) != 0,
                 flags.GetString("spans", ""),
                 flags.GetString("scratch", dir + ".probe"));
}

}  // namespace wirebench
