// Durability tests for the live engine: fresh durable opens, recovery
// (snapshot + WAL replay) that is bit-identical to the pre-crash
// store AND to a fresh build over the equivalent dataset, fault
// injection at the nasty points (torn WAL tail, failed fsync, crash
// mid-compaction), exactness of the durability metrics, and the
// DeltaLog edge cases (chunk boundaries, replay idempotence).
//
// The crash tests use storage::FaultInjectionEnv: the injected crash
// leaves exactly the bytes a SIGKILL would have, and the store is then
// reopened with the real Env — the same sequence a reboot runs.  The
// fork+SIGKILL variant lives in crash_recovery_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dataset/string_gen.h"
#include "dataset/vector_gen.h"
#include "engine/generation_store.h"
#include "engine/live_database.h"
#include "engine/query.h"
#include "engine/query_engine.h"
#include "engine/sharded_database.h"
#include "index/distperm_index.h"
#include "metric/lp.h"
#include "metric/string_metrics.h"
#include "obs/metrics.h"
#include "storage/coding.h"
#include "storage/env.h"
#include "storage/snapshot.h"
#include "util/rng.h"
#include "util/status.h"

namespace distperm {
namespace engine {
namespace {

using index::SearchResult;
using metric::Vector;

metric::Metric<Vector> L2() { return metric::LpMetric::L2(); }
metric::Metric<std::string> Lev() {
  return metric::Metric<std::string>(metric::LevenshteinMetric());
}

/// A per-test store directory, emptied of any leftovers from previous
/// runs (TempDir persists across ctest invocations).
std::string FreshStoreDir(const std::string& name) {
  storage::Env* env = storage::Env::Default();
  std::string dir = ::testing::TempDir() + "/durability_" + name;
  EXPECT_TRUE(env->CreateDir(dir).ok());
  auto listing = env->ListDir(dir);
  if (listing.ok()) {
    for (const std::string& file : listing.value()) {
      env->DeleteFile(dir + "/" + file);
    }
  }
  return dir;
}

/// Appends the durability knobs to an index spec.
std::string WithWal(const std::string& spec, const std::string& dir,
                    const std::string& fsync = "always") {
  return spec + (spec.find(':') == std::string::npos ? ":" : ",") +
         "wal_dir=" + dir + ",fsync=" + fsync;
}

template <typename P>
std::vector<std::pair<double, P>> Fingerprint(
    const std::vector<SearchResult>& results,
    const std::function<P(size_t)>& resolve) {
  std::vector<std::pair<double, P>> prints;
  prints.reserve(results.size());
  for (const SearchResult& r : results) {
    prints.emplace_back(r.distance, resolve(r.id));
  }
  std::sort(prints.begin(), prints.end());
  return prints;
}

std::vector<QuerySpec<Vector>> VectorBatch(util::Rng* rng) {
  std::vector<QuerySpec<Vector>> batch;
  for (int q = 0; q < 3; ++q) {
    Vector point = {rng->NextDouble(), rng->NextDouble(), rng->NextDouble()};
    batch.push_back(QuerySpec<Vector>::Knn(point, 7));
  }
  Vector point = {rng->NextDouble(), rng->NextDouble(), rng->NextDouble()};
  batch.push_back(QuerySpec<Vector>::Range(point, 0.4));
  return batch;
}

// ---------------------------------------------------------------- DeltaLog

TEST(DeltaLog, AppendsAcrossChunkBoundaries) {
  // kChunkSize is the lazily-allocated block size: the boundary entry,
  // the one before it, and the first of the next chunk must all read
  // back intact, for several chunks' worth of appends.
  const size_t n = DeltaLog<std::string>::kChunkSize * 3 + 5;
  DeltaLog<std::string> log(/*base_size=*/0, /*capacity=*/n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(log.Append({i % 7 == 0, i, 0, "entry-" + std::to_string(i)}));
    ASSERT_EQ(log.committed(), i + 1);
  }
  for (size_t i = 0; i < n; ++i) {
    const auto& entry = log.entry(i);
    EXPECT_EQ(entry.is_remove, i % 7 == 0) << i;
    EXPECT_EQ(entry.id, i) << i;
    EXPECT_EQ(entry.point, "entry-" + std::to_string(i)) << i;
    // The remove at position i retires id i for every window that
    // includes it, and for no window that stops before it.
    EXPECT_EQ(log.RemovedIn(n).Contains(i), i % 7 == 0) << i;
    EXPECT_FALSE(log.RemovedIn(i).Contains(i)) << i;
  }
}

TEST(DeltaLog, ExactChunkMultipleThenOneMore) {
  const size_t boundary = DeltaLog<std::string>::kChunkSize;
  DeltaLog<std::string> log(/*base_size=*/0, /*capacity=*/boundary + 1);
  for (size_t i = 0; i < boundary; ++i) {
    ASSERT_TRUE(log.Append({false, i, 0, "x"}));
  }
  ASSERT_EQ(log.committed(), boundary);
  EXPECT_EQ(log.entry(boundary - 1).id, boundary - 1);
  // This append is the first touch of chunk 1.
  ASSERT_TRUE(log.Append({false, boundary, 0, "first-of-chunk-1"}));
  EXPECT_EQ(log.entry(boundary).point, "first-of-chunk-1");
  EXPECT_EQ(log.entry(boundary - 1).id, boundary - 1);  // chunk 0 intact
}

// ------------------------------------------------------- fresh durable open

TEST(Durability, FreshOpenCreatesSnapshotAndWal) {
  const std::string dir = FreshStoreDir("fresh_open");
  util::Rng rng(11);
  auto data = dataset::UniformCube(40, 3, &rng);
  auto live = LiveDatabase<Vector>::Open(data, L2(), 2,
                                         WithWal("vp-tree", dir), 7);
  ASSERT_TRUE(live.ok()) << live.status();
  storage::Env* env = storage::Env::Default();
  EXPECT_TRUE(env->FileExists(dir + "/" + SnapshotFileName(1)));
  EXPECT_TRUE(env->FileExists(dir + "/" + WalFileName(1)));
  EXPECT_EQ(live.value()->generation_number(), 1u);
  EXPECT_EQ(live.value()->size(), 40u);
}

TEST(Durability, OpeningExistingStoreWithSeedDataIsRejected) {
  const std::string dir = FreshStoreDir("reject_seed");
  util::Rng rng(12);
  auto data = dataset::UniformCube(20, 3, &rng);
  const std::string spec = WithWal("vp-tree", dir);
  { ASSERT_TRUE(LiveDatabase<Vector>::Open(data, L2(), 2, spec, 7).ok()); }
  auto reopened = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 7);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(Durability, MismatchedIdentityIsRefused) {
  const std::string dir = FreshStoreDir("identity");
  util::Rng rng(13);
  auto data = dataset::UniformCube(20, 3, &rng);
  { ASSERT_TRUE(LiveDatabase<Vector>::Open(data, L2(), 2,
                                           WithWal("vp-tree", dir), 7)
                    .ok()); }
  // Wrong spec, wrong seed, wrong shard count: all refused, never
  // silently served.
  EXPECT_FALSE(
      LiveDatabase<Vector>::Open({}, L2(), 2, WithWal("gh-tree", dir), 7)
          .ok());
  EXPECT_FALSE(
      LiveDatabase<Vector>::Open({}, L2(), 2, WithWal("vp-tree", dir), 8)
          .ok());
  EXPECT_FALSE(
      LiveDatabase<Vector>::Open({}, L2(), 3, WithWal("vp-tree", dir), 7)
          .ok());
}

// ------------------------------------------------- reopen is bit-identical

/// The acceptance loop: seed a durable store, apply writes (half
/// before a compaction, half after, some removes), close it, reopen
/// from disk, and require (a) the reopened view is exactly the
/// pre-close view — same ids, same points — and (b) its answers are
/// fingerprint-identical to a fresh in-memory build over the same
/// final dataset.
template <typename P>
void RoundTripStore(const std::string& tag, const std::string& base_spec,
                    bool exact, std::vector<P> data,
                    const metric::Metric<P>& metric, std::vector<P> extra,
                    const std::vector<QuerySpec<P>>& batch) {
  const std::string dir = FreshStoreDir(tag);
  const std::string spec = WithWal(base_spec, dir);
  const uint64_t seed = 29;

  std::vector<P> final_view;
  typename QueryEngine<P>::BatchOutput before;
  QueryEngine<P> engine(1);
  {
    auto live = LiveDatabase<P>::Open(data, metric, 3, spec, seed);
    ASSERT_TRUE(live.ok()) << live.status();
    auto& store = *live.value();
    const size_t half = extra.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(store.Insert(extra[i]).ok());
    }
    ASSERT_TRUE(store.Remove(1).ok());
    ASSERT_TRUE(store.Compact().ok());
    for (size_t i = half; i < extra.size(); ++i) {
      ASSERT_TRUE(store.Insert(extra[i]).ok());
    }
    ASSERT_TRUE(store.Remove(0).ok());
    auto snapshot = store.Pin();
    final_view = snapshot.Materialize();
    before = store.RunBatch(engine, snapshot, batch);
    ASSERT_TRUE(before.all_ok());
  }

  auto reopened = LiveDatabase<P>::Open({}, metric, 3, spec, seed);
  ASSERT_TRUE(reopened.ok()) << base_spec << ": " << reopened.status();
  auto& store = *reopened.value();

  // (a) Exactly the pre-close store: same materialized view (order
  // included), same generation, and the same answers with the same ids.
  EXPECT_EQ(store.generation_number(), 2u) << base_spec;
  EXPECT_EQ(store.Pin().Materialize(), final_view) << base_spec;
  auto after = store.RunBatch(engine, store.Pin(), batch);
  ASSERT_TRUE(after.all_ok());
  EXPECT_EQ(after.results, before.results) << base_spec;

  // (b) For exact specs, also fingerprint-identical to a fresh
  // in-memory build over the equivalent dataset.  Approximate specs
  // (distperm) are covered by (a) only: their candidate sets depend on
  // the index layout, which a fresh build over the compacted order
  // legitimately changes.
  if (!exact) return;
  auto fresh = LiveDatabase<P>::Open(final_view, metric, 3, base_spec, seed);
  ASSERT_TRUE(fresh.ok());
  auto want = fresh.value()->RunBatch(engine, fresh.value()->Pin(), batch);
  ASSERT_TRUE(want.all_ok());
  auto snapshot = store.Pin();
  const std::function<P(size_t)> live_resolve = [&snapshot](size_t id) {
    auto point = snapshot.ResolvePoint(id);
    EXPECT_TRUE(point.ok());
    return point.ok() ? point.value() : P{};
  };
  const std::function<P(size_t)> fresh_resolve = [&final_view](size_t id) {
    return final_view.at(id);
  };
  for (size_t q = 0; q < batch.size(); ++q) {
    EXPECT_EQ(Fingerprint<P>(after.results[q], live_resolve),
              Fingerprint<P>(want.results[q], fresh_resolve))
        << base_spec << " query " << q;
  }
}

TEST(Durability, VectorsReopenBitIdenticalAcrossSpecs) {
  for (const auto& [spec, exact] :
       {std::pair<const char*, bool>{"vp-tree", true},
        {"laesa:k=4", true},
        {"distperm:k=6,fraction=0.5", false}}) {
    util::Rng rng(31);
    auto data = dataset::UniformCube(60, 3, &rng);
    auto extra = dataset::UniformCube(20, 3, &rng);
    util::Rng qrng(32);
    RoundTripStore<Vector>(std::string("vec_") + spec[0] + spec[1], spec,
                           exact, data, L2(), extra, VectorBatch(&qrng));
  }
}

TEST(Durability, StringsReopenBitIdenticalAcrossSpecs) {
  for (const auto& [spec, exact] :
       {std::pair<const char*, bool>{"vp-tree", true},
        {"gh-tree", true},
        {"distperm:k=6,fraction=0.5", false}}) {
    util::Rng rng(33);
    auto words = dataset::DnaSequences(50, 4, 5, 12, 0.1, &rng);
    auto extra = dataset::DnaSequences(16, 4, 5, 12, 0.1, &rng);
    std::vector<QuerySpec<std::string>> batch = {
        QuerySpec<std::string>::Knn("acgtacgt", 6),
        QuerySpec<std::string>::Range(words[7], 4.0),
        QuerySpec<std::string>::KnnWithinRadius("tttt", 3, 5.0)};
    RoundTripStore<std::string>(std::string("str_") + spec[0] + spec[1],
                                spec, exact, words, Lev(), extra, batch);
  }
}

TEST(Durability, ReplayIsIdempotentAcrossRepeatedOpens) {
  // Opening a store replays its WAL onto its snapshot; opening it
  // again replays the same records again.  The state must be the same
  // every time — replay must not duplicate or re-id anything.
  const std::string dir = FreshStoreDir("idempotent");
  const std::string spec = WithWal("vp-tree", dir);
  util::Rng rng(41);
  auto data = dataset::UniformCube(30, 3, &rng);
  std::vector<Vector> view;
  {
    auto live = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 5);
    ASSERT_TRUE(live.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          live.value()
              ->Insert({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()})
              .ok());
    }
    ASSERT_TRUE(live.value()->Remove(3).ok());
    view = live.value()->Pin().Materialize();
  }
  for (int reopen = 0; reopen < 3; ++reopen) {
    auto live = LiveDatabase<Vector>::Open({}, L2(), 2, spec, 5);
    ASSERT_TRUE(live.ok()) << "reopen " << reopen;
    EXPECT_EQ(live.value()->Pin().Materialize(), view) << reopen;
    EXPECT_EQ(live.value()->delta_entries(), 11u) << reopen;
  }
  // Reopened under a delta_scan_limit below the logged window, the
  // store still replays all of it; new writes then push back.
  auto narrowed = LiveDatabase<Vector>::Open(
      {}, L2(), 2,
      WithWal("vp-tree:delta_scan_limit=8,delta_index_min=0", dir), 5);
  ASSERT_TRUE(narrowed.ok()) << narrowed.status();
  EXPECT_EQ(narrowed.value()->Pin().Materialize(), view);
  EXPECT_EQ(narrowed.value()->Insert({0.5, 0.5, 0.5}).status().code(),
            util::StatusCode::kOutOfRange);
}

TEST(Durability, WritesAfterRecoveryChainCorrectly) {
  // The WAL continues (append mode, next seq) after a recovery; a
  // second recovery must see old and new records as one log.
  const std::string dir = FreshStoreDir("chain");
  const std::string spec = WithWal("vp-tree", dir);
  {
    auto live = LiveDatabase<Vector>::Open({{0, 0}, {1, 1}, {2, 2}}, L2(),
                                           1, spec, 3);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(live.value()->Insert({3, 3}).ok());
  }
  {
    auto live = LiveDatabase<Vector>::Open({}, L2(), 1, spec, 3);
    ASSERT_TRUE(live.ok());
    EXPECT_EQ(live.value()->size(), 4u);
    ASSERT_TRUE(live.value()->Insert({4, 4}).ok());
    ASSERT_TRUE(live.value()->Remove(0).ok());
  }
  auto live = LiveDatabase<Vector>::Open({}, L2(), 1, spec, 3);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value()->size(), 4u);  // 3 base + 2 inserts - 1 remove
  EXPECT_EQ(live.value()->delta_entries(), 3u);
}

TEST(Durability, CompactionRetiresOldGenerationFiles) {
  const std::string dir = FreshStoreDir("retire");
  util::Rng rng(51);
  auto data = dataset::UniformCube(30, 3, &rng);
  auto live = LiveDatabase<Vector>::Open(data, L2(), 2,
                                         WithWal("vp-tree", dir), 9);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live.value()->Insert({0.5, 0.5, 0.5}).ok());
  ASSERT_TRUE(live.value()->Compact().ok());
  storage::Env* env = storage::Env::Default();
  EXPECT_TRUE(env->FileExists(dir + "/" + SnapshotFileName(2)));
  EXPECT_TRUE(env->FileExists(dir + "/" + WalFileName(2)));
  EXPECT_FALSE(env->FileExists(dir + "/" + SnapshotFileName(1)));
  EXPECT_FALSE(env->FileExists(dir + "/" + WalFileName(1)));
}

TEST(Durability, StrayFilesAreCleanedOnOpen) {
  const std::string dir = FreshStoreDir("strays");
  util::Rng rng(52);
  auto data = dataset::UniformCube(20, 3, &rng);
  const std::string spec = WithWal("vp-tree", dir);
  { ASSERT_TRUE(LiveDatabase<Vector>::Open(data, L2(), 2, spec, 7).ok()); }
  // Plant the leftovers of a crashed rotation: a half-written tmp
  // snapshot and a next-generation WAL that never got published.
  storage::Env* env = storage::Env::Default();
  for (const std::string& name :
       {SnapshotFileName(2) + ".tmp", WalFileName(2)}) {
    auto file = env->NewWritableFile(dir + "/" + name, true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append(std::string("garbage")).ok());
    ASSERT_TRUE(file.value()->Close().ok());
  }
  auto live = LiveDatabase<Vector>::Open({}, L2(), 2, spec, 7);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value()->size(), 20u);
  EXPECT_FALSE(env->FileExists(dir + "/" + SnapshotFileName(2) + ".tmp"));
  EXPECT_FALSE(env->FileExists(dir + "/" + WalFileName(2)));
}

// ----------------------------------------------------------- fault injection

TEST(Durability, TornWalTailIsTruncatedOnRecovery) {
  const std::string dir = FreshStoreDir("torn_tail");
  const std::string spec = WithWal("vp-tree", dir, "always");
  util::Rng rng(61);
  auto data = dataset::UniformCube(30, 3, &rng);
  storage::FaultInjectionEnv fault(storage::Env::Default());
  {
    LiveOptions options;
    options.env = &fault;
    auto live = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 7, options);
    ASSERT_TRUE(live.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          live.value()
              ->Insert({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()})
              .ok());
    }
    // The next insert's frame (16-byte header + 29-byte payload) tears
    // after 20 bytes — mid-frame, exactly what a power cut leaves.
    fault.CrashAfterBytes(20);
    EXPECT_FALSE(live.value()->Insert({0.1, 0.2, 0.3}).ok());
    EXPECT_TRUE(fault.crashed());
    // The failed write must not be visible in memory either.
    EXPECT_EQ(live.value()->delta_entries(), 5u);
  }
  // Reboot: reopen with the real env.  The 5 acked inserts are there
  // (fsync=always), the torn frame is gone, and the store keeps
  // accepting writes whose WAL records chain onto the truncated log.
  auto live = LiveDatabase<Vector>::Open({}, L2(), 2, spec, 7);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ(live.value()->size(), 35u);
  EXPECT_EQ(live.value()->delta_entries(), 5u);
  ASSERT_TRUE(live.value()->Insert({0.4, 0.5, 0.6}).ok());
  auto again = LiveDatabase<Vector>::Open({}, L2(), 2, spec, 7);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->size(), 36u);
}

TEST(Durability, FailedFsyncSurfacesAndDoesNotCommit) {
  const std::string dir = FreshStoreDir("failed_fsync");
  const std::string spec = WithWal("vp-tree", dir, "always");
  util::Rng rng(62);
  auto data = dataset::UniformCube(20, 3, &rng);
  storage::FaultInjectionEnv fault(storage::Env::Default());
  LiveOptions options;
  options.env = &fault;
  auto live = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 7, options);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live.value()->Insert({0.1, 0.1, 0.1}).ok());

  fault.FailNextSync();
  auto failed = live.value()->Insert({0.2, 0.2, 0.2});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), util::StatusCode::kIoError);
  // WAL-before-commit: the failed insert is not in the serving view.
  EXPECT_EQ(live.value()->delta_entries(), 1u);
  // The poisoned log rejects further appends...
  EXPECT_FALSE(live.value()->Insert({0.3, 0.3, 0.3}).ok());
  // ...until a compaction rotates to a fresh log, after which the
  // store is fully usable again.
  ASSERT_TRUE(live.value()->Compact().ok());
  ASSERT_TRUE(live.value()->Insert({0.4, 0.4, 0.4}).ok());
  EXPECT_EQ(live.value()->size(), 22u);
}

TEST(Durability, CrashDuringCompactionKeepsOldGeneration) {
  const std::string dir = FreshStoreDir("crash_compact");
  const std::string spec = WithWal("vp-tree", dir, "always");
  util::Rng rng(63);
  auto data = dataset::UniformCube(40, 3, &rng);
  storage::FaultInjectionEnv fault(storage::Env::Default());
  std::vector<Vector> view_before_crash;
  {
    LiveOptions options;
    options.env = &fault;
    auto live = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 7, options);
    ASSERT_TRUE(live.ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          live.value()
              ->Insert({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()})
              .ok());
    }
    view_before_crash = live.value()->Pin().Materialize();
    // The compaction's first durable step is the multi-kilobyte tmp
    // snapshot: a 200-byte budget tears it mid-write.
    fault.CrashAfterBytes(200);
    util::Status compacted = live.value()->Compact();
    ASSERT_FALSE(compacted.ok());
    // The old generation keeps serving in memory despite the crash.
    EXPECT_EQ(live.value()->generation_number(), 1u);
    EXPECT_EQ(live.value()->Pin().Materialize(), view_before_crash);
  }
  // Reboot with the real env: generation 1 + full WAL replay — the
  // torn tmp snapshot is ignored and cleaned up.
  auto live = LiveDatabase<Vector>::Open({}, L2(), 2, spec, 7);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ(live.value()->generation_number(), 1u);
  EXPECT_EQ(live.value()->Pin().Materialize(), view_before_crash);
  auto listing = storage::Env::Default()->ListDir(dir);
  ASSERT_TRUE(listing.ok());
  for (const std::string& name : listing.value()) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
}

TEST(Durability, TransientCompactionFailureRetriesInBackground) {
  const std::string dir = FreshStoreDir("backoff");
  const std::string spec = WithWal("vp-tree", dir, "always");
  util::Rng rng(64);
  auto data = dataset::UniformCube(30, 3, &rng);
  storage::FaultInjectionEnv fault(storage::Env::Default());
  obs::MetricsRegistry registry("durability_test");
  LiveOptions options;
  options.env = &fault;
  options.metrics = &registry;
  auto live = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 7, options);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live.value()->Insert({0.5, 0.5, 0.5}).ok());

  // First attempt hits a failed fsync; the backoff retry succeeds.
  fault.FailNextSync();
  live.value()->CompactAsync();
  live.value()->WaitForCompaction();
  EXPECT_TRUE(live.value()->last_background_compact_status().ok());
  EXPECT_EQ(live.value()->generation_number(), 2u);
  EXPECT_GE(
      registry.GetCounter("live_compaction_failures_total")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("live_compactions_total")->Value(), 1u);
}

// ------------------------------------------------------------------ metrics

TEST(Durability, MetricsAreExact) {
  const std::string dir = FreshStoreDir("metrics");
  const std::string spec = WithWal("vp-tree", dir, "always");
  util::Rng rng(71);
  auto data = dataset::UniformCube(25, 3, &rng);
  // Vector WAL frames are deterministic: 16-byte header + 1-byte op +
  // 4-byte shard + 4-byte dim + 3 doubles = 49 per insert;
  // 16 + 1 + 4 + 8 = 29 per remove.
  constexpr uint64_t kInsertFrame = 49, kRemoveFrame = 29;
  {
    obs::MetricsRegistry registry("durability_test");
    LiveOptions options;
    options.metrics = &registry;
    auto live = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 7, options);
    ASSERT_TRUE(live.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          live.value()
              ->Insert({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()})
              .ok());
    }
    ASSERT_TRUE(live.value()->Remove(2).ok());
    EXPECT_EQ(registry.GetCounter("wal_appends_total")->Value(), 5u);
    EXPECT_EQ(registry.GetCounter("wal_bytes_total")->Value(),
              4 * kInsertFrame + kRemoveFrame);
    // fsync=always: one recorded fsync per append.
    EXPECT_EQ(registry.GetHistogram("wal_fsync_seconds")->Snap().count(),
              5u);
    // The fresh open wrote exactly one snapshot; nothing was replayed.
    EXPECT_EQ(
        registry.GetHistogram("snapshot_write_seconds")->Snap().count(), 1u);
    EXPECT_EQ(registry.GetCounter("recovery_replayed_entries")->Value(), 0u);
  }
  {
    obs::MetricsRegistry registry("durability_test");
    LiveOptions options;
    options.metrics = &registry;
    auto live = LiveDatabase<Vector>::Open({}, L2(), 2, spec, 7, options);
    ASSERT_TRUE(live.ok());
    // Recovery replayed the 5 logged operations and wrote no snapshot.
    EXPECT_EQ(registry.GetCounter("recovery_replayed_entries")->Value(), 5u);
    EXPECT_EQ(
        registry.GetHistogram("snapshot_write_seconds")->Snap().count(), 0u);
    EXPECT_EQ(registry.GetCounter("wal_appends_total")->Value(), 0u);
    // A compaction rotates the log: the carried-over tail (5 entries)
    // is re-encoded into wal-2 and the snapshot write is timed.
    ASSERT_TRUE(live.value()->Compact().ok());
    EXPECT_EQ(registry.GetCounter("wal_appends_total")->Value(), 0u);
    EXPECT_EQ(
        registry.GetHistogram("snapshot_write_seconds")->Snap().count(), 1u);
  }
}

// ------------------------------------------- snapshot state validation

using DistPermState = index::DistPermIndex<Vector>::State;

constexpr char kDistPermSpec[] = "distperm:k=6,fraction=0.5";
constexpr size_t kDistPermShards = 2;
constexpr uint64_t kDistPermSeed = 9;

/// Turns each shard's exported state into its snapshot section.
using SectionMaker = std::function<std::string(DistPermState)>;

/// The section the writer would produce after `tamper` edits the state.
SectionMaker Tampered(std::function<void(DistPermState*)> tamper) {
  return [tamper](DistPermState state) {
    tamper(&state);
    return internal::EncodeDistPermState<Vector>(state);
  };
}

/// Copies the distperm generation snapshot at `from` to `to` through
/// SnapshotWriter, with `meta_overrides` applied (an empty value drops
/// the key) and every shard section made by `make_section`.  The copy
/// is CRC-valid, so only ReadGenerationSnapshot's own checks stand
/// between a bad state and the restore constructor's CHECKs.
util::Status RewriteSnapshot(
    const Generation<Vector>& generation, const std::string& from,
    const std::string& to,
    const std::map<std::string, std::string>& meta_overrides,
    const SectionMaker& make_section) {
  storage::Env* env = storage::Env::Default();
  auto reader = storage::SnapshotReader::Open(env, from);
  if (!reader.ok()) return reader.status();
  storage::SnapshotWriter writer;
  for (const auto& [key, value] : reader.value().meta()) {
    auto override_it = meta_overrides.find(key);
    if (override_it == meta_overrides.end()) {
      writer.SetMeta(key, value);
    } else if (!override_it->second.empty()) {
      writer.SetMeta(key, override_it->second);
    }
  }
  auto vectors = reader.value().GetSection("vectors");
  if (!vectors.ok()) return vectors.status();
  writer.AddSection("vectors",
                    std::string(reinterpret_cast<const char*>(
                                    vectors.value().data),
                                vectors.value().size));
  for (size_t s = 0; s < kDistPermShards; ++s) {
    const auto& shard = dynamic_cast<const index::DistPermIndex<Vector>&>(
        generation.database().shard(s));
    writer.AddSection("shard" + std::to_string(s),
                      make_section(shard.ExportState()));
  }
  return writer.Write(env, to);
}

util::Status ReadBack(const std::string& path) {
  return ReadGenerationSnapshot<Vector>(storage::Env::Default(), path, L2(),
                                        kDistPermShards, kDistPermSpec,
                                        kDistPermSeed, /*build_threads=*/1)
      .status();
}

TEST(Durability, InconsistentDistPermStateIsRefusedNotFatal) {
  const std::string dir = FreshStoreDir("bad_distperm_state");
  util::Rng rng(14);
  auto built = Generation<Vector>::Build(dataset::UniformCube(60, 3, &rng),
                                         L2(), kDistPermShards,
                                         kDistPermSpec, kDistPermSeed, 1);
  ASSERT_TRUE(built.ok()) << built.status();
  const Generation<Vector>& generation = *built.value();
  const std::string good = dir + "/good.snap";
  ASSERT_TRUE(WriteGenerationSnapshot(storage::Env::Default(), good,
                                      generation)
                  .ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* what;
    std::map<std::string, std::string> meta;
    SectionMaker section;
    const char* message;  // expected substring; nullptr = must load
  };
  const SectionMaker faithful = Tampered([](DistPermState*) {});
  const std::vector<Case> cases = {
      {"faithful copy", {}, faithful, nullptr},
      {"shard_sizes disagree with the table ids",
       {{"shard_sizes", "31,29"}},
       faithful,
       "table ids for"},
      {"id count differs from the shard size", {},
       Tampered([](DistPermState* state) { state->ids.pop_back(); }),
       "table ids for"},
      {"site count far beyond the section",
       {},
       [](DistPermState) {
         std::string section;
         storage::PutFixed32(&section, 0xffffffffu);
         return section;
       },
       "malformed"},
      {"rank above the prefix", {},
       Tampered([](DistPermState* state) {
         state->table[7] = static_cast<uint8_t>(state->prefix + 1);
       }),
       "exceeds prefix"},
      {"duplicate rank in a table row", {},
       Tampered([](DistPermState* state) {
         const size_t k = state->sites.size();
         std::fill(state->table.begin() + k, state->table.begin() + 2 * k,
                   uint8_t{0});
       }),
       "rank 0 repeats in table row 1"},
      {"table row missing a rank", {},
       Tampered([](DistPermState* state) {
         state->table[0] = static_cast<uint8_t>(state->prefix);
       }),
       "5 of 6 ranks present in table row 0"},
      {"table of partial rows", {},
       Tampered([](DistPermState* state) { state->table.pop_back(); }),
       "not whole rows"},
      {"id past the table", {},
       Tampered([](DistPermState* state) {
         state->ids[3] =
             static_cast<uint32_t>(state->table.size() / state->sites.size());
       }),
       "of point 3 is past the"},
      {"empty table with points", {},
       Tampered([](DistPermState* state) { state->table.clear(); }),
       "past the 0-row table"},
      {"zero prefix", {},
       Tampered([](DistPermState* state) { state->prefix = 0; }),
       "prefix 0"},
      {"prefix above the site count", {},
       Tampered([](DistPermState* state) { state->prefix = 7; }),
       "prefix 7"},
      {"zero fraction", {},
       Tampered([](DistPermState* state) { state->fraction = 0.0; }),
       "fraction"},
      {"NaN fraction", {},
       Tampered([nan](DistPermState* state) { state->fraction = nan; }),
       "fraction"},
      {"no sites", {},
       Tampered([](DistPermState* state) { state->sites.clear(); }),
       "site count 0"},
      {"more sites than a rank holds", {},
       Tampered([](DistPermState* state) {
         state->sites.resize(core::kMaxRank64Sites + 1,
                             state->sites.front());
       }),
       "site count 21"},
      {"site of the wrong dimension", {},
       Tampered([](DistPermState* state) { state->sites[2].push_back(0.5); }),
       "dimension"},
      {"huge point_count", {{"point_count", "4000000000000"}}, faithful,
       "do not sum"},
      {"huge point_count with matching shard_sizes",
       {{"point_count", "4000000000000"},
        {"shard_sizes", "2000000000000,2000000000000"}},
       faithful,
       "vectors section"},
      {"shard_sizes that wrap around",
       {{"shard_sizes", "18446744073709551615,61"}},
       faithful,
       "do not sum"},
      {"shard size beyond 64 bits",
       {{"shard_sizes", "30,99999999999999999999"}},
       faithful,
       "shard_sizes"},
      {"non-numeric dim", {{"dim", "three"}}, faithful, "meta dim"},
      {"non-numeric generation", {{"generation", "two"}}, faithful,
       "meta generation"},
      {"stride below dim", {{"stride", "2"}}, faithful, "below dim"},
      {"missing shard_sizes", {{"shard_sizes", ""}}, faithful,
       "meta shard_sizes"},
      {"missing shard_epochs", {{"shard_epochs", ""}}, faithful,
       "meta shard_epochs"},
  };
  for (const Case& c : cases) {
    const std::string path = dir + "/tampered.snap";
    ASSERT_TRUE(RewriteSnapshot(generation, good, path, c.meta, c.section)
                    .ok())
        << c.what;
    const util::Status status = ReadBack(path);
    if (c.message == nullptr) {
      EXPECT_TRUE(status.ok()) << c.what << ": " << status;
      continue;
    }
    EXPECT_EQ(status.code(), util::StatusCode::kIoError)
        << c.what << ": " << status;
    EXPECT_NE(status.message().find(c.message), std::string::npos)
        << c.what << ": " << status;
  }
}

TEST(Durability, OlderSnapshotFormatIsRefused) {
  const std::string dir = FreshStoreDir("old_format");
  util::Rng rng(15);
  auto built = Generation<Vector>::Build(dataset::UniformCube(40, 3, &rng),
                                         L2(), kDistPermShards,
                                         kDistPermSpec, kDistPermSeed, 1);
  ASSERT_TRUE(built.ok()) << built.status();
  const std::string good = dir + "/good.snap";
  ASSERT_TRUE(WriteGenerationSnapshot(storage::Env::Default(), good,
                                      *built.value())
                  .ok());
  const std::string old = dir + "/old.snap";
  for (const std::string format : {"generation.v1", "generation.v2"}) {
    ASSERT_TRUE(RewriteSnapshot(*built.value(), good, old,
                                {{"format", format}},
                                Tampered([](DistPermState*) {}))
                    .ok());
    const util::Status status = ReadBack(old);
    ASSERT_FALSE(status.ok()) << format;
    EXPECT_NE(status.message().find("format is '" + format + "'"),
              std::string::npos)
        << status;
    EXPECT_NE(status.message().find(kGenerationFormat), std::string::npos)
        << status;
  }
}

}  // namespace
}  // namespace engine
}  // namespace distperm
