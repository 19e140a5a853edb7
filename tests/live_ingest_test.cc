// Single-threaded live-ingest semantics: a LiveDatabase must be
// indistinguishable from a plain engine while idle, make every
// insert/remove visible immediately (exactly, through the delta scan,
// for approximate base indexes too), keep budget/truncation accounting
// untouched by the delta path, and — after Compact() — answer
// bit-identically to a fresh ShardedDatabase built over the equivalent
// final dataset, for every index spec in the registry, over vectors
// and strings.
//
// Id spaces differ between a live view (generation ids + delta ids)
// and a fresh build (positions in the materialized dataset), so
// pre-compaction comparisons use (distance, point) fingerprints;
// post-compaction the numbering coincides and equality is strict.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dataset/string_gen.h"
#include "dataset/vector_gen.h"
#include "engine/live_database.h"
#include "engine/query.h"
#include "engine/query_engine.h"
#include "engine/sharded_database.h"
#include "index/registry.h"
#include "metric/lp.h"
#include "metric/string_metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/env.h"
#include "util/rng.h"
#include "util/status.h"

namespace distperm {
namespace engine {
namespace {

using index::SearchResult;
using metric::Vector;

metric::Metric<Vector> L2() { return metric::LpMetric::L2(); }

// An empty directory under the test temp dir, for a durable store.
std::string FreshDir(const std::string& name) {
  storage::Env* env = storage::Env::Default();
  const std::string dir = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(env->CreateDir(dir).ok());
  if (auto listing = env->ListDir(dir); listing.ok()) {
    for (const std::string& file : listing.value()) {
      env->DeleteFile(dir + "/" + file);
    }
  }
  return dir;
}

// Exact specs answer identically to a linear scan; approximate ones
// (distperm family) are only pinned post-compaction, where determinism
// makes live and fresh builds the same object.
const std::vector<std::string> kExactSpecs = {
    "linear-scan", "aesa", "vp-tree", "gh-tree", "laesa:k=4", "iaesa:k=4"};
const std::vector<std::string> kApproxSpecs = {
    "distperm:k=6,fraction=0.5", "distperm-prefix:k=6,prefix=2"};

// Canonical (distance, point) multiset of one result list, for
// comparisons across id spaces.
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

template <typename P>
std::function<P(size_t)> SnapshotResolver(
    const typename LiveDatabase<P>::Snapshot& snapshot) {
  return [&snapshot](size_t id) {
    auto point = snapshot.ResolvePoint(id);
    EXPECT_TRUE(point.ok()) << "unresolvable id " << id;
    return point.ok() ? point.value() : P{};
  };
}

template <typename P>
std::function<P(size_t)> DatasetResolver(const std::vector<P>& data) {
  return [&data](size_t id) { return data.at(id); };
}

std::vector<QuerySpec<Vector>> MixedVectorBatch(size_t dim, util::Rng* rng) {
  std::vector<QuerySpec<Vector>> batch;
  for (int q = 0; q < 4; ++q) {
    Vector point(dim);
    for (double& c : point) c = rng->NextDouble(-0.2, 1.2);
    batch.push_back(QuerySpec<Vector>::Knn(point, 3 + q));
  }
  for (int q = 0; q < 2; ++q) {
    Vector point(dim);
    for (double& c : point) c = rng->NextDouble();
    batch.push_back(QuerySpec<Vector>::Range(point, 0.2 + 0.2 * q));
  }
  Vector point(dim, 0.5);
  batch.push_back(QuerySpec<Vector>::KnnWithinRadius(point, 4, 0.6));
  return batch;
}

// A fresh registry-built engine over `data`, answering `batch`.
template <typename P>
typename QueryEngine<P>::BatchOutput FreshAnswers(
    const std::vector<P>& data, const metric::Metric<P>& metric,
    size_t shards, const std::string& spec, uint64_t seed,
    const std::vector<QuerySpec<P>>& batch) {
  auto built = ShardedDatabase<P>::BuildFromRegistry(data, metric, shards,
                                                     spec, seed);
  EXPECT_TRUE(built.ok()) << built.status();
  QueryEngine<P> engine(1);
  return engine.RunBatch(built.value(), batch);
}

// A fresh engine with each shard rebuilt over its pre-routed slice
// (Snapshot::MaterializeSlices) — the full-rebuild reference an
// incremental compaction of the same view must match bit-for-bit.
template <typename P>
typename QueryEngine<P>::BatchOutput FreshSlicedAnswers(
    std::vector<std::vector<P>> slices, const metric::Metric<P>& metric,
    const std::string& spec, uint64_t seed,
    const std::vector<QuerySpec<P>>& batch) {
  auto built = ShardedDatabase<P>::BuildFromRegistrySliced(
      std::move(slices), metric, spec, seed);
  EXPECT_TRUE(built.ok()) << built.status();
  QueryEngine<P> engine(1);
  return engine.RunBatch(built.value(), batch);
}

TEST(LiveIngest, IdleStoreMatchesPlainEngineBitForBit) {
  util::Rng rng(401);
  auto data = dataset::UniformCube(60, 2, &rng);
  std::vector<QuerySpec<Vector>> batch = MixedVectorBatch(2, &rng);
  for (const std::string& spec : index::Registry<Vector>::Global().Names()) {
    auto plain = ShardedDatabase<Vector>::BuildFromRegistry(data, L2(), 2,
                                                            spec, 7);
    ASSERT_TRUE(plain.ok()) << spec;
    QueryEngine<Vector> engine(1);
    auto want = engine.RunBatch(plain.value(), batch);

    auto live = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 7);
    ASSERT_TRUE(live.ok()) << spec;
    auto got = live.value()->RunBatch(engine, live.value()->Pin(), batch);

    EXPECT_EQ(got.results, want.results) << spec;
    EXPECT_EQ(got.truncated, want.truncated) << spec;
    EXPECT_EQ(got.per_query_distance_computations,
              want.per_query_distance_computations)
        << spec;
    EXPECT_EQ(live.value()->generation_number(), 1u);
    EXPECT_EQ(live.value()->delta_entries(), 0u);
  }
}

// Inserted points are served exactly (linear delta scan) no matter how
// approximate the base index is; removed points vanish in every mode,
// skipped inside the search; both survive compaction, where ids are
// remapped but the points stay.
TEST(LiveIngest, InsertRemoveVisibilityAcrossEverySpec) {
  QueryEngine<Vector> engine(1);
  util::Rng rng(402);
  auto data = dataset::UniformCube(40, 2, &rng);
  const std::vector<size_t> removed_base = {0, 7, 13, 22, 31};
  for (const std::string& spec : index::Registry<Vector>::Global().Names()) {
    auto live_result = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 11);
    ASSERT_TRUE(live_result.ok()) << spec;
    auto& live = *live_result.value();

    // Five points clustered far from the base cube: they are the
    // exact 5-NN of a probe at their center, whatever the base index.
    std::vector<size_t> inserted_ids;
    for (int i = 0; i < 5; ++i) {
      Vector p = {2.0 + 0.01 * i, 2.0 - 0.01 * i};
      auto id = live.Insert(p);
      ASSERT_TRUE(id.ok()) << spec;
      inserted_ids.push_back(id.value());
    }
    EXPECT_EQ(live.delta_entries(), 5u);
    Vector probe = {2.0, 2.0};
    auto out =
        live.RunBatch(engine, live.Pin(), {QuerySpec<Vector>::Knn(probe, 5)});
    ASSERT_TRUE(out.all_ok()) << spec;
    ASSERT_EQ(out.results[0].size(), 5u) << spec;
    for (const SearchResult& r : out.results[0]) {
      EXPECT_NE(std::find(inserted_ids.begin(), inserted_ids.end(), r.id),
                inserted_ids.end())
          << spec;
    }

    // Removing a pending insert and base points hides them at once, in
    // every mode.  Each query verifies every candidate (fraction 1), so
    // the distperm specs answer exactly too, and every spec must match
    // brute force over the view's own dataset.
    const auto before = live.Pin();
    ASSERT_TRUE(live.Remove(inserted_ids[2]).ok()) << spec;
    for (const size_t id : removed_base) {
      ASSERT_TRUE(live.Remove(id).ok()) << spec;
    }
    const auto after = live.Pin();
    util::Rng query_rng(412);
    std::vector<QuerySpec<Vector>> batch = MixedVectorBatch(2, &query_rng);
    batch.push_back(QuerySpec<Vector>::Knn(probe, 5));
    batch.push_back(QuerySpec<Vector>::Knn(data[0], after.live_size()));
    batch.push_back(QuerySpec<Vector>::Range(data[0], 0.5));
    batch.push_back(QuerySpec<Vector>::KnnWithinRadius(data[7], 6, 0.4));
    for (QuerySpec<Vector>& query : batch) query.WithCandidateFraction(1.0);
    out = live.RunBatch(engine, after, batch);
    ASSERT_TRUE(out.all_ok()) << spec;
    const std::vector<Vector> view_data = after.Materialize();
    auto brute = FreshAnswers(view_data, L2(), 1, "linear-scan", 0, batch);
    for (size_t q = 0; q < batch.size(); ++q) {
      for (const SearchResult& r : out.results[q]) {
        EXPECT_NE(r.id, inserted_ids[2]) << spec << " query " << q;
        EXPECT_EQ(std::find(removed_base.begin(), removed_base.end(), r.id),
                  removed_base.end())
            << spec << " query " << q << " returned removed id " << r.id;
      }
      EXPECT_EQ(Fingerprint(out.results[q], SnapshotResolver<Vector>(after)),
                Fingerprint(brute.results[q], DatasetResolver(view_data)))
          << spec << " query " << q;
    }
    if (spec.rfind("distperm", 0) == 0) {
      // A removed candidate keeps its place in the verified set but is
      // never measured: against the same generation before the removes,
      // each query pays one distance less per removed base point, and
      // the delta leg one less for the removed insert.
      auto unremoved = live.RunBatch(engine, before, batch);
      ASSERT_TRUE(unremoved.all_ok()) << spec;
      for (size_t q = 0; q < batch.size(); ++q) {
        EXPECT_EQ(unremoved.per_query_distance_computations[q] -
                      out.per_query_distance_computations[q],
                  removed_base.size() + 1)
            << spec << " query " << q;
      }
      EXPECT_EQ(unremoved.stats.candidates_verified -
                    out.stats.candidates_verified,
                removed_base.size() * batch.size())
          << spec;
    }

    // Double-remove and unknown ids are NotFound, at zero cost.
    EXPECT_EQ(live.Remove(0).code(), util::StatusCode::kNotFound);
    EXPECT_EQ(live.Remove(1000).code(), util::StatusCode::kNotFound);

    // Compaction preserves the view: same points, compacted ids.
    ASSERT_TRUE(live.Compact().ok()) << spec;
    EXPECT_EQ(live.generation_number(), 2u);
    EXPECT_EQ(live.delta_entries(), 0u);
    EXPECT_EQ(live.size(), data.size() - removed_base.size() + 4);
    auto snapshot = live.Pin();
    auto resolve = SnapshotResolver<Vector>(snapshot);
    out = live.RunBatch(engine, live.Pin(), {QuerySpec<Vector>::Knn(probe, 4)});
    ASSERT_TRUE(out.all_ok()) << spec;
    // Folded into the base, the inserts are now found by the index
    // itself — exactly for exact indexes (approximate specs may trade
    // them away, but must never resurrect the removed points).
    const bool exact = spec.rfind("distperm", 0) != 0;
    if (exact) {
      ASSERT_EQ(out.results[0].size(), 4u) << spec;
    }
    for (const SearchResult& r : out.results[0]) {
      const Vector p = resolve(r.id);
      if (exact) {
        EXPECT_NEAR(p[0], 2.0, 0.05) << spec;
      }
      EXPECT_NE(p, (Vector{2.02, 1.98})) << spec;  // the removed insert
      for (const size_t id : removed_base) {
        EXPECT_NE(p, data[id]) << spec;  // the removed base points
      }
    }
  }
}

TEST(LiveIngest, ExactSpecsMatchFreshBuildBeforeAndAfterCompaction) {
  QueryEngine<Vector> engine(1);
  util::Rng rng(403);
  auto data = dataset::UniformCube(50, 2, &rng);
  for (const std::string& spec : kExactSpecs) {
    auto live_result = LiveDatabase<Vector>::Open(data, L2(), 3, spec, 13);
    ASSERT_TRUE(live_result.ok()) << spec;
    auto& live = *live_result.value();

    util::Rng write_rng(500);
    std::vector<size_t> delta_ids;
    for (int i = 0; i < 12; ++i) {
      Vector p = {write_rng.NextDouble(), write_rng.NextDouble()};
      auto id = live.Insert(std::move(p));
      ASSERT_TRUE(id.ok());
      delta_ids.push_back(id.value());
    }
    ASSERT_TRUE(live.Remove(3).ok());
    ASSERT_TRUE(live.Remove(17).ok());
    ASSERT_TRUE(live.Remove(delta_ids[5]).ok());

    util::Rng query_rng(501);
    auto batch = MixedVectorBatch(2, &query_rng);

    auto snapshot = live.Pin();
    const std::vector<Vector> final_data = snapshot.Materialize();
    EXPECT_EQ(final_data.size(), data.size() - 2 + 11);
    EXPECT_EQ(snapshot.live_size(), final_data.size());
    auto fresh = FreshAnswers(final_data, L2(), 3, spec, 13, batch);
    auto got = live.RunBatch(engine, live.Pin(), batch);
    ASSERT_TRUE(got.all_ok()) << spec;
    auto live_resolve = SnapshotResolver<Vector>(snapshot);
    auto fresh_resolve = DatasetResolver(final_data);
    for (size_t q = 0; q < batch.size(); ++q) {
      EXPECT_EQ(Fingerprint(got.results[q], live_resolve),
                Fingerprint(fresh.results[q], fresh_resolve))
          << spec << " query " << q;
    }

    // Post-compaction the id spaces coincide: results, counts, and
    // truncation flags are bit-identical to a fresh build over the
    // same routed slices (compaction folds per shard, so the sliced
    // build — not the uniform split — is the reference object).
    auto fresh_sliced =
        FreshSlicedAnswers(snapshot.MaterializeSlices(), L2(), spec, 13,
                           batch);
    ASSERT_TRUE(live.Compact().ok()) << spec;
    auto compacted = live.RunBatch(engine, live.Pin(), batch);
    EXPECT_EQ(compacted.results, fresh_sliced.results) << spec;
    EXPECT_EQ(compacted.per_query_distance_computations,
              fresh_sliced.per_query_distance_computations)
        << spec;
    EXPECT_EQ(compacted.truncated, fresh_sliced.truncated) << spec;
  }
}

TEST(LiveIngest, ApproxSpecsMatchFreshBuildAfterCompaction) {
  QueryEngine<Vector> engine(1);
  util::Rng rng(404);
  auto data = dataset::UniformCube(50, 2, &rng);
  for (const std::string& spec : kApproxSpecs) {
    auto live_result = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 19);
    ASSERT_TRUE(live_result.ok()) << spec;
    auto& live = *live_result.value();
    util::Rng write_rng(502);
    for (int i = 0; i < 9; ++i) {
      ASSERT_TRUE(
          live.Insert({write_rng.NextDouble(), write_rng.NextDouble()})
              .ok());
    }
    ASSERT_TRUE(live.Remove(7).ok());
    auto slices = live.Pin().MaterializeSlices();
    ASSERT_TRUE(live.Compact().ok()) << spec;

    util::Rng query_rng(503);
    auto batch = MixedVectorBatch(2, &query_rng);
    auto fresh = FreshSlicedAnswers(std::move(slices), L2(), spec, 19, batch);
    auto got = live.RunBatch(engine, live.Pin(), batch);
    EXPECT_EQ(got.results, fresh.results) << spec;
    EXPECT_EQ(got.per_query_distance_computations,
              fresh.per_query_distance_computations)
        << spec;
  }
}

TEST(LiveIngest, StringsUnderLevenshtein) {
  QueryEngine<std::string> engine(1);
  util::Rng rng(405);
  auto words = dataset::DnaSequences(60, 4, 5, 12, 0.1, &rng);
  metric::Metric<std::string> lev((metric::LevenshteinMetric()));
  auto live_result =
      LiveDatabase<std::string>::Open(words, lev, 3, "vp-tree", 23);
  ASSERT_TRUE(live_result.ok());
  auto& live = *live_result.value();

  ASSERT_TRUE(live.Insert("ACGTACGTACGT").ok());
  ASSERT_TRUE(live.Insert("TTTTTTTT").ok());
  ASSERT_TRUE(live.Remove(5).ok());

  std::vector<QuerySpec<std::string>> batch = {
      QuerySpec<std::string>::Knn("ACGTACGT", 6),
      QuerySpec<std::string>::Range(words[10], 4.0),
      QuerySpec<std::string>::KnnWithinRadius("TTTTTT", 3, 5.0)};

  auto snapshot = live.Pin();
  const std::vector<std::string> final_data = snapshot.Materialize();
  auto fresh = FreshAnswers(final_data, lev, 3, "vp-tree", 23, batch);
  auto got = live.RunBatch(engine, live.Pin(), batch);
  ASSERT_TRUE(got.all_ok());
  auto live_resolve = SnapshotResolver<std::string>(snapshot);
  auto fresh_resolve = DatasetResolver(final_data);
  for (size_t q = 0; q < batch.size(); ++q) {
    EXPECT_EQ(Fingerprint(got.results[q], live_resolve),
              Fingerprint(fresh.results[q], fresh_resolve))
        << q;
  }

  auto fresh_sliced = FreshSlicedAnswers(snapshot.MaterializeSlices(), lev,
                                         "vp-tree", 23, batch);
  ASSERT_TRUE(live.Compact().ok());
  auto compacted = live.RunBatch(engine, live.Pin(), batch);
  EXPECT_EQ(compacted.results, fresh_sliced.results);
  EXPECT_EQ(compacted.per_query_distance_computations,
            fresh_sliced.per_query_distance_computations);
}

// The delta path must not disturb budget/truncation accounting: the
// generation search spends exactly what the plain engine spends, the
// delta leg adds exactly |alive inserts| evaluations per executed
// query, and rejected queries still cost nothing.
TEST(LiveIngest, BudgetAndTruncationAccountingUnchangedByDeltaPath) {
  util::Rng rng(406);
  const size_t n = 90;
  const size_t shards = 3;
  auto data = dataset::UniformCube(n, 2, &rng);
  auto live_result =
      LiveDatabase<Vector>::Open(data, L2(), shards, "linear-scan", 29);
  ASSERT_TRUE(live_result.ok());
  auto& live = *live_result.value();

  const uint64_t budget = 10;
  std::vector<QuerySpec<Vector>> batch = {
      QuerySpec<Vector>::Knn({0.4, 0.4}, 3).WithDistanceBudget(budget),
      QuerySpec<Vector>::Knn({0.4, 0.4}, 3),
      QuerySpec<Vector>::Knn({0.4, 0.4}, 0),  // invalid
  };

  // Idle: bit-identical to the plain engine.
  auto plain = ShardedDatabase<Vector>::BuildFromRegistry(data, L2(), shards,
                                                          "linear-scan", 29);
  ASSERT_TRUE(plain.ok());
  QueryEngine<Vector> engine(1);
  auto want = engine.RunBatch(plain.value(), batch);
  auto idle = live.RunBatch(engine, live.Pin(), batch);
  EXPECT_EQ(idle.results, want.results);
  EXPECT_EQ(idle.truncated, want.truncated);
  EXPECT_EQ(idle.per_query_distance_computations,
            want.per_query_distance_computations);
  EXPECT_TRUE(idle.truncated[0]);
  EXPECT_EQ(idle.per_query_distance_computations[0], budget * shards);
  EXPECT_EQ(idle.per_query_distance_computations[1], n);

  // With 7 pending inserts: the base leg's budget behavior is
  // untouched and the delta leg adds exactly 7 per executed query.
  const size_t inserts = 7;
  for (size_t i = 0; i < inserts; ++i) {
    ASSERT_TRUE(live.Insert({2.0, 2.0 + 0.1 * static_cast<double>(i)}).ok());
  }
  auto out = live.RunBatch(engine, live.Pin(), batch);
  EXPECT_TRUE(out.truncated[0]);
  EXPECT_EQ(out.per_query_distance_computations[0],
            budget * shards + inserts);
  EXPECT_FALSE(out.truncated[1]);
  EXPECT_EQ(out.per_query_distance_computations[1], n + inserts);
  EXPECT_FALSE(out.statuses[2].ok());
  EXPECT_EQ(out.per_query_distance_computations[2], 0u);
  EXPECT_EQ(out.stats.latency.count, 2u);
}

// Removed ids are skipped inside the search, so a live kNN asks each
// shard for k results however many ids the window removed.  Removing
// the 64 base points farthest from a query leaves its 10-NN cost
// exactly where the same generation puts it with no removes; asking
// for k + 64 results instead would make every shard search wider.
TEST(LiveIngest, RemovesFarFromAKnnLeaveItsDistanceCountUnchanged) {
  util::Rng rng(417);
  auto data = dataset::UniformCube(2000, 4, &rng);
  const Vector query(4, 0.5);
  std::vector<size_t> farthest(data.size());
  for (size_t i = 0; i < farthest.size(); ++i) farthest[i] = i;
  std::sort(farthest.begin(), farthest.end(), [&](size_t a, size_t b) {
    return L2()(query, data[a]) > L2()(query, data[b]);
  });
  farthest.resize(64);
  const std::vector<QuerySpec<Vector>> batch = {
      QuerySpec<Vector>::Knn(query, 10)};
  for (const std::string spec : {"vp-tree", "laesa:k=4"}) {
    auto live_result = LiveDatabase<Vector>::Open(data, L2(), 4, spec, 31);
    ASSERT_TRUE(live_result.ok()) << spec;
    auto& live = *live_result.value();
    QueryEngine<Vector> engine(1);
    auto unremoved = live.RunBatch(engine, live.Pin(), batch);
    for (const size_t id : farthest) ASSERT_TRUE(live.Remove(id).ok());
    auto removed = live.RunBatch(engine, live.Pin(), batch);
    ASSERT_TRUE(unremoved.all_ok()) << spec;
    ASSERT_TRUE(removed.all_ok()) << spec;
    EXPECT_EQ(removed.results, unremoved.results) << spec;
    EXPECT_EQ(removed.per_query_distance_computations[0],
              unremoved.per_query_distance_computations[0])
        << spec;
  }
}

// Readers holding pins taken at several window positions race one
// writer that inserts and removes (base ids, covered and uncovered
// inserts).  Every pin keeps answering, in every mode, exactly like
// brute force over its own Materialize(), every id it returns still
// resolves in it, and its dataset keeps the size its entries imply: a
// remove committed after a pin never leaks in, and one committed
// before it is never returned.
TEST(LiveIngest, PinnedReadersRacingRemovesMatchBruteForce) {
  util::Rng rng(418);
  auto data = dataset::UniformCube(300, 3, &rng);
  auto live_result = LiveDatabase<Vector>::Open(
      data, L2(), 3, "vp-tree:delta_index_min=16", 37);
  ASSERT_TRUE(live_result.ok()) << live_result.status();
  auto& live = *live_result.value();

  constexpr size_t kReaders = 2;
  constexpr size_t kPhases = 4;
  constexpr size_t kOpsPerPhase = 60;
  std::atomic<size_t> phase{0};
  std::atomic<bool> done{false};
  std::vector<std::atomic<size_t>> seen(kReaders);
  for (auto& s : seen) s.store(0);
  std::atomic<size_t> verified{0};

  // A failed assertion leaves `write` early; `done` is set regardless,
  // so the readers still stop.
  const auto write = [&]() {
    util::Rng writer_rng(419);
    std::vector<size_t> alive(data.size());
    for (size_t i = 0; i < alive.size(); ++i) alive[i] = i;
    for (size_t p = 0; p < kPhases; ++p) {
      for (size_t op = 0; op < kOpsPerPhase; ++op) {
        if (writer_rng.NextBounded(100) < 40) {
          Vector point = {writer_rng.NextDouble(), writer_rng.NextDouble(),
                          writer_rng.NextDouble()};
          auto id = live.Insert(std::move(point));
          ASSERT_TRUE(id.ok()) << id.status();
          alive.push_back(id.value());
        } else {
          const size_t pick = writer_rng.NextBounded(alive.size());
          ASSERT_TRUE(live.Remove(alive[pick]).ok());
          alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
        }
        if (op % 16 == 0) std::this_thread::yield();
      }
      // Hold the next phase's writes until every reader pinned this one.
      phase.store(p + 1);
      for (size_t r = 0; r < kReaders; ++r) {
        while (seen[r].load() < p + 1) std::this_thread::yield();
      }
    }
  };
  std::thread writer([&]() {
    write();
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r]() {
      util::Rng reader_rng(420 + r);
      QueryEngine<Vector> engine(2);
      std::deque<LiveDatabase<Vector>::Snapshot> pins;
      for (bool last = false; !last;) {
        last = done.load();
        const size_t at = phase.load();
        pins.push_back(live.Pin());
        seen[r].store(at);
        if (pins.size() > 3) pins.pop_front();
        Vector point = {reader_rng.NextDouble(), reader_rng.NextDouble(),
                        reader_rng.NextDouble()};
        const std::vector<QuerySpec<Vector>> batch = {
            QuerySpec<Vector>::Knn(point, 7),
            QuerySpec<Vector>::Range(point, 0.3),
            QuerySpec<Vector>::KnnWithinRadius(point, 5, 0.4)};
        for (const auto& pin : pins) {
          // EXPECT, not ASSERT: a reader that left early would hold
          // the writer at its next phase forever.
          auto got = live.RunBatch(engine, pin, batch);
          EXPECT_TRUE(got.all_ok());
          const std::vector<Vector> view = pin.Materialize();
          // live_size() counts the window's entries, not the removal
          // record: a remove leaking in from past the pin shows here.
          EXPECT_EQ(view.size(), pin.live_size());
          auto brute = FreshAnswers(view, L2(), 1, "linear-scan", 0, batch);
          for (size_t q = 0; q < batch.size(); ++q) {
            EXPECT_EQ(
                Fingerprint(got.results[q], SnapshotResolver<Vector>(pin)),
                Fingerprint(brute.results[q], DatasetResolver(view)))
                << "window " << pin.delta_entries() << " query " << q;
          }
          verified.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_GE(verified.load(), kReaders * kPhases);
  EXPECT_EQ(live.delta_entries(), kPhases * kOpsPerPhase);
}

TEST(LiveIngest, SpecKnobsParseAndValidate) {
  auto split =
      index::SplitLiveSpec("laesa:k=4,delta_scan_limit=8,auto_compact_threshold=2");
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split.value().first, "laesa:k=4");
  EXPECT_EQ(split.value().second.delta_scan_limit, 8u);
  EXPECT_EQ(split.value().second.auto_compact_threshold, 2u);

  auto defaults = index::SplitLiveSpec("vp-tree");
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults.value().first, "vp-tree");
  EXPECT_EQ(defaults.value().second.delta_scan_limit, 4096u);
  EXPECT_EQ(defaults.value().second.auto_compact_threshold, 0u);
  EXPECT_EQ(defaults.value().second.delta_index_min, 256u);

  // The side-run cadence knob parses and strips like the others.
  auto side = index::SplitLiveSpec(
      "vp-tree:delta_index_min=32,delta_scan_limit=64");
  ASSERT_TRUE(side.ok());
  EXPECT_EQ(side.value().first, "vp-tree");
  EXPECT_EQ(side.value().second.delta_index_min, 32u);

  // An unset delta_index_min clamps to the scan limit (the default 256
  // would otherwise exceed — and invalidate — small-window specs); an
  // explicit contradictory setting is an error, and 0 disables the
  // side-indexes outright.
  auto clamped = index::SplitLiveSpec("vp-tree:delta_scan_limit=64");
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped.value().second.delta_index_min, 64u);
  auto disabled = index::SplitLiveSpec("vp-tree:delta_index_min=0");
  ASSERT_TRUE(disabled.ok());
  EXPECT_EQ(disabled.value().second.delta_index_min, 0u);

  for (const std::string& bad :
       {std::string("vp-tree:delta_scan_limit=0"),
        std::string("vp-tree:delta_scan_limit=2,auto_compact_threshold=3"),
        std::string("vp-tree:delta_scan_limit=abc"),
        std::string("vp-tree:delta_index_min=9,delta_scan_limit=8"),
        std::string(":delta_scan_limit=2")}) {
    EXPECT_EQ(index::SplitLiveSpec(bad).status().code(),
              util::StatusCode::kInvalidArgument)
        << bad;
  }

  // Unknown residual specs still surface the registry's error.
  util::Rng rng(407);
  auto data = dataset::UniformCube(10, 2, &rng);
  EXPECT_EQ(LiveDatabase<Vector>::Open(data, L2(), 2,
                                       "no-such-index:delta_scan_limit=4", 1)
                .status()
                .code(),
            util::StatusCode::kNotFound);

  // Side runs have one fixed, exact shape: a key that once picked their
  // index is no live knob, so it stays in the residual spec and the
  // shard build rejects it as an unknown option.
  for (const std::string& bad :
       {std::string("vp-tree:delta_index_k=0"),
        std::string("linear-scan:delta_index=distperm-prefix")}) {
    EXPECT_EQ(LiveDatabase<Vector>::Open(data, L2(), 2, bad, 1).status().code(),
              util::StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(LiveIngest, DeltaScanLimitAppliesBackpressure) {
  util::Rng rng(408);
  auto data = dataset::UniformCube(20, 2, &rng);
  auto live_result = LiveDatabase<Vector>::Open(
      data, L2(), 2, "vp-tree:delta_scan_limit=3", 31);
  ASSERT_TRUE(live_result.ok());
  auto& live = *live_result.value();
  EXPECT_EQ(live.delta_scan_limit(), 3u);

  ASSERT_TRUE(live.Insert({1.0, 1.0}).ok());
  ASSERT_TRUE(live.Insert({1.1, 1.1}).ok());
  ASSERT_TRUE(live.Remove(0).ok());
  // Full: both write kinds push back with OutOfRange.
  EXPECT_EQ(live.Insert({1.2, 1.2}).status().code(),
            util::StatusCode::kOutOfRange);
  EXPECT_EQ(live.Remove(1).code(), util::StatusCode::kOutOfRange);

  ASSERT_TRUE(live.Compact().ok());
  EXPECT_EQ(live.delta_entries(), 0u);
  ASSERT_TRUE(live.Insert({1.2, 1.2}).ok());
  EXPECT_EQ(live.size(), 20u - 1 + 3);
}

// A point of the wrong dimension is refused before it reaches a metric
// or the WAL: the insert appends nothing (recovery replays only good
// records), a wrong-dimension query fails alone inside its batch at
// zero cost, and a store with no points yet accepts the first
// dimension it sees.
TEST(LiveIngest, WrongDimensionWritesAndQueriesAreRejected) {
  QueryEngine<Vector> engine(1);
  storage::Env* env = storage::Env::Default();
  const std::string dir = FreshDir("live_wrong_dimension");
  const std::string spec = "vp-tree:wal_dir=" + dir + ",fsync=always";
  const std::string wal = dir + "/" + WalFileName(1);
  util::Rng rng(412);
  auto data = dataset::UniformCube(30, 2, &rng);
  {
    auto opened = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 44);
    ASSERT_TRUE(opened.ok()) << opened.status();
    LiveDatabase<Vector>& live = *opened.value();
    ASSERT_TRUE(live.Insert({0.5, 0.5}).ok());
    const uint64_t wal_bytes = env->FileSize(wal).value();
    const uint64_t clock = live.mutation_clock();

    auto rejected = live.Insert({0.5, 0.5, 0.5});
    EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument)
        << rejected.status();
    EXPECT_EQ(env->FileSize(wal).value(), wal_bytes);
    EXPECT_EQ(live.mutation_clock(), clock);
    EXPECT_EQ(live.delta_entries(), 1u);

    const std::vector<QuerySpec<Vector>> batch = {
        QuerySpec<Vector>::Knn({0.5, 0.5, 0.5}, 3),
        QuerySpec<Vector>::Knn({0.5, 0.5}, 3),
        QuerySpec<Vector>::Range({0.5}, 0.4)};
    for (int pass = 0; pass < 2; ++pass) {  // with and without a delta
      auto out = live.RunBatch(engine, live.Pin(), batch);
      for (size_t q : {0u, 2u}) {
        EXPECT_EQ(out.statuses[q].code(), util::StatusCode::kInvalidArgument)
            << "pass " << pass << " query " << q;
        EXPECT_TRUE(out.results[q].empty());
        EXPECT_EQ(out.per_query_distance_computations[q], 0u);
      }
      ASSERT_TRUE(out.statuses[1].ok()) << out.statuses[1];
      EXPECT_EQ(out.results[1].size(), 3u);
      ASSERT_TRUE(live.Compact().ok());
    }
  }
  auto reopened = LiveDatabase<Vector>::Open({}, L2(), 2, spec, 44);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value()->size(), 31u);

  auto empty = LiveDatabase<Vector>::Open({}, L2(), 2, "linear-scan", 45);
  ASSERT_TRUE(empty.ok()) << empty.status();
  ASSERT_TRUE(empty.value()->Insert({1.0, 2.0, 3.0}).ok());
  EXPECT_EQ(empty.value()->Insert({1.0, 2.0}).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(empty.value()->size(), 1u);

  // A durable store whose base generation is empty learns the dimension
  // from its WAL on recovery, as a live store does from its first insert.
  const std::string empty_spec =
      "linear-scan:wal_dir=" + FreshDir("live_wrong_dimension_empty");
  {
    auto fresh = LiveDatabase<Vector>::Open({}, L2(), 2, empty_spec, 46);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    ASSERT_TRUE(fresh.value()->Insert({1.0, 2.0, 3.0}).ok());
  }
  auto recovered = LiveDatabase<Vector>::Open({}, L2(), 2, empty_spec, 46);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value()->Insert({1.0, 2.0}).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(recovered.value()->size(), 1u);
}

TEST(LiveIngest, AutoCompactionRunsInBackground) {
  QueryEngine<Vector> engine(1);
  util::Rng rng(409);
  auto data = dataset::UniformCube(30, 2, &rng);
  auto live_result = LiveDatabase<Vector>::Open(
      data, L2(), 2, "vp-tree:auto_compact_threshold=4,delta_scan_limit=64",
      37);
  ASSERT_TRUE(live_result.ok());
  auto& live = *live_result.value();
  EXPECT_EQ(live.auto_compact_threshold(), 4u);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        live.Insert({2.0 + 0.1 * static_cast<double>(i), 2.0}).ok());
  }
  live.WaitForCompaction();
  EXPECT_TRUE(live.last_background_compact_status().ok());
  EXPECT_EQ(live.generation_number(), 2u);
  EXPECT_EQ(live.delta_entries(), 0u);
  EXPECT_EQ(live.size(), 34u);

  // The folded generation answers like a fresh build over the data.
  auto snapshot = live.Pin();
  auto batch = MixedVectorBatch(2, &rng);
  auto fresh =
      FreshAnswers(snapshot.Materialize(), L2(), 2, "vp-tree", 37, batch);
  auto got = live.RunBatch(engine, live.Pin(), batch);
  EXPECT_EQ(got.results, fresh.results);
}

// CompactPrefix folds only part of the window; the pending tail is
// carried into the new generation with every id remapped into the new
// space — including removes that target points the fold just moved.
TEST(LiveIngest, CompactPrefixRemapsThePendingTail) {
  QueryEngine<Vector> engine(1);
  util::Rng rng(410);
  auto data = dataset::UniformCube(10, 2, &rng);
  auto live_result =
      LiveDatabase<Vector>::Open(data, L2(), 2, "linear-scan", 41);
  ASSERT_TRUE(live_result.ok());
  auto& live = *live_result.value();

  const Vector a = {3.0, 3.0};
  const Vector b = {4.0, 4.0};
  auto id_a = live.Insert(a);
  auto id_b = live.Insert(b);
  ASSERT_TRUE(id_a.ok());
  ASSERT_TRUE(id_b.ok());
  EXPECT_EQ(id_a.value(), 10u);
  EXPECT_EQ(id_b.value(), 11u);
  ASSERT_TRUE(live.Remove(2).ok());             // folded below
  ASSERT_TRUE(live.Remove(id_a.value()).ok());  // stays in the tail

  // Fold the first three entries (both inserts + the base remove); the
  // remove of `a` rides the tail and must now target a's new id.
  ASSERT_TRUE(live.CompactPrefix(3).ok());
  EXPECT_EQ(live.generation_number(), 2u);
  EXPECT_EQ(live.delta_entries(), 1u);
  EXPECT_EQ(live.size(), 10u);  // 9 base survivors + b (a removed)

  auto snapshot = live.Pin();
  auto resolve = SnapshotResolver<Vector>(snapshot);
  auto out = live.RunBatch(engine, live.Pin(),
                           {QuerySpec<Vector>::Knn({3.5, 3.5}, 2)});
  ASSERT_TRUE(out.all_ok());
  ASSERT_EQ(out.results[0].size(), 2u);
  EXPECT_EQ(resolve(out.results[0][0].id), b);  // a is gone, b closest
  for (const auto& r : out.results[0]) EXPECT_NE(resolve(r.id), a);

  // Folding the rest reaches the same final state as a fresh build.
  ASSERT_TRUE(live.Compact().ok());
  EXPECT_EQ(live.delta_entries(), 0u);
  auto final_data = live.Pin().Materialize();
  EXPECT_EQ(final_data.size(), 10u);
  auto batch = MixedVectorBatch(2, &rng);
  auto fresh = FreshAnswers(final_data, L2(), 2, "linear-scan", 41, batch);
  auto got = live.RunBatch(engine, live.Pin(), batch);
  EXPECT_EQ(got.results, fresh.results);
}

// Swapped-out generations must free themselves as soon as the last pin
// drops: nothing in the store may keep a retired generation alive.
TEST(LiveIngest, RetiredGenerationsAreFreedWhenUnpinned) {
  util::Rng rng(411);
  auto data = dataset::UniformCube(25, 2, &rng);
  auto live_result =
      LiveDatabase<Vector>::Open(data, L2(), 2, "vp-tree", 43);
  ASSERT_TRUE(live_result.ok());
  auto& live = *live_result.value();

  std::weak_ptr<const Generation<Vector>> retired;
  {
    auto snapshot = live.Pin();
    retired = snapshot.generation();
    ASSERT_TRUE(live.Insert({0.5, 0.5}).ok());
    ASSERT_TRUE(live.Compact().ok());
    // The pin still holds generation 1 alive — and its frozen view
    // predates both the insert and the swap.
    EXPECT_FALSE(retired.expired());
    EXPECT_EQ(snapshot.generation_number(), 1u);
    EXPECT_EQ(snapshot.live_size(), 25u);
  }
  EXPECT_TRUE(retired.expired());
  EXPECT_EQ(live.generation_number(), 2u);

  std::weak_ptr<const Generation<Vector>> current = live.Pin().generation();
  EXPECT_FALSE(current.expired());  // the store itself pins the head
}

// A traced live query gets one delta-leg span prepended to the shard
// spans, every span rebased onto the call's own clock, and the spans
// still partition the query's delta-inclusive distance count exactly.
// Tracing changes nothing else: results and accounting stay identical
// to the untraced run.
TEST(LiveIngest, TraceCoversDeltaLegAndSumsExactly) {
  QueryEngine<Vector> engine(1);
  util::Rng rng(412);
  auto data = dataset::UniformCube(50, 2, &rng);
  const size_t shards = 3;
  auto live_result =
      LiveDatabase<Vector>::Open(data, L2(), shards, "linear-scan", 47);
  ASSERT_TRUE(live_result.ok());
  auto& live = *live_result.value();
  ASSERT_TRUE(live.Insert({0.5, 0.5}).ok());
  ASSERT_TRUE(live.Insert({0.6, 0.6}).ok());
  ASSERT_TRUE(live.Remove(0).ok());

  std::vector<QuerySpec<Vector>> plain = {
      QuerySpec<Vector>::Knn({0.5, 0.5}, 4),
      QuerySpec<Vector>::Range({0.3, 0.7}, 0.4),
  };
  std::vector<QuerySpec<Vector>> traced = plain;
  for (auto& spec : traced) spec.WithTrace();

  auto base = live.RunBatch(engine, live.Pin(), plain);
  auto out = live.RunBatch(engine, live.Pin(), traced);
  ASSERT_TRUE(out.all_ok());
  EXPECT_EQ(out.results, base.results);
  EXPECT_EQ(out.per_query_distance_computations,
            base.per_query_distance_computations);
  for (size_t q = 0; q < traced.size(); ++q) {
    const obs::SearchTrace& trace = out.traces[q];
    ASSERT_EQ(trace.spans.size(), shards + 1) << q;  // delta + shards
    EXPECT_TRUE(trace.spans[0].delta) << q;
    // Two alive inserts: the delta leg pays exactly two distances.
    EXPECT_EQ(trace.spans[0].distance_computations, 2u) << q;
    for (size_t i = 1; i < trace.spans.size(); ++i) {
      EXPECT_FALSE(trace.spans[i].delta) << q;
    }
    EXPECT_EQ(trace.total_distance_computations(),
              out.per_query_distance_computations[q])
        << q;
    for (const obs::SearchTrace::Span& span : trace.spans) {
      EXPECT_GE(span.start_seconds, 0.0) << q;
      EXPECT_LE(span.start_seconds, span.stop_seconds) << q;
    }
  }

  // After compaction the delta is empty: traces drop the delta span
  // and flow straight from the engine.
  ASSERT_TRUE(live.Compact().ok());
  auto folded = live.RunBatch(engine, live.Pin(), traced);
  ASSERT_TRUE(folded.all_ok());
  for (size_t q = 0; q < traced.size(); ++q) {
    EXPECT_EQ(folded.traces[q].spans.size(), shards) << q;
    EXPECT_EQ(folded.traces[q].total_distance_computations(),
              folded.per_query_distance_computations[q])
        << q;
  }
}

// LiveOptions.metrics wires the store into a registry: write and
// compaction counters are exact, the compaction histograms record each
// fold, and the delta-depth / pinned-generation gauges read out
// point-in-time truth at exposition.
TEST(LiveIngest, MetricsRecordWritesCompactionsAndGauges) {
  util::Rng rng(413);
  auto data = dataset::UniformCube(30, 2, &rng);
  obs::MetricsRegistry registry("live");
  LiveOptions options;
  options.metrics = &registry;
  auto live_result = LiveDatabase<Vector>::Open(
      data, L2(), 2, "vp-tree:delta_scan_limit=4", 53, options);
  ASSERT_TRUE(live_result.ok());
  auto& live = *live_result.value();

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(live.Insert({2.0 + 0.1 * i, 2.0}).ok());
  }
  ASSERT_TRUE(live.Remove(0).ok());
  // The window is at its delta_scan_limit: one rejected write.
  EXPECT_FALSE(live.Insert({9.0, 9.0}).ok());

  EXPECT_EQ(registry.GetCounter("live_inserts_total")->Value(), 3u);
  EXPECT_EQ(registry.GetCounter("live_removes_total")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("live_backpressure_total")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("live_compactions_total")->Value(), 0u);
  std::string text = registry.TextExposition();
  EXPECT_NE(text.find("live_delta_depth 4"), std::string::npos) << text;

  ASSERT_TRUE(live.Compact().ok());
  EXPECT_EQ(registry.GetCounter("live_compactions_total")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("live_compaction_failures_total")->Value(),
            0u);
  EXPECT_EQ(
      registry.GetHistogram("live_compaction_seconds")->Snap().count(), 1u);
  // The folded-entries histogram saw this fold's 4-entry window.
  EXPECT_DOUBLE_EQ(
      registry.GetHistogram("live_compaction_folded_entries")->Snap().sum,
      4.0);
  text = registry.TextExposition();
  EXPECT_NE(text.find("live_delta_depth 0"), std::string::npos) << text;
  EXPECT_NE(text.find("live_pinned_generations 1"), std::string::npos)
      << text;

  // An engine enabled on the same registry records the engine series.
  QueryEngine<Vector> engine(1);
  engine.EnableMetrics(&registry);
  auto out = live.RunBatch(engine, live.Pin(),
                           {QuerySpec<Vector>::Knn({0.5, 0.5}, 3)});
  ASSERT_TRUE(out.all_ok());
  EXPECT_EQ(registry.GetCounter("engine_queries_total")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("engine_distance_computations_total")
                ->Value(),
            out.stats.distance_computations);
}

// The value a text exposition reports for an unlabelled series.
double ExposedValue(const std::string& text, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const size_t at = ("\n" + text).find(key);
  EXPECT_NE(at, std::string::npos) << name << " missing from\n" << text;
  if (at == std::string::npos) return -1.0;
  return std::stod(text.substr(at - 1 + key.size()));
}

// Side-index upkeep is the logarithmic method's, counted exactly: each
// publication builds one run per touched shard and merges only runs no
// larger than it, so a covered insert is rebuilt O(log depth) times and
// the points built per record stay flat as the window deepens (a
// whole-window rebuild per publication makes them grow linearly, about
// 4x between these two depths).
TEST(LiveIngest, SideRunUpkeepIsLogarithmicInDepth) {
  util::Rng rng(414);
  auto data = dataset::UniformCube(400, 3, &rng);
  obs::MetricsRegistry registry("side_upkeep");
  LiveOptions options;
  options.metrics = &registry;
  auto live_result = LiveDatabase<Vector>::Open(
      data, L2(), 4, "vp-tree:delta_scan_limit=16384,delta_index_min=256",
      57, options);
  ASSERT_TRUE(live_result.ok()) << live_result.status();
  auto& live = *live_result.value();
  const obs::Counter* built =
      registry.GetCounter("live_side_index_points_built_total");

  const auto insert_until = [&](size_t n) {
    while (live.delta_entries() < n) {
      Vector point(3);
      for (double& c : point) c = rng.NextDouble();
      ASSERT_TRUE(live.Insert(point).ok());
    }
  };
  const auto log2_ceil = [](size_t x) {
    size_t bits = 0;
    while ((size_t{1} << bits) < x) ++bits;
    return bits;
  };
  insert_until(4096);
  const uint64_t built_4k = built->Value();
  insert_until(16384);
  const uint64_t built_16k = built->Value();

  EXPECT_GE(built_4k, 4096u);  // every covered insert is built at least once
  EXPECT_LE(built_4k, 4096u * (log2_ceil(4096 / 256) + 2));
  EXPECT_LE(built_16k, 16384u * (log2_ceil(16384 / 256) + 2));
  const double per_record_4k = static_cast<double>(built_4k) / 4096.0;
  const double per_record_16k = static_cast<double>(built_16k) / 16384.0;
  EXPECT_LE(per_record_16k, 1.5 * per_record_4k)
      << per_record_4k << " points built per record at 4k, "
      << per_record_16k << " at 16k";

  // The published stacks stay logarithmic in the 64 publications, not
  // linear; a fold drops them with the log they covered.
  const double runs =
      ExposedValue(registry.TextExposition(), "live_side_index_runs");
  EXPECT_GE(runs, 4.0);
  EXPECT_LE(runs, 4.0 * static_cast<double>(log2_ceil(16384 / 256) + 2));
  ASSERT_TRUE(live.Compact().ok());
  EXPECT_EQ(ExposedValue(registry.TextExposition(), "live_side_index_runs"),
            0.0);
}

// Side runs never change an answer: a store publishing runs every 8
// writes and a store scanning its whole window flat run the same
// script, and at every publication their range, kNN and
// kNN-within-radius answers are bit-identical.  The script removes
// delta inserts a run already covers, so the runs' searches skip
// entries removed after the run was built, across several runs; base
// removes make the generation leg skip removed ids too.  The runs may
// only save distance computations, never add them.
TEST(LiveIngest, SideRunsAnswerLikeTheFlatScanAtEveryPublication) {
  QueryEngine<Vector> engine(1);
  constexpr size_t kDim = 3;
  constexpr size_t kShards = 2;
  constexpr size_t kMin = 8;
  util::Rng rng(415);
  // A small base, so most of every answer comes out of the delta leg.
  auto data = dataset::UniformCube(64, kDim, &rng);
  obs::MetricsRegistry registry("side_exact");
  LiveOptions options;
  options.metrics = &registry;
  auto side_result = LiveDatabase<Vector>::Open(
      data, L2(), kShards,
      "vp-tree:delta_scan_limit=2048,delta_index_min=" + std::to_string(kMin),
      58, options);
  auto flat_result = LiveDatabase<Vector>::Open(
      data, L2(), kShards, "vp-tree:delta_scan_limit=2048,delta_index_min=0",
      58);
  ASSERT_TRUE(side_result.ok()) << side_result.status();
  ASSERT_TRUE(flat_result.ok()) << flat_result.status();
  auto& side = *side_result.value();
  auto& flat = *flat_result.value();

  // Alive delta inserts as (id, log position); a position below the
  // covered prefix means a run holds the insert.
  std::vector<std::pair<size_t, size_t>> pending;
  size_t base_removes = 0;
  size_t covered_removes = 0;
  size_t checks = 0;
  double most_runs = 0.0;
  uint64_t side_cost = 0;
  uint64_t flat_cost = 0;
  for (size_t op = 0; op < 720; ++op) {
    const size_t position = side.delta_entries();
    const size_t covered = position / kMin * kMin;
    const uint64_t roll = rng.NextBounded(100);
    size_t target = pending.size();
    if (roll < 30) {
      for (size_t tries = 0; tries < 8 && !pending.empty(); ++tries) {
        const size_t pick = rng.NextBounded(pending.size());
        if (pending[pick].second < covered) {
          target = pick;
          break;
        }
      }
    }
    if (target < pending.size()) {
      const size_t id = pending[target].first;
      ASSERT_TRUE(side.Remove(id).ok());
      ASSERT_TRUE(flat.Remove(id).ok());
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(target));
      ++covered_removes;
    } else if (roll < 34 && base_removes < 24) {
      const size_t id = base_removes * 2;  // distinct base ids
      ASSERT_TRUE(side.Remove(id).ok());
      ASSERT_TRUE(flat.Remove(id).ok());
      ++base_removes;
    } else {
      Vector point(kDim);
      for (double& c : point) c = rng.NextDouble();
      auto id = side.Insert(point);
      ASSERT_TRUE(id.ok()) << id.status();
      auto flat_id = flat.Insert(point);
      ASSERT_TRUE(flat_id.ok()) << flat_id.status();
      ASSERT_EQ(id.value(), flat_id.value());
      pending.emplace_back(id.value(), position);
    }
    if (side.delta_entries() % kMin != 0) continue;  // no publication

    ++checks;
    most_runs = std::max(
        most_runs,
        ExposedValue(registry.TextExposition(), "live_side_index_runs"));
    std::vector<QuerySpec<Vector>> batch;
    for (int q = 0; q < 3; ++q) {
      Vector point(kDim);
      for (double& c : point) c = rng.NextDouble();
      batch.push_back(QuerySpec<Vector>::Knn(point, size_t{4} << q));
      batch.push_back(QuerySpec<Vector>::Range(point, 0.1 + 0.05 * q));
      batch.push_back(QuerySpec<Vector>::KnnWithinRadius(point, 8, 0.2));
    }
    auto got = side.RunBatch(engine, side.Pin(), batch);
    auto want = flat.RunBatch(engine, flat.Pin(), batch);
    ASSERT_TRUE(got.all_ok()) << "op " << op;
    ASSERT_TRUE(want.all_ok()) << "op " << op;
    for (size_t q = 0; q < batch.size(); ++q) {
      ASSERT_EQ(got.results[q], want.results[q]) << "op " << op << " query "
                                                 << q;
    }
    side_cost += got.stats.distance_computations;
    flat_cost += want.stats.distance_computations;
  }
  EXPECT_GE(checks, 80u);
  EXPECT_GE(covered_removes, 100u);
  EXPECT_GE(base_removes, 10u);
  EXPECT_GT(most_runs, static_cast<double>(kShards));  // several runs a shard
  EXPECT_LE(side_cost, flat_cost);
}

// Recovery replays the WAL without side upkeep and then covers the
// whole window at once: one run per shard, where the live store that
// wrote the same window holds a deeper stack.  Answers match; only the
// stack shape (and so the distance counts) may differ.
TEST(LiveIngest, RecoveryCoversTheWindowWithOneRunPerShard) {
  QueryEngine<Vector> engine(1);
  const std::string dir = FreshDir("live_side_recovery");
  const std::string spec =
      "vp-tree:delta_index_min=8,wal_dir=" + dir + ",fsync=batched";
  util::Rng rng(416);
  auto data = dataset::UniformCube(200, 2, &rng);
  std::vector<QuerySpec<Vector>> batch;
  for (int q = 0; q < 4; ++q) {
    Vector point = {rng.NextDouble(), rng.NextDouble()};
    batch.push_back(QuerySpec<Vector>::Knn(point, 4));
    batch.push_back(QuerySpec<Vector>::Range(point, 0.15));
  }
  std::vector<std::vector<SearchResult>> live_answers;
  {
    obs::MetricsRegistry registry("side_live");
    LiveOptions options;
    options.metrics = &registry;
    auto opened = LiveDatabase<Vector>::Open(data, L2(), 3, spec, 59, options);
    ASSERT_TRUE(opened.ok()) << opened.status();
    LiveDatabase<Vector>& live = *opened.value();
    for (size_t i = 0; i < 120; ++i) {
      auto id = live.Insert({rng.NextDouble(), rng.NextDouble()});
      ASSERT_TRUE(id.ok());
      if (i % 10 == 9) {
        ASSERT_TRUE(live.Remove(id.value() - 5).ok());
      }
    }
    EXPECT_GT(ExposedValue(registry.TextExposition(), "live_side_index_runs"),
              3.0);
    auto out = live.RunBatch(engine, live.Pin(), batch);
    ASSERT_TRUE(out.all_ok());
    live_answers = out.results;
    ASSERT_TRUE(live.SyncWal().ok());
  }
  obs::MetricsRegistry registry("side_recovered");
  LiveOptions options;
  options.metrics = &registry;
  auto reopened = LiveDatabase<Vector>::Open({}, L2(), 3, spec, 59, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(ExposedValue(registry.TextExposition(), "live_side_index_runs"),
            3.0);
  auto out = reopened.value()->RunBatch(engine, reopened.value()->Pin(), batch);
  ASSERT_TRUE(out.all_ok());
  EXPECT_EQ(out.results, live_answers);
}

// Collects a store's committed WAL records, as a replication feed does.
class RecordTap : public ReplicationListener {
 public:
  void OnRecord(uint64_t, uint64_t, const std::string& record) override {
    records.push_back(record);
  }
  void OnRotate(uint64_t, uint64_t, std::vector<std::string>) override {}
  std::vector<std::string> records;
};

TEST(LiveIngest, ApplyReplicatedReproducesThePrimaryAndRejectsLikeIt) {
  QueryEngine<Vector> engine(1);
  storage::Env* env = storage::Env::Default();
  const std::string primary_dir = FreshDir("live_apply_primary");
  const std::string replica_dir = FreshDir("live_apply_replica");
  const auto spec = [](const std::string& dir) {
    return "vp-tree:delta_index_min=8,wal_dir=" + dir + ",fsync=always";
  };
  util::Rng rng(417);
  auto data = dataset::UniformCube(120, 3, &rng);
  RecordTap tap;
  auto primary_opened =
      LiveDatabase<Vector>::Open(data, L2(), 3, spec(primary_dir), 61);
  auto replica_opened =
      LiveDatabase<Vector>::Open(data, L2(), 3, spec(replica_dir), 61);
  ASSERT_TRUE(primary_opened.ok()) << primary_opened.status();
  ASSERT_TRUE(replica_opened.ok()) << replica_opened.status();
  LiveDatabase<Vector>& primary = *primary_opened.value();
  LiveDatabase<Vector>& replica = *replica_opened.value();
  ASSERT_TRUE(primary.AttachReplicationListener(&tap).records.empty());

  // Mixed script: inserts, removes of base ids, removes of pending
  // inserts.
  size_t last_insert = 0;
  for (size_t i = 0; i < 60; ++i) {
    if (i % 4 == 3) {
      ASSERT_TRUE(primary.Remove(i % 8 == 7 ? last_insert : i).ok());
      continue;
    }
    auto id = primary.Insert(
        {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()});
    ASSERT_TRUE(id.ok()) << id.status();
    last_insert = id.value();
  }
  ASSERT_EQ(tap.records.size(), 60u);
  for (const std::string& record : tap.records) {
    auto op = DecodeWalRecord<Vector>(record);
    ASSERT_TRUE(op.ok()) << op.status();
    ASSERT_TRUE(replica.ApplyReplicated(std::move(op).value(), record).ok());
  }

  const std::string primary_wal = primary_dir + "/" + WalFileName(1);
  const std::string replica_wal = replica_dir + "/" + WalFileName(1);
  EXPECT_EQ(env->ReadFile(primary_wal).value(),
            env->ReadFile(replica_wal).value());
  EXPECT_EQ(replica.delta_entries(), primary.delta_entries());
  EXPECT_EQ(replica.mutation_clock(), primary.mutation_clock());
  EXPECT_EQ(replica.remove_clock(), primary.remove_clock());
  EXPECT_EQ(replica.size(), primary.size());
  const auto batch = MixedVectorBatch(3, &rng);
  auto primary_out = primary.RunBatch(engine, primary.Pin(), batch);
  auto replica_out = replica.RunBatch(engine, replica.Pin(), batch);
  ASSERT_TRUE(primary_out.all_ok());
  ASSERT_TRUE(replica_out.all_ok());
  EXPECT_EQ(replica_out.results, primary_out.results);
  EXPECT_EQ(replica_out.per_query_distance_computations,
            primary_out.per_query_distance_computations);

  // A refused record touches neither the WAL nor the clocks.
  const uint64_t wal_bytes = env->FileSize(replica_wal).value();
  const uint64_t mutations = replica.mutation_clock();
  const uint64_t removes = replica.remove_clock();
  const auto expect_refused = [&](const WalOp<Vector>& op,
                                  util::StatusCode code) {
    const std::string record =
        op.is_remove ? EncodeWalRemove<Vector>(op.id, op.shard)
                     : EncodeWalInsert<Vector>(op.point, op.shard);
    EXPECT_EQ(replica.ApplyReplicated(op, record).code(), code);
    EXPECT_EQ(env->FileSize(replica_wal).value(), wal_bytes);
    EXPECT_EQ(replica.mutation_clock(), mutations);
    EXPECT_EQ(replica.remove_clock(), removes);
  };
  WalOp<Vector> out_of_range;
  out_of_range.shard = 3;
  out_of_range.point = {0.5, 0.5, 0.5};
  expect_refused(out_of_range, util::StatusCode::kInvalidArgument);
  WalOp<Vector> dead_remove;
  dead_remove.is_remove = true;
  dead_remove.id = 3;  // removed by the script
  expect_refused(dead_remove, util::StatusCode::kNotFound);
  WalOp<Vector> wrong_dimension;
  wrong_dimension.point = {0.5, 0.5};
  expect_refused(wrong_dimension, util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace engine
}  // namespace distperm
