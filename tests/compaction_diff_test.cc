// Differential/property harness for incremental compaction.
//
// Each sequence drives one LiveDatabase through a seeded random script
// of Insert / Remove / CompactPrefix / Compact / query ops and checks
// it against two independent references:
//
//   - a brute-force model of the live multiset (exact specs only):
//     every checkpoint query's (distance, point) fingerprint must match
//     a linear scan over the points the ops say are live;
//   - the full-rebuild reference (every spec): after folding, the store
//     must answer bit-identically — results AND per-query distance
//     computations — to a fresh ShardedDatabase built per-slice over
//     Snapshot::MaterializeSlices() of the same view.  Incremental
//     compaction shares clean shards by shared_ptr; determinism of the
//     per-shard (seed, shard) RNG stream is what makes that sharing
//     invisible, and this harness is what pins it.
//
// Every fold additionally checks the incremental contract itself:
// stats account for every shard, clean shards of generation N+1 are
// the predecessor's own shared_ptrs (pointer identity), rebuilt shards
// carry epoch N+1, and the post-fold id space resolves to exactly the
// model's live multiset.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
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
#include "util/rng.h"
#include "util/status.h"

namespace distperm {
namespace engine {
namespace {

using index::SearchResult;
using metric::Vector;

metric::Metric<Vector> L2() { return metric::LpMetric::L2(); }

constexpr size_t kShards = 3;
constexpr size_t kOpsPerSequence = 30;
constexpr size_t kSeedsPerSpec = 28;

// Exact specs answer identically to a linear scan, so the brute-force
// model checks them mid-sequence; approximate ones are pinned only
// against the full-rebuild reference, where determinism — not
// exactness — is the property under test.
const std::vector<std::string> kExactSpecs = {
    "linear-scan", "aesa", "vp-tree", "gh-tree", "laesa:k=4", "iaesa:k=4"};
const std::vector<std::string> kApproxSpecs = {
    "distperm:k=6,fraction=0.5", "distperm-prefix:k=6,prefix=2"};

// The live knobs every sequence runs under.  delta_scan_limit is wide
// enough that a 30-op script never hits backpressure; delta_index_min
// cycles per seed through 0 (side-indexes disabled), 1 (a run per
// write, so stacks merge constantly), 8 (runs engage after a few
// writes) and 32 (above a 30-op window: the threshold never trips), so
// every delta leg and several run-stack shapes face the same
// differential.
std::string WithLiveKnobs(const std::string& spec, size_t delta_index_min) {
  std::string out = spec;
  out += spec.find(':') == std::string::npos ? ":" : ",";
  out += "delta_scan_limit=96,delta_index_min=" +
         std::to_string(delta_index_min);
  return out;
}

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

// A fresh registry-built engine over `data`, answering `batch` — the
// reference when a fold rebalanced (uniform split over the flattened
// materialized order).
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

// One checkpoint query, expressible both as an engine QuerySpec and as
// a brute-force scan over the model's live multiset.  `tie_safe` marks
// probes whose brute fingerprint is deterministic: a kNN boundary
// selects among equal distances by id, which the id-free model cannot
// predict, so integer metrics (strings) only brute-check range probes;
// continuous random vectors never tie.
template <typename P>
struct ProbeQuery {
  enum Kind { kKnn, kRange, kKnnWithinRadius };
  Kind kind;
  P point;
  size_t k = 0;
  double radius = 0.0;
  bool tie_safe = true;

  QuerySpec<P> ToSpec() const {
    switch (kind) {
      case kKnn:
        return QuerySpec<P>::Knn(point, k);
      case kRange:
        return QuerySpec<P>::Range(point, radius);
      case kKnnWithinRadius:
        return QuerySpec<P>::KnnWithinRadius(point, k, radius);
    }
    return QuerySpec<P>::Knn(point, k);
  }

  std::vector<std::pair<double, P>> Brute(
      const std::vector<P>& points, const metric::Metric<P>& metric) const {
    std::vector<std::pair<double, P>> all;
    all.reserve(points.size());
    for (const P& p : points) all.emplace_back(metric(point, p), p);
    std::sort(all.begin(), all.end());
    std::vector<std::pair<double, P>> out;
    for (const auto& entry : all) {
      const bool in_radius = kind == kKnn || entry.first <= radius;
      const bool under_k = kind == kRange || out.size() < k;
      if (in_radius && under_k) out.push_back(entry);
    }
    return out;
  }
};

std::vector<ProbeQuery<Vector>> VectorProbes(size_t dim, util::Rng* rng) {
  auto random_point = [&] {
    Vector p(dim);
    for (double& c : p) c = rng->NextDouble(-0.2, 1.2);
    return p;
  };
  std::vector<ProbeQuery<Vector>> probes;
  probes.push_back({ProbeQuery<Vector>::kKnn, random_point(), 3});
  probes.push_back({ProbeQuery<Vector>::kKnn, random_point(), 7});
  probes.push_back({ProbeQuery<Vector>::kRange, random_point(), 0, 0.35});
  probes.push_back(
      {ProbeQuery<Vector>::kKnnWithinRadius, random_point(), 4, 0.6});
  return probes;
}

std::string RandomDna(util::Rng* rng) {
  static const char kBases[] = "ACGT";
  const size_t length = 5 + rng->NextBounded(8);
  std::string word;
  for (size_t i = 0; i < length; ++i) {
    word += kBases[rng->NextBounded(4)];
  }
  return word;
}

std::vector<ProbeQuery<std::string>> StringProbes(util::Rng* rng) {
  std::vector<ProbeQuery<std::string>> probes;
  probes.push_back({ProbeQuery<std::string>::kKnn, RandomDna(rng), 5, 0.0,
                    /*tie_safe=*/false});
  probes.push_back({ProbeQuery<std::string>::kRange, RandomDna(rng), 0, 3.0});
  probes.push_back({ProbeQuery<std::string>::kRange, RandomDna(rng), 0, 5.0});
  return probes;
}

// The harness's model of the store: the live (id -> point) map in the
// store's current numbering plus the delta entries appended since the
// last swap.  Ops maintain it exactly between folds; a fold remaps
// every id, so the model is re-derived by resolving the post-fold id
// space and checked for multiset equality against the points the ops
// say must be live.
template <typename P>
struct Model {
  std::map<size_t, P> live;
  size_t delta_ops = 0;

  std::vector<P> Points() const {
    std::vector<P> points;
    points.reserve(live.size());
    for (const auto& [id, point] : live) points.push_back(point);
    std::sort(points.begin(), points.end());
    return points;
  }
};

// After a fold: stats must account for every shard, clean shards of
// the new generation must be the predecessor's own shared_ptrs, dirty
// shards must carry the new epoch, and the new id space must resolve
// to exactly the model's live multiset (no lost point, no resurrected
// point, no duplicate).
template <typename P>
void CheckFoldAndRemapModel(const LiveDatabase<P>& live, Model<P>* model,
                            size_t folded,
                            const std::vector<const void*>& shards_before,
                            const std::vector<uint64_t>& epochs_before,
                            size_t id_sweep_bound,
                            const std::string& context) {
  const LiveCompactionStats stats = live.last_compaction_stats();
  EXPECT_EQ(stats.folded_entries, folded) << context;

  auto after = live.Pin();
  const ShardedDatabase<P>& db = after.database();
  const std::vector<uint64_t> epochs_after = after.generation()->epochs();
  ASSERT_EQ(epochs_after.size(), shards_before.size()) << context;
  if (stats.rebalanced) {
    EXPECT_EQ(stats.shards_rebuilt, shards_before.size()) << context;
    EXPECT_EQ(stats.shards_shared, 0u) << context;
  } else {
    EXPECT_EQ(stats.shards_rebuilt + stats.shards_shared,
              shards_before.size())
        << context;
    size_t shared = 0;
    for (size_t s = 0; s < shards_before.size(); ++s) {
      if (epochs_after[s] == epochs_before[s]) {
        EXPECT_EQ(db.shared_shard(s).get(), shards_before[s])
            << context << ": shard " << s
            << " kept its epoch but is not the predecessor's object";
        ++shared;
      } else {
        EXPECT_EQ(epochs_after[s], after.generation_number())
            << context << ": shard " << s;
        EXPECT_NE(db.shared_shard(s).get(), shards_before[s])
            << context << ": shard " << s;
      }
    }
    EXPECT_EQ(shared, stats.shards_shared) << context;
  }

  std::map<size_t, P> resolved;
  for (size_t id = 0; id < id_sweep_bound; ++id) {
    util::Result<P> point = after.ResolvePoint(id);
    if (point.ok()) resolved.emplace(id, std::move(point).value());
  }
  ASSERT_EQ(resolved.size(), model->live.size()) << context;
  std::vector<P> resolved_points;
  resolved_points.reserve(resolved.size());
  for (const auto& [id, point] : resolved) resolved_points.push_back(point);
  std::sort(resolved_points.begin(), resolved_points.end());
  EXPECT_EQ(resolved_points, model->Points()) << context;
  model->live = std::move(resolved);
}

// Checkpoint: every tie-safe probe's live fingerprint must equal the
// brute-force scan over the model (exact base specs only — the delta
// leg is exact for every spec, but an approximate base shard is not a
// linear scan).
template <typename P>
void CheckAgainstModel(LiveDatabase<P>& live, const Model<P>& model,
                       const metric::Metric<P>& metric,
                       const std::vector<ProbeQuery<P>>& probes,
                       const std::string& context) {
  std::vector<QuerySpec<P>> batch;
  batch.reserve(probes.size());
  for (const auto& probe : probes) batch.push_back(probe.ToSpec());
  auto snapshot = live.Pin();
  QueryEngine<P> engine(1);
  auto got = live.RunBatch(engine, snapshot, batch);
  ASSERT_TRUE(got.all_ok()) << context;
  const std::vector<P> points = model.Points();
  auto resolve = SnapshotResolver<P>(snapshot);
  for (size_t q = 0; q < probes.size(); ++q) {
    if (!probes[q].tie_safe) continue;
    EXPECT_EQ(Fingerprint(got.results[q], resolve),
              probes[q].Brute(points, metric))
        << context << " query " << q;
  }
}

template <typename P>
void RunDifferentialSequence(
    const std::string& base_spec, const metric::Metric<P>& metric,
    const std::vector<P>& base, uint64_t store_seed, bool exact,
    const std::function<P(util::Rng*)>& make_point,
    const std::function<std::vector<ProbeQuery<P>>(util::Rng*)>&
        make_probes) {
  constexpr size_t kSideMins[] = {0, 1, 8, 32};
  const size_t delta_index_min = kSideMins[store_seed % 4];
  const std::string spec = WithLiveKnobs(base_spec, delta_index_min);
  // Ids are never reused within a window and tail inserts are renamed
  // below base+inserts, so this bounds every id the store can hold.
  const size_t id_sweep_bound = base.size() + kOpsPerSequence + 8;
  const std::string context = base_spec + " seed=" +
                              std::to_string(store_seed) + " side_min=" +
                              std::to_string(delta_index_min);

  auto live_result =
      LiveDatabase<P>::Open(base, metric, kShards, spec, store_seed);
  ASSERT_TRUE(live_result.ok()) << context << ": " << live_result.status();
  LiveDatabase<P>& live = *live_result.value();

  Model<P> model;
  for (size_t i = 0; i < base.size(); ++i) model.live.emplace(i, base[i]);

  util::Rng oprng(store_seed * 0x51d5c4c1ull + 99);
  for (size_t step = 0; step < kOpsPerSequence; ++step) {
    const std::string at = context + " step=" + std::to_string(step);
    const uint64_t roll = oprng.NextBounded(100);
    if (roll < 55 || model.live.empty()) {
      P point = make_point(&oprng);
      util::Result<size_t> id = live.Insert(point);
      ASSERT_TRUE(id.ok()) << at << ": " << id.status();
      model.live.emplace(id.value(), std::move(point));
      ++model.delta_ops;
    } else if (roll < 75) {
      auto victim = model.live.begin();
      std::advance(victim, oprng.NextBounded(model.live.size()));
      ASSERT_TRUE(live.Remove(victim->first).ok()) << at;
      model.live.erase(victim);
      ++model.delta_ops;
    } else if (roll < 90 && model.delta_ops > 0) {
      // Partial fold; the limit sometimes exceeds the committed count
      // to exercise the clamp.
      const size_t limit = 1 + oprng.NextBounded(model.delta_ops + 2);
      const size_t folded = std::min(limit, model.delta_ops);
      auto before = live.Pin();
      std::vector<const void*> shards_before;
      for (size_t s = 0; s < kShards; ++s) {
        shards_before.push_back(before.database().shared_shard(s).get());
      }
      const std::vector<uint64_t> epochs_before =
          before.generation()->epochs();
      ASSERT_TRUE(live.CompactPrefix(limit).ok()) << at;
      model.delta_ops -= folded;
      CheckFoldAndRemapModel(live, &model, folded, shards_before,
                             epochs_before, id_sweep_bound, at);
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      if (exact) {
        CheckAgainstModel(live, model, metric, make_probes(&oprng), at);
        if (::testing::Test::HasFatalFailure()) return;
      }
      EXPECT_EQ(live.size(), model.live.size()) << at;
    }
  }

  // Final fold, pinned strictly against the full-rebuild reference.
  // The slices are materialized BEFORE folding: compacting this exact
  // view and rebuilding per-slice must be the same object, whether the
  // fold rebuilt 0, some, or all shards.
  auto before = live.Pin();
  std::vector<std::vector<P>> slices = before.MaterializeSlices();
  size_t total = 0;
  bool any_empty = false;
  for (const auto& slice : slices) {
    total += slice.size();
    if (slice.empty()) any_empty = true;
  }
  if (total == 0) return;  // nothing left to pin (astronomically unlikely)
  if (model.delta_ops > 0) {
    std::vector<const void*> shards_before;
    for (size_t s = 0; s < kShards; ++s) {
      shards_before.push_back(before.database().shared_shard(s).get());
    }
    const std::vector<uint64_t> epochs_before =
        before.generation()->epochs();
    const size_t folded = model.delta_ops;
    ASSERT_TRUE(live.Compact().ok()) << context;
    model.delta_ops = 0;
    CheckFoldAndRemapModel(live, &model, folded, shards_before,
                           epochs_before, id_sweep_bound,
                           context + " final fold");
    if (::testing::Test::HasFatalFailure()) return;
  }

  util::Rng proberng(store_seed * 0x2545f491ull + 7);
  const std::vector<ProbeQuery<P>> probes = make_probes(&proberng);
  std::vector<QuerySpec<P>> batch;
  batch.reserve(probes.size());
  for (const auto& probe : probes) batch.push_back(probe.ToSpec());
  QueryEngine<P> engine(1);
  auto got = live.RunBatch(engine, live.Pin(), batch);
  ASSERT_TRUE(got.all_ok()) << context;
  typename QueryEngine<P>::BatchOutput want;
  if (any_empty) {
    // A slice went empty, so the fold rebalanced into a uniform split
    // over the flattened order — compare against that reference.
    std::vector<P> flat;
    flat.reserve(total);
    for (auto& slice : slices) {
      for (auto& point : slice) flat.push_back(std::move(point));
    }
    want = FreshAnswers(flat, metric, kShards, base_spec, store_seed, batch);
  } else {
    want = FreshSlicedAnswers(std::move(slices), metric, base_spec,
                              store_seed, batch);
  }
  EXPECT_EQ(got.results, want.results) << context;
  EXPECT_EQ(got.truncated, want.truncated) << context;
  EXPECT_EQ(got.per_query_distance_computations,
            want.per_query_distance_computations)
      << context;
}

Vector RandomCubePoint(util::Rng* rng) {
  Vector p(2);
  for (double& c : p) c = rng->NextDouble();
  return p;
}

// 6 exact specs x 28 seeds = 168 sequences.
TEST(CompactionDiff, VectorExactSpecSweep) {
  for (const std::string& spec : kExactSpecs) {
    for (uint64_t seed = 0; seed < kSeedsPerSpec; ++seed) {
      util::Rng datarng(seed * 131 + 7);
      const auto base = dataset::UniformCube(24, 2, &datarng);
      RunDifferentialSequence<Vector>(spec, L2(), base, 1000 + seed,
                                      /*exact=*/true, RandomCubePoint,
                                      [](util::Rng* rng) {
                                        return VectorProbes(2, rng);
                                      });
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// 2 approximate specs x 28 seeds = 56 sequences; with the exact sweep
// the harness covers 224 seeded sequences per run.
TEST(CompactionDiff, VectorApproxSpecSweep) {
  for (const std::string& spec : kApproxSpecs) {
    for (uint64_t seed = 0; seed < kSeedsPerSpec; ++seed) {
      util::Rng datarng(seed * 137 + 11);
      const auto base = dataset::UniformCube(24, 2, &datarng);
      RunDifferentialSequence<Vector>(spec, L2(), base, 2000 + seed,
                                      /*exact=*/false, RandomCubePoint,
                                      [](util::Rng* rng) {
                                        return VectorProbes(2, rng);
                                      });
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Strings route by hash instead of centroid; a smaller sweep keeps
// that path under the same differential.
TEST(CompactionDiff, StringSpecSweepUnderLevenshtein) {
  metric::Metric<std::string> lev((metric::LevenshteinMetric()));
  const std::vector<std::string> specs = {"linear-scan", "vp-tree",
                                          "laesa:k=4"};
  for (const std::string& spec : specs) {
    for (uint64_t seed = 0; seed < 6; ++seed) {
      util::Rng datarng(seed * 149 + 13);
      const auto base = dataset::DnaSequences(24, 4, 5, 12, 0.1, &datarng);
      RunDifferentialSequence<std::string>(
          spec, lev, base, 3000 + seed, /*exact=*/true,
          [](util::Rng* rng) { return RandomDna(rng); }, StringProbes);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// A retired generation must not free shards its successor shares: a
// shard's lifetime follows the shared_ptr graph, not the generation
// that built it — and a clean shard keeps its original epoch (and its
// identity) across any number of folds.
TEST(CompactionDiff, RetiredGenerationKeepsSharedShardsAlive) {
  // Three well-separated clusters in generation-1 data order: the
  // uniform split makes shard i = cluster i, so an insert near cluster
  // 2's center routes to shard 2 and shards 0/1 stay clean.
  std::vector<Vector> base;
  util::Rng rng(77);
  for (size_t cluster = 0; cluster < 3; ++cluster) {
    for (size_t i = 0; i < 8; ++i) {
      base.push_back({10.0 * cluster + rng.NextDouble(),
                      10.0 * cluster + rng.NextDouble()});
    }
  }
  auto live_result = LiveDatabase<Vector>::Open(base, L2(), 3, "vp-tree", 5);
  ASSERT_TRUE(live_result.ok()) << live_result.status();
  auto& live = *live_result.value();

  std::weak_ptr<const Generation<Vector>> gen1;
  std::weak_ptr<const index::SearchIndex<Vector>> shard0;
  const void* shard0_addr = nullptr;
  {
    auto pin = live.Pin();
    gen1 = pin.generation();
    shard0 = pin.database().shared_shard(0);
    shard0_addr = pin.database().shared_shard(0).get();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(live.Insert({20.0 + 0.01 * i, 20.0 - 0.01 * i}).ok());
    }
    ASSERT_TRUE(live.Compact().ok());
  }  // pin released: generation 1 retires

  const LiveCompactionStats stats = live.last_compaction_stats();
  EXPECT_FALSE(stats.rebalanced);
  EXPECT_EQ(stats.shards_rebuilt, 1u);
  EXPECT_EQ(stats.shards_shared, 2u);

  EXPECT_TRUE(gen1.expired())
      << "generation 1 should retire once unpinned";
  auto held = shard0.lock();
  ASSERT_NE(held, nullptr)
      << "a shard shared into generation 2 must outlive generation 1";
  EXPECT_EQ(live.Pin().database().shared_shard(0).get(), shard0_addr);
  EXPECT_EQ(live.Pin().database().shared_shard(0).get(), held.get());

  // A second fold over another shard-2-only delta keeps sharing the
  // same object forward: epoch 1 all the way into generation 3.
  ASSERT_TRUE(live.Insert({20.5, 20.5}).ok());
  ASSERT_TRUE(live.Remove(live.size() - 1).ok());
  ASSERT_TRUE(live.Insert({20.6, 20.4}).ok());
  ASSERT_TRUE(live.Compact().ok());
  auto pin = live.Pin();
  EXPECT_EQ(pin.generation_number(), 3u);
  EXPECT_EQ(pin.database().shared_shard(0).get(), shard0_addr);
  EXPECT_EQ(pin.generation()->epochs()[0], 1u);
  EXPECT_EQ(pin.generation()->epochs()[2], 3u);
}

}  // namespace
}  // namespace engine
}  // namespace distperm
