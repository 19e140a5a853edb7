// The fold as a function, without a LiveDatabase: a generation plus a
// hand-filled delta log goes through engine::Fold, and the result is
// checked against the full-rebuild reference over MaterializeRouted's
// slices — answers and per-query distance counts bit-identical — plus
// the incremental contract (one rebuilt shard, clean shards shared by
// pointer) and the id remap against a brute-force survivor map.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataset/vector_gen.h"
#include "engine/delta_log.h"
#include "engine/fold.h"
#include "engine/generation.h"
#include "engine/query.h"
#include "engine/query_engine.h"
#include "engine/sharded_database.h"
#include "metric/lp.h"
#include "util/rng.h"

namespace distperm {
namespace engine {
namespace {

using metric::Vector;

metric::Metric<Vector> L2() { return metric::LpMetric::L2(); }

constexpr size_t kShards = 4;
constexpr size_t kDim = 3;
constexpr uint64_t kSeed = 71;
const char kSpec[] = "laesa:k=4";

std::shared_ptr<const Generation<Vector>> BuildBase(size_t n, util::Rng* rng) {
  auto built = Generation<Vector>::Build(dataset::UniformCube(n, kDim, rng),
                                         L2(), kShards, kSpec, kSeed,
                                         /*number=*/1);
  EXPECT_TRUE(built.ok()) << built.status();
  return std::move(built).value();
}

Vector RandomPoint(util::Rng* rng) {
  Vector point(kDim);
  for (double& c : point) c = rng->NextDouble();
  return point;
}

// Appends an insert routed to `shard` and returns its id.
size_t AppendInsert(DeltaLog<Vector>* log, size_t* next_id, uint32_t shard,
                    Vector point) {
  const size_t id = (*next_id)++;
  EXPECT_TRUE(log->Append({false, id, shard, std::move(point)}));
  return id;
}

void AppendRemove(DeltaLog<Vector>* log, size_t id, uint32_t shard) {
  EXPECT_TRUE(log->Append({true, id, shard, Vector{}}));
}

// The post-fold id of every surviving pre-fold id, by brute force:
// shard by shard, its base survivors in id order, then the alive
// inserts routed to it in arrival order.
std::unordered_map<size_t, size_t> SurvivorMap(const Generation<Vector>& base,
                                               const DeltaLog<Vector>& log,
                                               size_t end) {
  std::unordered_map<size_t, bool> removed;
  for (size_t i = 0; i < end; ++i) {
    if (log.entry(i).is_remove) removed[log.entry(i).id] = true;
  }
  std::unordered_map<size_t, size_t> map;
  size_t next = 0;
  const ShardedDatabase<Vector>& db = base.database();
  for (size_t s = 0; s < db.shard_count(); ++s) {
    for (size_t i = 0; i < db.shard(s).size(); ++i) {
      const size_t id = db.shard_offset(s) + i;
      if (removed.count(id) == 0) map[id] = next++;
    }
    for (size_t i = 0; i < end; ++i) {
      const auto& entry = log.entry(i);
      if (!entry.is_remove && entry.shard == s &&
          removed.count(entry.id) == 0) {
        map[entry.id] = next++;
      }
    }
  }
  return map;
}

// Answers and per-query distance counts of `got` and `want` over the
// same kNN and range batch must be bit-identical.
void ExpectSameAnswers(const ShardedDatabase<Vector>& got,
                       const ShardedDatabase<Vector>& want, util::Rng* rng) {
  std::vector<QuerySpec<Vector>> batch;
  for (int q = 0; q < 12; ++q) {
    const Vector point = RandomPoint(rng);
    batch.push_back(QuerySpec<Vector>::Knn(point, 5));
    batch.push_back(QuerySpec<Vector>::Range(point, 0.2));
  }
  QueryEngine<Vector> engine(1);
  auto got_out = engine.RunBatch(got, batch);
  auto want_out = engine.RunBatch(want, batch);
  ASSERT_TRUE(got_out.all_ok());
  ASSERT_TRUE(want_out.all_ok());
  EXPECT_EQ(got_out.results, want_out.results);
  EXPECT_EQ(got_out.per_query_distance_computations,
            want_out.per_query_distance_computations);
}

TEST(Fold, RebuildsOnlyTheDirtyShardAndSharesTheRest) {
  util::Rng rng(901);
  const auto base = BuildBase(400, &rng);
  const ShardedDatabase<Vector>& old_db = base->database();
  constexpr uint32_t kDirty = 2;

  // Inserts routed to one shard, base removes inside that shard, and an
  // insert removed again inside the window.
  DeltaLog<Vector> log(base->size(), DeltaLog<Vector>::kChunkSize);
  size_t next_id = base->size();
  std::vector<size_t> inserted;
  for (int i = 0; i < 30; ++i) {
    inserted.push_back(AppendInsert(&log, &next_id, kDirty, RandomPoint(&rng)));
  }
  for (size_t i = 0; i < 10; ++i) {
    AppendRemove(&log, old_db.shard_offset(kDirty) + 3 * i, kDirty);
  }
  AppendRemove(&log, inserted[4], kDirty);
  const size_t end = log.committed();

  auto folded = Fold(*base, log, end, L2(), /*build_threads=*/2);
  ASSERT_TRUE(folded.ok()) << folded.status();
  const FoldOutput<Vector>& out = folded.value();
  const ShardedDatabase<Vector>& new_db = out.generation->database();

  EXPECT_EQ(out.generation->number(), 2u);
  EXPECT_EQ(out.stats.folded_entries, end);
  EXPECT_EQ(out.stats.shards_rebuilt, 1u);
  EXPECT_EQ(out.stats.shards_shared, kShards - 1);
  EXPECT_FALSE(out.stats.rebalanced);
  EXPECT_EQ(out.stats.build_distance_computations,
            new_db.shard(kDirty).build_distance_computations());
  EXPECT_EQ(new_db.size(), base->size() + 29 - 10);
  for (size_t s = 0; s < kShards; ++s) {
    if (s == kDirty) {
      EXPECT_NE(new_db.shared_shard(s).get(), old_db.shared_shard(s).get());
      EXPECT_EQ(out.generation->epochs()[s], 2u);
    } else {
      EXPECT_EQ(new_db.shared_shard(s).get(), old_db.shared_shard(s).get());
      EXPECT_EQ(out.generation->epochs()[s], 1u);
    }
  }

  auto reference = ShardedDatabase<Vector>::BuildFromRegistrySliced(
      MaterializeRouted(*base, log, end), L2(), kSpec, kSeed);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ExpectSameAnswers(new_db, reference.value(), &rng);

  const auto survivors = SurvivorMap(*base, log, end);
  EXPECT_EQ(survivors.size(), new_db.size());
  for (const auto& [old_id, new_id] : survivors) {
    EXPECT_EQ(out.remap.At(old_id), new_id) << "old id " << old_id;
  }
}

TEST(Fold, AnEmptiedSliceRebalancesEveryShard) {
  util::Rng rng(902);
  const auto base = BuildBase(40, &rng);
  const ShardedDatabase<Vector>& old_db = base->database();
  constexpr uint32_t kEmptied = 1;

  DeltaLog<Vector> log(base->size(), DeltaLog<Vector>::kChunkSize);
  size_t next_id = base->size();
  for (int i = 0; i < 6; ++i) {
    AppendInsert(&log, &next_id, 3, RandomPoint(&rng));
  }
  for (size_t i = 0; i < old_db.shard(kEmptied).size(); ++i) {
    AppendRemove(&log, old_db.shard_offset(kEmptied) + i, kEmptied);
  }
  const size_t end = log.committed();

  auto folded = Fold(*base, log, end, L2(), /*build_threads=*/2);
  ASSERT_TRUE(folded.ok()) << folded.status();
  const FoldOutput<Vector>& out = folded.value();
  const ShardedDatabase<Vector>& new_db = out.generation->database();

  EXPECT_TRUE(out.stats.rebalanced);
  EXPECT_EQ(out.stats.shards_rebuilt, kShards);
  EXPECT_EQ(out.stats.shards_shared, 0u);
  EXPECT_EQ(out.stats.build_distance_computations,
            new_db.build_distance_computations());
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(new_db.shard(s).size(), 0u);
    EXPECT_NE(new_db.shared_shard(s).get(), old_db.shared_shard(s).get());
    EXPECT_EQ(out.generation->epochs()[s], 2u);
  }

  // The rebalance rebuilds uniformly over the concatenated slices.
  auto reference = ShardedDatabase<Vector>::BuildFromRegistry(
      Concatenate(MaterializeRouted(*base, log, end)), L2(), kShards, kSpec,
      kSeed);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ExpectSameAnswers(new_db, reference.value(), &rng);

  const auto survivors = SurvivorMap(*base, log, end);
  EXPECT_EQ(survivors.size(), new_db.size());
  for (const auto& [old_id, new_id] : survivors) {
    EXPECT_EQ(out.remap.At(old_id), new_id) << "old id " << old_id;
  }
}

}  // namespace
}  // namespace engine
}  // namespace distperm
