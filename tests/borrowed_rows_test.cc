// One copy of the points: a freshly built vector shard holds its rows on
// the heap exactly once (the rows it was built from), and a shard
// restored from a snapshot holds none — its point store borrows the
// rows from the snapshot's file mapping.
// The borrow must outlive everything that could end it early: the
// snapshot reader, the file's directory entry, and the restored
// generation itself once an incremental fold has shared its clean
// shards into a successor.  Through all of that the store answers
// exactly like a fresh build, distance counts included.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dataset/vector_gen.h"
#include "engine/generation.h"
#include "engine/generation_store.h"
#include "engine/live_database.h"
#include "engine/query.h"
#include "engine/query_engine.h"
#include "engine/sharded_database.h"
#include "metric/lp.h"
#include "storage/env.h"
#include "util/rng.h"
#include "util/status.h"

namespace distperm {
namespace engine {
namespace {

using metric::Vector;

metric::Metric<Vector> L2() { return metric::LpMetric::L2(); }

const std::vector<std::string> kSpecs = {"distperm:k=6,fraction=0.5",
                                         "vp-tree"};
constexpr size_t kShards = 4;
constexpr uint64_t kSeed = 77;

/// The default Env, remembering the byte range of every file it maps.
class MappingRecorder : public storage::FaultInjectionEnv {
 public:
  MappingRecorder() : FaultInjectionEnv(storage::Env::Default()) {}

  util::Result<std::shared_ptr<storage::MappedFile>> MapFile(
      const std::string& path) override {
    auto mapped = FaultInjectionEnv::MapFile(path);
    if (mapped.ok()) {
      ranges_.emplace_back(mapped.value()->data(), mapped.value()->size());
    }
    return mapped;
  }

  /// True when [begin, begin + bytes) lies inside one recorded mapping.
  bool Maps(const void* begin, uint64_t bytes) const {
    const auto* p = static_cast<const uint8_t*>(begin);
    for (const auto& [base, size] : ranges_) {
      if (p >= base && p + bytes <= base + size) return true;
    }
    return false;
  }

 private:
  std::vector<std::pair<const uint8_t*, size_t>> ranges_;
};

std::string FreshDir(const std::string& name) {
  storage::Env* env = storage::Env::Default();
  const std::string dir = ::testing::TempDir() + "/borrowed_rows_" + name;
  EXPECT_TRUE(env->CreateDir(dir).ok());
  if (auto listing = env->ListDir(dir); listing.ok()) {
    for (const std::string& file : listing.value()) {
      env->DeleteFile(dir + "/" + file);
    }
  }
  return dir;
}

std::string DirName(const std::string& spec) {
  return spec.substr(0, spec.find(':'));
}

std::vector<QuerySpec<Vector>> Queries(uint64_t seed) {
  util::Rng rng(seed);
  std::vector<QuerySpec<Vector>> batch;
  for (const Vector& point : dataset::UniformCube(6, 4, &rng)) {
    batch.push_back(QuerySpec<Vector>::Knn(point, 5));
    batch.push_back(QuerySpec<Vector>::Range(point, 0.3));
  }
  return batch;
}

/// Results and per-query distance counts of `got` equal `want`'s.
void ExpectSameAnswers(const QueryEngine<Vector>::BatchOutput& got,
                       const QueryEngine<Vector>::BatchOutput& want,
                       const std::string& what) {
  ASSERT_EQ(got.results.size(), want.results.size()) << what;
  for (size_t q = 0; q < want.results.size(); ++q) {
    ASSERT_TRUE(got.statuses[q].ok()) << what << ": " << got.statuses[q];
    EXPECT_EQ(got.results[q], want.results[q]) << what << " query " << q;
    EXPECT_EQ(got.per_query_distance_computations[q],
              want.per_query_distance_computations[q])
        << what << " query " << q;
  }
}

QueryEngine<Vector>::BatchOutput FreshAnswers(
    std::vector<std::vector<Vector>> slices, const std::string& spec,
    const std::vector<QuerySpec<Vector>>& batch) {
  auto fresh = ShardedDatabase<Vector>::BuildFromRegistrySliced(
      std::move(slices), L2(), spec, kSeed);
  EXPECT_TRUE(fresh.ok()) << fresh.status();
  QueryEngine<Vector> engine(1);
  return engine.RunBatch(fresh.value(), batch);
}

TEST(BorrowedRows, FreshShardsOwnTheirRowsRestoredShardsBorrowThem) {
  for (const std::string& spec : kSpecs) {
    const std::string dir = FreshDir("own_" + DirName(spec));
    util::Rng rng(501);
    auto built = Generation<Vector>::Build(dataset::UniformCube(90, 5, &rng),
                                           L2(), kShards, spec, kSeed, 1);
    ASSERT_TRUE(built.ok()) << built.status();
    const ShardedDatabase<Vector>& fresh = built.value()->database();
    for (size_t s = 0; s < kShards; ++s) {
      const index::PointStore<Vector>& points = fresh.shard(s).points();
      EXPECT_EQ(points.HeapBytes(), points.size() * 5 * sizeof(double))
          << spec << " shard " << s;
    }

    const std::string path = dir + "/generation.snap";
    ASSERT_TRUE(WriteGenerationSnapshot(storage::Env::Default(), path,
                                        *built.value())
                    .ok());
    MappingRecorder env;
    auto restored = ReadGenerationSnapshot<Vector>(&env, path, L2(), kShards,
                                                   spec, kSeed, 1);
    ASSERT_TRUE(restored.ok()) << restored.status();
    for (size_t s = 0; s < kShards; ++s) {
      const index::PointStore<Vector>& points =
          restored.value()->database().shard(s).points();
      ASSERT_GT(points.size(), 0u);
      EXPECT_EQ(points.HeapBytes(), 0u) << spec << " shard " << s;
      // Rows are 8 doubles apart (dim 5 padded to one cache line).
      EXPECT_TRUE(env.Maps(points.row(0), points.size() * 8 * sizeof(double)))
          << spec << " shard " << s;
      for (size_t i = 0; i < points.size(); ++i) {
        ASSERT_EQ(points.Point(i), fresh.shard(s).points().Point(i));
      }
    }
  }
}

TEST(BorrowedRows, OutliveTheReaderTheFileAndTheRestoredGeneration) {
  for (const std::string& spec : kSpecs) {
    storage::Env* env = storage::Env::Default();
    const std::string dir = FreshDir("outlive_" + DirName(spec));
    const std::string live_spec =
        spec + (spec.find(':') == std::string::npos ? ":" : ",") +
        "wal_dir=" + dir;
    util::Rng rng(502);
    const std::vector<Vector> data = dataset::UniformCube(240, 4, &rng);
    ASSERT_TRUE(
        LiveDatabase<Vector>::Open(data, L2(), kShards, live_spec, kSeed)
            .ok());

    // Restore: the reader is gone once Open returns, and then so is
    // the file's name.
    auto opened =
        LiveDatabase<Vector>::Open({}, L2(), kShards, live_spec, kSeed);
    ASSERT_TRUE(opened.ok()) << opened.status();
    std::unique_ptr<LiveDatabase<Vector>> live = std::move(opened).value();
    std::weak_ptr<const Generation<Vector>> restored =
        live->Pin().generation();
    for (size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(live->Pin().database().shard(s).points().HeapBytes(), 0u);
    }
    ASSERT_TRUE(env->DeleteFile(dir + "/" + SnapshotFileName(1)).ok());

    const std::vector<QuerySpec<Vector>> batch = Queries(503);
    auto fresh = ShardedDatabase<Vector>::BuildFromRegistry(
        data, L2(), kShards, spec, kSeed);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    QueryEngine<Vector> engine(1);
    ExpectSameAnswers(live->RunBatch(engine, live->Pin(), batch),
                      engine.RunBatch(fresh.value(), batch),
                      spec + " restored");

    // An incremental fold: one insert dirties one shard, the others are
    // shared — rows still borrowed from the unlinked file — and the
    // fold's own snapshot is written from those rows.
    ASSERT_TRUE(live->Insert({0.25, 0.25, 0.25, 0.25}).ok());
    ASSERT_TRUE(live->Compact().ok());
    EXPECT_EQ(live->last_compaction_stats().shards_shared, kShards - 1);
    EXPECT_TRUE(restored.expired()) << spec;
    size_t borrowed = 0;
    for (size_t s = 0; s < kShards; ++s) {
      if (live->Pin().database().shard(s).points().HeapBytes() == 0) {
        ++borrowed;
      }
    }
    EXPECT_EQ(borrowed, kShards - 1) << spec;
    const auto folded_slices = live->Pin().MaterializeSlices();
    const auto want = FreshAnswers(folded_slices, spec, batch);
    ExpectSameAnswers(live->RunBatch(engine, live->Pin(), batch), want,
                      spec + " folded");

    live.reset();
    auto reopened =
        LiveDatabase<Vector>::Open({}, L2(), kShards, live_spec, kSeed);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    LiveDatabase<Vector>& store = *reopened.value();
    ExpectSameAnswers(store.RunBatch(engine, store.Pin(), batch), want,
                      spec + " reopened");
  }
}

}  // namespace
}  // namespace engine
}  // namespace distperm
