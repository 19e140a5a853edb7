// Runtime index registry tests: every registered name round-trips
// (create -> name() -> re-create), registry-built indexes answer
// exactly like directly constructed ones, spec parsing rejects every
// malformed form with a Status (never UB or death), and
// ShardedDatabase::BuildFromRegistry wires specs into the engine.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dataset/string_gen.h"
#include "dataset/vector_gen.h"
#include "engine/query_engine.h"
#include "engine/sharded_database.h"
#include "index/laesa.h"
#include "index/linear_scan.h"
#include "index/registry.h"
#include "index/vp_tree.h"
#include "metric/lp.h"
#include "metric/string_metrics.h"
#include "util/rng.h"

namespace distperm {
namespace index {
namespace {

using metric::Vector;

metric::Metric<Vector> L2() { return metric::LpMetric::L2(); }

TEST(Registry, RegistersTheSevenStructures) {
  const auto names = Registry<Vector>::Global().Names();
  for (const char* required :
       {"linear-scan", "aesa", "iaesa", "laesa", "vp-tree", "gh-tree",
        "distperm", "distperm-prefix"}) {
    EXPECT_TRUE(Registry<Vector>::Global().Has(required)) << required;
  }
  EXPECT_GE(names.size(), 8u);
}

// Every registered name must build with defaults, report a name() that
// is itself a valid spec, and re-create under that name.
TEST(Registry, EveryNameRoundTrips) {
  util::Rng data_rng(31);
  auto data = dataset::UniformCube(150, 3, &data_rng);
  auto& registry = Registry<Vector>::Global();
  for (const std::string& name : registry.Names()) {
    util::Rng rng(900);
    auto first = registry.Create(name, data, L2(), &rng);
    ASSERT_TRUE(first.ok()) << name << ": " << first.status();
    const std::string reported = first.value()->name();
    util::Rng rng_again(900);
    auto second = registry.Create(reported, data, L2(), &rng_again);
    ASSERT_TRUE(second.ok())
        << name << " -> name() '" << reported << "': " << second.status();
    EXPECT_EQ(second.value()->name(), reported) << name;
    // Round-tripped indexes answer queries.
    Vector query = {0.5, 0.5, 0.5};
    auto response = second.value()->Search(
        SearchRequest<Vector>::Knn(query, 3));
    EXPECT_TRUE(response.status.ok()) << reported;
    EXPECT_EQ(response.results.size(), 3u) << reported;
  }
}

// A registry-built index is the same object a direct constructor call
// builds: same RNG stream in, bit-identical answers out.
TEST(Registry, CreateMatchesDirectConstruction) {
  util::Rng data_rng(32);
  auto data = dataset::UniformCube(200, 3, &data_rng);
  auto& registry = Registry<Vector>::Global();

  util::Rng registry_rng(77);
  auto vp_registry = registry.Create("vp-tree", data, L2(), &registry_rng);
  ASSERT_TRUE(vp_registry.ok());
  util::Rng direct_rng(77);
  VpTreeIndex<Vector> vp_direct(data, L2(), &direct_rng);

  util::Rng laesa_registry_rng(78);
  auto laesa_registry =
      registry.Create("laesa:k=9", data, L2(), &laesa_registry_rng);
  ASSERT_TRUE(laesa_registry.ok());
  util::Rng laesa_direct_rng(78);
  LaesaIndex<Vector> laesa_direct(data, L2(), 9, &laesa_direct_rng);

  for (int q = 0; q < 10; ++q) {
    Vector query = {data_rng.NextDouble(), data_rng.NextDouble(),
                    data_rng.NextDouble()};
    const auto knn = SearchRequest<Vector>::Knn(query, 4);
    const auto range = SearchRequest<Vector>::Range(query, 0.3);
    EXPECT_EQ(vp_registry.value()->Search(knn).results,
              vp_direct.Search(knn).results);
    EXPECT_EQ(laesa_registry.value()->Search(range).results,
              laesa_direct.Search(range).results);
  }
  EXPECT_EQ(laesa_registry.value()->IndexBits(), laesa_direct.IndexBits());
}

TEST(Registry, OptionsSelectVariants) {
  util::Rng data_rng(33);
  auto data = dataset::UniformCube(120, 2, &data_rng);
  auto& registry = Registry<Vector>::Global();

  util::Rng r1(1);
  auto full = registry.Create("distperm:k=6,fraction=0.5", data, L2(), &r1);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value()->name(), "distperm");

  util::Rng r2(2);
  auto prefix =
      registry.Create("distperm:k=6,prefix=3", data, L2(), &r2);
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(prefix.value()->name(), "distperm-prefix");

  util::Rng r3(3);
  auto prefix_name = registry.Create("distperm-prefix", data, L2(), &r3);
  ASSERT_TRUE(prefix_name.ok());
  EXPECT_EQ(prefix_name.value()->name(), "distperm-prefix");
}

TEST(Registry, UnknownNameIsNotFound) {
  util::Rng rng(34);
  auto data = dataset::UniformCube(30, 2, &rng);
  auto result =
      Registry<Vector>::Global().Create("kd-tree", data, L2(), &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
  // The message lists what is registered, so a typo is self-diagnosing.
  EXPECT_NE(result.status().message().find("linear-scan"),
            std::string::npos)
      << result.status();
}

TEST(Registry, MalformedSpecsAreInvalidArgument) {
  util::Rng data_rng(35);
  auto data = dataset::UniformCube(40, 2, &data_rng);
  auto& registry = Registry<Vector>::Global();
  const char* malformed[] = {
      "",                      // empty name
      ":k=3",                  // empty name with options
      "laesa:",                // dangling colon
      "laesa:k",               // not key=value
      "laesa:k=",              // empty value
      "laesa:=4",              // empty key
      "laesa:k=4,",            // trailing comma
      "laesa:k=abc",           // non-numeric
      "laesa:k=-3",            // negative count
      "laesa:k=4,k=5",         // duplicate key
      "laesa:pivots=4",        // unknown option key
      "LAESA",                 // invalid name character
      "laesa:K=4",             // invalid key character
      "distperm:fraction=0",   // fraction out of (0, 1]
      "distperm:fraction=1.5", // fraction out of (0, 1]
      "distperm:fraction=x",   // unparseable double
      "distperm:k=0",          // zero sites
      "distperm:k=25",         // above the rank-codec limit (20)
      "distperm:k=6,prefix=6", // prefix must be < k
      "distperm-prefix:k=6,prefix=0",  // prefix must be >= 1
      "iaesa:k=0",
      "linear-scan:k=3",       // option on an option-free index
  };
  for (const char* spec : malformed) {
    util::Rng rng(36);
    auto result = registry.Create(spec, data, L2(), &rng);
    ASSERT_FALSE(result.ok()) << "'" << spec << "' unexpectedly built";
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument)
        << "'" << spec << "': " << result.status();
  }
}

TEST(Registry, EmptyAndTinyDatabases) {
  auto& registry = Registry<Vector>::Global();
  std::vector<Vector> empty;
  util::Rng rng(37);
  // Structure-free indexes build over nothing and answer with nothing.
  for (const char* spec : {"linear-scan", "aesa", "vp-tree", "gh-tree",
                           "laesa"}) {
    util::Rng build_rng(38);
    auto built = registry.Create(spec, empty, L2(), &build_rng);
    ASSERT_TRUE(built.ok()) << spec << ": " << built.status();
    auto response =
        built.value()->Search(SearchRequest<Vector>::Knn({0.5, 0.5}, 3));
    EXPECT_TRUE(response.status.ok()) << spec;
    EXPECT_TRUE(response.results.empty()) << spec;
  }
  // Site-based indexes cannot choose sites from an empty database.
  for (const char* spec : {"distperm", "iaesa", "distperm-prefix"}) {
    util::Rng build_rng(39);
    auto built = registry.Create(spec, empty, L2(), &build_rng);
    ASSERT_FALSE(built.ok()) << spec;
    EXPECT_EQ(built.status().code(), util::StatusCode::kInvalidArgument);
  }
  // Counts clamp to tiny databases instead of CHECK-failing.
  std::vector<Vector> three = {{0.1, 0.1}, {0.5, 0.5}, {0.9, 0.9}};
  for (const char* spec :
       {"laesa:k=8", "distperm:k=16,fraction=1.0", "iaesa:k=12"}) {
    util::Rng build_rng(40);
    auto built = registry.Create(spec, three, L2(), &build_rng);
    ASSERT_TRUE(built.ok()) << spec << ": " << built.status();
    auto response = built.value()->Search(
        SearchRequest<Vector>::Range({0.5, 0.5}, 10.0));
    EXPECT_TRUE(response.status.ok());
    EXPECT_EQ(response.results.size(), 3u) << spec;
  }
  // Explicit prefixes valid for the requested k also clamp with the
  // sites on small shards instead of erroring.
  for (const char* spec :
       {"distperm:k=8,prefix=4", "distperm-prefix:k=8,prefix=5"}) {
    util::Rng build_rng(41);
    auto built = registry.Create(spec, three, L2(), &build_rng);
    ASSERT_TRUE(built.ok()) << spec << ": " << built.status();
  }
  auto tiny_shards = engine::ShardedDatabase<Vector>::BuildFromRegistry(
      dataset::UniformCube(6, 2, &rng), L2(), 3, "distperm:k=8,prefix=4",
      9);
  EXPECT_TRUE(tiny_shards.ok()) << tiny_shards.status();
}

// The registry is point-type generic: the same specs build indexes
// over strings under Levenshtein.
TEST(Registry, WorksOverStringSpaces) {
  util::Rng rng(41);
  auto words = dataset::DnaSequences(80, 4, 6, 12, 0.1, &rng);
  metric::Metric<std::string> lev((metric::LevenshteinMetric()));
  LinearScanIndex<std::string> reference(words, lev);
  auto& registry = Registry<std::string>::Global();
  for (const char* spec : {"vp-tree", "laesa:k=5", "gh-tree", "aesa"}) {
    util::Rng build_rng(42);
    auto built = registry.Create(spec, words, lev, &build_rng);
    ASSERT_TRUE(built.ok()) << spec << ": " << built.status();
    for (int q = 0; q < 5; ++q) {
      const std::string& query = words[rng.NextBounded(words.size())];
      const auto request = SearchRequest<std::string>::Knn(query, 4);
      EXPECT_EQ(built.value()->Search(request).results,
                reference.Search(request).results)
          << spec;
    }
  }
}

// BuildFromRegistry: spec-selected sharded databases serve through the
// engine with exactly the unsharded linear-scan answers.
TEST(Registry, ShardedDatabaseBuildFromRegistry) {
  util::Rng rng(43);
  auto data = dataset::UniformCube(260, 3, &rng);
  std::vector<engine::QuerySpec<Vector>> batch;
  for (int q = 0; q < 8; ++q) {
    Vector point = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    batch.push_back(q % 2 == 0
                        ? engine::QuerySpec<Vector>::Knn(point, 6)
                        : engine::QuerySpec<Vector>::Range(point, 0.3));
  }
  LinearScanIndex<Vector> reference(data, L2());
  std::vector<std::vector<SearchResult>> truth;
  for (const auto& spec : batch) {
    truth.push_back(reference.Search(spec).results);
  }

  for (const char* spec : {"linear-scan", "vp-tree", "laesa:k=6"}) {
    for (size_t shards : {1u, 3u, 5u}) {
      auto db = engine::ShardedDatabase<Vector>::BuildFromRegistry(
          data, L2(), shards, spec, 500);
      ASSERT_TRUE(db.ok()) << spec << ": " << db.status();
      EXPECT_EQ(db.value().shard_count(), shards);
      engine::QueryEngine<Vector> engine(3);
      auto out = engine.RunBatch(db.value(), batch);
      EXPECT_TRUE(out.all_ok());
      for (size_t q = 0; q < batch.size(); ++q) {
        EXPECT_EQ(out.results[q], truth[q])
            << spec << " shards=" << shards << " query=" << q;
      }
    }
  }

  // Determinism: the same (data, spec, shards, seed) builds a database
  // that answers identically.
  auto a = engine::ShardedDatabase<Vector>::BuildFromRegistry(
      data, L2(), 4, "vp-tree", 7);
  auto b = engine::ShardedDatabase<Vector>::BuildFromRegistry(
      data, L2(), 4, "vp-tree", 7);
  ASSERT_TRUE(a.ok() && b.ok());
  engine::QueryEngine<Vector> engine(2);
  auto ra = engine.RunBatch(a.value(), batch);
  auto rb = engine.RunBatch(b.value(), batch);
  EXPECT_EQ(ra.results, rb.results);
  EXPECT_EQ(ra.per_query_distance_computations,
            rb.per_query_distance_computations);

  // Errors propagate with the failing shard named.
  auto bad = engine::ShardedDatabase<Vector>::BuildFromRegistry(
      data, L2(), 2, "laesa:k=oops", 1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("shard 0"), std::string::npos);

  auto zero_shards = engine::ShardedDatabase<Vector>::BuildFromRegistry(
      data, L2(), 0, "linear-scan", 1);
  ASSERT_FALSE(zero_shards.ok());
}

}  // namespace
}  // namespace index
}  // namespace distperm
