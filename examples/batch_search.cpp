// Batch search demo: shard a database across indexes chosen at runtime
// from the index registry, serve a mixed kNN/range batch through the
// concurrent QueryEngine, and compare the merged answers and cost
// accounting against an exact linear scan.
//
//   ./example_batch_search [--index=vp-tree] [--points=20000] [--dim=4]
//                          [--shards=4] [--threads=4] [--batch=32]
//
// --index accepts any registry spec, e.g. "laesa:k=16" or
// "distperm:k=8,fraction=0.2" (see example_search_cli --list).

#include <iostream>
#include <memory>
#include <string>

#include "dataset/vector_gen.h"
#include "engine/batch_stats.h"
#include "engine/query.h"
#include "engine/query_engine.h"
#include "engine/sharded_database.h"
#include "index/linear_scan.h"
#include "metric/lp.h"
#include "util/flags.h"
#include "util/rng.h"

using distperm::engine::QueryEngine;
using distperm::engine::QuerySpec;
using distperm::engine::ShardedDatabase;
using distperm::metric::Vector;

int main(int argc, char** argv) {
  auto flags = distperm::util::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n";
    return 1;
  }
  const std::string spec = flags.value().GetString("index", "vp-tree");
  const size_t points =
      static_cast<size_t>(flags.value().GetInt("points", 20000));
  const size_t dim = static_cast<size_t>(flags.value().GetInt("dim", 4));
  const size_t shards =
      static_cast<size_t>(flags.value().GetInt("shards", 4));
  const size_t threads =
      static_cast<size_t>(flags.value().GetInt("threads", 4));
  const size_t batch_size =
      static_cast<size_t>(flags.value().GetInt("batch", 32));
  if (batch_size < 2) {
    std::cerr << "--batch must be at least 2 (one kNN + one range query)\n";
    return 1;
  }

  // 1. Generate a database and shard it: one registry-built index per
  //    contiguous slice, each with its own deterministic RNG stream.
  distperm::util::Rng rng(2026);
  auto data = distperm::dataset::UniformCube(points, dim, &rng);
  distperm::metric::Metric<Vector> l2(distperm::metric::LpMetric::L2());
  auto db = ShardedDatabase<Vector>::BuildFromRegistry(data, l2, shards,
                                                       spec, 9000);
  if (!db.ok()) {
    std::cerr << "failed to build '" << spec << "': " << db.status()
              << "\n";
    return 1;
  }
  std::cout << "sharded database: " << db.value().size() << " points over "
            << db.value().shard_count() << " " << db.value().index_name()
            << " shards (" << db.value().build_distance_computations()
            << " build distances)\n";

  // 2. Assemble a mixed batch: half 10-NN queries, half range queries.
  std::vector<QuerySpec<Vector>> batch;
  for (size_t q = 0; q < batch_size; ++q) {
    Vector point(dim);
    for (auto& coord : point) coord = rng.NextDouble();
    if (q % 2 == 0) {
      batch.push_back(QuerySpec<Vector>::Knn(point, 10));
    } else {
      batch.push_back(QuerySpec<Vector>::Range(point, 0.1));
    }
  }

  // 3. Serve the batch on a worker pool.
  QueryEngine<Vector> engine(threads);
  auto out = engine.RunBatch(db.value(), batch);
  if (!out.all_ok()) {
    std::cerr << "some queries were rejected\n";
    return 1;
  }
  std::cout << "batch of " << out.stats.query_count << " queries on "
            << out.stats.thread_count << " threads: "
            << out.stats.wall_seconds * 1e3 << " ms wall, "
            << out.stats.distance_computations << " metric evaluations ("
            << out.stats.distance_computations / batch.size()
            << "/query; a linear scan would use " << points << ")\n";
  std::cout << "latency ms: min " << out.stats.latency.min_seconds * 1e3
            << ", mean " << out.stats.latency.mean_seconds * 1e3 << ", max "
            << out.stats.latency.max_seconds * 1e3 << "\n";

  std::cout << "\nfirst kNN query results (global ids):\n";
  for (const auto& hit : out.results[0]) {
    std::cout << "  point " << hit.id << " at distance " << hit.distance
              << "\n";
  }
  std::cout << "first range query: " << out.results[1].size()
            << " points within radius 0.1\n";

  // 4. Verify against the exact single-index answer.
  distperm::index::LinearScanIndex<Vector> scan(data, l2);
  std::vector<std::vector<distperm::index::SearchResult>> truth;
  for (const auto& request : batch) {
    truth.push_back(scan.Search(request).results);
  }
  double recall = distperm::engine::AverageRecall(out.results, truth);
  std::cout << "\nrecall vs exact linear scan: " << recall
            << (out.results == truth ? " (results identical)" : "") << "\n";
  return 0;
}
