// Runtime index selection demo: build any registered index over a
// random vector database by spec string, serve a batch of
// SearchRequests through the engine, and report results, cost, and
// truncation.  CI runs this binary once per registry entry, so a
// factory that stops building (or an index that stops answering) fails
// the pipeline rather than a user.
//
//   ./example_search_cli --list
//   ./example_search_cli --index=laesa:k=16 [--points=2000] [--dim=4]
//       [--shards=2] [--threads=2] [--queries=8]
//       [--mode=knn|range|knn-within-radius] [--k=5] [--radius=0.25]
//       [--budget=0] [--fraction=0] [--seed=42] [--trace]
//
// --budget caps the metric evaluations per (query, shard) task
// (truncated queries are flagged); --fraction overrides the distperm
// verification fraction per request; --trace prints each query's
// per-shard span table (timing, distances, pruning bound) after the
// results — tracing observes only, so results and counts are
// unchanged.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "dataset/vector_gen.h"
#include "engine/batch_stats.h"
#include "engine/query.h"
#include "engine/query_engine.h"
#include "engine/sharded_database.h"
#include "index/linear_scan.h"
#include "index/registry.h"
#include "metric/lp.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table_printer.h"

using distperm::engine::QueryEngine;
using distperm::engine::QuerySpec;
using distperm::engine::ShardedDatabase;
using distperm::index::Registry;
using distperm::index::SearchMode;
using distperm::metric::Vector;

int main(int argc, char** argv) {
  auto flags = distperm::util::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n";
    return 1;
  }
  if (flags.value().GetBool("list", false)) {
    for (const std::string& name : Registry<Vector>::Global().Names()) {
      std::cout << name << "\n";
    }
    return 0;
  }

  const std::string spec = flags.value().GetString("index", "linear-scan");
  const size_t points =
      static_cast<size_t>(flags.value().GetInt("points", 2000));
  const size_t dim = static_cast<size_t>(flags.value().GetInt("dim", 4));
  const size_t shards =
      static_cast<size_t>(flags.value().GetInt("shards", 2));
  const size_t threads =
      static_cast<size_t>(flags.value().GetInt("threads", 2));
  const size_t queries =
      static_cast<size_t>(flags.value().GetInt("queries", 8));
  const std::string mode_name =
      flags.value().GetString("mode", "knn");
  const size_t k = static_cast<size_t>(flags.value().GetInt("k", 5));
  const double radius = flags.value().GetDouble("radius", 0.25);
  const uint64_t budget =
      static_cast<uint64_t>(flags.value().GetInt("budget", 0));
  const double fraction = flags.value().GetDouble("fraction", 0.0);
  const uint64_t seed =
      static_cast<uint64_t>(flags.value().GetInt("seed", 42));
  const bool trace = flags.value().GetBool("trace", false);

  SearchMode mode;
  if (mode_name == "knn") {
    mode = SearchMode::kKnn;
  } else if (mode_name == "range") {
    mode = SearchMode::kRange;
  } else if (mode_name == "knn-within-radius") {
    mode = SearchMode::kKnnWithinRadius;
  } else {
    std::cerr << "unknown --mode '" << mode_name
              << "' (knn | range | knn-within-radius)\n";
    return 1;
  }

  distperm::util::Rng rng(seed);
  auto data = distperm::dataset::UniformCube(points, dim, &rng);
  distperm::metric::Metric<Vector> l2(distperm::metric::LpMetric::L2());

  auto db = ShardedDatabase<Vector>::BuildFromRegistry(data, l2, shards,
                                                       spec, seed);
  if (!db.ok()) {
    std::cerr << "failed to build '" << spec << "': " << db.status()
              << "\n";
    return 1;
  }
  std::cout << "index " << db.value().index_name() << " (spec '" << spec
            << "'): " << db.value().size() << " points, "
            << db.value().shard_count() << " shards, "
            << db.value().build_distance_computations()
            << " build distances, "
            << db.value().IndexBits() / 8 << " bytes auxiliary storage\n";

  std::vector<QuerySpec<Vector>> batch;
  for (size_t q = 0; q < queries; ++q) {
    Vector point(dim);
    for (auto& coordinate : point) coordinate = rng.NextDouble();
    QuerySpec<Vector> request =
        mode == SearchMode::kKnn
            ? QuerySpec<Vector>::Knn(point, k)
            : mode == SearchMode::kRange
                  ? QuerySpec<Vector>::Range(point, radius)
                  : QuerySpec<Vector>::KnnWithinRadius(point, k, radius);
    request.WithDistanceBudget(budget)
        .WithCandidateFraction(fraction)
        .WithTrace(trace);
    batch.push_back(std::move(request));
  }

  QueryEngine<Vector> engine(threads);
  auto out = engine.RunBatch(db.value(), batch);

  distperm::util::TablePrinter table;
  table.SetHeader({"query", "status", "results", "nearest", "distances",
                   "truncated"});
  bool all_ok = true;
  for (size_t q = 0; q < batch.size(); ++q) {
    all_ok = all_ok && out.statuses[q].ok();
    std::string nearest =
        out.results[q].empty()
            ? "-"
            : "#" + std::to_string(out.results[q].front().id);
    table.AddRow({std::to_string(q), out.statuses[q].ToString(),
                  std::to_string(out.results[q].size()), nearest,
                  std::to_string(out.per_query_distance_computations[q]),
                  out.truncated[q] ? "yes" : "no"});
  }
  table.Print(std::cout);
  std::cout << "batch: " << out.stats.distance_computations
            << " metric evaluations over " << out.stats.wall_seconds * 1e3
            << " ms on " << out.stats.thread_count << " threads\n";

  if (trace) {
    const auto us = [](double seconds) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.1f", seconds * 1e6);
      return std::string(buffer);
    };
    const auto bound = [](double b) {
      if (std::isinf(b)) return std::string("inf");
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.4f", b);
      return std::string(buffer);
    };
    std::cout << "\nper-shard spans (times relative to batch start; span "
                 "distances sum to each query's total):\n";
    distperm::util::TablePrinter spans;
    spans.SetHeader({"query", "span", "start us", "stop us", "distances",
                     "bound"});
    for (size_t q = 0; q < batch.size(); ++q) {
      for (const auto& span : out.traces[q].spans) {
        spans.AddRow({std::to_string(q),
                      span.delta ? "delta"
                                 : "shard " + std::to_string(span.shard),
                      us(span.start_seconds), us(span.stop_seconds),
                      std::to_string(span.distance_computations),
                      bound(span.bound)});
      }
    }
    spans.Print(std::cout);
  }

  // Recall vs the exact linear scan (1.000 for exact indexes when no
  // budget truncates the search).
  distperm::index::LinearScanIndex<Vector> scan(data, l2);
  std::vector<std::vector<distperm::index::SearchResult>> truth;
  for (const auto& request : batch) {
    QuerySpec<Vector> reference = request;
    reference.WithDistanceBudget(0).WithCandidateFraction(0.0);
    auto response = scan.Search(reference);
    if (!response.status.ok()) {
      std::cerr << "reference scan rejected request: " << response.status
                << "\n";
      return 1;
    }
    truth.push_back(std::move(response.results));
  }
  std::cout << "recall vs exact linear scan: "
            << distperm::engine::AverageRecall(out.results, truth) << "\n";

  if (!all_ok) {
    std::cerr << "some queries failed\n";
    return 1;
  }
  return 0;
}
