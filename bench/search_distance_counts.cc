// Reproduces the search-efficiency context of Section 1: permutation
// indexes answer proximity queries with far fewer metric evaluations
// than a linear scan, comparable to (L)AESA, at a fraction of AESA's
// storage.  Reports metric evaluations per 10-NN query, index storage,
// and recall for the approximate permutation index.
//
// Every index is built from its registry spec string (--index=<spec>
// restricts the run to one entry), so adding a structure to the
// comparison is a string, not a compile-time change.
//
// Usage: search_distance_counts [--points=2000] [--queries=50]
//                               [--dim=8] [--seed=5] [--index=<spec>]

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "dataset/vector_gen.h"
#include "index/registry.h"
#include "metric/lp.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table_printer.h"

using distperm::index::SearchIndex;
using distperm::index::SearchRequest;
using distperm::index::SearchResponse;
using distperm::index::SearchResult;
using distperm::metric::LpMetric;
using distperm::metric::Metric;
using distperm::metric::Vector;
using distperm::util::Rng;
using distperm::util::TablePrinter;

int main(int argc, char** argv) {
  auto flags = distperm::util::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n";
    return 1;
  }
  const size_t points =
      static_cast<size_t>(flags.value().GetInt("points", 2000));
  const int queries = static_cast<int>(flags.value().GetInt("queries", 50));
  const size_t dim = static_cast<size_t>(flags.value().GetInt("dim", 8));
  const uint64_t seed =
      static_cast<uint64_t>(flags.value().GetInt("seed", 5));
  const size_t knn = 10;

  Rng rng(seed);
  auto data = distperm::dataset::UniformCube(points, dim, &rng);
  Metric<Vector> l2(LpMetric::L2());

  // The comparison set: one registry spec per row.  --index=<spec>
  // reduces the table to that single entry (plus the linear scan,
  // which always leads as the recall reference).
  std::vector<std::string> labels = {"linear-scan",
                                     "aesa",
                                     "iaesa:k=16",
                                     "laesa:k=16",
                                     "distperm:k=16,fraction=0.05",
                                     "distperm:k=16,fraction=0.2",
                                     "vp-tree",
                                     "gh-tree"};
  if (flags.value().Has("index")) {
    const std::string requested =
        flags.value().GetString("index", "linear-scan");
    labels = {"linear-scan"};
    if (requested != "linear-scan") labels.push_back(requested);
  }

  auto& registry = distperm::index::Registry<Vector>::Global();
  std::vector<std::unique_ptr<SearchIndex<Vector>>> indexes;
  for (const std::string& spec : labels) {
    Rng build_rng = rng.Split();
    auto built = registry.Create(spec, data, l2, &build_rng);
    if (!built.ok()) {
      std::cerr << "failed to build '" << spec << "': " << built.status()
                << "\n";
      return 1;
    }
    indexes.push_back(std::move(built).value());
  }

  // Ground truth for recall via the linear scan.
  auto& reference = *indexes[0];

  std::vector<uint64_t> cost(indexes.size(), 0);
  std::vector<double> recall(indexes.size(), 0.0);
  for (int q = 0; q < queries; ++q) {
    Vector query(dim);
    for (auto& coord : query) coord = rng.NextDouble();
    const auto request = SearchRequest<Vector>::Knn(query, knn);
    auto truth = reference.Search(request).results;
    for (size_t i = 0; i < indexes.size(); ++i) {
      SearchResponse response = indexes[i]->Search(request);
      const auto& result = response.results;
      cost[i] += response.stats.distance_computations;
      size_t hits = 0;
      for (const auto& t : truth) {
        for (const auto& r : result) {
          if (r.id == t.id) {
            ++hits;
            break;
          }
        }
      }
      recall[i] += static_cast<double>(hits) / static_cast<double>(knn);
    }
  }

  std::cout << "10-NN search cost (metric evaluations per query), n="
            << points << ", d=" << dim << ", " << queries << " queries\n\n";
  TablePrinter table;
  table.SetHeader({"index", "dist/query", "recall", "build dists",
                   "index bits/point"});
  for (size_t i = 0; i < indexes.size(); ++i) {
    char dist_s[32], recall_s[32];
    std::snprintf(dist_s, sizeof(dist_s), "%.1f",
                  static_cast<double>(cost[i]) / queries);
    std::snprintf(recall_s, sizeof(recall_s), "%.3f", recall[i] / queries);
    table.AddRow({labels[i], dist_s, recall_s,
                  std::to_string(indexes[i]->build_distance_computations()),
                  std::to_string(indexes[i]->IndexBits() / points)});
  }
  table.Print(std::cout);
  std::cout << "\nReading guide: AESA/iAESA use the fewest distances but "
               "store O(n^2); LAESA trades distances for O(nk) storage; "
               "the permutation index stores each distinct permutation "
               "once (one rank byte per site) plus a 32-bit table id per "
               "point (the paper shows ceil(lg N) bits would do) at the "
               "cost of approximate answers.\n";
  return 0;
}
