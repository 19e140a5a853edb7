// Ablation: truncated permutation prefixes vs full permutations.
//
// Practical permutation indexes often store only each point's
// `prefix_length` closest sites.  This sweep measures what truncation
// costs: distinct-permutation count (information), bits per point in
// the paper's packed encoding (m ceil(lg k) for a prefix, ceil(lg k!)
// for the full permutation), and 10-NN recall at a fixed verification
// fraction.  It
// complements the paper's storage analysis — the full permutation's
// ceil(lg k!) bits are already small, and the Euclidean bound says most
// of those bits are redundant anyway.
//
// Usage: ablation_prefix_length [--points=20000] [--sites=16]
//                               [--queries=40] [--seed=6]

#include <cstdio>
#include <iostream>
#include <vector>

#include "dataset/vector_gen.h"
#include "index/distperm_index.h"
#include "index/linear_scan.h"
#include "metric/lp.h"
#include "util/bitpack.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table_printer.h"

using distperm::index::DistPermIndex;
using distperm::index::LinearScanIndex;
using distperm::index::SearchRequest;
using distperm::index::SearchResponse;
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
      static_cast<size_t>(flags.value().GetInt("points", 20000));
  const size_t sites =
      static_cast<size_t>(flags.value().GetInt("sites", 16));
  const int queries =
      static_cast<int>(flags.value().GetInt("queries", 40));
  const uint64_t seed =
      static_cast<uint64_t>(flags.value().GetInt("seed", 6));

  Rng rng(seed);
  auto data = distperm::dataset::UniformCube(points, 4, &rng);
  Metric<Vector> l2(LpMetric::L2());
  LinearScanIndex<Vector> reference(data, l2);

  std::cout << "Ablation: permutation prefix length (d=4, k=" << sites
            << ", n=" << points << ", verify fraction 0.1)\n\n";
  TablePrinter table;
  table.SetHeader({"prefix m", "distinct perms", "bits/point",
                   "10-NN recall", "dist/query"});

  std::vector<size_t> prefix_lengths = {2, 3, 4, 6, 8, 12, sites};
  for (size_t m : prefix_lengths) {
    Rng site_rng(seed + 100);  // same sites for every m
    DistPermIndex<Vector> index(data, l2, sites, &site_rng, 0.1, m);
    double recall = 0.0;
    uint64_t cost = 0;
    Rng query_rng(seed + 200);
    for (int q = 0; q < queries; ++q) {
      Vector query(4);
      for (auto& coord : query) coord = query_rng.NextDouble();
      const auto request = SearchRequest<Vector>::Knn(query, 10);
      auto truth = reference.Search(request).results;
      SearchResponse response = index.Search(request);
      const auto& result = response.results;
      cost += response.stats.distance_computations;
      size_t hits = 0;
      for (const auto& t : truth) {
        for (const auto& r : result) {
          if (r.id == t.id) {
            ++hits;
            break;
          }
        }
      }
      recall += static_cast<double>(hits) / 10.0;
    }
    char recall_s[32], cost_s[32];
    std::snprintf(recall_s, sizeof(recall_s), "%.3f", recall / queries);
    std::snprintf(cost_s, sizeof(cost_s), "%.1f",
                  static_cast<double>(cost) / queries);
    const size_t model_bits =
        m == sites ? distperm::util::BitsForFactorial(static_cast<int>(sites))
                   : m * distperm::util::BitsFor(sites);
    table.AddRow({m == sites ? "full" : std::to_string(m),
                  std::to_string(index.DistinctPermutationCount()),
                  std::to_string(model_bits), recall_s,
                  cost_s});
    std::cerr << "prefix " << m << " done\n";
  }
  table.Print(std::cout);
  std::cout << "\nReading guide: recall climbs quickly with the prefix "
               "length and saturates well before the full permutation — "
               "consistent with the paper's finding that most of the "
               "permutation's lg k! bits carry little information in low "
               "dimensions.\n";
  return 0;
}
