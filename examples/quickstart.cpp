// Quickstart: build a permutation (distperm) index over random vectors,
// run a k-nearest-neighbour query, count the distinct distance
// permutations, and compare with the theoretical Euclidean maximum.
//
//   ./example_quickstart [--points=10000] [--dim=3] [--sites=8]

#include <iostream>

#include "core/euclidean_count.h"
#include "dataset/vector_gen.h"
#include "index/distperm_index.h"
#include "index/linear_scan.h"
#include "metric/lp.h"
#include "util/flags.h"
#include "util/rng.h"

using distperm::metric::Vector;

int main(int argc, char** argv) {
  auto flags = distperm::util::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n";
    return 1;
  }
  const size_t points =
      static_cast<size_t>(flags.value().GetInt("points", 10000));
  const size_t dim = static_cast<size_t>(flags.value().GetInt("dim", 3));
  const size_t sites = static_cast<size_t>(flags.value().GetInt("sites", 8));

  // 1. Generate a database: uniform random vectors in the unit cube.
  distperm::util::Rng rng(2024);
  auto data = distperm::dataset::UniformCube(points, dim, &rng);
  distperm::metric::Metric<Vector> l2(distperm::metric::LpMetric::L2());

  // 2. Build the permutation index: k random sites, one distance
  //    permutation per point, each distinct one stored once (one rank
  //    byte per site) and named by a 32-bit table id per point.
  distperm::index::DistPermIndex<Vector> index(data, l2, sites, &rng,
                                               /*fraction=*/0.1);
  std::cout << "built distperm index over " << points << " points, "
            << sites << " sites\n";
  std::cout << "index size: " << index.IndexBits() / 8 << " bytes ("
            << index.IndexBits() / points << " bits/point)\n";

  // 3. Query: 5 nearest neighbours of a random point (approximate — the
  //    index verifies the 10% of the database with the most similar
  //    permutations).
  Vector query(dim);
  for (auto& coord : query) coord = rng.NextDouble();
  distperm::index::SearchResponse response =
      index.Search(distperm::index::SearchRequest<Vector>::Knn(query, 5));
  std::cout << "\n5-NN of a random query (approximate):\n";
  for (const auto& hit : response.results) {
    std::cout << "  point " << hit.id << " at distance " << hit.distance
              << "\n";
  }
  std::cout << "metric evaluations used: "
            << response.stats.distance_computations << " (linear scan would "
            << points << ")\n";

  // 4. The paper's question: how many distinct permutations occur?
  size_t distinct = index.DistinctPermutationCount();
  distperm::core::EuclideanCounter counter;
  std::cout << "\ndistinct distance permutations in the database: "
            << distinct << "\n";
  std::cout << "theoretical Euclidean maximum N_{" << dim << ",2}(" << sites
            << ") = "
            << counter.Count(static_cast<int>(dim),
                             static_cast<int>(sites))
            << "\n";
  std::cout << "unrestricted permutations k! = "
            << distperm::util::BigUint::Factorial(sites) << "\n";
  return 0;
}
