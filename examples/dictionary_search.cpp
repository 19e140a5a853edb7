// Similarity search in a dictionary under edit distance — the classic
// SISAP workload the paper's Table 2 instruments.  Builds several
// indexes over a synthetic dictionary through the runtime index
// registry (which is point-type generic: the same spec strings work
// over strings under Levenshtein as over vectors under L2), searches
// for near-matches of a misspelled word, and reports the metric
// evaluations each index spent.
//
//   ./example_dictionary_search [--words=20000] [--query=algorithnm]

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "dataset/string_gen.h"
#include "index/registry.h"
#include "metric/string_metrics.h"
#include "util/flags.h"
#include "util/rng.h"

using distperm::metric::Metric;
using distperm::util::Rng;

int main(int argc, char** argv) {
  auto flags = distperm::util::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n";
    return 1;
  }
  const size_t word_count =
      static_cast<size_t>(flags.value().GetInt("words", 20000));

  // Build a synthetic dictionary.
  distperm::dataset::LanguageProfile profile;
  profile.name = "Demoish";
  profile.mean_length = 8.0;
  Rng rng(11);
  auto words =
      distperm::dataset::MarkovWordGenerator(profile).Dictionary(word_count,
                                                                 &rng);
  // Query: a word from the dictionary with two random edits, or a flag.
  std::string query = flags.value().GetString("query", "");
  if (query.empty()) {
    query = words[rng.NextBounded(words.size())];
    std::string original = query;
    for (int e = 0; e < 2; ++e) {
      size_t pos = rng.NextBounded(query.size());
      query[pos] = static_cast<char>('a' + rng.NextBounded(26));
    }
    std::cout << "query: \"" << query << "\" (corrupted from \"" << original
              << "\")\n";
  } else {
    std::cout << "query: \"" << query << "\"\n";
  }

  Metric<std::string> lev((distperm::metric::LevenshteinMetric()));

  // One registry spec per index.  The linear scan leads: it supplies
  // the exact ground truth the others are scored against.
  const std::vector<std::string> specs = {
      "linear-scan", "laesa:k=12", "vp-tree",
      "distperm:k=12,fraction=0.05"};
  auto& registry = distperm::index::Registry<std::string>::Global();
  std::vector<std::unique_ptr<distperm::index::SearchIndex<std::string>>>
      indexes;
  for (const std::string& spec : specs) {
    Rng build_rng = rng.Split();
    auto built = registry.Create(spec, words, lev, &build_rng);
    if (!built.ok()) {
      std::cerr << "failed to build '" << spec << "': " << built.status()
                << "\n";
      return 1;
    }
    indexes.push_back(std::move(built).value());
  }

  std::cout << "\nnearest 5 dictionary words (exact, via linear scan):\n";
  const auto knn = distperm::index::SearchRequest<std::string>::Knn(query, 5);
  auto truth = indexes.front()->Search(knn).results;
  for (const auto& hit : truth) {
    std::cout << "  " << words[hit.id] << "  (distance " << hit.distance
              << ")\n";
  }

  std::cout << "\nmetric evaluations per index for the same query:\n";
  for (size_t i = 0; i < indexes.size(); ++i) {
    auto& index = *indexes[i];
    distperm::index::SearchResponse response = index.Search(knn);
    size_t overlap = 0;
    for (const auto& t : truth) {
      for (const auto& h : response.results) overlap += h.id == t.id;
    }
    std::cout << "  " << specs[i] << ": "
              << response.stats.distance_computations
              << " distances, " << overlap << "/5 of the true neighbours, "
              << index.IndexBits() / (8 * words.size())
              << " bytes/word index overhead\n";
  }
  std::cout << "\nrange query: all words within edit distance 2 "
               "(vp-tree)\n";
  const auto within_two =
      distperm::index::SearchRequest<std::string>::Range(query, 2.0);
  auto nearby = indexes[2]->Search(within_two).results;
  for (const auto& hit : nearby) {
    std::cout << "  " << words[hit.id] << " (" << hit.distance << ")\n";
  }
  return 0;
}
