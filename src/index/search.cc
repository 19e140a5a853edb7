#include "index/search.h"

namespace distperm {
namespace index {

const char* SearchModeName(SearchMode mode) {
  switch (mode) {
    case SearchMode::kKnn:
      return "knn";
    case SearchMode::kRange:
      return "range";
    case SearchMode::kKnnWithinRadius:
      return "knn-within-radius";
  }
  return "unknown";
}

void SortResults(std::vector<SearchResult>* results) {
  std::sort(results->begin(), results->end(),
            [](const SearchResult& a, const SearchResult& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.id < b.id;
            });
}

void MergeDeltaResults(std::vector<SearchResult>* base,
                       std::vector<SearchResult> delta_hits,
                       SearchMode mode, size_t k) {
  base->insert(base->end(), delta_hits.begin(), delta_hits.end());
  SortResults(base);
  if (mode != SearchMode::kRange && base->size() > k) base->resize(k);
}

void KnnCollector::Offer(size_t id, double distance) {
  if (heap_.size() < k_) {
    heap_.push_back({distance, id});
    std::push_heap(heap_.begin(), heap_.end());
    return;
  }
  if (k_ == 0) return;
  Entry candidate{distance, id};
  if (candidate < heap_.front()) {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.back() = candidate;
    std::push_heap(heap_.begin(), heap_.end());
  }
}

double KnnCollector::Radius() const {
  if (k_ == 0) return -std::numeric_limits<double>::infinity();
  if (heap_.size() < k_) return std::numeric_limits<double>::infinity();
  return heap_.front().distance;
}

std::vector<SearchResult> KnnCollector::Take() {
  std::vector<SearchResult> results;
  results.reserve(heap_.size());
  for (const Entry& entry : heap_) {
    results.push_back({entry.id, entry.distance});
  }
  heap_.clear();
  SortResults(&results);
  return results;
}

std::vector<SearchResult> SearchContext::TakeResults() {
  if (mode_ == SearchMode::kRange) {
    SortResults(&range_results_);
    return std::move(range_results_);
  }
  return collector_->Take();
}

}  // namespace index
}  // namespace distperm
