// Vantage-point tree (Uhlmann 1991; Yianilos 1993).
//
// One of the tree-structured baselines the paper's introduction cites:
// each node holds a vantage point and the median distance to it; the
// inside/outside children are pruned with the triangle inequality.

#ifndef DISTPERM_INDEX_VP_TREE_H_
#define DISTPERM_INDEX_VP_TREE_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "index/index.h"
#include "util/rng.h"

namespace distperm {
namespace index {

/// Classic VP-tree with exact range and kNN queries.
template <typename P>
class VpTreeIndex : public SearchIndex<P> {
 public:
  using typename SearchIndex<P>::QueryContext;
  using SearchIndex<P>::points_;

  VpTreeIndex(std::vector<P> data, metric::Metric<P> metric,
              util::Rng* rng)
      : VpTreeIndex(PointStore<P>(std::move(data), std::move(metric)), rng) {}
  VpTreeIndex(PointStore<P> points, util::Rng* rng)
      : SearchIndex<P>(std::move(points)) {
    std::vector<size_t> ids(points_.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    root_ = Build(ids, rng);
  }

  std::string name() const override { return "vp-tree"; }

  uint64_t IndexBits() const override {
    // One vantage id, one radius, two child pointers per node.
    return node_count_ * (sizeof(size_t) + sizeof(double) +
                          2 * sizeof(void*)) * 8;
  }

 protected:
  void SearchImpl(const SearchRequest<P>&, const QueryContext& query,
                  SearchContext* context) const override {
    SearchNode(root_.get(), query, context);
  }

 private:
  struct Node {
    size_t vantage;
    double median = 0.0;
    std::unique_ptr<Node> inside;
    std::unique_ptr<Node> outside;
  };

  std::unique_ptr<Node> Build(std::vector<size_t>& ids, util::Rng* rng) {
    if (ids.empty()) return nullptr;
    ++node_count_;
    auto node = std::make_unique<Node>();
    size_t pick = static_cast<size_t>(rng->NextBounded(ids.size()));
    std::swap(ids[pick], ids.back());
    node->vantage = ids.back();
    ids.pop_back();
    if (ids.empty()) return node;

    std::vector<std::pair<double, size_t>> by_distance;
    by_distance.reserve(ids.size());
    for (size_t id : ids) {
      by_distance.emplace_back(
          this->BuildDist(node->vantage, id), id);
    }
    size_t half = by_distance.size() / 2;
    std::nth_element(by_distance.begin(), by_distance.begin() + half,
                     by_distance.end());
    node->median = by_distance[half].first;
    std::vector<size_t> inside_ids, outside_ids;
    for (const auto& [d, id] : by_distance) {
      (d < node->median ? inside_ids : outside_ids).push_back(id);
    }
    node->inside = Build(inside_ids, rng);
    node->outside = Build(outside_ids, rng);
    return node;
  }

  void SearchNode(const Node* node, const QueryContext& query,
                  SearchContext* context) const {
    if (node == nullptr || context->StopAfterBudget()) return;
    double d = this->QueryDist(query, node->vantage, context->stats());
    context->Emit(node->vantage, d);
    // Inside child holds points with distance-to-vantage < median.
    if (d - context->Radius() < node->median) {
      SearchNode(node->inside.get(), query, context);
    }
    if (d + context->Radius() >= node->median) {
      SearchNode(node->outside.get(), query, context);
    }
  }

  std::unique_ptr<Node> root_;
  uint64_t node_count_ = 0;
};

}  // namespace index
}  // namespace distperm

#endif  // DISTPERM_INDEX_VP_TREE_H_
