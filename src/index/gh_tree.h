// Generalized-hyperplane tree (Uhlmann 1991).
//
// The other tree baseline from the paper's introduction: each node holds
// two centres; points go to the closer centre's subtree, and a subtree is
// pruned when the query ball cannot cross the generalized hyperplane
// (bisector!) between the two centres — the same objects whose cell
// counts this library studies.

#ifndef DISTPERM_INDEX_GH_TREE_H_
#define DISTPERM_INDEX_GH_TREE_H_

#include <memory>
#include <string>
#include <vector>

#include "index/index.h"
#include "util/rng.h"

namespace distperm {
namespace index {

/// Classic GH-tree with exact range and kNN queries.
template <typename P>
class GhTreeIndex : public SearchIndex<P> {
 public:
  using typename SearchIndex<P>::QueryContext;
  using SearchIndex<P>::points_;

  GhTreeIndex(std::vector<P> data, metric::Metric<P> metric,
              util::Rng* rng)
      : GhTreeIndex(PointStore<P>(std::move(data), std::move(metric)), rng) {}
  GhTreeIndex(PointStore<P> points, util::Rng* rng)
      : SearchIndex<P>(std::move(points)) {
    std::vector<size_t> ids(points_.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    root_ = Build(ids, rng);
  }

  std::string name() const override { return "gh-tree"; }

  uint64_t IndexBits() const override {
    return node_count_ * (2 * sizeof(size_t) + 2 * sizeof(void*)) * 8;
  }

 protected:
  void SearchImpl(const SearchRequest<P>&, const QueryContext& query,
                  SearchContext* context) const override {
    SearchNode(root_.get(), query, context);
  }

 private:
  struct Node {
    size_t first;        // centre of the `near_first` subtree
    size_t second;       // centre of the other subtree (== first if leaf)
    bool has_second = false;
    std::unique_ptr<Node> near_first;
    std::unique_ptr<Node> near_second;
  };

  std::unique_ptr<Node> Build(std::vector<size_t>& ids, util::Rng* rng) {
    if (ids.empty()) return nullptr;
    ++node_count_;
    auto node = std::make_unique<Node>();
    size_t pick = static_cast<size_t>(rng->NextBounded(ids.size()));
    std::swap(ids[pick], ids.back());
    node->first = ids.back();
    ids.pop_back();
    if (ids.empty()) {
      node->second = node->first;
      return node;
    }
    pick = static_cast<size_t>(rng->NextBounded(ids.size()));
    std::swap(ids[pick], ids.back());
    node->second = ids.back();
    node->has_second = true;
    ids.pop_back();

    std::vector<size_t> near_first_ids, near_second_ids;
    for (size_t id : ids) {
      double d1 = this->BuildDist(node->first, id);
      double d2 = this->BuildDist(node->second, id);
      // Tie toward the first centre, mirroring the paper's tie-break.
      (d1 <= d2 ? near_first_ids : near_second_ids).push_back(id);
    }
    node->near_first = Build(near_first_ids, rng);
    node->near_second = Build(near_second_ids, rng);
    return node;
  }

  void SearchNode(const Node* node, const QueryContext& query,
                  SearchContext* context) const {
    if (node == nullptr || context->StopAfterBudget()) return;
    double d1 = this->QueryDist(query, node->first, context->stats());
    context->Emit(node->first, d1);
    if (!node->has_second) return;
    if (context->StopAfterBudget()) return;
    double d2 = this->QueryDist(query, node->second, context->stats());
    context->Emit(node->second, d2);
    // A subtree can be skipped when the query ball lies strictly on the
    // other side of the generalized hyperplane: (d1 - d2)/2 > r means no
    // point closer to `first` can be within r.
    if ((d1 - d2) / 2.0 <= context->Radius()) {
      SearchNode(node->near_first.get(), query, context);
    }
    if ((d2 - d1) / 2.0 <= context->Radius()) {
      SearchNode(node->near_second.get(), query, context);
    }
  }

  std::unique_ptr<Node> root_;
  uint64_t node_count_ = 0;
};

}  // namespace index
}  // namespace distperm

#endif  // DISTPERM_INDEX_GH_TREE_H_
