#include "index/point_store.h"

#include <cstdint>

namespace distperm {
namespace index {

PointStore<metric::Vector>::PointStore(std::vector<metric::Vector> points,
                                       metric::Metric<metric::Vector> metric)
    : owned_(std::move(points)),
      size_(owned_.size()),
      dim_(owned_.empty() ? 0 : owned_.front().size()),
      metric_(std::move(metric)),
      kind_(metric_.vector_kernel()) {
  for (const metric::Vector& point : owned_) {
    DP_CHECK_MSG(point.size() == dim_ && dim_ >= 1,
                 "PointStore requires one dimension >= 1");
  }
  ComputeNorms();
}

PointStore<metric::Vector>::PointStore(std::shared_ptr<const void> owner,
                                       const double* rows, size_t size,
                                       size_t dim,
                                       metric::Metric<metric::Vector> metric)
    : owner_(std::move(owner)),
      rows_(rows),
      size_(size),
      dim_(dim),
      stride_(StrideFor(dim)),
      metric_(std::move(metric)),
      kind_(metric_.vector_kernel()) {
  DP_CHECK(size == 0 ||
           (dim >= 1 && reinterpret_cast<uintptr_t>(rows) % kRowAlignBytes ==
                            0));
  ComputeNorms();
}

void PointStore<metric::Vector>::ComputeNorms() {
  if (kind_ != metric::VectorKernelKind::kAngle) return;
  for (size_t i = 0; i < size_; ++i) {
    norms_.push_back(std::sqrt(metric::DotRaw(row(i), row(i), dim_)));
  }
}

}  // namespace index
}  // namespace distperm
