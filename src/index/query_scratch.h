// Per-thread reusable query scratch buffers.
//
// The engine layer answers batches by fanning (query, shard) tasks onto
// a fixed worker pool (util::ThreadPool), so the same few threads run
// millions of queries.  Each index query needs transient buffers — a
// block of kernel scores, one footrule per distinct permutation and the
// selected candidate ids, an array of (lower bound, id) pairs —
// that used to be heap-allocated per call.  QueryScratch keeps one
// instance of each per thread: buffers grow to the high-water mark of
// the queries that thread serves and are then reused allocation-free.
//
// Contract: a query implementation may use the scratch only within one
// Impl call (no state may live across calls — queries stay reentrant
// per thread), and must size the buffer itself before use.

#ifndef DISTPERM_INDEX_QUERY_SCRATCH_H_
#define DISTPERM_INDEX_QUERY_SCRATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "index/search.h"

namespace distperm {
namespace index {

struct QueryScratch {
  /// Kernel scores for one block of rows (linear scan).
  std::vector<double> distance_block;
  /// The query's footrule to each distinct table row, a bit per point
  /// marking the selected ones, each selected point's footrule, and the
  /// ids selected in (footrule, id) order (distperm index).  The
  /// shard's table itself is shared read-only by every thread.
  std::vector<uint16_t> row_footrule;
  std::vector<uint64_t> marked;
  std::vector<uint16_t> point_footrule;
  std::vector<uint32_t> candidates;
  /// (lower bound, id) verification order (LAESA).
  std::vector<std::pair<double, size_t>> bounds;
  /// Pooled kNN collector: SearchIndex::Search re-arms it per call via
  /// Reset/Reserve, so the kNN hot path performs no per-query heap
  /// allocation after a thread's first few queries.
  KnnCollector collector{0};

  /// The calling thread's scratch instance.
  static QueryScratch& ForThread() {
    static thread_local QueryScratch scratch;
    return scratch;
  }
};

}  // namespace index
}  // namespace distperm

#endif  // DISTPERM_INDEX_QUERY_SCRATCH_H_
