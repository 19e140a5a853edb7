// Per-query search traces.
//
// A SearchRequest with WithTrace(true) makes QueryEngine::RunBatch
// attach one SearchTrace to the query's slot in BatchOutput: one span
// per shard task (plus, on the live path, one span for the delta-log
// scan), ordered by start time.  Spans carry exactly what is needed to
// explain a slow query shard by shard — where the time went, where the
// distance budget went, and which radius bound the task searched under.
//
// Tracing is observation only: the engine reads clocks around the
// search but changes nothing inside it, so results and distance counts
// are bit-identical with tracing on.  The spans' distance counts
// partition the query's total exactly: summing
// Span::distance_computations reproduces the query's
// per_query_distance_computations (regression-tested in
// tests/engine_test.cc).

#ifndef DISTPERM_OBS_TRACE_H_
#define DISTPERM_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace distperm {
namespace obs {

/// One traced query: its spans in start-time order.  Empty for queries
/// that did not request tracing (and for rejected queries).
struct SearchTrace {
  /// One unit of work the engine ran for the query.
  struct Span {
    /// Shard index within the batch's database; 0 for the delta span
    /// (see `delta`).
    size_t shard = 0;
    /// True for the live path's delta-log scan leg.
    bool delta = false;
    /// Task start/stop, in seconds relative to the batch's reference
    /// clock (BatchOutput::batch_start; the live path rebases both
    /// legs onto its own call start).
    double start_seconds = 0.0;
    double stop_seconds = 0.0;
    /// Metric evaluations this span charged.  Summed over a query's
    /// spans this equals the query's total distance count exactly.
    uint64_t distance_computations = 0;
    /// For a shard span, the initial_radius_bound it searched under; for
    /// the delta span, the bound the delta leg handed on to the shard
    /// searches.  +infinity when no bound was known.
    double bound = std::numeric_limits<double>::infinity();
  };

  std::vector<Span> spans;

  bool empty() const { return spans.empty(); }

  uint64_t total_distance_computations() const {
    uint64_t total = 0;
    for (const Span& span : spans) total += span.distance_computations;
    return total;
  }
};

}  // namespace obs
}  // namespace distperm

#endif  // DISTPERM_OBS_TRACE_H_
