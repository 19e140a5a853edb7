// Concurrent batch query engine.
//
// RunBatch validates every QuerySpec (= index::SearchRequest) up front,
// fans the valid ones out as one task per (query, shard) pair onto a
// reusable worker pool, maps shard-local ids to global ids, and merges
// per-shard partials into globally correct answers: for an exact index,
// the merged results are identical to what a single index over the
// whole database would return.  Invalid requests (k = 0, negative
// radius, NaN coordinates, ...) cost nothing and come back with a
// per-query util::Status instead of CHECK-failing the batch.  Metric
// evaluations are accumulated per (query, shard) task in its own
// QueryStats slot and summed after the batch barrier, so concurrency
// never perturbs the paper's cost-model accounting.
//
// Fan-out: every shard task searches its shard with the request
// exactly as given — the same initial_radius_bound (the one way a
// bound known before the search reaches a shard: the perm cache and
// the live path's delta leg seed it) and the full
// max_distance_computations.  A budgeted query's total cost is
// therefore bounded by shards x budget, and `truncated[q]` reports
// whether any shard stopped early.  No shard task reads another's
// progress, so per-query distance counts are independent of thread
// count and interleaving.  The thread that calls RunBatch runs shard
// tasks too: it waits through util::ThreadPool::Wait(), which takes
// queued tasks off the pool before it blocks, so an engine of n worker
// threads runs up to n + 1 shard tasks at once.
//
// Allocation behavior: the pool's threads are fixed for the engine's
// lifetime, so the per-thread index::QueryScratch buffers (kernel score
// blocks, candidate rankings, bound orderings, the pooled kNN
// collector) warm up over the first few queries a worker (or the
// calling thread) serves; the database-sized transient buffers are
// then reused allocation-free.  Small fixed-size per-query allocations
// (site-distance vectors, result sets) remain.  The engine itself
// allocates only the per-batch slot arrays sized by |batch| x |shards|.

#ifndef DISTPERM_ENGINE_QUERY_ENGINE_H_
#define DISTPERM_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "engine/batch_stats.h"
#include "engine/query.h"
#include "engine/sharded_database.h"
#include "index/index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace distperm {
namespace engine {

/// Executes query batches on a fixed worker pool.  Each RunBatch names
/// the database it runs against, which is borrowed for the call, so one
/// engine serves any number of databases and several engines (e.g.
/// with different thread counts) can serve the same shards.  RunBatch
/// is not reentrant: issue one batch at a time per engine.
///
/// engine::LiveDatabase serves through the same call: it pins one
/// immutable engine::Generation with a single atomic acquire of its
/// state slot and hands its ShardedDatabase to RunBatch, so the whole
/// batch executes against that one generation no matter how many
/// compactions swap new generations in while the batch is in flight.
template <typename P>
class QueryEngine {
 public:
  struct BatchOutput {
    /// Per query, the merged results with global ids in canonical
    /// (distance, id) order; kNN results are truncated to k globally.
    /// Empty for queries whose status is not OK.
    std::vector<std::vector<index::SearchResult>> results;
    /// Per query: OK, or why the request was rejected.  Rejected
    /// queries execute no shard task and cost no metric evaluations.
    std::vector<util::Status> statuses;
    /// Per query: true iff at least one shard's search was stopped by
    /// the request's distance budget (results may be incomplete).
    std::vector<bool> truncated;
    /// Per query, metric evaluations summed over its shard tasks.
    std::vector<uint64_t> per_query_distance_computations;
    /// Per query, the requested trace (empty spans unless the query set
    /// collect_trace and executed).  Span times are relative to
    /// `batch_start`; a traced query's spans sum to exactly its
    /// per_query_distance_computations entry.
    std::vector<obs::SearchTrace> traces;
    /// The batch's reference clock: every span time (and the batch's
    /// wall_seconds) is measured from this instant.  Lets wrappers
    /// (LiveDatabase) rebase spans onto their own call start.
    std::chrono::steady_clock::time_point batch_start{};
    BatchStats stats;

    /// True iff every query in the batch succeeded.
    bool all_ok() const {
      for (const util::Status& status : statuses) {
        if (!status.ok()) return false;
      }
      return true;
    }
  };

  explicit QueryEngine(size_t thread_count) : pool_(thread_count) {}

  ~QueryEngine() {
    if (registry_ != nullptr) {
      registry_->UnregisterCallback(queue_depth_handle_);
    }
  }

  /// Wires this engine's instruments into `registry` (see the engine_*
  /// and threadpool_* series in README.md "Observability").  Call at
  /// setup time, before RunBatch; the registry must outlive the
  /// engine.  Several engines on one registry share instruments and
  /// aggregate.  Without this call the engine records nothing — the
  /// metrics-off baseline the observability bench compares against.
  void EnableMetrics(obs::MetricsRegistry* registry) {
    DP_CHECK(registry != nullptr);
    DP_CHECK(registry_ == nullptr);
    registry_ = registry;
    metrics_.queries = registry->GetCounter("engine_queries_total");
    metrics_.rejected = registry->GetCounter("engine_queries_rejected_total");
    metrics_.truncated =
        registry->GetCounter("engine_queries_truncated_total");
    metrics_.shard_tasks = registry->GetCounter("engine_shard_tasks_total");
    metrics_.distance_computations =
        registry->GetCounter("engine_distance_computations_total");
    metrics_.pruning_eliminated =
        registry->GetCounter("engine_pruning_eliminated_total");
    metrics_.candidates_verified =
        registry->GetCounter("engine_candidates_verified_total");
    metrics_.queue_wait =
        registry->GetHistogram("engine_task_queue_wait_seconds");
    metrics_.task_run = registry->GetHistogram("engine_task_run_seconds");
    metrics_.query_latency =
        registry->GetHistogram("engine_query_latency_seconds");
    pool_.set_instruments(
        {registry->GetCounter("threadpool_tasks_submitted_total"),
         registry->GetCounter("threadpool_tasks_executed_total"),
         registry->GetHistogram("threadpool_task_seconds")});
    queue_depth_handle_ = registry->RegisterCallback(
        "threadpool_queue_depth",
        [this]() { return static_cast<double>(pool_.queue_depth()); });
    metrics_.enabled = true;
  }

  size_t thread_count() const { return pool_.thread_count(); }

  /// Runs the batch against `db`, which only needs to stay alive for
  /// the duration of the call.  The caller chooses the snapshot: the
  /// live-ingest path pins one generation and passes its database here,
  /// giving the batch a frozen view while writers and compactions
  /// proceed.  `removed` (null: nothing removed) is the live view's
  /// removal record over `db`'s ids: each shard task skips the removed
  /// ids of its slice inside the search.
  BatchOutput RunBatch(const ShardedDatabase<P>& db,
                       const std::vector<QuerySpec<P>>& batch,
                       const index::RemovedIds* removed = nullptr) {
    const size_t query_count = batch.size();
    const size_t shard_count = db.shard_count();
    BatchOutput out;
    out.results.resize(query_count);
    out.statuses.resize(query_count);
    out.truncated.assign(query_count, false);
    out.per_query_distance_computations.assign(query_count, 0);
    out.traces.resize(query_count);
    out.stats.query_count = query_count;
    out.stats.shard_count = shard_count;
    out.stats.thread_count = pool_.thread_count();
    if (query_count == 0) return out;

    // Validate once per query on the calling thread; invalid queries
    // never reach a worker.
    for (size_t q = 0; q < query_count; ++q) {
      out.statuses[q] = index::ValidateRequest(batch[q], db.dim());
    }

    // One slot per (query, shard) task: no two tasks share a slot, so
    // workers never contend on anything but the per-query countdown.
    std::vector<index::SearchResponse> partials(query_count * shard_count);
    std::vector<PaddedCounter> tasks_left(query_count);
    for (auto& counter : tasks_left) {
      counter.value.store(shard_count, std::memory_order_relaxed);
    }
    std::vector<double> latencies(query_count, 0.0);

    // Trace slots, one per (query, shard) task, allocated only when
    // some query asked for a trace.  Like `partials`, no two tasks
    // share a slot, so tracing adds no synchronization.
    bool any_trace = false;
    for (size_t q = 0; q < query_count; ++q) {
      if (batch[q].collect_trace && out.statuses[q].ok()) any_trace = true;
    }
    std::vector<TaskTiming> trace_slots(
        any_trace ? query_count * shard_count : 0);
    const auto slot_for = [&](size_t q, size_t s) -> TaskTiming* {
      if (trace_slots.empty() || !batch[q].collect_trace) return nullptr;
      return &trace_slots[q * shard_count + s];
    };

    const auto start = std::chrono::steady_clock::now();
    out.batch_start = start;
    // Queue-wait measurement needs per-task submit stamps; when nothing
    // records them, skip the clock reads so the metrics-off submit loop
    // stays as cheap as before.
    const bool stamp_submits = metrics_.enabled || any_trace;

    for (size_t q = 0; q < query_count; ++q) {
      if (!out.statuses[q].ok()) continue;
      for (size_t s = 0; s < shard_count; ++s) {
        const auto submit =
            stamp_submits ? std::chrono::steady_clock::now() : start;
        TaskTiming* timing = slot_for(q, s);
        pool_.Submit([this, &db, &batch, removed, &partials, &tasks_left,
                      &latencies, start, submit, timing, shard_count, q,
                      s]() {
          RunShardTask(db, batch, removed, partials, tasks_left, latencies,
                       start, submit, timing, shard_count, q, s);
        });
      }
    }
    pool_.Wait();

    std::vector<double> executed_latencies;
    executed_latencies.reserve(query_count);
    for (size_t q = 0; q < query_count; ++q) {
      if (!out.statuses[q].ok()) continue;
      executed_latencies.push_back(latencies[q]);
      std::vector<index::SearchResult> merged;
      size_t total = 0;
      for (size_t s = 0; s < shard_count; ++s) {
        total += partials[q * shard_count + s].results.size();
      }
      merged.reserve(total);
      uint64_t distances = 0;
      bool truncated = false;
      for (size_t s = 0; s < shard_count; ++s) {
        index::SearchResponse& partial = partials[q * shard_count + s];
        // Validation passed on the calling thread, so shard responses
        // are OK by construction; propagate defensively regardless.
        if (!partial.status.ok() && out.statuses[q].ok()) {
          out.statuses[q] = partial.status;
        }
        merged.insert(merged.end(), partial.results.begin(),
                      partial.results.end());
        distances += partial.stats.distance_computations;
        out.stats.pruning_eliminated += partial.stats.pruning_eliminated;
        out.stats.candidates_verified +=
            partial.stats.candidates_verified;
        truncated = truncated || partial.truncated;
      }
      index::SortResults(&merged);
      if (batch[q].mode != index::SearchMode::kRange &&
          merged.size() > batch[q].k) {
        merged.resize(batch[q].k);
      }
      out.results[q] = std::move(merged);
      out.truncated[q] = truncated;
      out.per_query_distance_computations[q] = distances;
      out.stats.distance_computations += distances;

      if (batch[q].collect_trace && !trace_slots.empty()) {
        // One span per shard task; the per-task distance counts are
        // the partials' own QueryStats, so the spans partition the
        // query's total exactly.
        auto& spans = out.traces[q].spans;
        spans.reserve(shard_count);
        for (size_t s = 0; s < shard_count; ++s) {
          const TaskTiming& timing = trace_slots[q * shard_count + s];
          spans.push_back(
              {s, /*delta=*/false, timing.start, timing.stop,
               partials[q * shard_count + s].stats.distance_computations,
               batch[q].initial_radius_bound});
        }
        std::sort(spans.begin(), spans.end(),
                  [](const obs::SearchTrace::Span& a,
                     const obs::SearchTrace::Span& b) {
                    if (a.start_seconds != b.start_seconds) {
                      return a.start_seconds < b.start_seconds;
                    }
                    return a.shard < b.shard;
                  });
      }
    }

    out.stats.wall_seconds = Seconds(start, std::chrono::steady_clock::now());
    out.stats.latency = SummarizeLatencies(std::move(executed_latencies));

    if (metrics_.enabled) RecordBatchMetrics(batch, latencies, out);
    return out;
  }

 private:
  /// Per-query countdown of unfinished shard tasks, padded to a cache
  /// line so adjacent queries' counters never false-share under the
  /// per-task fetch_sub.
  struct alignas(64) PaddedCounter {
    std::atomic<size_t> value{0};
  };

  /// Per-(query, shard) trace slot a task fills without contention;
  /// the merge loop turns it into an obs::SearchTrace::Span.
  struct TaskTiming {
    double start = 0.0;
    double stop = 0.0;
  };

  /// The engine's instruments, all nullable: EnableMetrics fills them,
  /// and every recording site checks.  `enabled` short-circuits the
  /// timing reads so the metrics-off hot path takes no clocks.
  struct Instruments {
    bool enabled = false;
    obs::Counter* queries = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* truncated = nullptr;
    obs::Counter* shard_tasks = nullptr;
    obs::Counter* distance_computations = nullptr;
    obs::Counter* pruning_eliminated = nullptr;
    obs::Counter* candidates_verified = nullptr;
    obs::Histogram* queue_wait = nullptr;
    obs::Histogram* task_run = nullptr;
    obs::Histogram* query_latency = nullptr;
  };

  /// Folds one finished batch into the registry: query/truncation
  /// counters, per-query latency observations, and the cost-model
  /// totals.  Runs on the calling thread after the batch barrier, off
  /// the task hot path.
  void RecordBatchMetrics(const std::vector<QuerySpec<P>>& batch,
                          const std::vector<double>& latencies,
                          const BatchOutput& out) {
    uint64_t executed = 0;
    uint64_t rejected = 0;
    uint64_t truncated = 0;
    for (size_t q = 0; q < batch.size(); ++q) {
      if (!out.statuses[q].ok()) {
        ++rejected;
        continue;
      }
      ++executed;
      if (out.truncated[q]) ++truncated;
      metrics_.query_latency->Record(latencies[q]);
    }
    metrics_.queries->Add(executed);
    if (rejected != 0) metrics_.rejected->Add(rejected);
    if (truncated != 0) metrics_.truncated->Add(truncated);
    metrics_.distance_computations->Add(out.stats.distance_computations);
    if (out.stats.pruning_eliminated != 0) {
      metrics_.pruning_eliminated->Add(out.stats.pruning_eliminated);
    }
    if (out.stats.candidates_verified != 0) {
      metrics_.candidates_verified->Add(out.stats.candidates_verified);
    }
  }

  /// One (query, shard) task: searches the shard (skipping its slice's
  /// `removed` ids), maps local ids to global ids, stores the partial,
  /// and stamps the query latency when it is the last of the query's
  /// tasks to finish.  When metrics or a trace slot want timing, the
  /// task additionally reads the clock on entry/exit — around the
  /// search, never inside it, so instrumented results stay
  /// bit-identical.
  void RunShardTask(const ShardedDatabase<P>& db,
                    const std::vector<QuerySpec<P>>& batch,
                    const index::RemovedIds* removed,
                    std::vector<index::SearchResponse>& partials,
                    std::vector<PaddedCounter>& tasks_left,
                    std::vector<double>& latencies,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point submit,
                    TaskTiming* timing, size_t shard_count, size_t q,
                    size_t s) {
    const bool timed = metrics_.enabled || timing != nullptr;
    std::chrono::steady_clock::time_point task_start{};
    if (timed) {
      task_start = std::chrono::steady_clock::now();
      if (metrics_.queue_wait != nullptr) {
        metrics_.queue_wait->Record(Seconds(submit, task_start));
      }
      if (timing != nullptr) timing->start = Seconds(start, task_start);
    }
    const size_t offset = db.shard_offset(s);
    index::RemovedIds shard_removed;  // local ids start at the offset
    if (removed != nullptr) {
      shard_removed = {removed->removed_at + offset, removed->end};
    }
    index::SearchResponse response = db.shard(s).Search(
        batch[q], removed != nullptr ? &shard_removed : nullptr);
    for (index::SearchResult& r : response.results) r.id += offset;
    partials[q * shard_count + s] = std::move(response);
    if (timed) {
      const auto task_stop = std::chrono::steady_clock::now();
      if (metrics_.task_run != nullptr) {
        metrics_.task_run->Record(Seconds(task_start, task_stop));
      }
      if (timing != nullptr) timing->stop = Seconds(start, task_stop);
    }
    if (metrics_.shard_tasks != nullptr) metrics_.shard_tasks->Increment();
    // The last shard task to finish stamps the query's latency.
    if (tasks_left[q].value.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      latencies[q] = Seconds(start, std::chrono::steady_clock::now());
    }
  }

  static double Seconds(std::chrono::steady_clock::time_point from,
                        std::chrono::steady_clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  }

  util::ThreadPool pool_;
  obs::MetricsRegistry* registry_ = nullptr;
  uint64_t queue_depth_handle_ = 0;
  Instruments metrics_;
};

}  // namespace engine
}  // namespace distperm

#endif  // DISTPERM_ENGINE_QUERY_ENGINE_H_
