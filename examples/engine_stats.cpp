// Telemetry walkthrough: wire a LiveDatabase and a caller-owned
// QueryEngine into one obs::MetricsRegistry, run a small mixed
// workload (batches, inserts, a removal, a compaction), then read the
// engine back out — a traced query's per-shard span table, the
// Prometheus-style text exposition, and the JSON dump.
//
// Exits nonzero if any telemetry invariant fails: traced spans must
// partition each query's distance count exactly, tracing must not
// perturb results, and the registry counters must reproduce the
// workload's exact accounting.
//
//   ./example_engine_stats [--points=2000] [--dim=8] [--shards=4]
//                          [--index=vp-tree] [--seed=42]

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "dataset/vector_gen.h"
#include "engine/live_database.h"
#include "engine/query.h"
#include "engine/query_engine.h"
#include "metric/lp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table_printer.h"

using distperm::engine::LiveDatabase;
using distperm::engine::QueryEngine;
using distperm::engine::QuerySpec;
using distperm::metric::Vector;

namespace {

std::string Us(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f", seconds * 1e6);
  return buffer;
}

std::string Bound(double bound) {
  if (std::isinf(bound)) return "inf";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.4f", bound);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = distperm::util::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n";
    return 1;
  }
  const size_t points =
      static_cast<size_t>(flags.value().GetInt("points", 2000));
  const size_t dim = static_cast<size_t>(flags.value().GetInt("dim", 8));
  const size_t shards =
      static_cast<size_t>(flags.value().GetInt("shards", 4));
  const uint64_t seed =
      static_cast<uint64_t>(flags.value().GetInt("seed", 42));
  const std::string index = flags.value().GetString("index", "vp-tree");

  // 1. One registry for the whole serving stack.  The LiveDatabase
  //    records its live_* series; the caller-owned engine it serves
  //    through records the engine_*/threadpool_* series, so both land
  //    in one exposition.
  distperm::obs::MetricsRegistry registry("engine_stats");
  distperm::util::Rng rng(seed);
  auto data = distperm::dataset::UniformCube(points, dim, &rng);
  distperm::metric::Metric<Vector> l2(distperm::metric::LpMetric::L2());
  distperm::engine::LiveOptions options;
  options.metrics = &registry;
  auto opened =
      LiveDatabase<Vector>::Open(data, l2, shards, index, seed, options);
  if (!opened.ok()) {
    std::cerr << opened.status() << "\n";
    return 1;
  }
  LiveDatabase<Vector>& live = *opened.value();
  QueryEngine<Vector> engine(2);
  engine.EnableMetrics(&registry);
  std::cout << "opened " << live.index_spec() << " x " << shards
            << " shards with metrics registry \"" << registry.name()
            << "\"\n";

  // 2. A small workload: query batches around writes and a compaction,
  //    so every instrument family has something to show.
  std::vector<QuerySpec<Vector>> batch;
  for (int q = 0; q < 16; ++q) {
    Vector point(dim);
    for (double& c : point) c = rng.NextDouble();
    batch.push_back(q % 2 == 0 ? QuerySpec<Vector>::Knn(point, 8)
                               : QuerySpec<Vector>::Range(point, 0.4));
  }
  auto before = live.RunBatch(engine, live.Pin(), batch);
  uint64_t expected_distances = before.stats.distance_computations;
  for (int i = 0; i < 32; ++i) {
    Vector point(dim, 0.25 + 0.01 * i);
    if (!live.Insert(point).ok()) {
      std::cerr << "insert failed\n";
      return 1;
    }
  }
  if (!live.Remove(0).ok() || !live.Compact().ok()) {
    std::cerr << "remove/compact failed\n";
    return 1;
  }
  auto after = live.RunBatch(engine, live.Pin(), batch);
  expected_distances += after.stats.distance_computations;

  // 3. One traced query: the spans name each shard's window, cost, and
  //    the radius bound it searched under.
  Vector probe(dim, 0.5);
  auto traced = live.RunBatch(
      engine, live.Pin(), {QuerySpec<Vector>::Knn(probe, 8).WithTrace()});
  auto untraced =
      live.RunBatch(engine, live.Pin(), {QuerySpec<Vector>::Knn(probe, 8)});
  expected_distances += traced.stats.distance_computations +
                        untraced.stats.distance_computations;
  if (!traced.all_ok() || !untraced.all_ok()) {
    std::cerr << "traced batch rejected\n";
    return 1;
  }

  const distperm::obs::SearchTrace& trace = traced.traces[0];
  std::cout << "\ntraced 8-NN query (" << trace.spans.size()
            << " spans, times relative to batch start):\n\n";
  distperm::util::TablePrinter span_table;
  span_table.SetHeader({"span", "start us", "stop us", "distances",
                        "bound"});
  for (const auto& span : trace.spans) {
    span_table.AddRow({span.delta ? "delta" : "shard " +
                                                  std::to_string(span.shard),
                       Us(span.start_seconds), Us(span.stop_seconds),
                       std::to_string(span.distance_computations),
                       Bound(span.bound)});
  }
  span_table.Print(std::cout);

  // 4. The exposition surfaces: Prometheus-style text and the JSON
  //    dump with derived percentiles.
  std::cout << "\n--- TextExposition ---\n" << registry.TextExposition();
  std::cout << "\n--- JsonExposition ---\n"
            << registry.JsonExposition() << "\n";

  // 5. Invariants.  Failures exit nonzero so CI can run this example
  //    as a smoke check.
  if (trace.total_distance_computations() !=
      traced.per_query_distance_computations[0]) {
    std::cerr << "FAIL: trace spans do not partition the query's "
                 "distance count\n";
    return 1;
  }
  if (traced.results != untraced.results) {
    std::cerr << "FAIL: tracing perturbed the results\n";
    return 1;
  }
  const uint64_t counted =
      registry.GetCounter("engine_distance_computations_total")->Value();
  if (counted != expected_distances) {
    std::cerr << "FAIL: engine_distance_computations_total " << counted
              << " != workload total " << expected_distances << "\n";
    return 1;
  }
  if (registry.GetCounter("live_inserts_total")->Value() != 32 ||
      registry.GetCounter("live_compactions_total")->Value() != 1) {
    std::cerr << "FAIL: live write/compaction counters diverge from the "
                 "workload\n";
    return 1;
  }
  std::cout << "all telemetry invariants hold\n";
  return 0;
}
