// Live ingest walkthrough: open a generation-versioned LiveDatabase,
// serve queries while inserting and removing points, pin a snapshot
// across a compaction, and watch the generation swap retire the old
// shards.
//
//   ./example_live_ingest [--points=2000] [--dim=8] [--shards=4]
//                         [--index=vp-tree] [--seed=42]

#include <iostream>

#include "dataset/vector_gen.h"
#include "engine/live_database.h"
#include "engine/query.h"
#include "metric/lp.h"
#include "util/flags.h"
#include "util/rng.h"

using distperm::engine::LiveDatabase;
using distperm::engine::QuerySpec;
using distperm::metric::Vector;

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

  // 1. Open the store: generation 1 is built like any ShardedDatabase;
  //    the live knobs ride in the spec string.
  distperm::util::Rng rng(seed);
  auto data = distperm::dataset::UniformCube(points, dim, &rng);
  distperm::metric::Metric<Vector> l2(distperm::metric::LpMetric::L2());
  // The live knobs join the spec's option list, so the separator
  // depends on whether --index already carries options.
  const std::string live_spec =
      index + (index.find(':') == std::string::npos ? ":" : ",") +
      "delta_scan_limit=1024,auto_compact_threshold=256";
  auto opened = LiveDatabase<Vector>::Open(data, l2, shards, live_spec, seed);
  if (!opened.ok()) {
    std::cerr << opened.status() << "\n";
    return 1;
  }
  LiveDatabase<Vector>& live = *opened.value();
  std::cout << "opened " << live.index_spec() << " x " << shards
            << " shards, generation " << live.generation_number()
            << ", n=" << live.size() << "\n";

  // 2. Writes go to the delta buffer and are visible immediately.
  Vector hot(dim, 0.5);
  auto id = live.Insert(hot);
  if (!id.ok()) {
    std::cerr << id.status() << "\n";
    return 1;
  }
  // Queries run on a caller-owned engine against a pinned view.
  distperm::engine::QueryEngine<Vector> engine(2);
  auto out =
      live.RunBatch(engine, live.Pin(), {QuerySpec<Vector>::Knn(hot, 1)});
  std::cout << "inserted id " << id.value() << "; 1-NN of it is id "
            << out.results[0][0].id << " at distance "
            << out.results[0][0].distance << " (delta="
            << live.delta_entries() << " pending)\n";

  // 3. A pinned snapshot is immune to everything that happens later —
  //    including the removal below and the compaction's generation
  //    swap.  In-flight batches finish on the generation they pinned.
  auto snapshot = live.Pin();
  if (auto status = live.Remove(id.value()); !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  if (auto status = live.Compact(); !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  std::cout << "after Remove+Compact: generation "
            << live.generation_number() << ", n=" << live.size()
            << ", delta=" << live.delta_entries()
            << "; pinned view still holds generation "
            << snapshot.generation_number() << " with "
            << snapshot.live_size() << " points\n";

  // 4. The frozen view still serves the point; the current view
  //    doesn't.
  auto frozen =
      live.RunBatch(engine, snapshot, {QuerySpec<Vector>::Knn(hot, 1)});
  out = live.RunBatch(engine, live.Pin(), {QuerySpec<Vector>::Knn(hot, 1)});
  std::cout << "1-NN distance of the removed point: pinned view "
            << frozen.results[0][0].distance << ", current view "
            << out.results[0][0].distance << "\n";

  std::cout << "done\n";
  return 0;
}
