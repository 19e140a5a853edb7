// Durability walkthrough: open a WAL-backed LiveDatabase, write and
// fold, then "crash" (drop the handle without any shutdown protocol),
// reopen the directory, and verify the store came back exactly — the
// folded generation from its snapshot, the unfolded tail from WAL
// replay.  Exits nonzero if any step or any equality check fails, so
// CI can run it as a recovery smoke test.
//
//   ./example_durable_store [--points=1000] [--dim=8] [--shards=2]
//                           [--index=vp-tree] [--seed=42] [--dir=...]

#include <cstdlib>
#include <iostream>
#include <memory>

#include "dataset/vector_gen.h"
#include "engine/live_database.h"
#include "engine/query.h"
#include "engine/query_engine.h"
#include "metric/lp.h"
#include "obs/metrics.h"
#include "storage/env.h"
#include "util/flags.h"
#include "util/rng.h"

using distperm::engine::LiveDatabase;
using distperm::engine::LiveOptions;
using distperm::engine::QueryEngine;
using distperm::engine::QuerySpec;
using distperm::metric::Vector;

int main(int argc, char** argv) {
  auto flags = distperm::util::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n";
    return 1;
  }
  const size_t points =
      static_cast<size_t>(flags.value().GetInt("points", 1000));
  const size_t dim = static_cast<size_t>(flags.value().GetInt("dim", 8));
  const size_t shards =
      static_cast<size_t>(flags.value().GetInt("shards", 2));
  const uint64_t seed =
      static_cast<uint64_t>(flags.value().GetInt("seed", 42));
  const std::string index = flags.value().GetString("index", "vp-tree");
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir = flags.value().GetString(
      "dir", std::string(tmp != nullptr ? tmp : "/tmp") +
                 "/distperm_durable_demo");

  // Start from an empty directory so the run is reproducible.
  distperm::storage::Env* env = distperm::storage::Env::Default();
  env->CreateDir(dir);
  if (auto listing = env->ListDir(dir); listing.ok()) {
    for (const std::string& name : listing.value()) {
      env->DeleteFile(dir + "/" + name);
    }
  }

  // 1. Open durably: wal_dir= and fsync= ride in the spec like any
  //    live knob.  Generation 1 is built and snapshotted before Open
  //    returns, and every later write hits the WAL first.
  distperm::util::Rng rng(seed);
  auto data = distperm::dataset::UniformCube(points, dim, &rng);
  distperm::metric::Metric<Vector> l2(distperm::metric::LpMetric::L2());
  const std::string spec =
      index + (index.find(':') == std::string::npos ? ":" : ",") +
      "wal_dir=" + dir + ",fsync=always";
  distperm::obs::MetricsRegistry metrics("durable_demo");
  LiveOptions options;
  options.metrics = &metrics;
  auto opened =
      LiveDatabase<Vector>::Open(data, l2, shards, spec, seed, options);
  if (!opened.ok()) {
    std::cerr << opened.status() << "\n";
    return 1;
  }
  std::cout << "opened " << dir << ": generation "
            << opened.value()->generation_number() << ", n="
            << opened.value()->size() << ", fsync=always\n";

  // 2. Write, fold half-way, write more — then "crash".  The Compact
  //    rotated to generation 2 (snapshot + fresh WAL); the two
  //    post-compaction inserts live only in that WAL.
  Vector probe(dim, 0.25);
  QueryEngine<Vector> engine(1);
  for (int i = 0; i < 6; ++i) {
    Vector p(dim, 0.1 * static_cast<double>(i + 1));
    if (auto id = opened.value()->Insert(p); !id.ok()) {
      std::cerr << id.status() << "\n";
      return 1;
    }
    if (i == 3) {
      if (auto status = opened.value()->Compact(); !status.ok()) {
        std::cerr << status << "\n";
        return 1;
      }
    }
  }
  auto before = opened.value()->RunBatch(engine, opened.value()->Pin(),
                                         {QuerySpec<Vector>::Knn(probe, 5)});
  const size_t size_before = opened.value()->size();
  const uint64_t generation_before = opened.value()->generation_number();
  const size_t delta_before = opened.value()->delta_entries();
  opened.value().reset();  // crash: no flush call, no goodbye

  // 3. Reopen from disk alone (empty seed data: the store IS the
  //    data).  Recovery loads snapshot-2, replays the WAL tail, and
  //    resumes exactly where the crash left off.
  auto reopened =
      LiveDatabase<Vector>::Open({}, l2, shards, spec, seed, options);
  if (!reopened.ok()) {
    std::cerr << reopened.status() << "\n";
    return 1;
  }
  auto after = reopened.value()->RunBatch(engine, reopened.value()->Pin(),
                                          {QuerySpec<Vector>::Knn(probe, 5)});
  const auto replayed = metrics.GetCounter("recovery_replayed_entries");
  std::cout << "reopened: generation "
            << reopened.value()->generation_number() << ", n="
            << reopened.value()->size() << ", delta="
            << reopened.value()->delta_entries() << " (replayed "
            << replayed->Value() << " WAL records)\n";

  // 4. The recovered store must BE the pre-crash store.
  if (reopened.value()->size() != size_before ||
      reopened.value()->generation_number() != generation_before ||
      reopened.value()->delta_entries() != delta_before) {
    std::cerr << "recovered shape differs from the pre-crash store\n";
    return 1;
  }
  if (!before.all_ok() || !after.all_ok() ||
      before.results != after.results) {
    std::cerr << "recovered store answered differently\n";
    return 1;
  }
  std::cout << "recovered store answers the 5-NN batch bit-identically "
            << "to the pre-crash store\n";
  std::cout << "wal_appends_total="
            << metrics.GetCounter("wal_appends_total")->Value()
            << " wal_bytes_total="
            << metrics.GetCounter("wal_bytes_total")->Value() << "\n";
  std::cout << "done\n";
  return 0;
}
