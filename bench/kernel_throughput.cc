// Microbench for the flat data path: raw kernel throughput, end-to-end
// L2 linear-scan speedup over the scalar (pre-flat) path, the footrule
// block kernel the distperm index scores its table with, and the
// distperm candidate-ranking speedup over the original full-ordering
// formulation.  Emits a machine-readable JSON report (BENCH_kernels.json
// schema) next to the human-readable tables.
//
// The "scalar" linear-scan baseline is a type-erased Metric<Vector>
// lambda evaluating a sequential single-accumulator loop, one point at
// a time (the point store hands an untagged metric each row as a
// scratch std::vector).  The flat build is the same index class with a
// kernel-tagged metric, which the point store evaluates with the
// blocked kernels.  The distperm baseline reproduces the seed query
// path: per-pair Spearman footrule with on-the-fly permutation
// inversion, bucketed over the full footrule range.  The footrule rows
// time core::FootruleBlock (one _mm_sad_epu8 per row on x86-64) against
// core::FootruleBlockScalar over one random table, in ns per row, and
// fail the run unless the two agree on every row.
//
// Default run asserts the tentpole claim — >= 2x L2 linear-scan
// throughput at every dim >= 32 — and exits nonzero if it does not
// hold.  --no-strict reports without asserting.  --smoke shrinks the
// workload for CI: correctness checks stay fatal, but the speedup
// threshold is reported without gating (short timings on shared
// runners are too noisy to assert against).
//
// Usage: kernel_throughput [--points=20000] [--queries=64] [--k=10]
//                          [--reps=3] [--seed=7] [--smoke]
//                          [--out=BENCH_kernels.json] [--no-strict]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/perm_metrics.h"
#include "dataset/vector_gen.h"
#include "index/distperm_index.h"
#include "index/linear_scan.h"
#include "index/point_store.h"
#include "metric/cosine.h"
#include "metric/kernels.h"
#include "metric/lp.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table_printer.h"

using distperm::core::Permutation;
using distperm::index::DistPermIndex;
using distperm::index::LinearScanIndex;
using distperm::index::PointStore;
using distperm::index::SearchRequest;
using distperm::index::SearchResponse;
using distperm::index::SearchResult;
using distperm::metric::Metric;
using distperm::metric::Vector;
using distperm::util::Rng;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Caps the database for one (points, dim) configuration so the packed
// rows stay inside a serving-shard-sized working set (~1 MB, resident
// in a per-core L2).  Without the cap, high dims at the default point
// count time main-memory bandwidth instead of the kernels, which is
// neither path's bottleneck in the engine's sharded regime.
size_t CachePoints(size_t requested, size_t dim) {
  constexpr size_t kWorkingSetBytes = 1u << 20;
  const size_t cap = std::max<size_t>(
      1000, kWorkingSetBytes / (std::max<size_t>(1, dim) * sizeof(double)));
  return std::min(requested, cap);
}

// The seed's L2 path, reproduced call for call: dimension check, a
// sequential single-accumulator squared sum behind its own function
// boundary, and the sqrt wrapper — the structure the seed's
// LpMetric/L2Distance pair executed per evaluation.
__attribute__((noinline)) double ScalarL2SquaredReference(const Vector& a,
                                                          const Vector& b) {
  DP_CHECK_MSG(a.size() == b.size(), "dimension mismatch");
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    sum += diff * diff;
  }
  return sum;
}

__attribute__((noinline)) double ScalarL2Reference(const Vector& a,
                                                   const Vector& b) {
  return std::sqrt(ScalarL2SquaredReference(a, b));
}

struct KernelRow {
  std::string metric;
  size_t dim = 0;
  double scalar_mdist = 0.0;   // million distances/second, naive loop
  double kernel_mdist = 0.0;   // million distances/second, blocked kernel
  double speedup = 0.0;
};

struct ScanRow {
  size_t dim = 0;
  size_t points = 0;
  double scalar_ms = 0.0;
  double flat_ms = 0.0;
  double speedup = 0.0;
  bool counts_match = false;
  bool results_match = false;
};

struct FootruleRow {
  size_t sites = 0;
  size_t rows = 0;
  double scalar_ns = 0.0;  // per row, FootruleBlockScalar
  double block_ns = 0.0;   // per row, FootruleBlock
  double speedup = 0.0;
  bool identical = false;
};

struct DistPermRow {
  size_t points = 0;
  size_t sites = 0;
  size_t prefix = 0;
  double fraction = 0.0;
  double naive_ms = 0.0;
  double indexed_ms = 0.0;
  double speedup = 0.0;
  bool results_match = false;
};

std::string Fixed(double v, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, v);
  return buffer;
}

// ------------------------------------------------- raw kernel throughput

// Naive sequential per-pair loops in the seed's style (single
// accumulator; max via comparison): the references the blocked kernels
// are measured against.  noinline keeps each a function call, and the
// dispatch is a function pointer selected once outside the timed loop,
// so the baseline times measure the loop itself, not string compares.
__attribute__((noinline)) double NaiveL1(const double* a, const double* b,
                                         size_t dim) {
  double acc = 0.0;
  for (size_t j = 0; j < dim; ++j) acc += std::fabs(a[j] - b[j]);
  return acc;
}
__attribute__((noinline)) double NaiveL2sq(const double* a, const double* b,
                                           size_t dim) {
  double acc = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double d = a[j] - b[j];
    acc += d * d;
  }
  return acc;
}
__attribute__((noinline)) double NaiveLinf(const double* a, const double* b,
                                           size_t dim) {
  double acc = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double d = std::fabs(a[j] - b[j]);
    if (d > acc) acc = d;
  }
  return acc;
}
__attribute__((noinline)) double NaiveDot(const double* a, const double* b,
                                          size_t dim) {
  double acc = 0.0;
  for (size_t j = 0; j < dim; ++j) acc += a[j] * b[j];
  return acc;
}

KernelRow BenchKernel(const std::string& name, size_t dim, size_t points,
                      size_t reps, Rng* rng) {
  auto data = distperm::dataset::UniformCube(points, dim, rng);
  // Rows one cache line apart, as a restored snapshot lays them out.
  const size_t stride = PointStore<Vector>::StrideFor(dim);
  std::vector<double> rows(points * stride, 0.0);
  for (size_t i = 0; i < points; ++i) {
    std::copy(data[i].begin(), data[i].end(), &rows[i * stride]);
  }
  Vector query(dim);
  for (double& c : query) c = rng->NextDouble();
  std::vector<double> out(points);

  double (*naive_fn)(const double*, const double*, size_t) =
      name == "L1"     ? &NaiveL1
      : name == "L2sq" ? &NaiveL2sq
      : name == "Linf" ? &NaiveLinf
                       : &NaiveDot;
  // Same flat rows for both sides: isolates the win of the unrolled
  // kernels from the win of the storage layout.
  auto naive = [&]() {
    double sink = 0.0;
    for (size_t i = 0; i < points; ++i) {
      sink += naive_fn(query.data(), &rows[i * stride], dim);
    }
    return sink;
  };
  auto blocked = [&]() {
    if (name == "L1") {
      distperm::metric::L1Block(query.data(), rows.data(), points, stride,
                                dim, out.data());
    } else if (name == "L2sq") {
      distperm::metric::L2sqBlock(query.data(), rows.data(), points, stride,
                                  dim, out.data());
    } else if (name == "Linf") {
      distperm::metric::LInfBlock(query.data(), rows.data(), points, stride,
                                  dim, out.data());
    } else {
      distperm::metric::DotBlock(query.data(), rows.data(), points, stride,
                                 dim, out.data());
    }
    double sink = 0.0;
    for (double v : out) sink += v;
    return sink;
  };

  volatile double sink = 0.0;
  double naive_best = 1e300, kernel_best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    double t0 = Now();
    sink = sink + naive();
    naive_best = std::min(naive_best, Now() - t0);
    t0 = Now();
    sink = sink + blocked();
    kernel_best = std::min(kernel_best, Now() - t0);
  }

  KernelRow row;
  row.metric = name;
  row.dim = dim;
  row.scalar_mdist = static_cast<double>(points) / naive_best / 1e6;
  row.kernel_mdist = static_cast<double>(points) / kernel_best / 1e6;
  row.speedup = row.kernel_mdist / row.scalar_mdist;
  return row;
}

// ------------------------------------------------ footrule row kernel

// Times both footrule block kernels over `rows` random inverted-rank
// rows of k sites, laid out as the distperm table stores them (k bytes
// per row, zero tail slack).  Each timed pass scores the table
// `passes` times so one pass is well above the clock's resolution.
FootruleRow BenchFootrule(size_t k, size_t rows, size_t reps, Rng* rng) {
  std::vector<uint8_t> row(k);
  const auto random_row = [&]() {
    for (size_t site = 0; site < k; ++site) {
      row[site] = static_cast<uint8_t>(site);
    }
    std::shuffle(row.begin(), row.end(), *rng);
  };
  std::vector<uint8_t> table;
  table.reserve(rows * k + distperm::core::kFootruleTableSlack);
  for (size_t r = 0; r < rows; ++r) {
    random_row();
    table.insert(table.end(), row.begin(), row.end());
  }
  table.resize(rows * k + distperm::core::kFootruleTableSlack, 0);
  uint8_t query[distperm::core::kFootruleBlockMaxSites] = {};
  random_row();
  std::copy(row.begin(), row.end(), query);

  constexpr size_t kPasses = 20;
  std::vector<uint16_t> scalar(rows), block(rows);
  volatile uint32_t sink = 0;
  auto time = [&](void (*kernel)(const uint8_t*, const uint8_t*, size_t,
                                 size_t, uint16_t*),
                  std::vector<uint16_t>* out) {
    const double t0 = Now();
    for (size_t pass = 0; pass < kPasses; ++pass) {
      kernel(query, table.data(), rows, k, out->data());
      sink = sink + (*out)[pass % rows];
    }
    return Now() - t0;
  };
  double scalar_best = 1e300, block_best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    scalar_best = std::min(
        scalar_best, time(&distperm::core::FootruleBlockScalar, &scalar));
    block_best =
        std::min(block_best, time(&distperm::core::FootruleBlock, &block));
  }

  FootruleRow result;
  result.sites = k;
  result.rows = rows;
  const double per_row = 1e9 / static_cast<double>(kPasses * rows);
  result.scalar_ns = scalar_best * per_row;
  result.block_ns = block_best * per_row;
  result.speedup = scalar_best / block_best;
  result.identical = scalar == block;
  for (size_t r = 0; r < rows && result.identical; ++r) {
    result.identical = scalar[r] == distperm::core::FootruleFromRanks(
                                        query, &table[r * k], k);
  }
  return result;
}

// -------------------------------------------- L2 linear scan end to end

ScanRow BenchLinearScan(size_t points, size_t dim, size_t queries, size_t k,
                        size_t reps, Rng* rng) {
  auto data = distperm::dataset::UniformCube(points, dim, rng);
  std::vector<Vector> query_points;
  for (size_t q = 0; q < queries; ++q) {
    Vector p(dim);
    for (double& c : p) c = rng->NextDouble();
    query_points.push_back(std::move(p));
  }

  // Scalar baseline: an untagged metric is evaluated point at a time
  // through the std::function indirection.
  Metric<Vector> scalar_metric("L2", &ScalarL2Reference);
  LinearScanIndex<Vector> scalar_scan(data, scalar_metric);
  // Flat build: the kernel-tagged metric runs on the blocked kernels.
  LinearScanIndex<Vector> flat_scan(data,
                                    distperm::metric::LpMetric::L2());

  ScanRow row;
  row.dim = dim;
  row.points = points;
  row.counts_match = true;
  row.results_match = true;
  double scalar_best = 1e300, flat_best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    double t0 = Now();
    for (const Vector& q : query_points) {
      scalar_scan.Search(SearchRequest<Vector>::Knn(q, k));
    }
    scalar_best = std::min(scalar_best, Now() - t0);
    t0 = Now();
    for (const Vector& q : query_points) {
      flat_scan.Search(SearchRequest<Vector>::Knn(q, k));
    }
    flat_best = std::min(flat_best, Now() - t0);
  }
  for (const Vector& q : query_points) {
    const auto request = SearchRequest<Vector>::Knn(q, k);
    SearchResponse by_scalar = scalar_scan.Search(request);
    SearchResponse by_flat = flat_scan.Search(request);
    const auto& expect = by_scalar.results;
    const auto& got = by_flat.results;
    row.counts_match =
        row.counts_match &&
        by_scalar.stats.distance_computations == points &&
        by_flat.stats.distance_computations == points;
    for (size_t i = 0; i < expect.size() && row.results_match; ++i) {
      // Ids must agree; distances agree to the documented kernel
      // tolerance (the 4-lane sum reassociates the scalar reference).
      row.results_match =
          got.size() == expect.size() && got[i].id == expect[i].id &&
          std::fabs(got[i].distance - expect[i].distance) <=
              1e-12 * (1.0 + expect[i].distance);
    }
  }
  row.scalar_ms = scalar_best * 1e3;
  row.flat_ms = flat_best * 1e3;
  row.speedup = scalar_best / flat_best;
  return row;
}

// ------------------------------------- distperm candidate-ranking path

// The seed's query path, reconstructed over the index's public API:
// per-pair footrule with on-the-fly inversion (SpearmanFootrule /
// PrefixFootrule allocate and invert both permutations per pair),
// bucketed over the full footrule range, then the budget verified.
std::vector<SearchResult> NaiveDistPermKnn(
    const DistPermIndex<Vector>& index,
    const std::vector<Permutation>& stored, const Vector& query, size_t k) {
  const auto& sites = index.sites();
  const size_t site_count = sites.size();
  const auto& metric = index.metric();
  std::vector<double> distances(site_count);
  for (size_t j = 0; j < site_count; ++j) {
    distances[j] = metric(sites[j], query);
  }
  const bool full = index.prefix_length() == site_count;
  Permutation query_perm =
      full ? distperm::core::PermutationFromDistances(distances)
           : distperm::core::PermutationPrefixFromDistances(
                 distances, index.prefix_length());
  const size_t max_footrule =
      full ? static_cast<size_t>(distperm::core::MaxFootrule(site_count))
           : site_count * index.prefix_length();
  std::vector<std::vector<uint32_t>> buckets(max_footrule + 1);
  for (size_t i = 0; i < stored.size(); ++i) {
    const int f =
        full ? distperm::core::SpearmanFootrule(query_perm, stored[i])
             : distperm::core::PrefixFootrule(query_perm, stored[i],
                                              site_count);
    buckets[static_cast<size_t>(f)].push_back(static_cast<uint32_t>(i));
  }
  size_t budget = static_cast<size_t>(
      index.fraction() * static_cast<double>(index.size()));
  budget = std::max<size_t>(1, std::min(budget, index.size()));
  distperm::index::KnnCollector collector(k);
  size_t verified = 0;
  for (const auto& bucket : buckets) {
    for (uint32_t id : bucket) {
      if (verified >= budget) {
        auto results = collector.Take();
        return results;
      }
      ++verified;
      collector.Offer(id, metric(index.points().Point(id), query));
    }
  }
  return collector.Take();
}

DistPermRow BenchDistPerm(size_t points, size_t dim, size_t sites,
                          size_t prefix, double fraction, size_t queries,
                          size_t k, size_t reps, Rng* rng) {
  auto data = distperm::dataset::UniformCube(points, dim, rng);
  Rng site_rng(rng->NextU64());
  DistPermIndex<Vector> index(data, distperm::metric::LpMetric::L2(), sites,
                              &site_rng, fraction, prefix);
  const std::vector<Permutation> stored = index.StoredPermutations();
  std::vector<Vector> query_points;
  for (size_t q = 0; q < queries; ++q) {
    Vector p(dim);
    for (double& c : p) c = rng->NextDouble();
    query_points.push_back(std::move(p));
  }

  DistPermRow row;
  row.points = points;
  row.sites = sites;
  row.prefix = index.prefix_length();
  row.fraction = fraction;
  row.results_match = true;
  double naive_best = 1e300, indexed_best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    double t0 = Now();
    for (const Vector& q : query_points) NaiveDistPermKnn(index, stored, q, k);
    naive_best = std::min(naive_best, Now() - t0);
    t0 = Now();
    for (const Vector& q : query_points) {
      index.Search(SearchRequest<Vector>::Knn(q, k));
    }
    indexed_best = std::min(indexed_best, Now() - t0);
  }
  for (const Vector& q : query_points) {
    row.results_match =
        row.results_match &&
        index.Search(SearchRequest<Vector>::Knn(q, k)).results ==
            NaiveDistPermKnn(index, stored, q, k);
  }
  row.naive_ms = naive_best * 1e3;
  row.indexed_ms = indexed_best * 1e3;
  row.speedup = naive_best / indexed_best;
  return row;
}

// ------------------------------------------------------------ reporting

void WriteJson(const std::string& path, size_t points, size_t queries,
               size_t k, size_t reps, uint64_t seed, bool smoke,
               const std::vector<KernelRow>& kernels,
               const std::vector<ScanRow>& scans,
               const std::vector<FootruleRow>& footrules,
               const std::vector<DistPermRow>& distperms, bool pass) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  out << "{\n";
  out << "  \"schema\": \"BENCH_kernels\",\n";
  out << "  \"config\": {\"points\": " << points
      << ", \"queries\": " << queries << ", \"k\": " << k
      << ", \"reps\": " << reps << ", \"seed\": " << seed
      << ", \"smoke\": " << (smoke ? "true" : "false") << "},\n";
  out << "  \"kernels\": [\n";
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelRow& r = kernels[i];
    out << "    {\"metric\": \"" << r.metric << "\", \"dim\": " << r.dim
        << ", \"naive_mdist_per_sec\": " << Fixed(r.scalar_mdist, 2)
        << ", \"kernel_mdist_per_sec\": " << Fixed(r.kernel_mdist, 2)
        << ", \"speedup\": " << Fixed(r.speedup, 3) << "}"
        << (i + 1 < kernels.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"l2_linear_scan\": [\n";
  for (size_t i = 0; i < scans.size(); ++i) {
    const ScanRow& r = scans[i];
    out << "    {\"dim\": " << r.dim << ", \"points\": " << r.points
        << ", \"scalar_ms\": " << Fixed(r.scalar_ms, 3)
        << ", \"flat_ms\": " << Fixed(r.flat_ms, 3)
        << ", \"speedup\": " << Fixed(r.speedup, 3)
        << ", \"counts_match\": " << (r.counts_match ? "true" : "false")
        << ", \"results_match\": " << (r.results_match ? "true" : "false")
        << "}" << (i + 1 < scans.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"footrule_kernel\": [\n";
  for (size_t i = 0; i < footrules.size(); ++i) {
    const FootruleRow& r = footrules[i];
    out << "    {\"sites\": " << r.sites << ", \"rows\": " << r.rows
        << ", \"scalar_ns_per_row\": " << Fixed(r.scalar_ns, 3)
        << ", \"block_ns_per_row\": " << Fixed(r.block_ns, 3)
        << ", \"speedup\": " << Fixed(r.speedup, 3)
        << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < footrules.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"distperm_query_path\": [\n";
  for (size_t i = 0; i < distperms.size(); ++i) {
    const DistPermRow& r = distperms[i];
    out << "    {\"points\": " << r.points << ", \"sites\": " << r.sites
        << ", \"prefix\": " << r.prefix
        << ", \"fraction\": " << Fixed(r.fraction, 2)
        << ", \"naive_ms\": " << Fixed(r.naive_ms, 3)
        << ", \"indexed_ms\": " << Fixed(r.indexed_ms, 3)
        << ", \"speedup\": " << Fixed(r.speedup, 3)
        << ", \"results_match\": " << (r.results_match ? "true" : "false")
        << "}" << (i + 1 < distperms.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"pass\": " << (pass ? "true" : "false") << "\n";
  out << "}\n";
  std::cout << "\nwrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = distperm::util::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n";
    return 1;
  }
  const bool smoke = flags.value().GetBool("smoke", false);
  const size_t points = static_cast<size_t>(
      flags.value().GetInt("points", smoke ? 4000 : 20000));
  const size_t queries = static_cast<size_t>(
      flags.value().GetInt("queries", smoke ? 32 : 64));
  const size_t k = static_cast<size_t>(flags.value().GetInt("k", 10));
  const size_t reps = static_cast<size_t>(
      flags.value().GetInt("reps", smoke ? 4 : 5));
  const uint64_t seed =
      static_cast<uint64_t>(flags.value().GetInt("seed", 7));
  const bool strict = !flags.value().GetBool("no-strict", false);
  const std::string out_path =
      flags.value().GetString("out", "BENCH_kernels.json");
  const std::vector<size_t> dims =
      smoke ? std::vector<size_t>{32} : std::vector<size_t>{8, 32, 100};

  Rng rng(seed);

  std::cout << "kernel throughput: n=" << points << ", batch=" << queries
            << " x " << k << "-NN, reps=" << reps
            << (smoke ? " (smoke)" : "") << "\n\n";

  std::vector<KernelRow> kernels;
  distperm::util::TablePrinter ktable;
  ktable.SetHeader({"kernel", "dim", "naive Mdist/s", "blocked Mdist/s",
                    "speedup"});
  for (size_t dim : dims) {
    for (const char* name : {"L1", "L2sq", "Linf", "dot"}) {
      KernelRow row = BenchKernel(name, dim, CachePoints(points, dim),
                                  reps, &rng);
      ktable.AddRow({row.metric, std::to_string(row.dim),
                     Fixed(row.scalar_mdist, 1), Fixed(row.kernel_mdist, 1),
                     Fixed(row.speedup, 2)});
      kernels.push_back(row);
    }
  }
  ktable.Print(std::cout);

  std::cout << "\nL2 linear scan, flat blocked path vs scalar seed path:\n";
  std::vector<ScanRow> scans;
  distperm::util::TablePrinter stable;
  stable.SetHeader({"dim", "scalar ms", "flat ms", "speedup", "counts",
                    "results"});
  bool correctness_ok = true;
  bool speedup_ok = true;
  for (size_t dim : dims) {
    ScanRow row = BenchLinearScan(CachePoints(points, dim), dim, queries, k,
                                  reps, &rng);
    stable.AddRow({std::to_string(row.dim), Fixed(row.scalar_ms, 2),
                   Fixed(row.flat_ms, 2), Fixed(row.speedup, 2),
                   row.counts_match ? "OK" : "MISMATCH",
                   row.results_match ? "OK" : "MISMATCH"});
    scans.push_back(row);
    correctness_ok =
        correctness_ok && row.counts_match && row.results_match;
    if (dim >= 32 && row.speedup < 2.0) speedup_ok = false;
  }
  stable.Print(std::cout);

  std::cout << "\nfootrule row kernel, FootruleBlock (_mm_sad_epu8 on "
               "x86-64) vs FootruleBlockScalar:\n";
  std::vector<FootruleRow> footrules;
  distperm::util::TablePrinter ftable;
  ftable.SetHeader({"sites", "rows", "scalar ns/row", "block ns/row",
                    "speedup", "results"});
  for (size_t sites : {6u, 12u, 20u}) {
    FootruleRow row = BenchFootrule(sites, points, reps, &rng);
    ftable.AddRow({std::to_string(row.sites), std::to_string(row.rows),
                   Fixed(row.scalar_ns, 2), Fixed(row.block_ns, 2),
                   Fixed(row.speedup, 2),
                   row.identical ? "OK" : "MISMATCH"});
    footrules.push_back(row);
    correctness_ok = correctness_ok && row.identical;
  }
  ftable.Print(std::cout);

  std::cout << "\ndistperm query path, partial selection + O(k) footrule "
               "vs seed formulation:\n";
  std::vector<DistPermRow> distperms;
  distperm::util::TablePrinter dtable;
  dtable.SetHeader({"n", "sites", "prefix", "f", "naive ms", "indexed ms",
                    "speedup", "results"});
  const size_t dp_points = smoke ? points : points / 2;
  const size_t dp_queries = std::max<size_t>(4, queries / 4);
  for (const auto& [sites, prefix] :
       std::vector<std::pair<size_t, size_t>>{{12, 0}, {16, 4}}) {
    DistPermRow row = BenchDistPerm(dp_points, 8, sites, prefix, 0.1,
                                    dp_queries, k, reps, &rng);
    dtable.AddRow({std::to_string(row.points), std::to_string(row.sites),
                   std::to_string(row.prefix), Fixed(row.fraction, 2),
                   Fixed(row.naive_ms, 2), Fixed(row.indexed_ms, 2),
                   Fixed(row.speedup, 2),
                   row.results_match ? "OK" : "MISMATCH"});
    distperms.push_back(row);
    correctness_ok = correctness_ok && row.results_match;
  }
  dtable.Print(std::cout);

  const bool pass = correctness_ok && speedup_ok;
  WriteJson(out_path, points, queries, k, reps, seed, smoke, kernels, scans,
            footrules, distperms, pass);

  if (!correctness_ok) {
    std::cout << "\nRESULT: FAIL — flat-path results, distance counts or "
                 "footrules diverged from the scalar path\n";
    return strict ? 1 : 0;
  }
  if (!speedup_ok) {
    std::cout << "\nRESULT: "
              << (smoke ? "WARN (not gated in --smoke)" : "FAIL")
              << " — L2 linear-scan speedup at dim >= 32 fell below 2x\n";
    return (strict && !smoke) ? 1 : 0;
  }
  std::cout << "\nRESULT: PASS — counts, results and footrules match the "
               "scalar path; L2 linear-scan speedup >= 2x at dim >= 32\n";
  return 0;
}
