// Pure helpers of the wire benchmark: percentiles with the sample-count
// rule, span self-time arithmetic, Prometheus text parsing, and the
// result JSON.  Everything here is deterministic and covered by
// `wirebench selftest`.

#ifndef WIREBENCH_HARNESS_H_
#define WIREBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace wirebench {

/// steady_clock (CLOCK_MONOTONIC) nanoseconds: comparable across the
/// benchmark's processes on one host.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ percentiles

/// Nearest-rank percentile of `values` (0 < q <= 1): the smallest value
/// with at least q*n samples at or below it.  0 for an empty input.
double Percentile(std::vector<double> values, double q);

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
size_t SamplesBeyond(size_t n, double q);

/// A tail percentile reported under the rule that at least ten samples
/// lie beyond it: `q` is the wanted quantile when n supports it, else
/// the highest rung of {0.99, 0.95, 0.9, 0.75, 0.5} that n supports.
/// `supported` is false (and q = 0.5) when even the median has fewer
/// than ten samples beyond it.
struct Tail {
  double q = 0.0;
  double value = 0.0;
  bool supported = false;
};
Tail TailPercentile(const std::vector<double>& values, double wanted_q);

double Mean(const std::vector<double>& values);
double Median(std::vector<double> values);

// ------------------------------------------------------------------ spans

/// One timed interval of the benchmark's own code around a call into a
/// layer.  `parent` is the id of the enclosing span (0 = root);
/// `request` groups the spans of one request or probe.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its
/// interval covered by its children (overlapping children counted
/// once, children clipped to the parent).  Keyed by span id.
std::map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans);

/// Mean self time in microseconds of the spans named `name`, summed per
/// request first (a request with three shard spans contributes their
/// sum).  `requests` is the divisor: the number of requests the mean is
/// over (0 = the number of distinct requests that had such a span).
double MeanSelfUsPerRequest(const std::vector<Span>& spans,
                            const std::map<uint64_t, int64_t>& self,
                            const std::string& name, size_t requests = 0);

/// Tab-separated span file, one span a line:
/// "id parent request name start_ns end_ns".
std::string FormatSpans(const std::vector<Span>& spans);

// --------------------------------------------------------- /metrics text

/// One scrape of a registry's text exposition.  Plain series land in
/// `values`; histogram buckets in `buckets[base]` as (le, cumulative).
struct Scrape {
  std::map<std::string, double> values;
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;

  double Value(const std::string& name) const;
};
Scrape ParseExposition(const std::string& text);

/// after - before for a counter (0 when absent from both).
double CounterDelta(const Scrape& before, const Scrape& after,
                    const std::string& name);

/// Quantile of the observations a histogram gained between two scrapes
/// (upper bound of the bucket holding the q-th observation; 0 when the
/// window saw none).
double HistogramQuantile(const Scrape& before, const Scrape& after,
                         const std::string& base, double q);
/// Mean of the observations a histogram gained between two scrapes.
double HistogramMean(const Scrape& before, const Scrape& after,
                     const std::string& base);
double HistogramCount(const Scrape& before, const Scrape& after,
                      const std::string& base);

/// Adds what every series gained between `before` and `after` to
/// `total`, so several windows can be read as one (against an empty
/// "before").  Histogram buckets are summed at every bound either side
/// reports.
void AddWindow(Scrape* total, const Scrape& before, const Scrape& after);

// ------------------------------------------------------------------- JSON

/// A metric as printed: value plus unit.
struct MetricValue {
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<std::pair<std::string, MetricValue>>&
                           metrics);

/// True when `name` is non-empty, starts with a letter or digit, and is
/// made only of [A-Za-z0-9_.-] (at most 64 characters).
bool ValidMetricName(const std::string& name);

/// Runs the harness self-tests; prints failures to stderr.  Returns the
/// number of failed checks.
int RunSelfTests();

}  // namespace wirebench

#endif  // WIREBENCH_HARNESS_H_
