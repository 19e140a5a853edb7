#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <set>
#include <sstream>

namespace wirebench {

// ------------------------------------------------------------ percentiles

namespace {

size_t NearestRank(size_t n, double q) {
  if (n == 0) return 0;
  // ceil(q * n) with a guard against q * n landing a hair above an
  // integer through rounding (0.99 * 1000 = 990.0000000000001).
  const double scaled = q * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(scaled - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

Tail TailPercentile(const std::vector<double>& values, double wanted_q) {
  static const double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};
  Tail tail;
  tail.q = 0.5;
  for (double q : kLadder) {
    if (q > wanted_q) continue;
    if (SamplesBeyond(values.size(), q) >= 10) {
      tail.q = q;
      tail.supported = true;
      break;
    }
  }
  tail.value = Percentile(values, tail.q);
  return tail;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ------------------------------------------------------------------ spans

std::map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, const Span*> by_id;
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    by_id[span.id] = &span;
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<uint64_t, int64_t> self;
  for (const Span& span : spans) {
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (const Span* child : children[span.id]) {
      const int64_t lo = std::max(child->start_ns, span.start_ns);
      const int64_t hi = std::min(child->end_ns, span.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    bool open = false;
    for (const auto& [lo, hi] : covered) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[span.id] = std::max<int64_t>(0, span.end_ns - span.start_ns) -
                    union_ns;
  }
  return self;
}

double MeanSelfUsPerRequest(const std::vector<Span>& spans,
                            const std::map<uint64_t, int64_t>& self,
                            const std::string& name, size_t requests) {
  std::map<uint64_t, int64_t> per_request;
  for (const Span& span : spans) {
    if (span.name != name) continue;
    auto it = self.find(span.id);
    if (it == self.end()) continue;
    per_request[span.request] += it->second;
  }
  const size_t divisor = requests != 0 ? requests : per_request.size();
  if (divisor == 0) return 0.0;
  double total = 0.0;
  for (const auto& [request, ns] : per_request) total += ns;
  return total / 1e3 / static_cast<double>(divisor);
}

std::string FormatSpans(const std::vector<Span>& spans) {
  std::ostringstream os;
  for (const Span& span : spans) {
    os << span.id << '\t' << span.parent << '\t' << span.request << '\t'
       << span.name << '\t' << span.start_ns << '\t' << span.end_ns << '\n';
  }
  return os.str();
}

// --------------------------------------------------------- /metrics text

double Scrape::Value(const std::string& name) const {
  auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

Scrape ParseExposition(const std::string& text) {
  Scrape scrape;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string key = line.substr(0, space);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    const size_t bucket = key.find("_bucket{");
    const size_t le = key.find("le=\"");
    if (bucket != std::string::npos && le != std::string::npos) {
      const std::string bound_text =
          key.substr(le + 4, key.find('"', le + 4) - (le + 4));
      const double bound = bound_text == "+Inf"
                               ? INFINITY
                               : std::strtod(bound_text.c_str(), nullptr);
      scrape.buckets[key.substr(0, bucket)].emplace_back(bound, value);
    } else {
      scrape.values[key] = value;
    }
  }
  for (auto& [base, list] : scrape.buckets) {
    std::stable_sort(list.begin(), list.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
  }
  return scrape;
}

double CounterDelta(const Scrape& before, const Scrape& after,
                    const std::string& name) {
  return after.Value(name) - before.Value(name);
}

namespace {

/// Cumulative count at `bound`: the entry with the largest le <= bound.
double CumulativeAt(const Scrape& scrape, const std::string& base,
                    double bound) {
  auto it = scrape.buckets.find(base);
  if (it == scrape.buckets.end()) return 0.0;
  double cumulative = 0.0;
  for (const auto& [le, count] : it->second) {
    if (le > bound) break;
    cumulative = std::max(cumulative, count);
  }
  return cumulative;
}

}  // namespace

double HistogramCount(const Scrape& before, const Scrape& after,
                      const std::string& base) {
  return CumulativeAt(after, base, INFINITY) -
         CumulativeAt(before, base, INFINITY);
}

double HistogramQuantile(const Scrape& before, const Scrape& after,
                         const std::string& base, double q) {
  const double total = HistogramCount(before, after, base);
  if (total <= 0.0) return 0.0;
  auto it = after.buckets.find(base);
  std::set<double> bounds;
  for (const auto& entry : it->second) bounds.insert(entry.first);
  double last_finite = 0.0;
  for (double bound : bounds) {
    const double gained =
        CumulativeAt(after, base, bound) - CumulativeAt(before, base, bound);
    if (std::isfinite(bound)) last_finite = bound;
    if (gained >= q * total) return std::isfinite(bound) ? bound : last_finite;
  }
  return last_finite;
}

double HistogramMean(const Scrape& before, const Scrape& after,
                     const std::string& base) {
  const double count = HistogramCount(before, after, base);
  if (count <= 0.0) return 0.0;
  return (after.Value(base + "_sum") - before.Value(base + "_sum")) / count;
}

void AddWindow(Scrape* total, const Scrape& before, const Scrape& after) {
  for (const auto& [name, value] : after.values) {
    total->values[name] += value - before.Value(name);
  }
  for (const auto& [base, list] : after.buckets) {
    std::set<double> bounds;
    for (const auto& entry : list) bounds.insert(entry.first);
    for (const auto& entry : total->buckets[base]) bounds.insert(entry.first);
    std::vector<std::pair<double, double>> merged;
    for (double bound : bounds) {
      merged.emplace_back(bound, CumulativeAt(*total, base, bound) +
                                     CumulativeAt(after, base, bound) -
                                     CumulativeAt(before, base, bound));
    }
    total->buckets[base] = std::move(merged);
  }
}

// ------------------------------------------------------------------- JSON

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<std::pair<std::string, MetricValue>>&
                           metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char number[64];
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(number, sizeof(number), "%.17g", value);
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << number
       << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------- self-tests

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "selftest FAILED: " << what << "\n";
    ++g_failures;
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
         what + " (got " + std::to_string(got) + ", want " +
             std::to_string(want) + ")");
}

void PercentileTests() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  ExpectNear(Percentile(hundred, 0.5), 50, "p50 of 1..100");
  ExpectNear(Percentile(hundred, 0.99), 99, "p99 of 1..100");
  ExpectNear(Percentile(hundred, 1.0), 100, "p100 of 1..100");
  ExpectNear(Percentile({7.0}, 0.99), 7, "p99 of one sample");
  ExpectNear(Percentile({}, 0.5), 0, "empty input");
  ExpectNear(Percentile({1, 2, 3, 4}, 0.5), 2, "nearest-rank p50 of 4");
  Expect(SamplesBeyond(1000, 0.99) == 10, "p99 of 1000 has 10 beyond");
  Expect(SamplesBeyond(999, 0.99) == 9, "p99 of 999 has 9 beyond");
  Expect(SamplesBeyond(100, 0.9) == 10, "p90 of 100 has 10 beyond");

  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  Tail tail = TailPercentile(thousand, 0.99);
  Expect(tail.supported && tail.q == 0.99, "p99 supported at n=1000");
  ExpectNear(tail.value, 990, "p99 of 1..1000");
  // 999 samples: p99 has 9 beyond, so the rule falls back to p95.
  thousand.pop_back();
  tail = TailPercentile(thousand, 0.99);
  Expect(tail.supported && tail.q == 0.95, "n=999 falls back to p95");
  Expect(SamplesBeyond(thousand.size(), tail.q) >= 10,
         "reported tail has >= 10 samples beyond it");
  tail = TailPercentile(std::vector<double>(15, 1.0), 0.99);
  Expect(!tail.supported, "n=15 supports no tail (median has 7 beyond)");
  tail = TailPercentile(std::vector<double>(20, 1.0), 0.99);
  Expect(tail.supported && tail.q == 0.5, "n=20 supports only the median");
  ExpectNear(Median({3, 1, 2}), 2, "odd median");
  ExpectNear(Median({4, 1, 2, 3}), 2.5, "even median");
}

void SpanTests() {
  // request span [0,100] with children [10,30] and [20,50] (overlap)
  // and [90,120] (clipped to the parent): covered = [10,50] + [90,100].
  std::vector<Span> spans = {
      {1, 0, 7, "request", 0, 100},   {2, 1, 7, "net.encode", 10, 30},
      {3, 1, 7, "net.encode", 20, 50}, {4, 1, 7, "server", 90, 120},
      {5, 4, 7, "engine", 95, 105},
  };
  const auto self = SelfTimes(spans);
  Expect(self.at(1) == 50, "parent self = 100 - 50 covered");
  Expect(self.at(2) == 20 && self.at(3) == 30, "leaf self = duration");
  Expect(self.at(4) == 30 - 10, "child clipped to its own interval");
  Expect(self.at(5) == 10, "grandchild leaf");
  ExpectNear(MeanSelfUsPerRequest(spans, self, "net.encode"), 0.05,
             "per-request sum of two encode spans (50 ns)");
  ExpectNear(MeanSelfUsPerRequest(spans, self, "net.encode", 2), 0.025,
             "mean over an explicit request count");
  const std::string file = FormatSpans(spans);
  Expect(file.rfind("1\t0\t7\trequest\t0\t100\n2\t1\t7\t", 0) == 0 &&
             file.size() > 0 && file.back() == '\n',
         "span file lines: " + file.substr(0, 40));
}

void ExpositionTests() {
  const Scrape before = ParseExposition(
      "# distperm metrics registry \"t\"\n"
      "server_requests_total 10\n"
      "lat_bucket{le=\"0.001\"} 4\n"
      "lat_bucket{le=\"+Inf\"} 4\n"
      "lat_sum 0.002\nlat_count 4\n");
  const Scrape after = ParseExposition(
      "server_requests_total 25\n"
      "lat_bucket{le=\"0.001\"} 5\n"
      "lat_bucket{le=\"0.01\"} 14\n"
      "lat_bucket{le=\"+Inf\"} 14\n"
      "lat_sum 0.052\nlat_count 14\n");
  ExpectNear(CounterDelta(before, after, "server_requests_total"), 15,
             "counter delta");
  ExpectNear(HistogramCount(before, after, "lat"), 10, "window count");
  ExpectNear(HistogramQuantile(before, after, "lat", 0.1), 0.001,
             "1 of 10 window observations in the first bucket");
  ExpectNear(HistogramQuantile(before, after, "lat", 0.5), 0.01,
             "window median in the second bucket");
  ExpectNear(HistogramMean(before, after, "lat"), 0.005, "window mean");
  ExpectNear(HistogramQuantile(before, before, "lat", 0.5), 0,
             "empty window");
  // Two windows summed read like one: 10 + 10 observations.
  Scrape total;
  AddWindow(&total, before, after);
  AddWindow(&total, before, after);
  const Scrape empty;
  ExpectNear(CounterDelta(empty, total, "server_requests_total"), 30,
             "summed counter windows");
  ExpectNear(HistogramCount(empty, total, "lat"), 20, "summed window count");
  ExpectNear(HistogramQuantile(empty, total, "lat", 0.1), 0.001,
             "summed windows keep the bucket split");
  ExpectNear(HistogramMean(empty, total, "lat"), 0.005, "summed window mean");
}

void JsonAndNameTests() {
  Expect(ValidMetricName("net.decode_us") && ValidMetricName("op_p99_ms") &&
             ValidMetricName("1x"),
         "valid names");
  Expect(!ValidMetricName("") && !ValidMetricName("_x") &&
             !ValidMetricName("a b") && !ValidMetricName("p99{le}") &&
             !ValidMetricName(std::string(65, 'a')),
         "invalid names");
  const std::string json =
      ResultJson(true, 3, 0, {{"a", {1.5, "ms"}}, {"b", {NAN, "s"}}});
  Expect(json ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, "
             "\"b\": {\"value\": 0, \"unit\": \"s\"}}}",
         "result json shape: " + json);
}

}  // namespace

int RunSelfTests() {
  g_failures = 0;
  PercentileTests();
  SpanTests();
  ExpositionTests();
  JsonAndNameTests();
  return g_failures;
}

}  // namespace wirebench
