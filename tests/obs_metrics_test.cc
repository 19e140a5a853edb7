// Telemetry instrument tests: sharded counters/gauges/histograms must
// be exact under contention (the design's invariant: sharding moves
// increments across cells, never loses or double-counts them), and the
// registry's exposition must faithfully render what the instruments
// hold.  The contention tests run in the CI TSan job.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace distperm {
namespace obs {
namespace {

TEST(ObsMetrics, CounterStartsAtZeroAndAddsExactly) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
}

// N threads hammer one counter; the fold over the padded cells must
// equal the exact submitted total, bit for bit.
TEST(ObsMetrics, CounterIsExactUnderContention) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter]() {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        // Mix Increment and Add so both paths are contended.
        if (i % 4 == 0) {
          counter.Add(3);
        } else {
          counter.Increment();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Per thread: a quarter of the iterations Add(3), the rest Add(1).
  const uint64_t per_thread =
      (kPerThread / 4) * 3 + (kPerThread - kPerThread / 4);
  EXPECT_EQ(counter.Value(), kThreads * per_thread);
}

TEST(ObsMetrics, GaugeGoesUpAndDownExactly) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Add(10);
  gauge.Decrement();
  gauge.Add(-4);
  EXPECT_EQ(gauge.Value(), 5);
}

TEST(ObsMetrics, GaugeIsExactUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  Gauge gauge;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        // Even threads push up, odd threads pull down.
        if (t % 2 == 0) {
          gauge.Increment();
        } else {
          gauge.Decrement();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(gauge.Value(), 0);  // equal up and down traffic cancels
}

TEST(ObsMetrics, HistogramBucketLayout) {
  // Bucket 0 is the underflow bucket: everything at or below kMinValue,
  // and NaN.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-1.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(Histogram::kMinValue), 0u);
  EXPECT_EQ(Histogram::BucketIndex(std::nan("")), 0u);
  // The last bucket is overflow and its upper bound is +infinity.
  EXPECT_EQ(Histogram::BucketIndex(1e12), Histogram::kBucketCount - 1);
  EXPECT_TRUE(std::isinf(
      Histogram::BucketUpperBound(Histogram::kBucketCount - 1)));
  // Every recordable value lands in the bucket whose bounds contain it
  // (values chosen off the decade edges, where the log-bucket boundary
  // is only accurate to floating-point log10).
  for (double v : {2e-8, 3e-4, 0.013, 0.5, 1.7, 7.3, 2.2e3, 3e8}) {
    const size_t i = Histogram::BucketIndex(v);
    ASSERT_GT(i, 0u) << v;
    ASSERT_LT(i, Histogram::kBucketCount - 1) << v;
    EXPECT_LE(v, Histogram::BucketUpperBound(i)) << v;
    EXPECT_GT(v, Histogram::BucketUpperBound(i - 1)) << v;
  }
}

// Contended recording: bucket totals sum to the exact observation
// count, and with integer-valued samples the sum is exact too (small
// integers add without rounding in double).
TEST(ObsMetrics, HistogramIsExactUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Histogram histogram;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram]() {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<double>(1 + i % 7));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto snapshot = histogram.Snap();
  EXPECT_EQ(snapshot.count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t bucket : snapshot.buckets) bucket_total += bucket;
  EXPECT_EQ(bucket_total, snapshot.count());
  // Sum of each thread's 1+2+...+7 cycles, exactly.
  const double per_thread =
      (kPerThread / 7) * 28.0 +
      [] {
        double tail = 0;
        for (int i = kPerThread - kPerThread % 7; i < kPerThread; ++i) {
          tail += 1 + i % 7;
        }
        return tail;
      }();
  EXPECT_DOUBLE_EQ(snapshot.sum, kThreads * per_thread);
  EXPECT_DOUBLE_EQ(snapshot.mean(), snapshot.sum / snapshot.count());
}

TEST(ObsMetrics, HistogramQuantilesAtBucketResolution) {
  Histogram histogram;
  for (int i = 0; i < 99; ++i) histogram.Record(0.0015);
  histogram.Record(2.0);
  const auto snapshot = histogram.Snap();
  EXPECT_EQ(snapshot.count(), 100u);
  // A quantile reads out as the upper bound of the bucket holding its
  // rank: p50 lands in the small value's bucket, p999 must reach the
  // outlier's.
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.5),
                   Histogram::BucketUpperBound(Histogram::BucketIndex(
                       0.0015)));
  EXPECT_DOUBLE_EQ(
      snapshot.Quantile(0.999),
      Histogram::BucketUpperBound(Histogram::BucketIndex(2.0)));
  EXPECT_GE(snapshot.Quantile(0.999), 2.0);
  EXPECT_LE(snapshot.Quantile(0.999), 2.0 * std::pow(10.0, 0.125));
  // Empty histogram: every quantile is 0.
  EXPECT_DOUBLE_EQ(Histogram::Snapshot{}.Quantile(0.5), 0.0);
}

TEST(ObsMetrics, RegistryReturnsStableSharedInstruments) {
  MetricsRegistry registry("r");
  Counter* a = registry.GetCounter("hits_total");
  Counter* b = registry.GetCounter("hits_total");
  EXPECT_EQ(a, b);  // same name, same instrument
  a->Increment();
  EXPECT_EQ(b->Value(), 1u);
  // A name bound to one kind refuses to be another kind.
  EXPECT_EQ(registry.GetGauge("hits_total"), nullptr);
  EXPECT_EQ(registry.GetHistogram("hits_total"), nullptr);
  EXPECT_NE(registry.GetGauge("depth"), nullptr);
  EXPECT_EQ(registry.GetCounter("depth"), nullptr);
}

TEST(ObsMetrics, TextExpositionRendersEverySeries) {
  MetricsRegistry registry("engine");
  registry.GetCounter("requests_total")->Add(7);
  registry.GetGauge("inflight")->Add(3);
  Histogram* latency = registry.GetHistogram("latency_seconds");
  latency->Record(0.001);
  latency->Record(0.001);
  latency->Record(0.5);

  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find("requests_total 7"), std::string::npos) << text;
  EXPECT_NE(text.find("inflight 3"), std::string::npos) << text;
  // Histogram: cumulative populated buckets closed by +Inf, plus
  // _sum/_count.
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_seconds_count 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_seconds_sum 0.502"), std::string::npos)
      << text;
}

TEST(ObsMetrics, TextExpositionSplicesHistogramLabels) {
  MetricsRegistry registry("engine");
  registry.GetHistogram("latency_seconds{mode=\"knn\"}")->Record(0.01);
  const std::string text = registry.TextExposition();
  // The le label joins the existing label set instead of nesting.
  EXPECT_NE(text.find("latency_seconds_bucket{mode=\"knn\",le="),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_seconds_count{mode=\"knn\"} 1"),
            std::string::npos)
      << text;
}

TEST(ObsMetrics, CallbackGaugesSumAndUnregister) {
  MetricsRegistry registry("r");
  std::atomic<int> depth_a{5};
  std::atomic<int> depth_b{2};
  const uint64_t handle_a = registry.RegisterCallback(
      "queue_depth", [&depth_a]() { return depth_a.load(); });
  const uint64_t handle_b = registry.RegisterCallback(
      "queue_depth", [&depth_b]() { return depth_b.load(); });
  EXPECT_NE(registry.TextExposition().find("queue_depth 7"),
            std::string::npos);
  registry.UnregisterCallback(handle_a);
  EXPECT_NE(registry.TextExposition().find("queue_depth 2"),
            std::string::npos);
  registry.UnregisterCallback(handle_b);
  EXPECT_EQ(registry.TextExposition().find("queue_depth"),
            std::string::npos);
}

TEST(ObsMetrics, JsonExpositionCarriesPercentiles) {
  MetricsRegistry registry("engine");
  registry.GetCounter("requests_total")->Add(3);
  Histogram* latency = registry.GetHistogram("latency_seconds");
  for (int i = 0; i < 100; ++i) latency->Record(0.002);
  const std::string json = registry.JsonExposition();
  EXPECT_NE(json.find("\"registry\": \"engine\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"requests_total\": 3"), std::string::npos) << json;
  for (const char* key : {"\"count\": 100", "\"p50\"", "\"p99\"",
                          "\"p999\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
}

// Concurrent registry access: many threads resolving the same and
// different names while recording must neither crash nor lose counts.
TEST(ObsMetrics, RegistryCreationIsThreadSafe) {
  MetricsRegistry registry("r");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t]() {
      const std::string own = "series_" + std::to_string(t % 3);
      for (int i = 0; i < kPerThread; ++i) {
        registry.GetCounter("shared_total")->Increment();
        registry.GetCounter(own)->Increment();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("shared_total")->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t split = 0;
  for (int s = 0; s < 3; ++s) {
    split += registry.GetCounter("series_" + std::to_string(s))->Value();
  }
  EXPECT_EQ(split, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ObsMetrics, SearchTraceSumsSpans) {
  SearchTrace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.total_distance_computations(), 0u);
  trace.spans.push_back({0, false, 0.0, 1.0, 10, 0.0});
  trace.spans.push_back({1, true, 0.5, 2.0, 32, 0.0});
  EXPECT_FALSE(trace.empty());
  EXPECT_EQ(trace.total_distance_computations(), 42u);
}

}  // namespace
}  // namespace obs
}  // namespace distperm
