// Measurement containers for the plug-in statistics objects (paper §4):
// counters, running summaries of plain values (disk queue lengths,
// rotational delays) and log-bucketed latency histograms that yield the
// cumulative-distribution curves of Figures 2-4.
#ifndef PFS_STATS_HISTOGRAM_H_
#define PFS_STATS_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sched/time.h"

namespace pfs {

class Counter {
 public:
  void Inc(uint64_t k = 1) { value_ += k; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Running summary of doubles (queue depths, rotational delays, seek times,
// fan-out widths): the count, sum, minimum and maximum of every value
// recorded. It keeps no distribution.
class Histogram {
 public:
  void Record(double v);

  uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  void Merge(const Histogram& other);

  // "\"<key>\":{\"mean\":…,\"max\":…}", the shape every StatJson gives one.
  std::string JsonObject(const std::string& key) const;

 private:
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// HDR-style log buckets, shared by LatencyHistogram and the metric
// registry's HistogramMetric (obs/metrics.h), so both report percentiles
// from one bucket scheme: values < 2^kHistSubBits get unit-width buckets;
// above that, each power of two splits into kHistSubBuckets equal bins
// (<= 12.5% relative width) over the full uint64 range.
inline constexpr uint32_t kHistSubBits = 3;
inline constexpr uint32_t kHistSubBuckets = 1u << kHistSubBits;  // 8
inline constexpr size_t kHistBuckets =
    static_cast<size_t>(64 - kHistSubBits + 1) * kHistSubBuckets;  // covers all of uint64

// Bucket index of `v` (always < kHistBuckets).
size_t HistBucketIndex(uint64_t v);
// Inclusive upper bound of bucket `i` (the `le` boundary in scrape output);
// the last bucket reports UINT64_MAX.
uint64_t HistBucketHigh(size_t i);

// Nearest-rank q-quantile (q in [0, 1]) of the samples in `bins`
// (kHistBuckets entries): the upper bound of the bucket holding the
// ceil(q * total)-th sample, clamped into [1, total]; 0 when empty. Error is
// at most one bucket width, and the answer never undershoots the exact one.
uint64_t HistPercentile(std::span<const uint64_t> bins, double q);
// HistPercentile for each of `qs` (ascending) into `out` (as many entries),
// from one walk of `bins`. HistPercentile is its one-quantile case.
void HistPercentiles(std::span<const uint64_t> bins, std::span<const double> qs,
                     std::span<uint64_t> out);

// Latency distribution over Durations, recorded in nanoseconds into the HDR
// buckets above: a 300 µs cache hit and a 170 ms queueing delay both land in
// buckets at most 12.5% wide. Produces the CDF series for Figures 2-4, and
// is the value type components hand out for their registry histograms
// (HistogramMetric::Snapshot).
class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  // The distribution held by `bins` (kHistBuckets nanosecond buckets) whose
  // samples sum to `sum_ns`. Bins do not know the exact extremes, so min()
  // and max() are the bounds of the outermost occupied buckets.
  LatencyHistogram(std::vector<uint64_t> bins, int64_t sum_ns);

  void Record(Duration d);

  uint64_t count() const { return count_; }
  Duration mean() const;
  Duration min() const { return count_ == 0 ? Duration() : min_; }
  Duration max() const { return count_ == 0 ? Duration() : max_; }
  // HistPercentile, clamped to max().
  Duration Percentile(double p) const;

  // Fraction of samples in buckets up to and including d's.
  double FractionBelow(Duration d) const;

  struct CdfPoint {
    double millis;    // bucket upper bound
    double fraction;  // cumulative fraction of samples <= bound
  };
  // Monotone CDF curve; empty buckets between occupied ones are skipped.
  std::vector<CdfPoint> Cdf() const;

  std::string Summary() const;

  // The four-field latency object every StatJson uses
  // ("\"<key>\":{\"mean\":…,\"p50\":…,\"p95\":…,\"p99\":…}", milliseconds),
  // with the percentiles of Percentile().
  std::string MsJsonObject(const std::string& key) const;

  void Merge(const LatencyHistogram& other);

 private:
  // Bucket i's upper bound, clamped to max().
  Duration BucketHigh(size_t i) const;

  std::vector<uint64_t> buckets_;  // kHistBuckets entries once non-empty
  uint64_t count_ = 0;
  int64_t sum_ns_ = 0;
  Duration min_;
  Duration max_;
};

}  // namespace pfs

#endif  // PFS_STATS_HISTOGRAM_H_
