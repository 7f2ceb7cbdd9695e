#include "stats/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "core/check.h"

namespace pfs {

void Histogram::Record(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

std::string Histogram::JsonObject(const std::string& key) const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "\"%s\":{\"mean\":%.3f,\"max\":%.3f}", key.c_str(),
                mean(), max());
  return buf;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

size_t HistBucketIndex(uint64_t v) {
  if (v < kHistSubBuckets) {
    return static_cast<size_t>(v);
  }
  const uint32_t e = 63u - static_cast<uint32_t>(std::countl_zero(v));
  const uint32_t sub =
      static_cast<uint32_t>(v >> (e - kHistSubBits)) & (kHistSubBuckets - 1);
  return static_cast<size_t>(kHistSubBuckets) * (e - kHistSubBits + 1) + sub;
}

uint64_t HistBucketHigh(size_t i) {
  const size_t q = i / kHistSubBuckets;
  const size_t r = i % kHistSubBuckets;
  if (q == 0) {
    return static_cast<uint64_t>(r);  // unit buckets: value == index
  }
  const uint32_t e = static_cast<uint32_t>(q) + kHistSubBits - 1;
  if (e >= 63 && r == kHistSubBuckets - 1) {
    return UINT64_MAX;
  }
  const uint64_t lo = (static_cast<uint64_t>(kHistSubBuckets) + r) << (e - kHistSubBits);
  return lo + (uint64_t{1} << (e - kHistSubBits)) - 1;
}

uint64_t HistPercentile(std::span<const uint64_t> bins, double q) {
  uint64_t out = 0;
  HistPercentiles(bins, std::span<const double>(&q, 1), std::span<uint64_t>(&out, 1));
  return out;
}

void HistPercentiles(std::span<const uint64_t> bins, std::span<const double> qs,
                     std::span<uint64_t> out) {
  PFS_CHECK(out.size() == qs.size());
  uint64_t total = 0;
  for (uint64_t b : bins) {
    total += b;
  }
  if (total == 0) {
    std::fill(out.begin(), out.end(), 0);
    return;
  }
  // One walk: bins[0..i] hold `seen` samples, and i only moves forward
  // because the ranks ascend with qs.
  size_t i = 0;
  uint64_t seen = bins[0];
  for (size_t k = 0; k < qs.size(); ++k) {
    PFS_CHECK(k == 0 || qs[k - 1] <= qs[k]);
    // Nearest rank: the ceil(q*total)-th sample (1-based). Truncating
    // instead would bias one sample low — worst at small counts, where p99
    // of two samples would report the smaller one.
    const uint64_t rank = std::clamp<uint64_t>(
        static_cast<uint64_t>(std::ceil(qs[k] * static_cast<double>(total))), 1, total);
    while (seen < rank && i + 1 < bins.size()) {
      seen += bins[++i];
    }
    out[k] = HistBucketHigh(i);
  }
}

namespace {

// A Duration's bucket; negative durations count as zero.
size_t BucketOf(Duration d) {
  return HistBucketIndex(static_cast<uint64_t>(std::max<int64_t>(d.nanos(), 0)));
}

}  // namespace

LatencyHistogram::LatencyHistogram(std::vector<uint64_t> bins, int64_t sum_ns)
    : buckets_(std::move(bins)), sum_ns_(sum_ns) {
  PFS_CHECK(buckets_.size() == kHistBuckets);
  size_t first = kHistBuckets;
  size_t last = 0;
  for (size_t i = 0; i < kHistBuckets; ++i) {
    if (buckets_[i] != 0) {
      count_ += buckets_[i];
      first = std::min(first, i);
      last = i;
    }
  }
  if (count_ > 0) {
    const uint64_t low = first == 0 ? 0 : HistBucketHigh(first - 1) + 1;
    min_ = Duration::Nanos(static_cast<int64_t>(low));
    max_ = Duration::Nanos(static_cast<int64_t>(HistBucketHigh(last)));
  }
}

Duration LatencyHistogram::BucketHigh(size_t i) const {
  return std::min(Duration::Nanos(static_cast<int64_t>(HistBucketHigh(i))), max_);
}

void LatencyHistogram::Record(Duration d) {
  if (count_ == 0) {
    min_ = max_ = d;
    if (buckets_.empty()) {
      buckets_.assign(kHistBuckets, 0);
    }
  } else {
    min_ = std::min(min_, d);
    max_ = std::max(max_, d);
  }
  ++count_;
  sum_ns_ += d.nanos();
  ++buckets_[BucketOf(d)];
}

Duration LatencyHistogram::mean() const {
  if (count_ == 0) {
    return Duration();
  }
  return Duration::Nanos(sum_ns_ / static_cast<int64_t>(count_));
}

Duration LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return Duration();
  }
  const uint64_t ns = HistPercentile(buckets_, p);
  return std::min(Duration::Nanos(static_cast<int64_t>(ns)), max_);
}

double LatencyHistogram::FractionBelow(Duration d) const {
  if (count_ == 0) {
    return 0.0;
  }
  const size_t limit = BucketOf(d);
  uint64_t seen = 0;
  for (size_t i = 0; i <= limit; ++i) {
    seen += buckets_[i];
  }
  return static_cast<double>(seen) / static_cast<double>(count_);
}

std::vector<LatencyHistogram::CdfPoint> LatencyHistogram::Cdf() const {
  std::vector<CdfPoint> points;
  if (count_ == 0) {
    return points;
  }
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    seen += buckets_[i];
    points.push_back(CdfPoint{BucketHigh(i).ToMillisF(),
                              static_cast<double>(seen) / static_cast<double>(count_)});
  }
  return points;
}

std::string LatencyHistogram::Summary() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms",
                static_cast<unsigned long long>(count_), mean().ToMillisF(),
                Percentile(0.50).ToMillisF(), Percentile(0.95).ToMillisF(),
                Percentile(0.99).ToMillisF(), max().ToMillisF());
  return buf;
}

std::string LatencyHistogram::MsJsonObject(const std::string& key) const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"mean\":%.4f,\"p50\":%.4f,\"p95\":%.4f,\"p99\":%.4f}",
                key.c_str(), mean().ToMillisF(), Percentile(0.50).ToMillisF(),
                Percentile(0.95).ToMillisF(), Percentile(0.99).ToMillisF());
  return buf;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  for (size_t i = 0; i < kHistBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

}  // namespace pfs
