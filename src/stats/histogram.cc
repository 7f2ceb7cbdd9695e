#include "stats/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "core/check.h"

namespace pfs {

Histogram::Histogram(double lo, double hi, size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)), buckets_(buckets + 2, 0) {
  PFS_CHECK(hi > lo);
  PFS_CHECK(buckets > 0);
}

void Histogram::Record(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  size_t idx;
  if (v < lo_) {
    idx = 0;
  } else if (v >= hi_) {
    idx = buckets_.size() - 1;
  } else {
    idx = 1 + static_cast<size_t>((v - lo_) / width_);
    idx = std::min(idx, buckets_.size() - 2);
  }
  ++buckets_[idx];
}

double Histogram::BucketLow(size_t i) const {
  if (i == 0) {
    return min_;
  }
  return lo_ + static_cast<double>(i - 1) * width_;
}

double Histogram::BucketHigh(size_t i) const {
  if (i == 0) {
    return lo_;
  }
  if (i == buckets_.size() - 1) {
    return max_;
  }
  return lo_ + static_cast<double>(i) * width_;
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    const uint64_t next = seen + buckets_[i];
    if (static_cast<double>(next) >= target) {
      const double within =
          (target - static_cast<double>(seen)) / static_cast<double>(buckets_[i]);
      return BucketLow(i) + within * (BucketHigh(i) - BucketLow(i));
    }
    seen = next;
  }
  return max_;
}

std::string Histogram::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "count=%llu mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
                static_cast<unsigned long long>(count_), mean(), Percentile(0.50),
                Percentile(0.95), Percentile(0.99), max());
  return buf;
}

std::string Histogram::BucketDump() const {
  std::string out;
  char line[128];
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line), "  [%10.3f, %10.3f): %llu\n", BucketLow(i), BucketHigh(i),
                  static_cast<unsigned long long>(buckets_[i]));
    out += line;
  }
  return out;
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

void Histogram::Merge(const Histogram& other) {
  PFS_CHECK(buckets_.size() == other.buckets_.size());
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
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
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
  uint64_t total = 0;
  for (uint64_t b : bins) {
    total += b;
  }
  if (total == 0) {
    return 0;
  }
  // Nearest rank: the ceil(q*total)-th sample (1-based). Truncating instead
  // would bias one sample low — worst at small counts, where p99 of two
  // samples would report the smaller one.
  const uint64_t rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))), 1, total);
  uint64_t seen = 0;
  for (size_t i = 0; i < bins.size(); ++i) {
    seen += bins[i];
    if (seen >= rank) {
      return HistBucketHigh(i);
    }
  }
  return HistBucketHigh(bins.size() - 1);
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

void LatencyHistogram::Reset() { *this = LatencyHistogram(); }

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

LatencyHistogram LatencyHistogram::Since(const LatencyHistogram& earlier) const {
  if (earlier.count_ == 0) {
    return *this;
  }
  PFS_CHECK_MSG(earlier.count_ <= count_, "Since() needs an older snapshot of this one");
  std::vector<uint64_t> bins = buckets_;
  for (size_t i = 0; i < kHistBuckets; ++i) {
    bins[i] -= earlier.buckets_[i];
  }
  return LatencyHistogram(std::move(bins), sum_ns_ - earlier.sum_ns_);
}

}  // namespace pfs
