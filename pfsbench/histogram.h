// Log-linear latency histogram for the benchmark's own measurements.
//
// Values (nanoseconds) below 128 get one bucket each; above that every power
// of two is split into 128 linear sub-buckets. A bucket is thus at most 1/128
// of its lower bound wide, and a percentile placed inside its bucket is off
// by less than 0.8%. The framework's own
// LatencyHistogram (~9% geometric buckets) is not precise enough to serve as
// the reference.
#ifndef PFSBENCH_HISTOGRAM_H_
#define PFSBENCH_HISTOGRAM_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace pfsbench {

class LogLinearHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  // Indexes reach (63 - kSubBits + 1) * kSub for the largest int64 value.
  static constexpr size_t kBuckets = (64 - kSubBits) * kSub;

  LogLinearHistogram() : counts_(kBuckets, 0) {}

  void Record(int64_t ns) {
    const uint64_t v = ns > 0 ? static_cast<uint64_t>(ns) : 0;
    ++counts_[Index(v)];
    ++count_;
    sum_ns_ += static_cast<double>(v);
  }

  void Merge(const LogLinearHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
    sum_ns_ += other.sum_ns_;
  }

  uint64_t count() const { return count_; }
  double mean_ns() const { return count_ == 0 ? 0.0 : sum_ns_ / static_cast<double>(count_); }

  // Nearest-rank percentile (rank = ceil(q * n)), placed within the bucket
  // holding that rank by linear interpolation over the bucket's samples;
  // 0 when empty.
  double PercentileNs(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
    rank = rank < 1 ? 1 : (rank > count_ ? count_ : rank);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (seen + counts_[i] >= rank) {
        const double within = (static_cast<double>(rank - seen) - 0.5) /
                              static_cast<double>(counts_[i]);
        return Low(i) + within * Width(i);
      }
      seen += counts_[i];
    }
    return Low(kBuckets - 1);
  }

  // Samples in buckets above the one holding percentile q: the support of a
  // tail percentile (the choosing-metrics rule wants at least ten).
  uint64_t CountAbove(double q) const {
    const double at = PercentileNs(q);
    uint64_t above = 0;
    for (size_t i = kBuckets; i-- > 0 && Low(i) > at;) {
      above += counts_[i];
    }
    return above;
  }

  // Order-sensitive digest of the bucket counts (deterministic runs compare
  // these across repetitions).
  uint64_t Digest() const {
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] != 0) {
        h = (h ^ i) * 0x100000001b3ull;
        h = (h ^ counts_[i]) * 0x100000001b3ull;
      }
    }
    return h;
  }

 private:
  static size_t Index(uint64_t v) {
    if (v < kSub) {
      return static_cast<size_t>(v);
    }
    const int shift = (63 - std::countl_zero(v)) - kSubBits;
    return (static_cast<size_t>(shift + 1) << kSubBits) + static_cast<size_t>((v >> shift) - kSub);
  }

  // Bucket i covers [Low(i), Low(i) + Width(i)).
  static double Low(size_t i) {
    if (i < kSub) {
      return static_cast<double>(i);
    }
    const int shift = static_cast<int>(i >> kSubBits) - 1;
    return static_cast<double>((kSub + (i & (kSub - 1))) << shift);
  }
  static double Width(size_t i) {
    return i < kSub ? 1.0 : static_cast<double>(uint64_t{1} << ((i >> kSubBits) - 1));
  }

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ns_ = 0;
};

}  // namespace pfsbench

#endif  // PFSBENCH_HISTOGRAM_H_
