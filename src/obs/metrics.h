// Live metrics plane (obs/): a typed metric registry scraped over HTTP while
// the system runs, complementing the post-hoc StatSource reports.
//
// Every metric is internally *sharded*: one cache-line-padded slot per
// scheduler shard plus one overflow slot for OS threads outside scheduler
// control. The owning shard updates its slot with relaxed atomic loads and
// stores only — a single writer per slot, exactly the PFS_ASSERT_SHARD
// ownership model — so the hot path is wait-free and takes no lock, no RMW,
// and no fence. Scrapers (the HTTP listener thread, the StatsSampler) sum
// the slots with relaxed loads from any thread; each slot is individually
// monotonic for counters, so consecutive scrapes can never observe a counter
// go backwards.
//
// Histograms are HDR-style log-bucketed fixed bins (stats/histogram.h): 8
// sub-buckets per power of two (<= 12.5% relative bucket width) over the full
// uint64 range, no sampling and no ring to overflow — unlike the bounded
// trace-span rings, the percentile error is bounded by bucket width alone.
//
// Every System builds a registry, and the components count their events
// only here: the latency_ms / queue_wait_ms / fill_ms percentile objects in
// StatJson are computed from these histograms, so the scrape output and the
// end-of-run report agree by construction. metrics.enabled only adds the
// HTTP listener that serves them.
#ifndef PFS_OBS_METRICS_H_
#define PFS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sched/time.h"
#include "stats/histogram.h"

namespace pfs {

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

namespace metrics_detail {

// One shard's slot of a scalar metric, padded so two shards never share a
// cache line. Only the owning shard writes it (relaxed load + store); the
// overflow slot for non-scheduler threads uses fetch_add instead.
struct alignas(64) ScalarCell {
  std::atomic<int64_t> v{0};
};

// One shard's slot of a histogram. No alignment games: the slot is several
// cache lines by itself, so cross-shard false sharing is limited to the
// edges and irrelevant next to the array's footprint.
struct HistCell {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> sum{0};
  std::atomic<uint64_t> buckets[kHistBuckets]{};
};

// Single-writer bump: the owning shard is the only writer of its slot, so a
// relaxed load + store is a plain increment that scrapers can still read
// without a data race.
inline void BumpRelaxed(std::atomic<uint64_t>& cell, uint64_t k) {
  cell.store(cell.load(std::memory_order_relaxed) + k, std::memory_order_relaxed);
}

}  // namespace metrics_detail

class MetricRegistry;

// Monotonic event count. Inc() from the owning shard's loop; Total() from
// anywhere.
class CounterMetric {
 public:
  void Inc(uint64_t k = 1);
  uint64_t Total() const;

 private:
  friend class MetricRegistry;
  explicit CounterMetric(size_t shards) : cells_(shards + 1) {}
  std::vector<metrics_detail::ScalarCell> cells_;
};

// Point-in-time value. Each shard sets its own slot; Total() sums them, so
// per-shard quantities (queue depths, debt bytes) aggregate naturally.
class GaugeMetric {
 public:
  void Set(int64_t v);
  void Add(int64_t delta);
  int64_t Total() const;

 private:
  friend class MetricRegistry;
  explicit GaugeMetric(size_t shards) : cells_(shards + 1) {}
  std::vector<metrics_detail::ScalarCell> cells_;
};

// Log-bucketed distribution over uint64 samples (latencies in nanoseconds,
// sizes in requests/bytes). Record() from the owning shard; the read side
// aggregates the per-shard bins.
class HistogramMetric {
 public:
  void Record(uint64_t v);
  void RecordDuration(Duration d) {
    Record(d.nanos() > 0 ? static_cast<uint64_t>(d.nanos()) : 0);
  }

  // Aggregated over every shard slot, relaxed reads: a scrape racing the
  // writers sees each bin's latest published value.
  uint64_t Count() const;
  uint64_t Sum() const;
  double Mean() const;
  // HistPercentile over Bins(): the smallest bucket upper bound covering
  // fraction `q` (in [0, 1]) of the samples; 0 when empty.
  uint64_t Percentile(double q) const;
  // One bin per bucket, aggregated across shards (kHistBuckets entries).
  std::vector<uint64_t> Bins() const;
  // The samples, read as nanoseconds, as a LatencyHistogram: the value the
  // components' latency accessors hand out.
  LatencyHistogram Snapshot() const;

  // The four-field percentile object every latency-carrying StatJson uses
  // ("\"<key>\":{\"mean\":…,\"p50\":…,\"p95\":…,\"p99\":…}", milliseconds):
  // computing it here is what makes StatJson and the scrape output agree by
  // construction.
  std::string LatencyMsJsonObject(const std::string& key) const;

  // Export scale: multiplied into bucket bounds / sums for the text format
  // (1e-9 renders nanosecond samples as Prometheus-conventional seconds).
  double scale() const { return scale_; }

 private:
  friend class MetricRegistry;
  HistogramMetric(size_t shards, double scale) : scale_(scale), cells_(shards + 1) {}
  double scale_;
  std::vector<metrics_detail::HistCell> cells_;
};

// The registry: named families of metric instances, each instance keyed by a
// flat label string ("disk=\"d0\""). Registration happens during system
// assembly (single-threaded, before any scrape); Counter()/Gauge()/
// Histogram() return stable pointers the components keep for the run.
// Scrapes never touch component state, so a scrape during active load
// cannot violate shard affinity.
class MetricRegistry {
 public:
  // `shards` sizes every metric's slot array; `prefix` is prepended to every
  // family name ("pfs" -> "pfs_cache_hits_total").
  MetricRegistry(size_t shards, std::string prefix);

  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  size_t shards() const { return shards_; }
  const std::string& prefix() const { return prefix_; }

  // Find-or-create: the same (name, labels) pair always returns the same
  // instance, so independently bound components may share a series. `name`
  // is the unprefixed family name; counters should end in "_total",
  // Prometheus-style. `labels` is the literal text between the braces
  // ("shard=\"0\"", "" for none).
  CounterMetric* Counter(const std::string& name, const std::string& help,
                         const std::string& labels = "");
  GaugeMetric* Gauge(const std::string& name, const std::string& help,
                     const std::string& labels = "");
  HistogramMetric* Histogram(const std::string& name, const std::string& help,
                             const std::string& labels = "", double scale = 1.0);

  // Read-side metric computed by `fn` at scrape time. `fn` MUST be callable
  // from any OS thread mid-run: read only std::atomic state (the scheduler's
  // relaxed stat counters are the intended source) — never walk component
  // structures.
  void AddCallback(const std::string& name, const std::string& help, MetricKind kind,
                   const std::string& labels, std::function<double()> fn);

  // Prometheus text exposition (version 0.0.4): # HELP / # TYPE per family,
  // one sample line per instance, histograms as cumulative _bucket/_sum/
  // _count series. Thread-safe; takes only the registration mutex (never
  // contended by writers).
  std::string PrometheusText() const;

  // Flat JSON object for the StatsSampler time series: scalar families map
  // to numbers, histograms to {count,sum,mean,p50,p95,p99} objects. Keys are
  // "<prefixed name>{<labels without quotes>}".
  std::string JsonSnapshot() const;

  uint64_t scrapes() const { return scrapes_.load(std::memory_order_relaxed); }

 private:
  struct Instance {
    std::string labels;
    std::unique_ptr<CounterMetric> counter;
    std::unique_ptr<GaugeMetric> gauge;
    std::unique_ptr<HistogramMetric> histogram;
    std::function<double()> callback;
  };
  struct Family {
    std::string name;  // prefixed
    std::string help;
    MetricKind kind;
    bool callback = false;
    std::vector<std::unique_ptr<Instance>> instances;
  };

  Family* FindOrCreateFamily(const std::string& name, const std::string& help, MetricKind kind,
                             bool callback);
  Instance* FindOrCreateInstance(Family* family, const std::string& labels);

  const size_t shards_;
  const std::string prefix_;
  mutable std::mutex mu_;  // guards families_ layout, not metric values
  std::vector<std::unique_ptr<Family>> families_;
  mutable std::atomic<uint64_t> scrapes_{0};
};

// True when `prefix` is a valid Prometheus metric-name prefix
// ([a-zA-Z_][a-zA-Z0-9_]*): config validation and the scrape linter agree on
// this rule.
bool ValidMetricPrefix(const std::string& prefix);

}  // namespace pfs

#endif  // PFS_OBS_METRICS_H_
