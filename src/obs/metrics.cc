#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "sched/shard.h"

namespace pfs {

namespace {

using metrics_detail::BumpRelaxed;

// Slot the calling thread owns: its shard index inside the scheduler group,
// or the overflow slot (== shard count) for threads outside scheduler
// control and for shard indices beyond what the registry was sized for.
size_t OwnSlot(size_t shards) {
  int s = SchedulerGroup::CurrentShard();
  if (s < 0 || static_cast<size_t>(s) >= shards) return shards;
  return static_cast<size_t>(s);
}

// Formats a double the way Prometheus text format expects: integers render
// without a fractional part, everything else with enough digits to round-trip.
void AppendNumber(std::string* out, double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v)) && v > -1e15 && v < 1e15) {
    snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out->append(buf);
}

// "name{labels} value\n" — the single-sample line shape; `extra` carries an
// additional label ("le=...") merged after the instance labels.
void AppendSample(std::string* out, const std::string& name, const std::string& labels,
                  const std::string& extra, double value) {
  out->append(name);
  if (!labels.empty() || !extra.empty()) {
    out->push_back('{');
    out->append(labels);
    if (!labels.empty() && !extra.empty()) out->push_back(',');
    out->append(extra);
    out->push_back('}');
  }
  out->push_back(' ');
  AppendNumber(out, value);
  out->push_back('\n');
}

// JSON keys in the sampler snapshot: "name" or "name{k=v,...}" with the
// label quotes stripped (they would need escaping inside a JSON string).
std::string JsonKey(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  std::string key = name;
  key.push_back('{');
  for (char c : labels) {
    if (c != '"') key.push_back(c);
  }
  key.push_back('}');
  return key;
}

}  // namespace

void CounterMetric::Inc(uint64_t k) {
  size_t slot = OwnSlot(cells_.size() - 1);
  std::atomic<int64_t>& cell = cells_[slot].v;
  if (slot == cells_.size() - 1) {
    cell.fetch_add(static_cast<int64_t>(k), std::memory_order_relaxed);
  } else {
    cell.store(cell.load(std::memory_order_relaxed) + static_cast<int64_t>(k),
               std::memory_order_relaxed);
  }
}

uint64_t CounterMetric::Total() const {
  uint64_t total = 0;
  for (const auto& c : cells_) total += static_cast<uint64_t>(c.v.load(std::memory_order_relaxed));
  return total;
}

void GaugeMetric::Set(int64_t v) {
  cells_[OwnSlot(cells_.size() - 1)].v.store(v, std::memory_order_relaxed);
}

void GaugeMetric::Add(int64_t delta) {
  size_t slot = OwnSlot(cells_.size() - 1);
  std::atomic<int64_t>& cell = cells_[slot].v;
  if (slot == cells_.size() - 1) {
    cell.fetch_add(delta, std::memory_order_relaxed);
  } else {
    cell.store(cell.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
  }
}

int64_t GaugeMetric::Total() const {
  int64_t total = 0;
  for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

void HistogramMetric::Record(uint64_t v) {
  size_t slot = OwnSlot(cells_.size() - 1);
  metrics_detail::HistCell& cell = cells_[slot];
  if (slot == cells_.size() - 1) {
    // Overflow slot: multiple non-scheduler threads may land here, so the
    // single-writer store is not safe — pay for the RMW off the hot path.
    cell.buckets[HistBucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    cell.sum.fetch_add(v, std::memory_order_relaxed);
    cell.count.fetch_add(1, std::memory_order_relaxed);
  } else {
    BumpRelaxed(cell.buckets[HistBucketIndex(v)], 1);
    BumpRelaxed(cell.sum, v);
    BumpRelaxed(cell.count, 1);
  }
}

uint64_t HistogramMetric::Count() const {
  uint64_t total = 0;
  for (const auto& c : cells_) total += c.count.load(std::memory_order_relaxed);
  return total;
}

uint64_t HistogramMetric::Sum() const {
  uint64_t total = 0;
  for (const auto& c : cells_) total += c.sum.load(std::memory_order_relaxed);
  return total;
}

double HistogramMetric::Mean() const {
  uint64_t n = Count();
  return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
}

std::vector<uint64_t> HistogramMetric::Bins() const {
  std::vector<uint64_t> bins(kHistBuckets, 0);
  for (const auto& c : cells_) {
    for (size_t i = 0; i < kHistBuckets; ++i) {
      bins[i] += c.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return bins;
}

uint64_t HistogramMetric::Percentile(double q) const { return HistPercentile(Bins(), q); }

LatencyHistogram HistogramMetric::Snapshot() const {
  return LatencyHistogram(Bins(), static_cast<int64_t>(Sum()));
}

std::string HistogramMetric::LatencyMsJsonObject(const std::string& key) const {
  // Samples are nanoseconds (scale 1e-9 to seconds); StatJson reports ms.
  const double to_ms = scale_ * 1e3;
  const std::vector<uint64_t> bins = Bins();
  char buf[192];
  snprintf(buf, sizeof(buf),
           "\"%s\":{\"mean\":%.4f,\"p50\":%.4f,\"p95\":%.4f,\"p99\":%.4f}", key.c_str(),
           Mean() * to_ms, static_cast<double>(HistPercentile(bins, 0.50)) * to_ms,
           static_cast<double>(HistPercentile(bins, 0.95)) * to_ms,
           static_cast<double>(HistPercentile(bins, 0.99)) * to_ms);
  return buf;
}

MetricRegistry::MetricRegistry(size_t shards, std::string prefix)
    : shards_(shards), prefix_(std::move(prefix)) {}

MetricRegistry::Family* MetricRegistry::FindOrCreateFamily(const std::string& name,
                                                           const std::string& help,
                                                           MetricKind kind, bool callback) {
  std::string full = prefix_.empty() ? name : prefix_ + "_" + name;
  for (auto& f : families_) {
    if (f->name == full) return f.get();
  }
  auto family = std::make_unique<Family>();
  family->name = std::move(full);
  family->help = help;
  family->kind = kind;
  family->callback = callback;
  families_.push_back(std::move(family));
  return families_.back().get();
}

MetricRegistry::Instance* MetricRegistry::FindOrCreateInstance(Family* family,
                                                               const std::string& labels) {
  for (auto& inst : family->instances) {
    if (inst->labels == labels) return inst.get();
  }
  auto inst = std::make_unique<Instance>();
  inst->labels = labels;
  family->instances.push_back(std::move(inst));
  return family->instances.back().get();
}

CounterMetric* MetricRegistry::Counter(const std::string& name, const std::string& help,
                                       const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Instance* inst =
      FindOrCreateInstance(FindOrCreateFamily(name, help, MetricKind::kCounter, false), labels);
  if (!inst->counter) inst->counter.reset(new CounterMetric(shards_));
  return inst->counter.get();
}

GaugeMetric* MetricRegistry::Gauge(const std::string& name, const std::string& help,
                                   const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Instance* inst =
      FindOrCreateInstance(FindOrCreateFamily(name, help, MetricKind::kGauge, false), labels);
  if (!inst->gauge) inst->gauge.reset(new GaugeMetric(shards_));
  return inst->gauge.get();
}

HistogramMetric* MetricRegistry::Histogram(const std::string& name, const std::string& help,
                                           const std::string& labels, double scale) {
  std::lock_guard<std::mutex> lock(mu_);
  Instance* inst =
      FindOrCreateInstance(FindOrCreateFamily(name, help, MetricKind::kHistogram, false), labels);
  if (!inst->histogram) inst->histogram.reset(new HistogramMetric(shards_, scale));
  return inst->histogram.get();
}

void MetricRegistry::AddCallback(const std::string& name, const std::string& help,
                                 MetricKind kind, const std::string& labels,
                                 std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Instance* inst = FindOrCreateInstance(FindOrCreateFamily(name, help, kind, true), labels);
  inst->callback = std::move(fn);
}

std::string MetricRegistry::PrometheusText() const {
  scrapes_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(4096);
  for (const auto& family : families_) {
    out.append("# HELP ").append(family->name).push_back(' ');
    out.append(family->help).push_back('\n');
    out.append("# TYPE ").append(family->name).push_back(' ');
    switch (family->kind) {
      case MetricKind::kCounter:
        out.append("counter\n");
        break;
      case MetricKind::kGauge:
        out.append("gauge\n");
        break;
      case MetricKind::kHistogram:
        out.append("histogram\n");
        break;
    }
    for (const auto& inst : family->instances) {
      if (inst->callback) {
        AppendSample(&out, family->name, inst->labels, "", inst->callback());
        continue;
      }
      switch (family->kind) {
        case MetricKind::kCounter:
          AppendSample(&out, family->name, inst->labels, "",
                       static_cast<double>(inst->counter->Total()));
          break;
        case MetricKind::kGauge:
          AppendSample(&out, family->name, inst->labels, "",
                       static_cast<double>(inst->gauge->Total()));
          break;
        case MetricKind::kHistogram: {
          const HistogramMetric& h = *inst->histogram;
          std::vector<uint64_t> bins = h.Bins();
          // Cumulative buckets, skipping the long runs of empty bins: a
          // bucket line is emitted whenever its bin is non-empty (so the
          // cumulative count changed), plus the mandatory +Inf.
          uint64_t cumulative = 0;
          for (size_t i = 0; i < kHistBuckets; ++i) {
            if (bins[i] == 0) continue;
            cumulative += bins[i];
            char le[64];
            snprintf(le, sizeof(le), "le=\"%.9g\"",
                     static_cast<double>(HistBucketHigh(i)) * h.scale());
            AppendSample(&out, family->name + "_bucket", inst->labels, le,
                         static_cast<double>(cumulative));
          }
          AppendSample(&out, family->name + "_bucket", inst->labels, "le=\"+Inf\"",
                       static_cast<double>(cumulative));
          AppendSample(&out, family->name + "_sum", inst->labels, "",
                       static_cast<double>(h.Sum()) * h.scale());
          AppendSample(&out, family->name + "_count", inst->labels, "",
                       static_cast<double>(cumulative));
          break;
        }
      }
    }
  }
  return out;
}

std::string MetricRegistry::JsonSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first = true;
  char buf[256];
  for (const auto& family : families_) {
    for (const auto& inst : family->instances) {
      if (!first) out.push_back(',');
      first = false;
      out.push_back('"');
      out.append(JsonKey(family->name, inst->labels));
      out.append("\":");
      if (inst->callback) {
        AppendNumber(&out, inst->callback());
      } else if (family->kind == MetricKind::kCounter) {
        AppendNumber(&out, static_cast<double>(inst->counter->Total()));
      } else if (family->kind == MetricKind::kGauge) {
        AppendNumber(&out, static_cast<double>(inst->gauge->Total()));
      } else {
        const HistogramMetric& h = *inst->histogram;
        const std::vector<uint64_t> bins = h.Bins();
        snprintf(buf, sizeof(buf),
                 "{\"count\":%llu,\"sum\":%.9g,\"mean\":%.9g,\"p50\":%.9g,\"p95\":%.9g,"
                 "\"p99\":%.9g}",
                 static_cast<unsigned long long>(h.Count()),
                 static_cast<double>(h.Sum()) * h.scale(), h.Mean() * h.scale(),
                 static_cast<double>(HistPercentile(bins, 0.50)) * h.scale(),
                 static_cast<double>(HistPercentile(bins, 0.95)) * h.scale(),
                 static_cast<double>(HistPercentile(bins, 0.99)) * h.scale());
        out.append(buf);
      }
    }
  }
  out.push_back('}');
  return out;
}

bool ValidMetricPrefix(const std::string& prefix) {
  if (prefix.empty()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    char c = prefix[i];
    bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    bool digit = (c >= '0' && c <= '9');
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

}  // namespace pfs
