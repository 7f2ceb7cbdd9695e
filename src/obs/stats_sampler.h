// StatsSampler: a transient daemon that snapshots StatsRegistry::ReportJson()
// and the MetricRegistry every N ms into a time-series, so runs emit
// latency/throughput *curves* instead of one end-of-run scalar. Snapshots are
// cumulative (StatJson never resets); consumers difference adjacent samples
// to get rates.
//
// With OpenOutput() the series also streams to disk incrementally: each
// sample appends one NDJSON line and the file is sync'd every `flush_every`
// samples, so a crashed or killed run keeps everything but the tail. The
// stream-and-sync work runs on a dedicated writer thread — fsync on the
// sampling coroutine would stall the shard's scheduler loop and distort the
// very latencies being sampled — so the sampler only enqueues lines.
//
// Snapshots are gathered shard by shard (GatherReportJson), so each shard's
// shard-affine sources are read on their own loop.
//
// Deliberately NOT a StatSource: registering it would recurse through
// ReportJson().
#ifndef PFS_OBS_STATS_SAMPLER_H_
#define PFS_OBS_STATS_SAMPLER_H_

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "sched/scheduler.h"
#include "stats/registry.h"

namespace pfs {

class SchedulerGroup;
class MetricRegistry;

// One snapshot: the clock stamp plus the JSON fragments gathered at it.
struct SamplePoint {
  double t_ms;
  std::string stats_json;
  std::string metrics_json;
};

// ReportJson() of `stats`, read shard by shard on the owning loops: every
// shard's shard-affine sources via a CallOn round trip to that shard, the
// unowned sources with shard 0, so each source appears exactly once. Await
// it from a coroutine on shard 0. With one shard every hop is inline and the
// result equals stats->ReportJson().
Task<std::string> GatherReportJson(SchedulerGroup* group, StatsRegistry* stats);

class StatsSampler {
 public:
  // Samples on `group`'s shard 0; every sample carries a "metrics" object
  // (MetricRegistry::JsonSnapshot()) next to "stats".
  StatsSampler(SchedulerGroup* group, StatsRegistry* stats, MetricRegistry* metrics,
               Duration interval);
  ~StatsSampler();

  StatsSampler(const StatsSampler&) = delete;
  StatsSampler& operator=(const StatsSampler&) = delete;

  Duration interval() const { return interval_; }

  // Streams samples to `path` as NDJSON on a writer thread, syncing every
  // `flush_every` samples (and on destruction). Call before Start().
  Status OpenOutput(const std::string& path, size_t flush_every);
  bool streaming() const { return out_ != nullptr; }

  // Spawns the sampling daemon (transient: neither keeps Run() alive nor
  // leaves a finished record); it takes one snapshot every interval.
  void Start();

  size_t sample_count() const { return samples_.size(); }

  // `[{"t_ms":<clock ms>,"stats":<ReportJson()>,"metrics":<snapshot>}, ...]`
  std::string SeriesJson() const;
  // One `{"t_ms":...,"stats":...,"metrics":...}` line per sample (NDJSON,
  // the same shape OpenOutput streams).
  Status WriteFile(const std::string& path) const;

 private:
  Task<> Loop();
  // "{"t_ms":...,"stats":<json>,"metrics":<snapshot>}" for one sample.
  std::string LineJson(const SamplePoint& sample) const;
  void PushSample(double t_ms, std::string stats_json);
  // Writer-thread body: drains `pending_` into `out_`, syncing every
  // `flush_every_` lines, plus once more on shutdown.
  void WriterLoop();

  SchedulerGroup* group_;
  StatsRegistry* stats_;
  MetricRegistry* metrics_;
  Duration interval_;

  std::vector<SamplePoint> samples_;
  bool started_ = false;

  // Incremental NDJSON stream (OpenOutput). `out_` is touched only by the
  // writer thread once it starts; the sampling coroutine just enqueues
  // rendered lines under `mu_`.
  std::FILE* out_ = nullptr;
  size_t flush_every_ = 1;
  std::thread writer_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::string> pending_;
  bool writer_stop_ = false;
};

}  // namespace pfs

#endif  // PFS_OBS_STATS_SAMPLER_H_
