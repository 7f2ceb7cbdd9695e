// StatsSampler: the one periodic observer. A transient daemon on shard 0
// gathers StatsRegistry::ReportJson() every N ms and keeps the latest
// snapshot, which /statz serves. Snapshots are cumulative (StatJson never
// resets); consumers difference two of them to get rates.
//
// With OpenOutput() the series also streams to disk incrementally: each
// sample appends one NDJSON line, with the MetricRegistry next to the stats,
// and the file is sync'd every `flush_every` samples, so a crashed or killed
// run keeps everything but the tail. The stream-and-sync work runs on a
// dedicated writer thread — fsync on the sampling coroutine would stall the
// shard's scheduler loop and distort the very latencies being sampled — so
// the sampler only enqueues lines.
//
// Snapshots are gathered shard by shard (GatherReportJson), so each shard's
// shard-affine sources are read on their own loop; the end-of-run gather
// (SampleStopped) reads them in the same order, in place.
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

#include "core/status.h"
#include "sched/scheduler.h"
#include "stats/registry.h"

namespace pfs {

class SchedulerGroup;
class MetricRegistry;

// ReportJson() of `stats`, read shard by shard on the owning loops: every
// shard's shard-affine sources via a CallOn round trip to that shard, the
// unowned sources with shard 0, so each source appears exactly once. Await
// it from a coroutine on shard 0. With one shard every hop is inline and the
// result equals stats->ReportJson().
Task<std::string> GatherReportJson(SchedulerGroup* group, StatsRegistry* stats);

class StatsSampler {
 public:
  // Samples on `group`'s shard 0; a streamed line carries a "metrics" object
  // (MetricRegistry::JsonSnapshot()) next to "stats".
  StatsSampler(SchedulerGroup* group, StatsRegistry* stats, MetricRegistry* metrics,
               Duration interval);
  ~StatsSampler();

  StatsSampler(const StatsSampler&) = delete;
  StatsSampler& operator=(const StatsSampler&) = delete;

  // Streams samples to `path` as NDJSON on a writer thread, syncing every
  // `flush_every` samples (and on destruction). Call before Start().
  Status OpenOutput(const std::string& path, size_t flush_every);

  // Spawns the sampling daemon (transient: neither keeps Run() alive nor
  // leaves a finished record). It gathers at once, then once every interval.
  void Start();

  // Gathers once more on the calling thread, shard by shard as
  // GatherReportJson does but with no hop, and streams the result. Call only
  // while every loop is stopped: at the end of a run, so the stream ends
  // there and not at the last periodic gather.
  void SampleStopped();

  // The latest gathered ReportJson(); empty until the first gather lands.
  // Safe from any thread.
  std::string Latest() const;

 private:
  Task<> Loop();
  void PushSample(double t_ms, std::string stats_json);
  // Writer-thread body: drains `pending_` into `out_`, syncing every
  // `flush_every_` lines, plus once more on shutdown.
  void WriterLoop();

  SchedulerGroup* group_;
  StatsRegistry* stats_;
  MetricRegistry* metrics_;
  Duration interval_;
  bool started_ = false;

  // Incremental NDJSON stream (OpenOutput): `out_` is touched only by the
  // writer thread once it starts.
  std::FILE* out_ = nullptr;
  size_t flush_every_ = 1;
  // Guards the latest snapshot, which the /statz thread reads, and the
  // writer queue, into which the sampling coroutine enqueues rendered lines.
  mutable std::mutex mu_;
  std::string latest_;
  std::deque<std::string> pending_;
  bool writer_stop_ = false;
  std::condition_variable cv_;
  std::thread writer_;
};

}  // namespace pfs

#endif  // PFS_OBS_STATS_SAMPLER_H_
