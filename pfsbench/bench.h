// Shared declarations of the pfsbench workloads.
#ifndef PFSBENCH_BENCH_H_
#define PFSBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "system/system_builder.h"
#include "timed_client.h"

namespace pfsbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // length of the measured phase (or of the replay loop)
  bool traced = false;  // per-layer run: spans, accessor deltas, probe chain
  std::string work_dir = ".";  // disk images and the Chrome trace go here
};

struct Outcome {
  uint64_t attempted = 0;  // client calls issued, plus calls a stall cut off
  uint64_t failed = 0;     // errors + verification mismatches + unfinished
  std::vector<std::string> problems;  // failed correctness checks
  Report report;
  std::vector<Span> spans;  // traced runs: exported as a Chrome trace
};

// hot-read, sharded-front and cold-mix: closed-loop clients on the
// file-backed server.
Outcome RunFileWorkload(const Options& options);
// sprite-replay: the paper's trace-driven simulation on Patsy.
Outcome RunSpriteReplay(const Options& options);
bool IsFileWorkload(const std::string& name);

// -- helpers shared by the workloads ------------------------------------------

// Latency metrics of one log: mean, p50 and p99 per call class that saw
// calls, each with its sample count.
void AddLatencyMetrics(const CallLog& log, Report* report);

// The end-to-end metrics of a phase measured in slices (`wall_s` holds each
// slice's length): calls per second, and per call class the mean, p50 and
// p99 latency, each the median over the slices, so a burst of interference
// from the host that hits one slice stays out of the result.
void AddSlicedMetrics(const std::vector<CallLog>& slices, const std::vector<double>& wall_s,
                      Report* report);

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

double Median(std::vector<double> values);

// Writes `spans` as Chrome trace_event JSON (ts/dur in microseconds).
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

// A stall detector for a measured phase: a daemon that stops the system when
// the `progress` count does not move for `stall_wall_s` of wall time, or
// when the shard clock passes `clock_limit_ns` (if set). Set `done` when the
// phase is over; the daemon reads it once more when it next wakes, so the
// watch must outlive the phase. Spawn it on the clients' shard.
struct StallWatch {
  const uint64_t* progress = nullptr;
  bool done = false;
  double stall_wall_s = 10;
  int64_t clock_limit_ns = 0;
  bool fired = false;
  std::string reason;
};
pfs::Task<> WatchForStall(pfs::System* sys, StallWatch* watch);

}  // namespace pfsbench

#endif  // PFSBENCH_BENCH_H_
