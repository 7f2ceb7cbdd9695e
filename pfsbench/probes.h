// The probe chain: after a measured phase, time direct serial calls into each
// tier of file system 0's stack — client, scheduler, cache (hit and miss),
// layout, volume, driver, and the device below the driver — so a change in
// end-to-end latency can be traced to the tier that caused it. A tier's self
// time is its probe minus the probe one tier below.
#ifndef PFSBENCH_PROBES_H_
#define PFSBENCH_PROBES_H_

#include <string>
#include <vector>

#include "report.h"
#include "system/system_builder.h"
#include "timed_client.h"

namespace pfsbench {

inline constexpr int kProbeCalls = 2000;

// One tier's probe: p50 of its serial calls, in wall time and on the
// system's own clock (the same thing on the real clock; simulated time on
// Patsy's virtual clock).
struct ProbeResult {
  std::string name;  // metric name, e.g. "cache.get_hit_us"
  double wall_us = 0;
  double clock_us = 0;
};

struct ProbeChain {
  std::vector<ProbeResult> tiers;
  std::string problem;  // non-empty when a probe's own check failed
};

// Runs the chain on `sys` (set up, quiescent, file system 0 mounted at
// "/<mount 0>"). `image_path` is disk 0's image on the file-backed backend
// (empty on the simulated one). Probe spans go to `spans` under a "probe"
// root, past its cap: there are only a handful.
ProbeChain RunProbeChain(pfs::System& sys, const std::string& image_path, SpanLog* spans);

// Adds "<tier>" = wall p50 for every tier, plus the derived self times and
// client.cross_us.
void AddProbeMetrics(const ProbeChain& chain, Report* report);

}  // namespace pfsbench

#endif  // PFSBENCH_PROBES_H_
