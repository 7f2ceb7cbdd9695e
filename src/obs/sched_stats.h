// Per-shard scheduler statistics as a StatSource: steps (context switches),
// mailbox traffic (posts received, cross-shard posts sent, drain-batch depth
// percentiles), and idle time. One instance per shard, named
// "sched.shard<i>", so shard imbalance shows up directly in ReportJson and
// the StatsSampler time series.
//
// The underlying counters are written only from the shard's own OS thread;
// read them from that thread (StatsSampler hops with CallOn) or after the
// shard threads have been joined.
#ifndef PFS_OBS_SCHED_STATS_H_
#define PFS_OBS_SCHED_STATS_H_

#include <string>

#include "sched/scheduler.h"
#include "stats/registry.h"

namespace pfs {

class SchedStats final : public StatSource {
 public:
  explicit SchedStats(Scheduler* sched) : sched_(sched) {}

  std::string stat_name() const override {
    return "sched.shard" + std::to_string(sched_->shard_index());
  }
  std::string StatJson() const override;

  Scheduler* scheduler() { return sched_; }

 private:
  // Percentile over the log2 drain-depth histogram, reported as the bucket's
  // upper bound in requests (bucket 0 = depth 1).
  double DepthPercentile(double q) const;

  Scheduler* sched_;
};

}  // namespace pfs

#endif  // PFS_OBS_SCHED_STATS_H_
