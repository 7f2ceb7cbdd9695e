// FaultInjector: the daemon that replays a FaultSchedule on the system
// clock. It sleeps until each event's instant — virtual time under the
// simulator (events land at exactly the scheduled simulated instant), real
// time for the on-line server — then drives the target mirror:
//
//   fail    MirrorVolume::SetMemberFailed(m, true): degraded reads from the
//           survivors, missed writes accrue as rebuild-debt extents
//   return  RebuildDaemon::RequestRebuild(m): drain the debt as background
//           copy I/O, then reinstate the member
//
// The injector is a StatSource ("fault.injector") and exposes quiescent()
// — every event applied and every referenced rebuild drained — which the
// scenario runner and benches use as the "availability experiment is over"
// condition.
#ifndef PFS_FAULT_FAULT_INJECTOR_H_
#define PFS_FAULT_FAULT_INJECTOR_H_

#include <vector>

#include "fault/fault_schedule.h"
#include "fault/rebuild_daemon.h"
#include "obs/metrics.h"
#include "sched/affinity.h"
#include "sched/scheduler.h"
#include "stats/registry.h"
#include "volume/volume.h"

namespace pfs {

// Shard-affine (ShardAffine): each injector drives mirrors owned by one
// shard, so Apply asserts it runs on that shard's loop.
class FaultInjector : public StatSource, public ShardAffine {
 public:
  // One schedule entry resolved against the assembled system. `rebuild` may
  // be null only when the schedule holds no "return" event for the volume
  // (SystemBuilder creates a RebuildDaemon for every mirror it assembles).
  struct PlannedEvent {
    FaultEvent event;
    MirrorVolume* mirror;
    RebuildDaemon* rebuild;
  };

  // Counts applied events in `metrics` as fault_events_total{shard="<the
  // scheduler's shard index>",kind="fail"|"return"|"noop"}.
  FaultInjector(Scheduler* sched, MetricRegistry* metrics,
                std::vector<PlannedEvent> events);

  // Spawns the injector as a transient daemon: it neither keeps the
  // scheduler's Run() alive nor leaves a finished thread record behind once
  // the last event has been applied.
  void Start();

  size_t event_count() const { return events_.size(); }
  size_t applied_count() const { return applied_; }
  bool done() const { return applied_ == events_.size(); }
  // Every event applied and every rebuild daemon the schedule touches idle:
  // nothing fault-related will happen anymore.
  bool quiescent() const;

  uint64_t fails_applied() const { return fails_->Total(); }
  uint64_t returns_applied() const { return returns_->Total(); }
  // Events that found their target already in the requested state (failing
  // a failed member, returning a live one).
  uint64_t noop_events() const { return noops_->Total(); }

  // Sharded systems run one injector per shard that has scheduled events;
  // the suffix (".shard<i>") keeps the registry names distinct.
  void set_stat_suffix(std::string suffix) { stat_suffix_ = std::move(suffix); }

  // StatSource
  std::string stat_name() const override { return "fault.injector" + stat_suffix_; }
  std::string StatJson() const override;

 private:
  Task<> Run();
  void Apply(const PlannedEvent& planned);

  Scheduler* sched_;
  std::vector<PlannedEvent> events_;
  size_t applied_ = 0;
  bool started_ = false;
  std::string stat_suffix_;
  CounterMetric* fails_;
  CounterMetric* returns_;
  CounterMetric* noops_;
};

}  // namespace pfs

#endif  // PFS_FAULT_FAULT_INJECTOR_H_
