// RebuildDaemon: per-mirror background rebuild. When a failed member
// returns (a "return" fault event, or any caller's RequestRebuild), the
// daemon replays the mirror's accumulated rebuild debt as copy I/O through
// the normal volume path — reads fan out to the live members, the repaired
// ranges are written to the returning member's own slice — so rebuild
// traffic queues behind and contends with foreground requests exactly as it
// would on real hardware. A bandwidth cap (SystemConfig::rebuild_bw_kbps)
// throttles the copy loop on the system clock, virtual or real; once the
// debt drains to zero the member is reinstated via
// MirrorVolume::SetMemberFailed(i, false), which now succeeds.
#ifndef PFS_FAULT_REBUILD_DAEMON_H_
#define PFS_FAULT_REBUILD_DAEMON_H_

#include <cstddef>
#include <deque>
#include <vector>

#include "obs/metrics.h"
#include "sched/affinity.h"
#include "sched/event.h"
#include "sched/scheduler.h"
#include "stats/registry.h"
#include "volume/volume.h"

namespace pfs {

// Shard-affine (ShardAffine): the daemon, its mirror, and the debt ledger all
// live on the mirror's shard; RequestRebuild asserts the caller's loop.
class RebuildDaemon : public StatSource, public ShardAffine {
 public:
  struct Options {
    uint32_t bw_kbps = 4096;      // copy-bandwidth cap; 0 = uncapped
    uint32_t chunk_sectors = 128; // one copy request (64 KiB at 512 B sectors)
    bool copy_real_data = false;  // file-backed backend: move real bytes
  };

  // Counts rebuild requests, completions, aborts and copied bytes in
  // `metrics` under a {volume="<mirror>"} label.
  RebuildDaemon(Scheduler* sched, MetricRegistry* metrics, MirrorVolume* mirror,
                Options options);

  // Spawns the daemon thread; call once, before RequestRebuild.
  void Start();

  // Queues member `i` for rebuild + reinstatement. Idempotent while the
  // member is already queued or being rebuilt. Callable from any scheduler
  // thread (the FaultInjector's "return" events land here).
  void RequestRebuild(size_t member);

  // No rebuild running and none queued (the injector's quiescence check).
  bool idle() const { return pending_.empty() && !active_; }

  MirrorVolume* mirror() { return mirror_; }
  uint64_t requests() const { return requests_->Total(); }
  uint64_t completed() const { return completed_->Total(); }
  uint64_t aborted() const { return aborted_->Total(); }
  uint64_t rebuilt_sectors() const {
    return copied_bytes_->Total() / mirror_->sector_bytes();
  }
  Duration busy_time() const { return Duration::Nanos(busy_ns_); }

  // StatSource
  std::string stat_name() const override { return "rebuild." + mirror_->name(); }
  std::string StatJson() const override;

 private:
  Task<> Loop();
  // Drains member `i`'s debt, then reinstates it. Copy failures push the
  // extent back and abort (the member stays failed; a later RequestRebuild
  // retries).
  Task<> RebuildMember(size_t member);

  Scheduler* sched_;
  MirrorVolume* mirror_;
  Options options_;
  Event work_;
  std::deque<size_t> pending_;
  bool active_ = false;
  size_t active_member_ = 0;  // valid while active_
  bool started_ = false;
  std::vector<std::byte> buffer_;  // chunk bounce buffer (real-data mode)

  CounterMetric* requests_;
  CounterMetric* completed_;
  CounterMetric* aborted_;
  CounterMetric* copied_bytes_;
  int64_t busy_ns_ = 0;
};

}  // namespace pfs

#endif  // PFS_FAULT_REBUILD_DAEMON_H_
