// SystemBuilder: assembles a complete file-server — scheduler shards + clock,
// drivers (simulated or file-backed), storage layouts, buffer caches, data
// movers, file systems, client interface — from one SystemConfig. The same
// builder produces the simulator stack (Patsy) and the on-line stack (PFS);
// the facades in patsy/ and online/ only add their mode-specific front ends
// (trace replay, NFS loopback + OS threads).
//
// Sharding (config.shards): every file system, its volume tree, layout,
// cache, and data mover are pinned to one scheduler shard; physical disks
// (whole busses under the simulator) belong to the shard of the first file
// system referencing them, and a file system reaching a foreign disk gets a
// CrossShardDevice proxy spliced into that volume slice. Every system runs a
// SchedulerGroup; with shards == 1 it is one loop, run on the calling thread.
#ifndef PFS_SYSTEM_SYSTEM_BUILDER_H_
#define PFS_SYSTEM_SYSTEM_BUILDER_H_

#include <memory>
#include <string>
#include <vector>

#include "bus/scsi_bus.h"
#include "cache/buffer_cache.h"
#include "cache/data_mover.h"
#include "client/local_client.h"
#include "disk/disk_model.h"
#include "driver/disk_driver.h"
#include "driver/io_executor.h"
#include "fault/fault_injector.h"
#include "fault/rebuild_daemon.h"
#include "fs/file_system.h"
#include "layout/storage_layout.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "obs/sched_stats.h"
#include "obs/stats_sampler.h"
#include "obs/trace.h"
#include "sched/shard.h"
#include "stats/registry.h"
#include "system/system_config.h"
#include "volume/cross_shard_device.h"
#include "volume/volume.h"

namespace pfs {

// The assembled stack. Owns every component in dependency order; the
// destructor releases suspended coroutine frames (daemons, cut-off clients)
// while all components are still alive.
class System {
 public:
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // Formats (config.format or a simulated backend) or mounts every file
  // system and starts the cache and layout daemons; runs the scheduler(s)
  // until setup completes. Call once, before serving.
  Status Setup();

  const SystemConfig& config() const { return config_; }

  // Shard 0's loop — the client front end and the observability components
  // live here. With shards == 1 this is the only loop.
  Scheduler* scheduler() { return group_->shard(0); }

  // -- shard topology -------------------------------------------------------
  int shard_count() const { return static_cast<int>(group_->size()); }
  Scheduler* shard_scheduler(int s) { return group_->shard(static_cast<size_t>(s)); }
  // The shard file system `f` is pinned to, and that shard's loop. Spawn
  // workload threads that target file system f on fs_scheduler(f); reaching
  // it from another shard goes through LocalClient's cross-shard routing.
  int fs_shard(int f) const { return fs_shard_[static_cast<size_t>(f)]; }
  Scheduler* fs_scheduler(int f) { return shard_scheduler(fs_shard(f)); }
  // Per-shard scheduler counters (steps, mailbox traffic, idle time) as a
  // StatSource; read after the shard threads have quiesced.
  SchedStats* sched_stats(int s) { return sched_stats_[static_cast<size_t>(s)].get(); }

  // Drives every shard to quiescence (or for `d`): deterministic lockstep
  // on the virtual clock, the loop a standalone Scheduler runs, so a
  // one-shard run steps as Scheduler::Run()/RunFor() would; one OS thread
  // per shard on the real clock. A sampler then gathers once more, so its
  // stream ends at the end of the run.
  void RunToCompletion() {
    group_->Run();
    SampleRunEnd();
  }
  void RunForDuration(Duration d) {
    group_->RunFor(d);
    SampleRunEnd();
  }
  // Stops every shard's loop (thread-safe: callable from any OS thread).
  void RequestStop() { group_->RequestStop(); }
  // Closes every shard: further Post() calls become checked errors instead
  // of silently enqueueing work that will never run. Call after the final
  // Run()/RunToCompletion() has returned. Joins the I/O pool first: a batch
  // still in flight (Run() returns once only daemons remain) posts its
  // completion before the loops close.
  void CloseSchedulers() {
    executor_.reset();
    for (int s = 0; s < shard_count(); ++s) {
      shard_scheduler(s)->Close();
    }
  }

  LocalClient* client() { return client_.get(); }
  // Shard 0's cache; sharded systems have one per shard.
  BufferCache* cache() { return caches_.empty() ? nullptr : caches_[0].get(); }
  BufferCache* shard_cache(int s) { return caches_[static_cast<size_t>(s)].get(); }
  StatsRegistry& stats() { return stats_; }

  int filesystem_count() const { return static_cast<int>(layouts_.size()); }
  StorageLayout* layout(int fs_index) { return layouts_[static_cast<size_t>(fs_index)].get(); }
  const std::string& mount_name(int fs_index) const {
    return mount_names_[static_cast<size_t>(fs_index)];
  }

  // Simulated topology (empty vectors for the file-backed backend).
  const std::vector<std::unique_ptr<ScsiBus>>& busses() const { return busses_; }
  const std::vector<std::unique_ptr<DiskModel>>& disks() const { return disks_; }
  // Every disk's driver, simulated or file-backed.
  const std::vector<std::unique_ptr<QueueingDiskDriver>>& drivers() const { return drivers_; }
  // The volume backing file system `fs_index` (what its layout reads and
  // writes through), and all per-fs volumes in mount order.
  Volume* volume(int fs_index) { return fs_volumes_[static_cast<size_t>(fs_index)].get(); }
  const std::vector<std::unique_ptr<Volume>>& volumes() const { return fs_volumes_; }

  // The fault subsystem. Every mirror fs-volume gets a RebuildDaemon
  // (nullptr for other kinds); injectors exist only when config.faults is
  // non-empty — one per shard that has scheduled events. Started by Setup().
  RebuildDaemon* rebuild_daemon(int fs_index) {
    return rebuild_daemons_[static_cast<size_t>(fs_index)].get();
  }
  // The first shard's injector (the only one with shards == 1).
  FaultInjector* fault_injector() {
    for (auto& injector : injectors_) {
      if (injector != nullptr) {
        return injector.get();
      }
    }
    return nullptr;
  }
  bool fault_quiescent() const {
    for (const auto& injector : injectors_) {
      if (injector != nullptr && !injector->quiescent()) {
        return false;
      }
    }
    return true;
  }

  // The observability subsystem (config.trace.*). Both are null when the
  // corresponding knob is off: the tracer needs trace.enabled. The sampler,
  // the one periodic observer, needs trace.sample_ms > 0 or metrics.enabled;
  // it gathers every sample_ms (else every 500 ms), keeps the latest report
  // for /statz, and streams each one next to trace.file when both
  // trace.sample_ms and trace.file are set.
  TraceRecorder* tracer() { return tracer_.get(); }
  StatsSampler* stats_sampler() { return sampler_.get(); }

  // Writes the tracer's spans to config.trace.file as Chrome trace_event
  // JSON; the sampled time series already streams next to it
  // (TraceSamplesPath). No-op when tracing is not configured. Call after the
  // workload.
  Status ExportObservability();

  // The metric registry every component counts into; never null. The HTTP
  // server exists only with metrics.enabled, after Setup(); its /statz
  // returns 503 until the sampler's first gather lands.
  MetricRegistry* metrics() { return metrics_.get(); }
  MetricsHttpServer* metrics_http() { return metrics_http_.get(); }
  // The bound scrape port (resolves metrics.port == 0), 0 when no server.
  uint16_t metrics_port() const {
    return metrics_http_ != nullptr ? metrics_http_->port() : 0;
  }

 private:
  friend class SystemBuilder;
  System() = default;

  Status StartMetricsHttp();
  void SampleRunEnd() {
    if (sampler_ != nullptr) {
      sampler_->SampleStopped();  // every loop has stopped: no hop needed
    }
  }

  SystemConfig config_;
  // Components keep raw pointers to their registry metrics, so the registry
  // is built before and destroyed after all of them.
  std::unique_ptr<MetricRegistry> metrics_;
  // Precedes every component so the loops outlive them.
  std::unique_ptr<SchedulerGroup> group_;
  std::unique_ptr<IoExecutor> executor_;  // file-backed only
  std::vector<std::unique_ptr<ScsiBus>> busses_;
  std::vector<std::unique_ptr<DiskModel>> disks_;
  std::vector<std::unique_ptr<QueueingDiskDriver>> drivers_;
  // Declaration order is destruction-safety order: layouts reference the
  // fs volumes, and every volume's member slices reference a driver
  // (possibly through a cross-shard proxy).
  std::vector<std::unique_ptr<CrossShardDevice>> cross_devices_;
  std::vector<std::unique_ptr<Volume>> fs_volumes_;  // one per file system
  std::vector<std::unique_ptr<StorageLayout>> layouts_;
  std::vector<std::unique_ptr<BufferCache>> caches_;  // one per shard
  std::vector<std::unique_ptr<DataMover>> movers_;    // one per shard
  std::vector<std::unique_ptr<FileSystem>> filesystems_;
  // One slot per file system (null unless the volume is a mirror); the
  // injectors reference the daemons and the volumes, so both come after.
  std::vector<std::unique_ptr<RebuildDaemon>> rebuild_daemons_;
  std::vector<std::unique_ptr<FaultInjector>> injectors_;  // one per shard, may be null
  // Spans ride the scheduler's threads and the request path into the tracer.
  std::unique_ptr<TraceRecorder> tracer_;
  std::unique_ptr<StatsSampler> sampler_;
  std::unique_ptr<LocalClient> client_;
  std::vector<std::string> mount_names_;
  std::vector<int> fs_shard_;  // one per file system
  std::vector<std::unique_ptr<SchedStats>> sched_stats_;  // one per shard
  StatsRegistry stats_;
  // Declared last on purpose: the HTTP server's scrape thread reads the
  // registry (and, via callbacks, scheduler atomics) and the sampler's
  // latest report, so it must be joined before anything above dies.
  std::unique_ptr<MetricsHttpServer> metrics_http_;
};

class SystemBuilder {
 public:
  // Checks every policy name and the topology in one place; every config
  // error surfaces here as kInvalidArgument with a message naming the field.
  static Status Validate(const SystemConfig& config);

  // Validates, then assembles the stack. The returned system is constructed
  // but not yet set up; call System::Setup() next.
  static Result<std::unique_ptr<System>> Build(const SystemConfig& config);

  // The smallest partition (in file-system blocks) a file system of
  // `config.layout` can be formatted in; Validate rejects topologies that
  // slice any disk thinner than this.
  static uint64_t MinBlocksPerFilesystem(const SystemConfig& config);
};

}  // namespace pfs

#endif  // PFS_SYSTEM_SYSTEM_BUILDER_H_
