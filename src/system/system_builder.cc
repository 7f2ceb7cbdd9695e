#include "system/system_builder.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "driver/file_backed_driver.h"
#include "driver/sim_disk_driver.h"
#include "system/component_registry.h"

namespace pfs {
namespace {

Status Invalid(const std::string& message) {
  return Status(ErrorCode::kInvalidArgument, message);
}

// File-system blocks one disk offers, from the backend's sector geometry.
uint64_t DiskBlocks(const SystemConfig& config) {
  const uint32_t sector_bytes = config.simulated() ? config.disk_params.geometry.sector_bytes
                                                   : FileBackedDriver::kSectorBytes;
  const uint64_t total_sectors = config.simulated()
                                     ? config.disk_params.geometry.TotalSectors()
                                     : config.image_bytes / sector_bytes;
  if (sector_bytes == 0 || kDefaultBlockSize % sector_bytes != 0) {
    return 0;
  }
  return total_sectors / (kDefaultBlockSize / sector_bytes);
}

// Where file system f's volume lives on the disks: one block-aligned slice
// per member reference. Disks referenced by several volumes are partitioned
// evenly, which reduces to the seed's round-robin partitioning when no
// volume specs are given.
struct SlicePlan {
  int disk;
  uint64_t start_sector;
  uint64_t nsectors;
};

struct VolumePlan {
  VolumeSpec spec;
  std::vector<SlicePlan> slices;
  uint64_t fs_blocks = 0;  // file-system blocks the finished volume offers
};

Result<std::vector<VolumePlan>> PlanVolumes(const SystemConfig& config) {
  const int total_disks = config.total_disks();
  const uint32_t sector_bytes = config.simulated() ? config.disk_params.geometry.sector_bytes
                                                   : FileBackedDriver::kSectorBytes;
  const uint32_t spb = kDefaultBlockSize / sector_bytes;
  const uint64_t disk_blocks = DiskBlocks(config);

  const bool defaulted = config.volumes.empty();
  std::vector<VolumeSpec> specs = EffectiveVolumeSpecs(config);
  if (!defaulted && static_cast<int>(specs.size()) != config.num_filesystems) {
    return Invalid("volumes: " + std::to_string(specs.size()) + " volume spec(s) for " +
                   std::to_string(config.num_filesystems) + " file systems");
  }

  for (size_t i = 0; i < specs.size(); ++i) {
    const VolumeSpec& spec = specs[i];
    const std::string prefix = "volumes[" + std::to_string(i) + "]";
    const VolumeKindFamily::Value* kind = VolumeKindRegistry::Find(spec.kind);
    if (kind == nullptr) {
      return VolumeKindRegistry::UnknownNameError(prefix + ".kind", spec.kind);
    }
    if (spec.members.empty()) {
      return Invalid(prefix + ".members: at least one disk is required");
    }
    if (spec.members.size() < kind->min_members) {
      return Invalid(prefix + ".members: kind \"" + spec.kind + "\" needs at least " +
                     std::to_string(kind->min_members) + " disks, got " +
                     std::to_string(spec.members.size()));
    }
    if (spec.members.size() > kind->max_members) {
      return Invalid(prefix + ".members: kind \"" + spec.kind + "\" takes at most " +
                     std::to_string(kind->max_members) + " disk(s), got " +
                     std::to_string(spec.members.size()));
    }
    if (!spec.failed_members.empty() && !kind->allows_degraded_start) {
      return Invalid(prefix + ".failed_members: kind \"" + spec.kind +
                     "\" cannot start degraded (only mirrors can)");
    }
    for (size_t m = 0; m < spec.members.size(); ++m) {
      const int d = spec.members[m];
      if (d < 0 || d >= total_disks) {
        return Invalid(prefix + ".members: disk index " + std::to_string(d) +
                       " outside the topology's " + std::to_string(total_disks) + " disk(s)");
      }
      // A repeated disk gives a mirror with zero redundancy and a stripe
      // that serializes on one spindle — always a misconfiguration.
      for (size_t prev = 0; prev < m; ++prev) {
        if (spec.members[prev] == d) {
          return Invalid(prefix + ".members: disk " + std::to_string(d) + " listed twice");
        }
      }
    }
    if (kind->validate != nullptr) {
      PFS_RETURN_IF_ERROR(kind->validate(spec, sector_bytes, prefix));
    }
  }

  // Evenly partition each disk among the volumes that reference it.
  std::vector<uint64_t> refs(static_cast<size_t>(total_disks), 0);
  for (const VolumeSpec& spec : specs) {
    for (int d : spec.members) {
      ++refs[static_cast<size_t>(d)];
    }
  }
  std::vector<uint64_t> next_slot(static_cast<size_t>(total_disks), 0);
  std::vector<VolumePlan> plans;
  plans.reserve(specs.size());
  const uint64_t min_blocks = SystemBuilder::MinBlocksPerFilesystem(config);
  for (size_t i = 0; i < specs.size(); ++i) {
    VolumePlan plan;
    plan.spec = specs[i];
    for (int d : plan.spec.members) {
      const uint64_t slice_blocks = disk_blocks / refs[static_cast<size_t>(d)];
      if (slice_blocks == 0) {
        return Invalid("volumes: disk " + std::to_string(d) + " split " +
                       std::to_string(refs[static_cast<size_t>(d)]) +
                       " ways leaves zero blocks per slice");
      }
      const uint64_t start_block = slice_blocks * next_slot[static_cast<size_t>(d)]++;
      plan.slices.push_back({d, start_block * spb, slice_blocks * spb});
    }
    // Capacity via the volume kinds' own formulas, so Validate can never
    // accept a config whose constructed volume sizes itself differently.
    std::vector<uint64_t> slice_sectors;
    for (const SlicePlan& s : plan.slices) {
      slice_sectors.push_back(s.nsectors);
    }
    const VolumeKindFamily::Value& kind = *VolumeKindRegistry::Find(plan.spec.kind);
    PFS_ASSIGN_OR_RETURN(const uint64_t capacity,
                         kind.capacity_sectors(slice_sectors, plan.spec, sector_bytes,
                                               "volumes[" + std::to_string(i) + "]"));
    plan.fs_blocks = capacity / spb;
    if (plan.fs_blocks < min_blocks) {
      if (defaulted) {
        return Invalid("num_filesystems: " + std::to_string(config.num_filesystems) + " " +
                       config.layout + " file systems over " + std::to_string(total_disks) +
                       " disk(s) leave " + std::to_string(plan.fs_blocks) +
                       " blocks per partition; the layout needs " +
                       std::to_string(min_blocks));
      }
      return Invalid("volumes[" + std::to_string(i) + "]: " + plan.spec.kind +
                     " volume offers " + std::to_string(plan.fs_blocks) + " blocks; the " +
                     config.layout + " layout needs " + std::to_string(min_blocks));
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

std::unique_ptr<StorageLayout> MakeLayout(Scheduler* sched, BlockDev dev,
                                          const SystemConfig& config, int fs_index,
                                          StatsRegistry* stats) {
  const LayoutFamily::Value& family = *LayoutRegistry::Find(config.layout);
  std::unique_ptr<StorageLayout> layout =
      family.make(LayoutContext{sched, std::move(dev), &config, fs_index});
  layout->BindHomeShard(sched, "layout");
  if (auto* source = dynamic_cast<StatSource*>(layout.get()); source != nullptr) {
    stats->Register(source, sched);
  }
  return layout;
}

}  // namespace

uint64_t SystemBuilder::MinBlocksPerFilesystem(const SystemConfig& config) {
  const LayoutFamily::Value* family = LayoutRegistry::Find(config.layout);
  if (family == nullptr) {
    return 0;  // Validate reports the unknown layout name itself
  }
  return family->min_partition_blocks(config);
}

namespace {

// Everything except volume placement (PlanVolumes covers that, and both
// Validate and Build need the plan, so it is computed once per caller).
Status ValidateStack(const SystemConfig& config) {
  if (config.disks_per_bus.empty()) {
    return Invalid("disks_per_bus: at least one bus is required");
  }
  for (int n : config.disks_per_bus) {
    if (n < 0) {
      return Invalid("disks_per_bus: negative disk count");
    }
  }
  const int total_disks = config.total_disks();
  if (total_disks == 0) {
    return Invalid("disks_per_bus: topology has zero disks");
  }
  if (config.num_filesystems < 1) {
    return Invalid("num_filesystems: at least one file system is required");
  }
  if (config.num_filesystems > kMaxFilesystems) {
    // Before CheckShardSpecs, which sizes a vector by the count.
    return Invalid("num_filesystems: at most " + std::to_string(kMaxFilesystems) +
                   " file systems, got " + std::to_string(config.num_filesystems));
  }
  const LayoutFamily::Value* layout = LayoutRegistry::Find(config.layout);
  if (layout == nullptr) {
    return LayoutRegistry::UnknownNameError("layout", config.layout);
  }
  if (!QueuePolicyRegistry::Contains(config.queue_policy)) {
    return QueuePolicyRegistry::UnknownNameError("queue_policy", config.queue_policy);
  }
  if (!CleanerRegistry::Contains(config.cleaner)) {
    return CleanerRegistry::UnknownNameError("cleaner", config.cleaner);
  }
  if (!ReplacementRegistry::Contains(config.replacement)) {
    return ReplacementRegistry::UnknownNameError("replacement", config.replacement);
  }
  if (!FlushPolicyRegistry::Contains(config.flush_policy)) {
    return FlushPolicyRegistry::UnknownNameError("flush_policy", config.flush_policy);
  }
  if (layout->validate != nullptr) {
    PFS_RETURN_IF_ERROR(layout->validate(config));
  }
  if (config.cache_bytes < kDefaultBlockSize) {
    return Invalid("cache_bytes: smaller than one block");
  }
  if (!config.simulated()) {
    if (config.image_path.empty()) {
      return Invalid("image_path: required for the file-backed backend");
    }
    if (!IoEngineRegistry::Contains(config.io_engine)) {
      return IoEngineRegistry::UnknownNameError("io_engine", config.io_engine);
    }
  }
  if (DiskBlocks(config) == 0) {
    return Invalid("disk geometry: block size is not a multiple of the sector size");
  }
  if (auto fault_error = CheckFaultSpecs(config); fault_error.has_value()) {
    return Invalid("faults[" + std::to_string(fault_error->fault) + "]." +
                   fault_error->field + ": " + fault_error->message);
  }
  // Shard placement checks (Parse maps the same errors back to scenario
  // lines; programmatic configs get them here, keyed verbatim).
  if (auto shard_error = CheckShardSpecs(config); shard_error.has_value()) {
    return Invalid(shard_error->key + ": " + shard_error->message);
  }
  // The scenario keys' own rules (a zero host.mem_bandwidth_bytes_per_sec
  // would divide by zero in every simulated copy).
  return CheckScenarioKeys(config);
}

}  // namespace

Status SystemBuilder::Validate(const SystemConfig& config) {
  PFS_RETURN_IF_ERROR(ValidateStack(config));
  // Volume placement subsumes the partition-size check: every file system's
  // volume (explicit, or the default round-robin single-disk slice) must
  // still hold a formattable file system.
  return PlanVolumes(config).status();
}

Result<std::unique_ptr<System>> SystemBuilder::Build(const SystemConfig& config) {
  PFS_RETURN_IF_ERROR(ValidateStack(config));
  PFS_ASSIGN_OR_RETURN(std::vector<VolumePlan> plans, PlanVolumes(config));
  const QueueSchedPolicy queue_policy = *QueuePolicyRegistry::Find(config.queue_policy);
  const int nshards = config.shards;
  const std::vector<int> disk_owners = DiskShardOwners(config);
  auto system = std::unique_ptr<System>(new System());
  System& sys = *system;
  sys.config_ = config;
  sys.group_ = std::make_unique<SchedulerGroup>(static_cast<size_t>(nshards),
                                                config.virtual_clock(), config.seed);
  // The metric registry, sized to the shard count: every component below
  // counts its events into it. Scheduler counters are exposed as callbacks
  // over their (relaxed) atomics — no extra writes on the hot loop.
  sys.metrics_ = std::make_unique<MetricRegistry>(static_cast<size_t>(nshards),
                                                  config.metrics.prefix);
  MetricRegistry* reg = sys.metrics_.get();
  for (int s = 0; s < nshards; ++s) {
    Scheduler* sched = sys.shard_scheduler(s);
    auto sched_stats = std::make_unique<SchedStats>(sched);
    sys.stats_.Register(sched_stats.get(), sched);
    sys.sched_stats_.push_back(std::move(sched_stats));
    char labels[32];
    std::snprintf(labels, sizeof(labels), "shard=\"%d\"", s);
    reg->AddCallback("sched_steps_total", "Coroutine resumes", MetricKind::kCounter,
                     labels,
                     [sched] { return static_cast<double>(sched->context_switches()); });
    reg->AddCallback("sched_posts_total", "Cross-shard posts received",
                     MetricKind::kCounter, labels,
                     [sched] { return static_cast<double>(sched->posts_received()); });
    reg->AddCallback("sched_cross_posts_total", "Cross-shard posts sent",
                     MetricKind::kCounter, labels,
                     [sched] { return static_cast<double>(sched->cross_posts_sent()); });
    reg->AddCallback("sched_mailbox_drains_total", "Mailbox drain passes",
                     MetricKind::kCounter, labels,
                     [sched] { return static_cast<double>(sched->mailbox_drains()); });
    reg->AddCallback("sched_idle_seconds_total", "Real time spent waiting for work",
                     MetricKind::kCounter, labels,
                     [sched] { return static_cast<double>(sched->idle_nanos()) * 1e-9; });
  }

  // Drivers: the only place where the two backends diverge structurally.
  // Each disk lives on its owning shard (whole busses at a time under the
  // simulator — DiskShardOwners guarantees bus-uniform owners there).
  if (config.simulated()) {
    int disk_index = 0;
    for (size_t b = 0; b < config.disks_per_bus.size(); ++b) {
      const int bus_owner =
          config.disks_per_bus[b] > 0 ? disk_owners[static_cast<size_t>(disk_index)] : 0;
      Scheduler* bus_sched = sys.shard_scheduler(bus_owner);
      auto bus = std::make_unique<ScsiBus>(bus_sched, std::string("scsi") + std::to_string(b));
      for (int d = 0; d < config.disks_per_bus[b]; ++d) {
        const std::string name = std::string("d") + std::to_string(disk_index);
        auto disk = std::make_unique<DiskModel>(bus_sched, name, config.disk_params, bus.get());
        disk->Start();
        auto driver = std::make_unique<SimDiskDriver>(bus_sched, reg, name, disk.get(),
                                                      bus.get(), queue_policy);
        driver->Start();
        sys.stats_.Register(disk.get(), bus_sched);
        sys.stats_.Register(driver.get(), bus_sched);
        sys.disks_.push_back(std::move(disk));
        sys.drivers_.push_back(std::move(driver));
        ++disk_index;
      }
      sys.stats_.Register(bus.get(), bus_sched);
      sys.busses_.push_back(std::move(bus));
    }
  } else {
    sys.executor_ = std::make_unique<IoExecutor>(config.io_threads);
    const int total_disks = config.total_disks();
    for (int i = 0; i < total_disks; ++i) {
      Scheduler* disk_sched = sys.shard_scheduler(disk_owners[static_cast<size_t>(i)]);
      PFS_ASSIGN_OR_RETURN(
          std::unique_ptr<FileBackedDriver> driver,
          FileBackedDriver::Create(disk_sched, reg, std::string("d") + std::to_string(i),
                                   config.disk_image_path(i), config.image_bytes,
                                   sys.executor_.get(), queue_policy));
      driver->Start();
      sys.stats_.Register(driver.get(), disk_sched);
      sys.drivers_.push_back(std::move(driver));
    }
  }

  // Caches and data movers, one per shard: simulated caches track identity
  // only, real caches hold real bytes (paper §2). The configured capacity is
  // the whole server's budget, split evenly across shards.
  BufferCache::Config cache_config;
  cache_config.capacity_bytes =
      std::max<uint64_t>(config.cache_bytes / static_cast<uint64_t>(nshards),
                         kDefaultBlockSize);
  cache_config.allocate_memory = !config.simulated();
  cache_config.async_flush = config.async_flush;
  for (int s = 0; s < nshards; ++s) {
    auto cache = std::make_unique<BufferCache>(
        sys.shard_scheduler(s), reg, cache_config,
        (*ReplacementRegistry::Find(config.replacement))(config.seed +
                                                         static_cast<uint64_t>(s)),
        (*FlushPolicyRegistry::Find(config.flush_policy))(
            FlushPolicyOptions{config.nvram_bytes}));
    if (nshards > 1) {
      cache->set_stat_suffix(".shard" + std::to_string(s));
    }
    sys.stats_.Register(cache.get(), sys.shard_scheduler(s));
    sys.caches_.push_back(std::move(cache));
    if (config.simulated()) {
      sys.movers_.push_back(
          std::make_unique<SimDataMover>(sys.shard_scheduler(s), config.host));
    } else {
      auto mover = std::make_unique<RealDataMover>();
      mover->BindHomeShard(sys.shard_scheduler(s), "data_mover");
      sys.movers_.push_back(std::move(mover));
    }
  }

  // Observability: the recorder hands out trace ids at the client roots and
  // keeps every span for the export, and the sampler snapshots the whole
  // registry on a period (hopping to each shard for its shard-affine sources
  // when sharded) for the sample stream and /statz.
  if (config.trace.enabled) {
    sys.tracer_ = std::make_unique<TraceRecorder>();
  }
  if (config.trace.sample_ms > 0 || config.metrics.enabled) {
    const uint32_t period_ms = config.trace.sample_ms > 0 ? config.trace.sample_ms : 500;
    sys.sampler_ = std::make_unique<StatsSampler>(sys.group_.get(), &sys.stats_, reg,
                                                  Duration::Millis(period_ms));
    if (config.trace.sample_ms > 0 && !config.trace.file.empty()) {
      // Stream samples incrementally (fsync every 8) so an interrupted run
      // keeps its curve.
      PFS_RETURN_IF_ERROR(
          sys.sampler_->OpenOutput(TraceSamplesPath(config.trace.file), /*flush_every=*/8));
    }
  }

  // File systems over their volumes, each pinned to its shard. The default
  // plan reduces to the seed's round-robin slices (the paper's server had 14
  // file systems on 10 disks); explicit volume specs compose slices into
  // concat/striped/mirror devices. A slice whose disk belongs to another
  // shard gets a CrossShardDevice proxy.
  sys.client_ = std::make_unique<LocalClient>(sys.scheduler(), reg);
  sys.client_->set_trace_recorder(sys.tracer_.get());
  for (int f = 0; f < config.num_filesystems; ++f) {
    const VolumePlan& plan = plans[static_cast<size_t>(f)];
    const int fshard = config.ShardForFs(f);
    Scheduler* fsched = sys.shard_scheduler(fshard);
    sys.fs_shard_.push_back(fshard);
    const std::string vol_name = config.mount_prefix + std::to_string(f);
    std::vector<VolumeSliceRef> slices;
    for (const SlicePlan& s : plan.slices) {
      BlockDevice* backing = sys.drivers_[static_cast<size_t>(s.disk)].get();
      const int owner = disk_owners[static_cast<size_t>(s.disk)];
      if (owner != fshard) {
        auto proxy = std::make_unique<CrossShardDevice>(
            fsched, sys.shard_scheduler(owner), backing);
        backing = proxy.get();
        sys.cross_devices_.push_back(std::move(proxy));
      }
      slices.push_back(VolumeSliceRef{backing, s.start_sector, s.nsectors});
    }
    const VolumeKindFamily::Value& kind = *VolumeKindRegistry::Find(plan.spec.kind);
    std::unique_ptr<Volume> top = kind.assemble(fsched, reg, vol_name, slices, plan.spec,
                                                sys.drivers_[0]->sector_bytes());
    sys.stats_.Register(top.get(), fsched);
    BlockDev dev(top.get(), kDefaultBlockSize);
    sys.fs_volumes_.push_back(std::move(top));
    auto layout = MakeLayout(fsched, std::move(dev), config, f, &sys.stats_);
    auto fs = std::make_unique<FileSystem>(fsched, layout.get(),
                                           sys.caches_[static_cast<size_t>(fshard)].get(),
                                           sys.movers_[static_cast<size_t>(fshard)].get());
    std::string mount = config.mount_prefix + std::to_string(f);
    sys.client_->AddMount(mount, fs.get());
    sys.mount_names_.push_back(std::move(mount));
    sys.layouts_.push_back(std::move(layout));
    sys.filesystems_.push_back(std::move(fs));
  }

  // The fault subsystem: every mirror gets a RebuildDaemon (so programmatic
  // callers can fail/return members without a schedule); injectors are built
  // only when the config carries fault events — one per shard whose volumes
  // have events, each replaying its shard's slice of the schedule on that
  // shard's loop.
  sys.rebuild_daemons_.resize(sys.fs_volumes_.size());
  for (size_t f = 0; f < sys.fs_volumes_.size(); ++f) {
    auto* mirror = dynamic_cast<MirrorVolume*>(sys.fs_volumes_[f].get());
    if (mirror == nullptr) {
      continue;
    }
    Scheduler* fsched = sys.shard_scheduler(sys.fs_shard_[f]);
    RebuildDaemon::Options options;
    options.bw_kbps = config.rebuild_bw_kbps;
    options.copy_real_data = !config.simulated();
    sys.rebuild_daemons_[f] =
        std::make_unique<RebuildDaemon>(fsched, reg, mirror, options);
    sys.stats_.Register(sys.rebuild_daemons_[f].get(), fsched);
  }
  if (!config.faults.empty()) {
    // Validated above (CheckFaultSpecs), so resolution cannot fail.
    PFS_ASSIGN_OR_RETURN(const FaultSchedule schedule, FaultSchedule::FromConfig(config));
    std::vector<std::vector<FaultInjector::PlannedEvent>> per_shard(
        static_cast<size_t>(nshards));
    for (const FaultEvent& event : schedule.events()) {
      auto* mirror = dynamic_cast<MirrorVolume*>(sys.fs_volumes_[event.volume].get());
      PFS_CHECK_MSG(mirror != nullptr, "fault event targets a non-mirror volume");
      const int s = sys.fs_shard_[static_cast<size_t>(event.volume)];
      per_shard[static_cast<size_t>(s)].push_back(
          {event, mirror, sys.rebuild_daemons_[event.volume].get()});
    }
    sys.injectors_.resize(static_cast<size_t>(nshards));
    for (int s = 0; s < nshards; ++s) {
      if (per_shard[static_cast<size_t>(s)].empty()) {
        continue;
      }
      auto injector = std::make_unique<FaultInjector>(
          sys.shard_scheduler(s), reg, std::move(per_shard[static_cast<size_t>(s)]));
      if (nshards > 1) {
        injector->set_stat_suffix(".shard" + std::to_string(s));
      }
      sys.stats_.Register(injector.get(), sys.shard_scheduler(s));
      sys.injectors_[static_cast<size_t>(s)] = std::move(injector);
    }
  }

  return system;
}

System::~System() {
  // The I/O pool goes first: Run() returns once only daemons remain, so a
  // flusher's batch may still be in flight, and its completion node lives in
  // a driver destroyed below. Joined here, the completion lands in a mailbox
  // that DestroyAllThreads empties while the driver is alive.
  executor_.reset();
  // Suspended threads (daemons, or clients cut off by a bounded run) hold
  // references into the components destroyed below; release their frames
  // while everything is still alive. Shard threads are already joined by the
  // time a System dies, so walking every shard here is single-threaded.
  for (int s = 0; s < shard_count(); ++s) {
    shard_scheduler(s)->DestroyAllThreads();
  }
}

namespace {

Task<> SetupLayouts(std::vector<StorageLayout*> layouts, bool format, Status* out) {
  for (StorageLayout* layout : layouts) {
    // Two separate co_awaits: GCC 12 miscompiles `cond ? co_await a
    // : co_await b` (temporaries in the frame are double-destroyed).
    Status status = OkStatus();
    if (format) {
      status = co_await layout->Format();
    } else {
      status = co_await layout->Mount();
    }
    if (!status.ok()) {
      *out = status;
      co_return;
    }
  }
  *out = OkStatus();
}

}  // namespace

Status System::Setup() {
  const bool format = config_.simulated() || config_.format;
  // One setup coroutine per shard, formatting that shard's layouts on that
  // shard's loop (a layout can only be driven from its own shard).
  std::vector<Status> results(group_->size(), OkStatus());
  for (size_t s = 0; s < group_->size(); ++s) {
    std::vector<StorageLayout*> shard_layouts;
    for (size_t f = 0; f < layouts_.size(); ++f) {
      if (fs_shard_[f] == static_cast<int>(s)) {
        shard_layouts.push_back(layouts_[f].get());
      }
    }
    if (shard_layouts.empty()) {
      continue;
    }
    results[s] = Status(ErrorCode::kAborted);
    group_->shard(s)->Spawn("system.setup." + std::to_string(s),
                            SetupLayouts(std::move(shard_layouts), format, &results[s]));
  }
  group_->Run();
  for (const Status& result : results) {
    PFS_RETURN_IF_ERROR(result);
  }
  for (auto& cache : caches_) {
    cache->Start();
  }
  for (auto& layout : layouts_) {
    layout->Start();
  }
  for (auto& rebuild : rebuild_daemons_) {
    if (rebuild != nullptr) {
      rebuild->Start();
    }
  }
  for (auto& injector : injectors_) {
    if (injector != nullptr) {
      injector->Start();
    }
  }
  if (config_.metrics.enabled) {
    PFS_RETURN_IF_ERROR(StartMetricsHttp());
  }
  if (sampler_ != nullptr) {
    sampler_->Start();
  }
  return OkStatus();
}

Status System::StartMetricsHttp() {
  metrics_http_ =
      std::make_unique<MetricsHttpServer>(static_cast<uint16_t>(config_.metrics.port));
  MetricRegistry* reg = metrics_.get();
  metrics_http_->Handle("/metrics", [reg](std::string* body, std::string* content_type) {
    *body = reg->PrometheusText();
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    return true;
  });
  metrics_http_->Handle("/healthz", [this](std::string* body, std::string* content_type) {
    // Liveness + per-shard progress from atomics only: always safe, even
    // after the schedulers have closed.
    std::string out = "{\"ok\":true,\"scrapes\":" + std::to_string(metrics_->scrapes()) +
                      ",\"shards\":[";
    for (int s = 0; s < shard_count(); ++s) {
      Scheduler* sched = shard_scheduler(s);
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s{\"shard\":%d,\"steps\":%llu,\"posts\":%llu}",
                    s == 0 ? "" : ",", s,
                    static_cast<unsigned long long>(sched->context_switches()),
                    static_cast<unsigned long long>(sched->posts_received()));
      out += buf;
    }
    out += "]}";
    *body = std::move(out);
    *content_type = "application/json";
    return true;
  });
  // The sampler's latest report: the handler never posts into (or races
  // with) the schedulers.
  metrics_http_->Handle("/statz", [this](std::string* body, std::string* content_type) {
    *body = sampler_->Latest();
    if (body->empty()) {
      return false;  // the first gather has not landed yet -> 503
    }
    *content_type = "application/json";
    return true;
  });
  return metrics_http_->Start();
}

Status System::ExportObservability() {
  if (tracer_ != nullptr && !config_.trace.file.empty()) {
    return tracer_->WriteChromeTrace(config_.trace.file);
  }
  return OkStatus();
}

}  // namespace pfs
