#include "disk/disk_model.h"

#include <algorithm>

#include "core/log.h"
#include "system/component_registry.h"

namespace pfs {

void RegisterBuiltinDiskModels() {
  // Keyed by DiskParams::model_name, so configs serialize by model name.
  DiskModelRegistry::Register("HP97560", [] { return DiskParams::Hp97560(); });
  DiskModelRegistry::Register("HPC3323A", [] { return DiskParams::HpC3323A(); });
  DiskModelRegistry::Register("SyntheticTest", [] { return DiskParams::SyntheticTest(); });
}

DiskParams DiskParams::Hp97560() {
  DiskParams p;
  p.model_name = "HP97560";
  p.geometry = DiskGeometry{/*cylinders=*/1962, /*heads=*/19, /*sectors_per_track=*/72,
                            /*sector_bytes=*/512, /*rpm=*/4002};
  p.seek = TwoRangeSeekModel::Params{/*boundary=*/383, /*short_a_ms=*/3.24, /*short_b_ms=*/0.400,
                                     /*long_a_ms=*/8.00, /*long_b_ms=*/0.008};
  p.head_switch = Duration::MillisF(1.6);
  // The paper reads the 2 ms latency floor as "SCSI-request decoding": the
  // minimal cost of any disk-serviced operation.
  p.controller_overhead = Duration::MillisF(2.0);
  p.cache_bytes = 128 * 1024;
  p.immediate_report_writes = true;
  p.read_ahead_bytes = 4 * 1024;
  return p;
}

DiskParams DiskParams::HpC3323A() {
  DiskParams p;
  p.model_name = "HPC3323A";
  // 2982 cyl x 7 heads x 96 sectors x 512 B ~= 1.0 GB at a fixed
  // sectors-per-track approximation of the drive's zoned geometry.
  p.geometry = DiskGeometry{/*cylinders=*/2982, /*heads=*/7, /*sectors_per_track=*/96,
                            /*sector_bytes=*/512, /*rpm=*/5400};
  // Faster arm than the 97560: ~2.5 ms short seeks, ~11 ms full stroke.
  p.seek = TwoRangeSeekModel::Params{/*boundary=*/616, /*short_a_ms=*/2.20, /*short_b_ms=*/0.300,
                                     /*long_a_ms=*/4.50, /*long_b_ms=*/0.0022};
  p.head_switch = Duration::MillisF(1.0);
  p.controller_overhead = Duration::MillisF(1.1);
  p.cache_bytes = 512 * 1024;
  p.immediate_report_writes = true;
  p.read_ahead_bytes = 64 * 1024;
  return p;
}

DiskParams DiskParams::SyntheticTest() {
  DiskParams p;
  p.model_name = "SyntheticTest";
  p.geometry = DiskGeometry{/*cylinders=*/64, /*heads=*/2, /*sectors_per_track=*/32,
                            /*sector_bytes=*/512, /*rpm=*/6000};
  // Constant 1 ms seek regardless of distance (b terms zero).
  p.seek = TwoRangeSeekModel::Params{/*boundary=*/1, /*short_a_ms=*/1.0, /*short_b_ms=*/0.0,
                                     /*long_a_ms=*/1.0, /*long_b_ms=*/0.0};
  p.head_switch = Duration();
  p.controller_overhead = Duration::Micros(100);
  p.cache_bytes = 0;
  p.immediate_report_writes = false;
  p.read_ahead_bytes = 0;
  return p;
}

DiskModel::DiskModel(Scheduler* sched, std::string name, DiskParams params, Connection* bus)
    : sched_(sched),
      name_(std::move(name)),
      params_(params),
      seek_model_(params.seek),
      bus_(bus),
      work_(sched) {}

void DiskModel::Start() {
  PFS_CHECK_MSG(!started_, "DiskModel started twice");
  started_ = true;
  sched_->SpawnDaemon("disk." + name_, Mechanism());
}

Duration DiskModel::RotationalDelayTo(uint32_t target_sector) const {
  const int64_t rotation_ns = params_.geometry.RotationTime().nanos();
  const int64_t sector_ns = params_.geometry.SectorTime().nanos();
  const int64_t now_in_rotation = sched_->Now().nanos() % rotation_ns;
  const int64_t target_start = static_cast<int64_t>(target_sector) * sector_ns;
  int64_t delay = target_start - now_in_rotation;
  if (delay < 0) {
    delay += rotation_ns;
  }
  return Duration::Nanos(delay);
}

bool DiskModel::ReadHitsCache(const IoRequest& req) const {
  return req.sector >= read_ahead_start_ &&
         req.sector + req.sector_count <= read_ahead_end_;
}

Task<> DiskModel::Submit(IoRequest* req) {
  PFS_CHECK_MSG(started_, "Submit before Start");
  PFS_CHECK(req->sector + req->sector_count <= params_.geometry.TotalSectors());
  queue_depth_.Record(static_cast<double>(external_.size()));

  // Command decode (the paper's 2 ms SCSI floor for disk-serviced requests).
  co_await sched_->Sleep(params_.controller_overhead);

  if (req->op == IoOp::kWrite) {
    writes_.Inc();
    const uint64_t bytes = req->byte_count(params_.geometry.sector_bytes);
    if (params_.immediate_report_writes && cache_used_bytes_ + bytes <= params_.cache_bytes) {
      // Immediate-reported write: data already crossed the bus into the
      // on-board cache; report success now, destage in the background.
      cache_used_bytes_ += bytes;
      destage_queue_.push_back(InternalJob{req->sector, req->sector_count});
      work_.Signal();
      immediate_writes_.Inc();
      req->served_from_disk_cache = true;
      req->complete_time = sched_->Now();
      service_time_.Record(req->complete_time - req->dispatch_time);
      req->result = OkStatus();
      req->done.Notify();
      co_return;
    }
  } else {
    reads_.Inc();
    if (ReadHitsCache(*req)) {
      req->served_from_disk_cache = true;
      cache_hit_reads_.Inc();
    }
  }
  external_.push_back(req);
  work_.Signal();
}

Task<> DiskModel::Mechanism() {
  for (;;) {
    while (external_.empty() && destage_queue_.empty() && !prefetch_armed_) {
      co_await work_.Wait();
    }
    if (!external_.empty()) {
      IoRequest* req = external_.front();
      external_.pop_front();
      co_await ProcessExternal(req);
      // Read-ahead policy: "when there are no more outstanding requests, the
      // disk reads the next 4KB following the last read".
      if (req->op == IoOp::kRead && external_.empty() && params_.read_ahead_bytes > 0) {
        prefetch_armed_ = true;
      }
      continue;
    }
    if (!destage_queue_.empty()) {
      const InternalJob job = destage_queue_.front();
      destage_queue_.pop_front();
      co_await Destage(job);
      continue;
    }
    if (prefetch_armed_) {
      prefetch_armed_ = false;
      co_await Prefetch();
    }
  }
}

Task<> DiskModel::MediaAccess(uint64_t sector, uint32_t count, bool record_stats,
                              Duration* seek_out, Duration* rot_out) {
  const Chs target = params_.geometry.ToChs(sector);

  // Seek (arm movement), with head switches folded into the larger of the
  // two when both occur.
  Duration seek = seek_model_.SeekTime(current_cylinder_, target.cylinder);
  if (target.head != current_head_) {
    seek = std::max(seek, params_.head_switch);
  }
  if (!seek.IsZero()) {
    co_await sched_->Sleep(seek);
  }
  current_cylinder_ = target.cylinder;
  current_head_ = target.head;
  *seek_out = seek;
  if (record_stats) {
    seek_ms_.Record(seek.ToMillisF());
  }

  // Rotational positioning, evaluated *after* the seek completed.
  const Duration rot = RotationalDelayTo(target.sector);
  if (!rot.IsZero()) {
    co_await sched_->Sleep(rot);
  }
  *rot_out = rot;
  if (record_stats) {
    rot_delay_ms_.Record(rot.ToMillisF());
  }

  // Media transfer; boundary crossings cost a head/track switch.
  const uint32_t spt = params_.geometry.sectors_per_track;
  const uint32_t boundaries = (target.sector + count - 1) / spt;
  Duration transfer = params_.geometry.SectorTime() * count + params_.head_switch * boundaries;
  co_await sched_->Sleep(transfer);

  const Chs end = params_.geometry.ToChs(sector + count - 1);
  current_cylinder_ = end.cylinder;
  current_head_ = end.head;
}

Task<> DiskModel::ProcessExternal(IoRequest* req) {
  if (!req->served_from_disk_cache) {
    co_await MediaAccess(req->sector, req->sector_count, /*record_stats=*/true,
                         &req->seek_time, &req->rotational_delay);
  }
  if (req->op == IoOp::kRead) {
    last_read_end_ = req->sector + req->sector_count;
  }

  // Response phase: reconnect to the host and transfer data (reads) or
  // status (writes). Status is a handful of bytes; model it as one sector's
  // worth of protocol traffic.
  const uint64_t response_bytes =
      req->op == IoOp::kRead ? req->byte_count(params_.geometry.sector_bytes) : 32;
  co_await bus_->Acquire();
  co_await bus_->Transfer(response_bytes);
  bus_->Release();

  req->complete_time = sched_->Now();
  service_time_.Record(req->complete_time - req->dispatch_time);
  req->result = OkStatus();
  req->done.Notify();
}

Task<> DiskModel::Destage(const InternalJob& job) {
  Duration seek;
  Duration rot;
  co_await MediaAccess(job.sector, job.count, /*record_stats=*/false, &seek, &rot);
  const uint64_t bytes = static_cast<uint64_t>(job.count) * params_.geometry.sector_bytes;
  PFS_CHECK(cache_used_bytes_ >= bytes);
  cache_used_bytes_ -= bytes;
  destages_.Inc();
}

Task<> DiskModel::Prefetch() {
  const uint32_t count =
      std::max<uint32_t>(1, params_.read_ahead_bytes / params_.geometry.sector_bytes);
  if (last_read_end_ + count > params_.geometry.TotalSectors()) {
    co_return;
  }
  Duration seek;
  Duration rot;
  co_await MediaAccess(last_read_end_, count, /*record_stats=*/false, &seek, &rot);
  read_ahead_start_ = last_read_end_;
  read_ahead_end_ = last_read_end_ + count;
  prefetches_.Inc();
}

std::string DiskModel::StatJson() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"model\":\"%s\",\"reads\":%llu,\"writes\":%llu,"
                "\"cache_hit_reads\":%llu,\"immediate_writes\":%llu,\"destages\":%llu,"
                "\"prefetches\":%llu,",
                params_.model_name.c_str(),
                static_cast<unsigned long long>(reads_.value()),
                static_cast<unsigned long long>(writes_.value()),
                static_cast<unsigned long long>(cache_hit_reads_.value()),
                static_cast<unsigned long long>(immediate_writes_.value()),
                static_cast<unsigned long long>(destages_.value()),
                static_cast<unsigned long long>(prefetches_.value()));
  return buf + service_time_.MsJsonObject("service_ms") + "," +
         rot_delay_ms_.JsonObject("rotational_delay_ms") + "," +
         seek_ms_.JsonObject("seek_ms") + "," + queue_depth_.JsonObject("queue_depth") +
         "}";
}

}  // namespace pfs
