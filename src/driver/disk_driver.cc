#include "driver/disk_driver.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "system/component_registry.h"

namespace pfs {

const char* QueueSchedPolicyName(QueueSchedPolicy p) {
  switch (p) {
    case QueueSchedPolicy::kFcfs:
      return "FCFS";
    case QueueSchedPolicy::kSstf:
      return "SSTF";
    case QueueSchedPolicy::kScan:
      return "SCAN";
    case QueueSchedPolicy::kCscan:
      return "C-SCAN";
    case QueueSchedPolicy::kLook:
      return "LOOK";
    case QueueSchedPolicy::kClook:
      return "C-LOOK";
  }
  return "?";
}

namespace {
// Every policy, in the order the registry lists them.
constexpr QueueSchedPolicy kAllQueueSchedPolicies[] = {
    QueueSchedPolicy::kFcfs, QueueSchedPolicy::kSstf,  QueueSchedPolicy::kScan,
    QueueSchedPolicy::kCscan, QueueSchedPolicy::kLook, QueueSchedPolicy::kClook};
}  // namespace

void RegisterBuiltinQueuePolicies() {
  for (QueueSchedPolicy p : kAllQueueSchedPolicies) {
    QueuePolicyRegistry::Register(QueueSchedPolicyName(p), p);
  }
}

QueueingDiskDriver::QueueingDiskDriver(Scheduler* sched, MetricRegistry* metrics,
                                       std::string name, QueueSchedPolicy policy)
    : sched_(sched), name_(std::move(name)), policy_(policy), work_(sched) {
  const std::string labels = "disk=\"" + name_ + "\"";
  reads_ = metrics->Counter("disk_reads_total", "Read requests submitted", labels);
  writes_ = metrics->Counter("disk_writes_total", "Write requests submitted", labels);
  batches_ = metrics->Counter("disk_batches_total", "Device dispatches", labels);
  queue_depth_ =
      metrics->Gauge("disk_queue_depth", "Requests waiting in the driver queue", labels);
  batch_size_ =
      metrics->Histogram("disk_batch_size", "Requests drained per dispatch", labels);
  queue_wait_ = metrics->Histogram("disk_queue_wait_seconds", "Enqueue-to-dispatch wait",
                                   labels, /*scale=*/1e-9);
  latency_ = metrics->Histogram("disk_request_seconds",
                                "Enqueue-to-completion request latency", labels,
                                /*scale=*/1e-9);
}

void QueueingDiskDriver::Start() {
  PFS_CHECK_MSG(!started_, "driver started twice");
  started_ = true;
  sched_->SpawnDaemon("driver." + name_, Worker());
}

Task<Status> QueueingDiskDriver::Read(uint64_t sector, uint32_t count,
                                      std::span<std::byte> out) {
  IoRequest req(sched_, IoOp::kRead, sector, count, out, {});
  reads_->Inc();
  co_return co_await Submit(&req);
}

Task<Status> QueueingDiskDriver::Write(uint64_t sector, uint32_t count,
                                       std::span<const std::byte> in) {
  IoRequest req(sched_, IoOp::kWrite, sector, count, {}, in);
  writes_->Inc();
  co_return co_await Submit(&req);
}

Task<Status> QueueingDiskDriver::Submit(IoRequest* req) {
  PFS_CHECK_MSG(started_, "driver Submit before Start");
  const Thread* issuer = sched_->current_thread();
  if (issuer != nullptr && issuer->trace.active()) {
    req->trace = issuer->trace;
  }
  req->enqueue_time = sched_->Now();
  queue_len_.Record(static_cast<double>(queue_.size()));
  queue_.push_back(req);
  queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  work_.Signal();
  co_await req->done.Wait();
  queue_wait_->RecordDuration(req->dispatch_time - req->enqueue_time);
  latency_->RecordDuration(req->complete_time - req->enqueue_time);
  if (req->trace.active()) {
    // Queue wait and service time fall out of the timestamps the driver
    // already stamps — no extra clock reads on the traced path either.
    const uint64_t tid = issuer != nullptr ? issuer->id() : 0;
    RecordSpan(req->trace, TraceStage::kDriverQueue, tid, req->enqueue_time, req->dispatch_time,
               req->sector_count);
    RecordSpan(req->trace, TraceStage::kDriverIo, tid, req->dispatch_time, req->complete_time,
               req->sector_count);
  }
  co_return req->result;
}

size_t QueueingDiskDriver::PickNextIndex() {
  PFS_CHECK(!queue_.empty());
  switch (policy_) {
    case QueueSchedPolicy::kFcfs:
      return 0;

    case QueueSchedPolicy::kSstf: {
      size_t best = 0;
      uint64_t best_dist = std::numeric_limits<uint64_t>::max();
      for (size_t i = 0; i < queue_.size(); ++i) {
        const uint64_t s = queue_[i]->sector;
        const uint64_t dist = s > head_position_ ? s - head_position_ : head_position_ - s;
        if (dist < best_dist) {
          best_dist = dist;
          best = i;
        }
      }
      return best;
    }

    case QueueSchedPolicy::kScan:
    case QueueSchedPolicy::kLook: {
      // Continue the sweep; reverse when no request remains ahead.
      for (int attempt = 0; attempt < 2; ++attempt) {
        size_t best = queue_.size();
        uint64_t best_key = std::numeric_limits<uint64_t>::max();
        for (size_t i = 0; i < queue_.size(); ++i) {
          const uint64_t s = queue_[i]->sector;
          const bool ahead = sweep_direction_ > 0 ? s >= head_position_ : s <= head_position_;
          if (!ahead) {
            continue;
          }
          const uint64_t key = sweep_direction_ > 0 ? s - head_position_ : head_position_ - s;
          if (key < best_key) {
            best_key = key;
            best = i;
          }
        }
        if (best < queue_.size()) {
          return best;
        }
        sweep_direction_ = -sweep_direction_;
      }
      return 0;  // unreachable with a non-empty queue, but keep it total
    }

    case QueueSchedPolicy::kCscan:
    case QueueSchedPolicy::kClook: {
      // Smallest sector at-or-above the head; wrap to the smallest overall.
      size_t best = queue_.size();
      uint64_t best_sector = std::numeric_limits<uint64_t>::max();
      size_t lowest = 0;
      uint64_t lowest_sector = std::numeric_limits<uint64_t>::max();
      for (size_t i = 0; i < queue_.size(); ++i) {
        const uint64_t s = queue_[i]->sector;
        if (s < lowest_sector) {
          lowest_sector = s;
          lowest = i;
        }
        if (s >= head_position_ && s < best_sector) {
          best_sector = s;
          best = i;
        }
      }
      return best < queue_.size() ? best : lowest;
    }
  }
  return 0;
}

Task<> QueueingDiskDriver::Dispatch(IoRequest*) {
  // Only reachable through the default DispatchBatch loop: the subclass
  // overrode neither dispatch hook.
  PFS_CHECK_MSG(false, "driver overrides neither Dispatch nor DispatchBatch");
  co_return;
}

Task<> QueueingDiskDriver::DispatchBatch(std::span<IoRequest* const> batch) {
  for (IoRequest* req : batch) {
    co_await Dispatch(req);
  }
}

Task<> QueueingDiskDriver::Worker() {
  const uint64_t worker_tid = sched_->current_thread()->id();
  std::vector<IoRequest*> batch;
  for (;;) {
    while (queue_.empty()) {
      co_await work_.Wait();
    }
    // Drain up to MaxBatchSize requests in policy order into one dispatch:
    // each pick advances the head, so the batch follows the same sweep the
    // one-at-a-time loop would have taken.
    // One stamp serves the whole batch: its requests are dispatched together.
    batch.clear();
    const TimePoint batch_begin = sched_->Now();
    const size_t max_batch = std::max<size_t>(1, MaxBatchSize());
    while (!queue_.empty() && batch.size() < max_batch) {
      const size_t idx = PickNextIndex();
      IoRequest* req = queue_[idx];
      queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(idx));
      head_position_ = req->sector;
      req->dispatch_time = batch_begin;
      batch.push_back(req);
    }
    batches_->Inc();
    batch_size_->Record(batch.size());
    queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    // Attribute the batch to the first traced request it carries (a batch
    // can mix traced client requests with untraced daemon I/O).
    TraceContext batch_ctx;
    for (const IoRequest* req : batch) {
      if (req->trace.active()) {
        batch_ctx = req->trace;
        break;
      }
    }
    co_await DispatchBatch(batch);
    if (batch_ctx.active()) {
      RecordSpan(batch_ctx, TraceStage::kDriverBatch, worker_tid, batch_begin, sched_->Now(),
                 batch.size());
    }
  }
}

std::string QueueingDiskDriver::StatJson() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"policy\":\"%s\",\"ops\":%llu,\"reads\":%llu,\"writes\":%llu,"
                "\"queued\":%zu,\"batches\":%llu,\"reqs_per_batch\":%.3f,",
                QueueSchedPolicyName(policy_),
                static_cast<unsigned long long>(ops_completed()),
                static_cast<unsigned long long>(reads_->Total()),
                static_cast<unsigned long long>(writes_->Total()), queue_.size(),
                static_cast<unsigned long long>(batches()), batch_size_->Mean());
  std::string out(buf);
  out += latency_->LatencyMsJsonObject("latency_ms");
  out += ",";
  out += queue_wait_->LatencyMsJsonObject("queue_wait_ms");
  out += ",";
  out += queue_len_.JsonObject("queue_length");
  out += "}";
  return out;
}

}  // namespace pfs
