#include "bus/scsi_bus.h"

#include "sched/scheduler.h"

namespace pfs {

ScsiBus::ScsiBus(Scheduler* sched, std::string name) : ScsiBus(sched, std::move(name), Params()) {}

ScsiBus::ScsiBus(Scheduler* sched, std::string name, Params params)
    : sched_(sched), name_(std::move(name)), params_(params), owner_(sched, 1) {}

Task<> ScsiBus::Acquire() {
  const TimePoint start = sched_->Now();
  co_await owner_.Acquire();
  acquisitions_.Inc();
  wait_time_us_.Record(static_cast<double>((sched_->Now() - start).micros()));
  acquired_at_ = sched_->Now();
  if (!params_.arbitration_delay.IsZero()) {
    co_await sched_->Sleep(params_.arbitration_delay);
  }
}

void ScsiBus::Release() {
  busy_time_ += sched_->Now() - acquired_at_;
  owner_.Release();
}

Duration ScsiBus::TransferTime(uint64_t bytes) const {
  // ns = bytes / (B/s) * 1e9, computed in integer space without overflow for
  // any realistic transfer size.
  return Duration::Nanos(
      static_cast<int64_t>(bytes * 1000000000ULL / params_.bandwidth_bytes_per_sec));
}

Task<> ScsiBus::Transfer(uint64_t bytes) {
  bytes_transferred_ += bytes;
  co_await sched_->Sleep(TransferTime(bytes));
}

double ScsiBus::Utilization() const {
  const Duration elapsed = sched_->Now() - TimePoint();
  if (elapsed.IsZero()) {
    return 0.0;
  }
  return busy_time_.ToSecondsF() / elapsed.ToSecondsF();
}

std::string ScsiBus::StatJson() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"acquisitions\":%llu,\"bytes\":%llu,\"busy_ms\":%.3f,"
                "\"utilization\":%.4f,",
                static_cast<unsigned long long>(acquisitions_.value()),
                static_cast<unsigned long long>(bytes_transferred_),
                busy_time_.ToMillisF(), Utilization());
  return buf + wait_time_us_.JsonObject("wait_us") + "}";
}

}  // namespace pfs
