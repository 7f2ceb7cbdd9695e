#include "fault/fault_injector.h"

#include <cstdio>

#include "core/log.h"
#include "obs/metrics.h"

namespace pfs {

FaultInjector::FaultInjector(Scheduler* sched, MetricRegistry* metrics,
                             std::vector<PlannedEvent> events)
    : sched_(sched), events_(std::move(events)) {
  BindHomeShard(sched_);
  const std::string shard = "shard=\"" + std::to_string(sched_->shard_index()) + "\"";
  fails_ = metrics->Counter("fault_events_total", "Fault-schedule events applied",
                            shard + ",kind=\"fail\"");
  returns_ = metrics->Counter("fault_events_total", "Fault-schedule events applied",
                              shard + ",kind=\"return\"");
  noops_ = metrics->Counter("fault_events_total", "Fault-schedule events applied",
                            shard + ",kind=\"noop\"");
  for (const PlannedEvent& planned : events_) {
    PFS_CHECK(planned.mirror != nullptr);
    PFS_CHECK_MSG(planned.event.action != FaultAction::kReturn || planned.rebuild != nullptr,
                  "return event without a rebuild daemon");
    PFS_CHECK(planned.event.member < planned.mirror->member_count());
  }
}

void FaultInjector::Start() {
  PFS_CHECK_MSG(!started_, "FaultInjector started twice");
  started_ = true;
  if (!events_.empty()) {
    sched_->SpawnTransientDaemon("fault.injector", Run());
  }
}

Task<> FaultInjector::Run() {
  for (const PlannedEvent& planned : events_) {
    co_await sched_->SleepUntil(TimePoint() + planned.event.at);
    Apply(planned);
    ++applied_;
  }
}

void FaultInjector::Apply(const PlannedEvent& planned) {
  PFS_ASSERT_SHARD();
  MirrorVolume* mirror = planned.mirror;
  const size_t member = planned.event.member;
  switch (planned.event.action) {
    case FaultAction::kFail:
      if (mirror->member_failed(member)) {
        noops_->Inc();
        return;
      }
      // Failing a member out always succeeds.
      PFS_CHECK(mirror->SetMemberFailed(member, true).ok());
      fails_->Inc();
      PFS_LOG_INFO("fault", "t=%.3fms: failed %s member %zu (%zu live)",
                   sched_->Now().ToSecondsF() * 1e3, mirror->name().c_str(), member,
                   mirror->live_member_count());
      return;
    case FaultAction::kReturn:
      if (!mirror->member_failed(member)) {
        noops_->Inc();
        return;
      }
      planned.rebuild->RequestRebuild(member);
      returns_->Inc();
      PFS_LOG_INFO("fault", "t=%.3fms: returned %s member %zu (debt %llu B)",
                   sched_->Now().ToSecondsF() * 1e3, mirror->name().c_str(), member,
                   static_cast<unsigned long long>(mirror->debt_sectors(member) *
                                                   mirror->sector_bytes()));
      return;
  }
}

bool FaultInjector::quiescent() const {
  if (!done()) {
    return false;
  }
  for (const PlannedEvent& planned : events_) {
    if (planned.rebuild != nullptr && !planned.rebuild->idle()) {
      return false;
    }
  }
  return true;
}

std::string FaultInjector::StatJson() const {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"events\":%zu,\"applied\":%zu,\"fails\":%llu,\"returns\":%llu,"
                "\"noops\":%llu,\"quiescent\":%s}",
                events_.size(), applied_,
                static_cast<unsigned long long>(fails_applied()),
                static_cast<unsigned long long>(returns_applied()),
                static_cast<unsigned long long>(noop_events()),
                quiescent() ? "true" : "false");
  return buf;
}

}  // namespace pfs
