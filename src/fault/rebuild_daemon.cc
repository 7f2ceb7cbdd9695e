#include "fault/rebuild_daemon.h"

#include <algorithm>
#include <cstdio>

#include "core/log.h"
#include "obs/metrics.h"

namespace pfs {

RebuildDaemon::RebuildDaemon(Scheduler* sched, MetricRegistry* metrics,
                             MirrorVolume* mirror, Options options)
    : sched_(sched), mirror_(mirror), options_(options), work_(sched) {
  PFS_CHECK(mirror_ != nullptr);
  const std::string labels = "volume=\"" + mirror_->name() + "\"";
  requests_ =
      metrics->Counter("rebuild_requests_total", "Member rebuilds requested", labels);
  completed_ = metrics->Counter("rebuild_completed_total",
                                "Members rebuilt and reinstated", labels);
  aborted_ = metrics->Counter("rebuild_aborted_total",
                              "Rebuild passes aborted on copy failure", labels);
  copied_bytes_ =
      metrics->Counter("rebuild_copied_bytes_total", "Debt bytes copied back", labels);
  BindHomeShard(sched_);
  PFS_CHECK_MSG(options_.chunk_sectors > 0, "rebuild chunk must be at least one sector");
  if (options_.copy_real_data) {
    buffer_.resize(static_cast<size_t>(options_.chunk_sectors) * mirror_->sector_bytes());
  }
}

void RebuildDaemon::Start() {
  PFS_CHECK_MSG(!started_, "RebuildDaemon started twice");
  started_ = true;
  sched_->SpawnDaemon("rebuild." + mirror_->name(), Loop());
}

void RebuildDaemon::RequestRebuild(size_t member) {
  PFS_ASSERT_SHARD();
  PFS_CHECK(member < mirror_->member_count());
  if (active_ && active_member_ == member) {
    return;  // already being rebuilt
  }
  for (size_t queued : pending_) {
    if (queued == member) {
      return;
    }
  }
  requests_->Inc();
  pending_.push_back(member);
  work_.Signal();
}

Task<> RebuildDaemon::Loop() {
  for (;;) {
    while (pending_.empty()) {
      co_await work_.Wait();
    }
    const size_t member = pending_.front();
    pending_.pop_front();
    active_ = true;
    active_member_ = member;
    co_await RebuildMember(member);
    active_ = false;
  }
}

Task<> RebuildDaemon::RebuildMember(size_t member) {
  if (!mirror_->member_failed(member)) {
    co_return;  // raced with another reinstatement path: nothing to do
  }
  const TimePoint start = sched_->Now();
  const uint32_t sector_bytes = mirror_->sector_bytes();
  bool failed = false;
  while (auto extent = mirror_->PopDebtExtent(member, options_.chunk_sectors)) {
    const auto [sector, count] = *extent;
    const uint64_t bytes = static_cast<uint64_t>(count) * sector_bytes;
    // Simulated backend: empty spans, the copy is pure timing (the paper's
    // "no real data is moved" rule). File-backed: real bytes round-trip.
    std::span<std::byte> span =
        options_.copy_real_data ? std::span<std::byte>(buffer_).first(bytes)
                                : std::span<std::byte>{};
    // Read through the mirror itself (live members, shortest queue — the
    // normal volume path), write to the returning member's own slice.
    Status status = co_await mirror_->Read(sector, count, span);
    if (status.ok()) {
      status = co_await mirror_->WriteMember(member, sector, count, span);
    }
    if (!status.ok()) {
      mirror_->PushDebtExtent(member, sector, count);
      aborted_->Inc();
      PFS_LOG_WARN("rebuild", "%s member %zu aborted: %s", mirror_->name().c_str(), member,
                   status.ToString().c_str());
      failed = true;
      break;
    }
    copied_bytes_->Inc(bytes);
    mirror_->NoteRebuildCopied(count);
    if (options_.bw_kbps > 0) {
      co_await sched_->Sleep(Duration::SecondsF(
          static_cast<double>(bytes) / (static_cast<double>(options_.bw_kbps) * 1024.0)));
    }
  }
  const Duration elapsed = sched_->Now() - start;
  busy_ns_ += elapsed.nanos();
  mirror_->NoteRebuildElapsed(elapsed);
  if (!failed) {
    // A foreground write may have slipped a new extent in after the final
    // pop, or one that skipped the member may still be in flight. Back off
    // a beat (so the write can finish and its debt land) and go around —
    // checked via ReinstateBlocked, not a refused SetMemberFailed, so these
    // routine retry beats don't count as reinstate refusals.
    if (mirror_->ReinstateBlocked(member)) {
      co_await sched_->Sleep(Duration::Millis(1));
      pending_.push_back(member);  // Loop re-checks pending_ right after us
      co_return;
    }
    // Nothing blocks it and nothing can change between the check and the
    // call (no suspension point): this succeeds, or the member was already
    // reinstated under us (a no-op OkStatus) — completed either way.
    PFS_CHECK(mirror_->SetMemberFailed(member, false).ok());
    completed_->Inc();
  }
}

std::string RebuildDaemon::StatJson() const {
  const uint64_t bytes = copied_bytes_->Total();
  const double busy_s = static_cast<double>(busy_ns_) / 1e9;
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"bw_kbps\":%u,\"requests\":%llu,\"completed\":%llu,\"aborted\":%llu,"
                "\"rebuilt_bytes\":%llu,\"busy_ms\":%.3f,\"throughput_kbps\":%.1f,"
                "\"idle\":%s}",
                options_.bw_kbps, static_cast<unsigned long long>(requests()),
                static_cast<unsigned long long>(completed()),
                static_cast<unsigned long long>(aborted()),
                static_cast<unsigned long long>(bytes), static_cast<double>(busy_ns_) / 1e6,
                busy_s > 0 ? static_cast<double>(bytes) / busy_s / 1024.0 : 0.0,
                idle() ? "true" : "false");
  return buf;
}

}  // namespace pfs
