#include "obs/sched_stats.h"

#include <cstdio>

namespace pfs {

double SchedStats::DepthPercentile(double q) const {
  uint64_t buckets[kMailboxDepthBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kMailboxDepthBuckets; ++i) {
    buckets[i] = sched_->mailbox_depth_bucket(i);
    total += buckets[i];
  }
  if (total == 0) {
    return 0.0;
  }
  const double target = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < kMailboxDepthBuckets; ++i) {
    seen += buckets[i];
    if (static_cast<double>(seen) >= target) {
      return static_cast<double>(1ull << i);
    }
  }
  return static_cast<double>(1ull << (kMailboxDepthBuckets - 1));
}

std::string SchedStats::StatJson() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"shard\":%u,\"steps\":%llu,\"posts_received\":%llu,"
                "\"cross_posts_sent\":%llu,\"mailbox_drains\":%llu,"
                "\"mailbox_depth\":{\"p50\":%.0f,\"p99\":%.0f},\"idle_ms\":%.3f,"
                "\"live\":%zu}",
                sched_->shard_index(),
                static_cast<unsigned long long>(sched_->context_switches()),
                static_cast<unsigned long long>(sched_->posts_received()),
                static_cast<unsigned long long>(sched_->cross_posts_sent()),
                static_cast<unsigned long long>(sched_->mailbox_drains()), DepthPercentile(0.5),
                DepthPercentile(0.99), static_cast<double>(sched_->idle_nanos()) / 1e6,
                sched_->live_thread_count());
  return buf;
}

}  // namespace pfs
