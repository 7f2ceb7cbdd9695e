#include "obs/stats_sampler.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "core/check.h"
#include "obs/metrics.h"
#include "sched/shard.h"

namespace pfs {

namespace {

// Shard `i`'s members of the report: its shard-affine sources, plus the
// unowned ones with shard 0, so each source appears exactly once.
std::string ShardMembers(SchedulerGroup* group, StatsRegistry* stats, size_t i) {
  return stats->ReportJsonOwned(group->shard(i), /*include_unowned=*/i == 0);
}

// Appends one shard's members to the object `out` is building.
void AppendMembers(std::string* out, const std::string& members) {
  if (members.empty()) {
    return;
  }
  if (out->size() > 1) {
    *out += ",";
  }
  *out += members;
}

}  // namespace

Task<std::string> GatherReportJson(SchedulerGroup* group, StatsRegistry* stats) {
  std::string out = "{";
  for (size_t i = 0; i < group->size(); ++i) {
    // Named thunk, not a temporary: GCC 12 double-destroys non-trivial
    // temporaries passed as coroutine arguments in an await full-expression.
    auto body = [group, stats, i]() -> Task<std::string> {
      co_return ShardMembers(group, stats, i);
    };
    std::string members = co_await CallOn<std::string>(group->shard(0), group->shard(i), body);
    AppendMembers(&out, members);
  }
  out += "}";
  co_return out;
}

StatsSampler::StatsSampler(SchedulerGroup* group, StatsRegistry* stats,
                           MetricRegistry* metrics, Duration interval)
    : group_(group), stats_(stats), metrics_(metrics), interval_(interval) {
  PFS_CHECK(group != nullptr);
  PFS_CHECK(stats != nullptr);
  PFS_CHECK(interval > Duration());
}

StatsSampler::~StatsSampler() {
  if (writer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      writer_stop_ = true;
    }
    cv_.notify_one();
    writer_.join();
  }
  if (out_ != nullptr) {
    std::fflush(out_);
    ::fsync(fileno(out_));
    std::fclose(out_);
  }
}

Status StatsSampler::OpenOutput(const std::string& path, size_t flush_every) {
  PFS_CHECK_MSG(!started_, "OpenOutput after Start");
  PFS_CHECK_MSG(out_ == nullptr, "OpenOutput called twice");
  PFS_CHECK(flush_every > 0);
  out_ = std::fopen(path.c_str(), "w");
  if (out_ == nullptr) {
    return Status(ErrorCode::kIoError, "open " + path + ": " + std::strerror(errno));
  }
  flush_every_ = flush_every;
  writer_ = std::thread([this] { WriterLoop(); });
  return OkStatus();
}

void StatsSampler::WriterLoop() {
  // All blocking file work lives here: fwrite can block on a full page-cache
  // writeback queue and fdatasync is an unbounded syscall — neither belongs
  // on a scheduler thread, where they would stall every coroutine on the
  // shard and distort the latency distributions being sampled.
  size_t unflushed = 0;
  for (;;) {
    std::deque<std::string> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return writer_stop_ || !pending_.empty(); });
      if (pending_.empty() && writer_stop_) break;
      batch.swap(pending_);
    }
    for (const std::string& line : batch) {
      std::fwrite(line.data(), 1, line.size(), out_);
    }
    unflushed += batch.size();
    if (unflushed >= flush_every_) {
      std::fflush(out_);
      ::fdatasync(fileno(out_));
      unflushed = 0;
    }
  }
  if (unflushed > 0) {
    std::fflush(out_);
    ::fdatasync(fileno(out_));
  }
}

void StatsSampler::Start() {
  PFS_CHECK_MSG(!started_, "StatsSampler started twice");
  started_ = true;
  group_->shard(0)->SpawnTransientDaemon("obs.stats_sampler", Loop());
}

std::string StatsSampler::Latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_;
}

void StatsSampler::SampleStopped() {
  // GatherReportJson's composition, read in place: with every loop stopped
  // no source needs its owner's thread.
  std::string out = "{";
  for (size_t i = 0; i < group_->size(); ++i) {
    AppendMembers(&out, ShardMembers(group_, stats_, i));
  }
  out += "}";
  PushSample(static_cast<double>(group_->shard(0)->Now().nanos()) / 1e6, std::move(out));
}

Task<> StatsSampler::Loop() {
  Scheduler* home = group_->shard(0);
  for (;;) {
    const double t_ms = static_cast<double>(home->Now().nanos()) / 1e6;
    std::string stats_json = co_await GatherReportJson(group_, stats_);
    PushSample(t_ms, std::move(stats_json));
    co_await home->Sleep(interval_);
  }
}

void StatsSampler::PushSample(double t_ms, std::string stats_json) {
  if (out_ != nullptr) {
    // The metric snapshot is rendered only for the stream. File I/O (and the
    // periodic sync) runs on the writer thread, never on the scheduler thread.
    char head[64];
    std::snprintf(head, sizeof(head), "{\"t_ms\":%.3f,\"stats\":", t_ms);
    std::string line =
        head + stats_json + ",\"metrics\":" + metrics_->JsonSnapshot() + "}\n";
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.push_back(std::move(line));
    }
    cv_.notify_one();
  }
  std::lock_guard<std::mutex> lock(mu_);
  latest_ = std::move(stats_json);
}

}  // namespace pfs
