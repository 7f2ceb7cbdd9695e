#include "obs/stats_sampler.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "core/check.h"
#include "obs/metrics.h"
#include "sched/shard.h"

namespace pfs {

Task<std::string> GatherReportJson(SchedulerGroup* group, StatsRegistry* stats) {
  Scheduler* home = group->shard(0);
  std::string out = "{";
  for (size_t i = 0; i < group->size(); ++i) {
    Scheduler* shard = group->shard(i);
    // Named thunk, not a temporary: GCC 12 double-destroys non-trivial
    // temporaries passed as coroutine arguments in an await full-expression.
    auto body = [stats, shard, home]() -> Task<std::string> {
      co_return stats->ReportJsonOwned(shard, /*include_unowned=*/shard == home);
    };
    std::string frag = co_await CallOn<std::string>(home, shard, body);
    if (!frag.empty()) {
      if (out.size() > 1) {
        out += ",";
      }
      out += frag;
    }
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

Task<> StatsSampler::Loop() {
  Scheduler* home = group_->shard(0);
  for (;;) {
    co_await home->Sleep(interval_);
    const double t_ms = static_cast<double>(home->Now().nanos()) / 1e6;
    std::string stats_json = co_await GatherReportJson(group_, stats_);
    PushSample(t_ms, std::move(stats_json));
  }
}

void StatsSampler::PushSample(double t_ms, std::string stats_json) {
  SamplePoint sample;
  sample.t_ms = t_ms;
  sample.stats_json = std::move(stats_json);
  sample.metrics_json = metrics_->JsonSnapshot();
  if (out_ != nullptr) {
    // Hand the rendered line to the writer thread; file I/O (and the
    // periodic sync) must not run on the scheduler thread.
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.push_back(LineJson(sample) + "\n");
    }
    cv_.notify_one();
  }
  samples_.push_back(std::move(sample));
}

std::string StatsSampler::LineJson(const SamplePoint& sample) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"t_ms\":%.3f,\"stats\":", sample.t_ms);
  std::string out(buf);
  out += sample.stats_json;
  out += ",\"metrics\":";
  out += sample.metrics_json;
  out += "}";
  return out;
}

std::string StatsSampler::SeriesJson() const {
  std::string out = "[";
  for (size_t i = 0; i < samples_.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += LineJson(samples_[i]);
  }
  out += "]";
  return out;
}

Status StatsSampler::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status(ErrorCode::kIoError, "open " + path + ": " + std::strerror(errno));
  }
  bool ok = true;
  for (const SamplePoint& sample : samples_) {
    const std::string line = LineJson(sample) + "\n";
    ok = ok && std::fwrite(line.data(), 1, line.size(), f) == line.size();
  }
  const int close_rc = std::fclose(f);
  if (!ok || close_rc != 0) {
    return Status(ErrorCode::kIoError, "write " + path);
  }
  return OkStatus();
}

}  // namespace pfs
