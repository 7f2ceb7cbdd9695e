#include "trace/replayer.h"

#include <algorithm>

namespace pfs {

TraceReplayer::TraceReplayer(Scheduler* sched, ClientInterface* client)
    : TraceReplayer(sched, client, Options()) {}

TraceReplayer::TraceReplayer(Scheduler* sched, ClientInterface* client, Options options)
    : sched_(sched), client_(client), options_(options) {}

void TraceReplayer::AddRecords(std::vector<TraceRecord> records) {
  SynthesizeMissingTimes(&records);
  for (TraceRecord& r : records) {
    per_client_[r.client].push_back(std::move(r));
  }
  for (auto& [id, recs] : per_client_) {
    std::stable_sort(recs.begin(), recs.end(),
                     [](const TraceRecord& a, const TraceRecord& b) {
                       return a.time_us < b.time_us;
                     });
  }
}

void TraceReplayer::Start() {
  for (const auto& [id, recs] : per_client_) {
    sched_->Spawn("trace.client." + std::to_string(id), ClientThread(id));
  }
}

Task<Result<Fd>> TraceReplayer::FdFor(uint32_t client_id, const std::string& path,
                                      bool create) {
  const auto key = std::make_pair(client_id, path);
  auto it = open_fds_.find(key);
  if (it != open_fds_.end()) {
    co_return it->second;
  }
  OpenOptions options;
  options.create = create;
  auto fd_or = co_await client_->Open(path, options);
  if (!fd_or.ok() && fd_or.code() == ErrorCode::kNotFound && !create) {
    // The trace references a file that predates the (synthesized) initial
    // state: create it, as the paper does when replay information is missing.
    options.create = true;
    fd_or = co_await client_->Open(path, options);
  }
  PFS_CO_RETURN_IF_ERROR(fd_or.status());
  open_fds_[key] = *fd_or;
  co_return *fd_or;
}

Task<Status> TraceReplayer::Dispatch(uint32_t client_id, const TraceRecord& r) {
  switch (r.op) {
    case TraceOp::kOpen: {
      auto fd_or = co_await FdFor(client_id, r.path, r.create);
      co_return fd_or.status();
    }
    case TraceOp::kClose: {
      const auto key = std::make_pair(client_id, r.path);
      auto it = open_fds_.find(key);
      if (it == open_fds_.end()) {
        co_return OkStatus();  // close without open: tolerated
      }
      const Fd fd = it->second;
      open_fds_.erase(it);
      co_return co_await client_->Close(fd);
    }
    case TraceOp::kRead: {
      PFS_CO_ASSIGN_OR_RETURN(const Fd fd, co_await FdFor(client_id, r.path, false));
      auto n = co_await client_->Read(fd, r.offset, r.length, {});
      co_return n.status();
    }
    case TraceOp::kWrite: {
      PFS_CO_ASSIGN_OR_RETURN(const Fd fd, co_await FdFor(client_id, r.path, true));
      auto n = co_await client_->Write(fd, r.offset, r.length, {});
      co_return n.status();
    }
    case TraceOp::kStat: {
      auto attrs = co_await client_->Stat(r.path);
      co_return attrs.status();
    }
    case TraceOp::kUnlink: {
      // Close our own handle first, as trace grouping implies.
      const auto key = std::make_pair(client_id, r.path);
      auto it = open_fds_.find(key);
      if (it != open_fds_.end()) {
        (void)co_await client_->Close(it->second);
        open_fds_.erase(it);
      }
      co_return co_await client_->Unlink(r.path);
    }
    case TraceOp::kTruncate: {
      PFS_CO_ASSIGN_OR_RETURN(const Fd fd, co_await FdFor(client_id, r.path, true));
      co_return co_await client_->Truncate(fd, r.length);
    }
    case TraceOp::kMkdir:
      co_return co_await client_->Mkdir(r.path);
    case TraceOp::kRmdir:
      co_return co_await client_->Rmdir(r.path);
    case TraceOp::kRename:
      co_return co_await client_->Rename(r.path, r.path2);
  }
  co_return Status(ErrorCode::kUnsupported, "unhandled op");
}

Task<> TraceReplayer::ClientThread(uint32_t client_id) {
  const std::vector<TraceRecord>& records = per_client_[client_id];
  const TimePoint start = sched_->Now();
  for (const TraceRecord& r : records) {
    if (options_.respect_timing && r.time_us > 0) {
      const TimePoint due = start + Duration::Micros(r.time_us);
      if (due > sched_->Now()) {
        co_await sched_->SleepUntil(due);
      }
    }
    const TimePoint op_start = sched_->Now();
    const Status status = co_await Dispatch(client_id, r);
    const Duration latency = sched_->Now() - op_start;

    if (!status.ok()) {
      errors_.Inc();
      continue;
    }
    ops_.Inc();
    overall_.Record(latency);
    switch (r.op) {
      case TraceOp::kRead:
        reads_.Record(latency);
        break;
      case TraceOp::kWrite:
        writes_.Record(latency);
        break;
      default:
        meta_.Record(latency);
        break;
    }
  }
  // Close whatever the trace left open for this client.
  std::vector<std::pair<uint32_t, std::string>> keys;
  for (const auto& [key, fd] : open_fds_) {
    if (key.first == client_id) {
      keys.push_back(key);
    }
  }
  for (const auto& key : keys) {
    (void)co_await client_->Close(open_fds_[key]);
    open_fds_.erase(key);
  }
}

std::string TraceReplayer::StatJson() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{\"ops\":%llu,\"errors\":%llu,",
                static_cast<unsigned long long>(ops_.value()),
                static_cast<unsigned long long>(errors_.value()));
  return buf + overall_.MsJsonObject("overall_ms") + "," +
         reads_.MsJsonObject("reads_ms") + "," + writes_.MsJsonObject("writes_ms") + "," +
         meta_.MsJsonObject("metadata_ms") + "}";
}

}  // namespace pfs
