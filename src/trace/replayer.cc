#include "trace/replayer.h"

#include <algorithm>
#include <cstdint>
#include <iterator>

namespace pfs {

TraceReplayer::TraceReplayer(Scheduler* sched, ClientInterface* client)
    : TraceReplayer(sched, client, Options()) {}

TraceReplayer::TraceReplayer(Scheduler* sched, ClientInterface* client, Options options)
    : sched_(sched), client_(client), options_(options) {}

void TraceReplayer::AddRecords(std::vector<TraceRecord> records) {
  SynthesizeMissingTimes(&records);
  const size_t first = records_.size();
  if (records_.empty()) {
    records_ = std::move(records);
  } else {
    records_.insert(records_.end(), std::make_move_iterator(records.begin()),
                    std::make_move_iterator(records.end()));
  }
  PFS_CHECK(records_.size() <= UINT32_MAX);
  for (size_t i = first; i < records_.size(); ++i) {
    per_client_[records_[i].client].push_back(static_cast<uint32_t>(i));
  }
  for (auto& [id, order] : per_client_) {
    std::stable_sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
      return records_[a].time_us < records_[b].time_us;
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
  const FdKey key(client_id, path);
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
  open_fds_.insert_or_assign(key, *fd_or);
  co_return *fd_or;
}

Task<Status> TraceReplayer::Dispatch(uint32_t client_id, const TraceRecord& r) {
  switch (r.op) {
    case TraceOp::kOpen: {
      auto fd_or = co_await FdFor(client_id, r.path, r.create);
      co_return fd_or.status();
    }
    case TraceOp::kClose: {
      auto it = open_fds_.find(FdKey(client_id, r.path));
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
      auto it = open_fds_.find(FdKey(client_id, r.path));
      if (it != open_fds_.end()) {
        const Fd fd = it->second;
        open_fds_.erase(it);
        (void)co_await client_->Close(fd);
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
  const std::vector<uint32_t>& order = per_client_[client_id];
  const TimePoint start = sched_->Now();
  for (const uint32_t index : order) {
    const TraceRecord& r = records_[index];
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
  // Close whatever the trace left open for this client, in path order.
  for (auto it = open_fds_.lower_bound(FdKey(client_id, {}));
       it != open_fds_.end() && it->first.first == client_id;
       it = open_fds_.lower_bound(FdKey(client_id, {}))) {
    const Fd fd = it->second;
    open_fds_.erase(it);
    (void)co_await client_->Close(fd);
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
