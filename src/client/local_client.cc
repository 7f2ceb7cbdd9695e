#include "client/local_client.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pfs {
namespace {

// Splits "/mnt/a/b" into {"mnt", "a", "b"}; empty components collapse.
std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : path) {
    if (c == '/') {
      if (!cur.empty()) {
        parts.push_back(std::move(cur));
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) {
    parts.push_back(std::move(cur));
  }
  return parts;
}

}  // namespace

void LocalClient::AddMount(const std::string& name, FileSystem* fs) {
  PFS_CHECK(fs != nullptr);
  Mount mount;
  mount.fs = fs;
  mount.table = std::make_unique<FileTable>(fs);
  PFS_CHECK_MSG(mounts_.emplace(name, std::move(mount)).second, "duplicate mount");
}

FileAttrs LocalClient::AttrsOf(const File& file) {
  const Inode& inode = file.inode();
  return FileAttrs{inode.ino, inode.type, inode.size, inode.nlink, inode.mtime_ns};
}

Scheduler* LocalClient::SchedForPath(const std::string& path) {
  // Only the mount component matters; skip the full split's leaf work.
  size_t start = 0;
  while (start < path.size() && path[start] == '/') {
    ++start;
  }
  size_t end = start;
  while (end < path.size() && path[end] != '/') {
    ++end;
  }
  if (end == start) {
    return nullptr;
  }
  auto it = mounts_.find(path.substr(start, end - start));
  if (it == mounts_.end()) {
    return nullptr;
  }
  return it->second.fs->scheduler();
}

bool LocalClient::LookupFd(Fd fd, OpenFile* out, bool close) {
  std::lock_guard<std::mutex> lk(fd_mu_);
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) {
    return false;
  }
  *out = it->second;
  if (close) {
    open_files_.erase(it);
  }
  return true;
}

// The one routing path. The thunk is a *named local*, never a temporary in
// the co_await expression: GCC 12 mishandles non-trivial temporaries passed
// as coroutine arguments inside an await full-expression (the capture copies
// end up double-destroyed, corrupting the frame).
template <typename R, typename... Params, typename... Args>
Task<R> LocalClient::Route(Scheduler* target, Task<R> (LocalClient::*local)(Params...),
                           Args... args) {
  LocalClient* self = this;
  auto body = [self, local, ...args = std::move(args)]() {
    return (self->*local)(args...);
  };
  Scheduler* home = Scheduler::Current();
  if (target == nullptr || home == nullptr || target == home) {
    co_return co_await body();
  }
  co_return co_await CallOn<R>(home, target, body);
}

template <typename R, typename... Params, typename... Args>
Task<R> LocalClient::RouteFd(Fd fd, bool close,
                             Task<R> (LocalClient::*local)(OpenFile, Params...),
                             Args... args) {
  OpenFile open;
  if (!LookupFd(fd, &open, close)) {
    co_return Status(ErrorCode::kInvalidArgument, "bad fd");
  }
  // Spans in `args` stay valid across a hop: this coroutine suspends on its
  // home shard until the remote body is done with the buffer.
  co_return co_await Route(open.mount->fs->scheduler(), local, open, args...);
}

Task<Result<LocalClient::Resolved>> LocalClient::ResolveParent(const std::string& path) {
  std::vector<std::string> parts = SplitPath(path);
  if (parts.empty()) {
    co_return Status(ErrorCode::kInvalidArgument, "empty path");
  }
  auto mount_it = mounts_.find(parts[0]);
  if (mount_it == mounts_.end()) {
    co_return Status(ErrorCode::kNotFound, "no mount " + parts[0]);
  }
  Mount* mount = &mount_it->second;
  if (parts.size() == 1) {
    co_return Resolved{mount, 0, ""};
  }
  uint64_t dir_ino = mount->fs->layout()->root_ino();
  for (size_t i = 1; i + 1 < parts.size(); ++i) {
    PFS_CO_ASSIGN_OR_RETURN(Directory * dir, co_await AcquireDir(mount, dir_ino, parts[i]));
    auto entry_or = co_await dir->Lookup(parts[i]);
    (void)co_await mount->table->Release(dir_ino);
    PFS_CO_RETURN_IF_ERROR(entry_or.status());
    dir_ino = entry_or->ino;
  }
  co_return Resolved{mount, dir_ino, parts.back()};
}

Task<Result<std::pair<LocalClient::Mount*, DirEntry>>> LocalClient::ResolveExisting(
    const std::string& path) {
  PFS_CO_ASSIGN_OR_RETURN(Resolved r, co_await ResolveParent(path));
  if (r.leaf.empty()) {
    const uint64_t root = r.mount->fs->layout()->root_ino();
    co_return std::make_pair(r.mount, DirEntry{"", root, FileType::kDirectory});
  }
  PFS_CO_ASSIGN_OR_RETURN(Directory * dir,
                          co_await AcquireDir(r.mount, r.parent_ino, path));
  auto entry_or = co_await dir->Lookup(r.leaf);
  (void)co_await r.mount->table->Release(r.parent_ino);
  PFS_CO_RETURN_IF_ERROR(entry_or.status());
  co_return std::make_pair(r.mount, *entry_or);
}

void LocalClient::BindMetrics(MetricRegistry* registry) {
  static constexpr const char* kOpNames[kClientOpCount] = {"open", "read", "write", "fsync",
                                                           "sync_all"};
  for (size_t i = 0; i < kClientOpCount; ++i) {
    const std::string labels = std::string("op=\"") + kOpNames[i] + "\"";
    m_ops_[i] = registry->Counter("client_ops_total", "Client operations completed", labels);
    m_latency_[i] = registry->Histogram("client_op_seconds",
                                        "Client operation latency (TraceBegin to TraceEnd)",
                                        labels, /*scale=*/1e-9);
  }
}

LocalClient::OpTrace LocalClient::TraceBegin(ClientOp op) {
  OpTrace t;
  t.op = op;
  if (tracer_ == nullptr && m_ops_[0] == nullptr) {
    return t;  // neither tracing nor metrics: the bracket stays inert
  }
  Scheduler* sched = Scheduler::Current();
  if (sched == nullptr) {
    sched = sched_;
  }
  t.sched = sched;
  if (tracer_ == nullptr) {
    // Metrics only: the op counter stays exact, but latency timestamps are
    // sampled 1-in-64 — two real-clock reads (~30 ns each) per op would
    // otherwise dominate a ~350 ns cache-hit read.
    static thread_local uint32_t lat_tick = 0;
    t.timed = (lat_tick++ & (kLatencySampleEvery - 1)) == 0;
    if (t.timed) {
      t.begin = sched->Now();
    }
    return t;
  }
  t.timed = true;
  t.begin = sched->Now();
  Thread* self = sched->current_thread();
  if (self == nullptr) {
    return t;
  }
  t.self = self;
  t.saved = self->trace;
  self->trace = tracer_->StartTrace();
  return t;
}

void LocalClient::TraceEnd(const OpTrace& t, uint64_t arg) {
  if (t.sched == nullptr) {
    return;
  }
  const size_t op = static_cast<size_t>(t.op);
  if (m_ops_[op] != nullptr) {
    m_ops_[op]->Inc();
    if (t.timed) {
      m_latency_[op]->RecordDuration(t.sched->Now() - t.begin);
    }
  }
  if (t.self != nullptr) {
    RecordSpan(t.self->trace, TraceStage::kClient, t.self->id(), t.begin, t.sched->Now(), arg);
    t.self->trace = t.saved;
  }
}

// ---------------------------------------------------------------------------
// Public ops: hop to the owning shard, then run the *Local body.
// ---------------------------------------------------------------------------

Task<Result<Fd>> LocalClient::Open(const std::string& path, OpenOptions options) {
  return Route(SchedForPath(path), &LocalClient::OpenLocal, path, options);
}

Task<Status> LocalClient::Close(Fd fd) {
  return RouteFd(fd, /*close=*/true, &LocalClient::CloseLocal);
}

Task<Result<uint64_t>> LocalClient::Read(Fd fd, uint64_t offset, uint64_t len,
                                         std::span<std::byte> out) {
  return RouteFd(fd, /*close=*/false, &LocalClient::ReadLocal, offset, len, out);
}

Task<Result<uint64_t>> LocalClient::Write(Fd fd, uint64_t offset, uint64_t len,
                                          std::span<const std::byte> in) {
  return RouteFd(fd, /*close=*/false, &LocalClient::WriteLocal, offset, len, in);
}

Task<Status> LocalClient::Truncate(Fd fd, uint64_t new_size) {
  return RouteFd(fd, /*close=*/false, &LocalClient::TruncateLocal, new_size);
}

Task<Status> LocalClient::Fsync(Fd fd) {
  return RouteFd(fd, /*close=*/false, &LocalClient::FsyncLocal);
}

Task<Result<FileAttrs>> LocalClient::FStat(Fd fd) {
  return RouteFd(fd, /*close=*/false, &LocalClient::FStatLocal);
}

Task<Result<FileAttrs>> LocalClient::Stat(const std::string& path) {
  return Route(SchedForPath(path), &LocalClient::StatLocal, path);
}

Task<Status> LocalClient::Unlink(const std::string& path) {
  return Route(SchedForPath(path), &LocalClient::UnlinkLocal, path);
}

Task<Status> LocalClient::Mkdir(const std::string& path) {
  return Route(SchedForPath(path), &LocalClient::MkdirLocal, path);
}

Task<Status> LocalClient::Rmdir(const std::string& path) {
  return Route(SchedForPath(path), &LocalClient::RmdirLocal, path);
}

Task<Status> LocalClient::Rename(const std::string& from, const std::string& to) {
  Scheduler* from_shard = SchedForPath(from);
  Scheduler* to_shard = SchedForPath(to);
  if (from_shard != nullptr && to_shard != nullptr && from_shard != to_shard) {
    // Cross-mount renames are already rejected; cross-shard ones must be, or
    // the two directory updates would race on different loops.
    co_return Status(ErrorCode::kInvalidArgument, "bad rename");
  }
  co_return co_await Route(from_shard != nullptr ? from_shard : to_shard,
                           &LocalClient::RenameLocal, from, to);
}

Task<Result<std::vector<DirEntry>>> LocalClient::ReadDir(const std::string& path) {
  return Route(SchedForPath(path), &LocalClient::ReadDirLocal, path);
}

Task<Status> LocalClient::SymlinkAt(const std::string& path, const std::string& target) {
  return Route(SchedForPath(path), &LocalClient::SymlinkAtLocal, path, target);
}

Task<Result<std::string>> LocalClient::ReadLink(const std::string& path) {
  return Route(SchedForPath(path), &LocalClient::ReadLinkLocal, path);
}

// ---------------------------------------------------------------------------
// Shard-local bodies.
// ---------------------------------------------------------------------------

Task<Result<Fd>> LocalClient::OpenLocal(const std::string& path, OpenOptions options) {
  const OpTrace t = TraceBegin(ClientOp::kOpen);
  Result<Fd> result = co_await OpenImpl(path, options);
  TraceEnd(t, 0);
  co_return result;
}

Task<Result<Fd>> LocalClient::OpenImpl(const std::string& path, OpenOptions options) {
  PFS_CO_ASSIGN_OR_RETURN(Resolved r, co_await ResolveParent(path));
  uint64_t ino = 0;
  if (r.leaf.empty()) {
    ino = r.mount->fs->layout()->root_ino();
  } else {
    PFS_CO_ASSIGN_OR_RETURN(Directory * dir,
                            co_await AcquireDir(r.mount, r.parent_ino, path));
    auto entry_or = co_await dir->Lookup(r.leaf);
    if (entry_or.ok()) {
      ino = entry_or->ino;
    } else if (entry_or.code() == ErrorCode::kNotFound && options.create) {
      auto ino_or = co_await r.mount->fs->layout()->AllocInode(options.create_type);
      if (!ino_or.ok()) {
        (void)co_await r.mount->table->Release(r.parent_ino);
        co_return ino_or.status();
      }
      ino = *ino_or;
      const Status add = co_await dir->Add(r.leaf, ino, options.create_type);
      if (!add.ok()) {
        (void)co_await r.mount->table->Release(r.parent_ino);
        co_return add;
      }
    } else {
      (void)co_await r.mount->table->Release(r.parent_ino);
      co_return entry_or.status();
    }
    (void)co_await r.mount->table->Release(r.parent_ino);
  }

  if (options.cache_hint != FileCacheHint::kNormal) {
    r.mount->fs->cache()->SetFileHint(r.mount->fs->fs_id(), ino, options.cache_hint);
  }
  PFS_CO_ASSIGN_OR_RETURN(File * file, co_await r.mount->table->Acquire(ino));
  (void)file;
  Fd fd;
  {
    std::lock_guard<std::mutex> lk(fd_mu_);
    fd = next_fd_++;
    open_files_[fd] = OpenFile{r.mount, ino};
  }
  co_return fd;
}

Task<Status> LocalClient::CloseLocal(OpenFile open) {
  co_return co_await open.mount->table->Release(open.ino);
}

Task<Result<uint64_t>> LocalClient::ReadLocal(OpenFile open, uint64_t offset, uint64_t len,
                                              std::span<std::byte> out) {
  File* file = open.mount->table->Get(open.ino);
  PFS_CHECK(file != nullptr);
  const OpTrace t = TraceBegin(ClientOp::kRead);
  co_await open.mount->fs->mover()->ChargeOpCost();
  Result<uint64_t> result = co_await file->Read(offset, len, out);
  TraceEnd(t, len);
  co_return result;
}

Task<Result<uint64_t>> LocalClient::WriteLocal(OpenFile open, uint64_t offset, uint64_t len,
                                               std::span<const std::byte> in) {
  File* file = open.mount->table->Get(open.ino);
  PFS_CHECK(file != nullptr);
  const OpTrace t = TraceBegin(ClientOp::kWrite);
  co_await open.mount->fs->mover()->ChargeOpCost();
  Result<uint64_t> result = co_await file->Write(offset, len, in);
  TraceEnd(t, len);
  co_return result;
}

Task<Status> LocalClient::TruncateLocal(OpenFile open, uint64_t new_size) {
  File* file = open.mount->table->Get(open.ino);
  PFS_CHECK(file != nullptr);
  co_return co_await file->Truncate(new_size);
}

Task<Status> LocalClient::FsyncLocal(OpenFile open) {
  File* file = open.mount->table->Get(open.ino);
  PFS_CHECK(file != nullptr);
  const OpTrace t = TraceBegin(ClientOp::kFsync);
  Status status = co_await file->Flush();
  TraceEnd(t, 0);
  co_return status;
}

Task<Result<FileAttrs>> LocalClient::FStatLocal(OpenFile open) {
  File* file = open.mount->table->Get(open.ino);
  PFS_CHECK(file != nullptr);
  co_return AttrsOf(*file);
}

Task<Result<FileAttrs>> LocalClient::StatLocal(const std::string& path) {
  PFS_CO_ASSIGN_OR_RETURN(auto resolved, co_await ResolveExisting(path));
  auto [mount, entry] = resolved;
  PFS_CO_ASSIGN_OR_RETURN(File * file, co_await mount->table->Acquire(entry.ino));
  const FileAttrs attrs = AttrsOf(*file);
  PFS_CO_RETURN_IF_ERROR(co_await mount->table->Release(entry.ino));
  co_return attrs;
}

Task<Result<Directory*>> LocalClient::AcquireDir(Mount* mount, uint64_t ino,
                                                 const std::string& path) {
  PFS_CO_ASSIGN_OR_RETURN(File * file, co_await mount->table->Acquire(ino));
  if (file->type() != FileType::kDirectory) {
    (void)co_await mount->table->Release(ino);
    co_return Status(ErrorCode::kNotDirectory, path);
  }
  co_return static_cast<Directory*>(file);
}

Task<Status> LocalClient::FreeUnlinked(Mount* mount, uint64_t ino) {
  if (mount->table->open_count(ino) > 0) {
    mount->table->MarkDeletePending(ino);
    co_return OkStatus();
  }
  // Dirty cached data dies in memory — the write-saving effect.
  mount->fs->cache()->InvalidateFile(mount->fs->fs_id(), ino);
  co_return co_await mount->fs->layout()->FreeInode(ino);
}

Task<Status> LocalClient::UnlinkLocal(const std::string& path) {
  PFS_CO_ASSIGN_OR_RETURN(Resolved r, co_await ResolveParent(path));
  if (r.leaf.empty()) {
    co_return Status(ErrorCode::kIsDirectory, "cannot unlink a mount root");
  }
  PFS_CO_ASSIGN_OR_RETURN(Directory * dir,
                          co_await AcquireDir(r.mount, r.parent_ino, path));
  auto entry_or = co_await dir->Lookup(r.leaf);
  Status status = entry_or.status();
  if (status.ok() && entry_or->type == FileType::kDirectory) {
    status = Status(ErrorCode::kIsDirectory, path);
  }
  if (status.ok()) {
    status = co_await dir->Remove(r.leaf);
  }
  (void)co_await r.mount->table->Release(r.parent_ino);
  PFS_CO_RETURN_IF_ERROR(status);
  co_return co_await FreeUnlinked(r.mount, entry_or->ino);
}

Task<Status> LocalClient::MkdirLocal(const std::string& path) {
  PFS_CO_ASSIGN_OR_RETURN(Resolved r, co_await ResolveParent(path));
  if (r.leaf.empty()) {
    co_return Status(ErrorCode::kExists, path);
  }
  PFS_CO_ASSIGN_OR_RETURN(Directory * dir,
                          co_await AcquireDir(r.mount, r.parent_ino, path));
  auto ino_or = co_await r.mount->fs->layout()->AllocInode(FileType::kDirectory);
  if (!ino_or.ok()) {
    (void)co_await r.mount->table->Release(r.parent_ino);
    co_return ino_or.status();
  }
  const Status add = co_await dir->Add(r.leaf, *ino_or, FileType::kDirectory);
  (void)co_await r.mount->table->Release(r.parent_ino);
  if (!add.ok()) {
    (void)co_await r.mount->fs->layout()->FreeInode(*ino_or);
  }
  co_return add;
}

Task<Status> LocalClient::RmdirLocal(const std::string& path) {
  PFS_CO_ASSIGN_OR_RETURN(Resolved r, co_await ResolveParent(path));
  if (r.leaf.empty()) {
    co_return Status(ErrorCode::kInvalidArgument, "cannot remove a mount root");
  }
  PFS_CO_ASSIGN_OR_RETURN(Directory * dir,
                          co_await AcquireDir(r.mount, r.parent_ino, path));
  auto entry_or = co_await dir->Lookup(r.leaf);
  Status status = entry_or.status();
  if (status.ok() && entry_or->type != FileType::kDirectory) {
    status = Status(ErrorCode::kNotDirectory, path);
  }
  if (status.ok()) {
    // The victim must be empty.
    auto victim_or = co_await r.mount->table->Acquire(entry_or->ino);
    status = victim_or.status();
    if (status.ok()) {
      const bool empty = static_cast<Directory*>(*victim_or)->IsEmpty();
      (void)co_await r.mount->table->Release(entry_or->ino);
      if (!empty) {
        status = Status(ErrorCode::kNotEmpty, path);
      }
    }
  }
  if (status.ok()) {
    status = co_await dir->Remove(r.leaf);
  }
  (void)co_await r.mount->table->Release(r.parent_ino);
  PFS_CO_RETURN_IF_ERROR(status);
  r.mount->fs->cache()->InvalidateFile(r.mount->fs->fs_id(), entry_or->ino);
  co_return co_await r.mount->fs->layout()->FreeInode(entry_or->ino);
}

Task<Status> LocalClient::RenameLocal(const std::string& from, const std::string& to) {
  PFS_CO_ASSIGN_OR_RETURN(Resolved rf, co_await ResolveParent(from));
  PFS_CO_ASSIGN_OR_RETURN(Resolved rt, co_await ResolveParent(to));
  if (rf.leaf.empty() || rt.leaf.empty() || rf.mount != rt.mount) {
    co_return Status(ErrorCode::kInvalidArgument, "bad rename");
  }
  Mount* mount = rf.mount;
  PFS_CO_ASSIGN_OR_RETURN(Directory * from_dir,
                          co_await AcquireDir(mount, rf.parent_ino, from));
  auto to_dir_or = co_await AcquireDir(mount, rt.parent_ino, to);
  if (!to_dir_or.ok()) {
    (void)co_await mount->table->Release(rf.parent_ino);
    co_return to_dir_or.status();
  }
  Directory* to_dir = *to_dir_or;
  // Every check runs before the first directory update, so a failed rename
  // changes nothing.
  auto source = co_await from_dir->Lookup(rf.leaf);
  Status status = source.status();
  Result<DirEntry> target = Status(ErrorCode::kNotFound, to);
  if (status.ok()) {
    target = co_await to_dir->Lookup(rt.leaf);
    if (!target.ok() && target.code() != ErrorCode::kNotFound) {
      status = target.status();
    } else if (target.ok() && target->ino != source->ino &&
               target->type == FileType::kDirectory) {
      status = Status(ErrorCode::kExists, to);
    }
  }
  // An entry renamed onto itself (or onto another link to its inode) is a
  // successful no-op. Otherwise an existing regular-file target is replaced,
  // per Unix rename semantics.
  const bool relink = status.ok() && !(target.ok() && target->ino == source->ino);
  const bool replace = relink && target.ok();
  if (replace) {
    status = co_await to_dir->Remove(rt.leaf);
  }
  if (relink && status.ok()) {
    status = co_await to_dir->Add(rt.leaf, source->ino, source->type);
  }
  if (relink && status.ok()) {
    status = co_await from_dir->Remove(rf.leaf);
  }
  (void)co_await mount->table->Release(rt.parent_ino);
  (void)co_await mount->table->Release(rf.parent_ino);
  PFS_CO_RETURN_IF_ERROR(status);
  if (replace) {
    co_return co_await FreeUnlinked(mount, target->ino);
  }
  co_return OkStatus();
}

Task<Result<std::vector<DirEntry>>> LocalClient::ReadDirLocal(const std::string& path) {
  PFS_CO_ASSIGN_OR_RETURN(auto resolved, co_await ResolveExisting(path));
  auto [mount, entry] = resolved;
  if (entry.type != FileType::kDirectory) {
    co_return Status(ErrorCode::kNotDirectory, path);
  }
  PFS_CO_ASSIGN_OR_RETURN(File * file, co_await mount->table->Acquire(entry.ino));
  auto list_or = co_await static_cast<Directory*>(file)->List();
  PFS_CO_RETURN_IF_ERROR(co_await mount->table->Release(entry.ino));
  co_return list_or;
}

Task<Status> LocalClient::SymlinkAtLocal(const std::string& path, const std::string& target) {
  OpenOptions options;
  options.create = true;
  options.create_type = FileType::kSymlink;
  // Same shard as `path`, so the nested Open/Close routers collapse inline.
  PFS_CO_ASSIGN_OR_RETURN(const Fd fd, co_await Open(path, options));
  OpenFile open;
  PFS_CHECK(LookupFd(fd, &open));
  auto* link = static_cast<Symlink*>(open.mount->table->Get(open.ino));
  const Status status = co_await link->SetTarget(target);
  PFS_CO_RETURN_IF_ERROR(co_await Close(fd));
  co_return status;
}

Task<Result<std::string>> LocalClient::ReadLinkLocal(const std::string& path) {
  PFS_CO_ASSIGN_OR_RETURN(auto resolved, co_await ResolveExisting(path));
  auto [mount, entry] = resolved;
  if (entry.type != FileType::kSymlink) {
    co_return Status(ErrorCode::kInvalidArgument, "not a symlink");
  }
  PFS_CO_ASSIGN_OR_RETURN(File * file, co_await mount->table->Acquire(entry.ino));
  auto target_or = co_await static_cast<Symlink*>(file)->ReadTarget();
  PFS_CO_RETURN_IF_ERROR(co_await mount->table->Release(entry.ino));
  co_return target_or;
}

Task<Status> LocalClient::SyncAll() {
  // A trace root like Open/Read/Write: the flush I/O below runs inline on
  // this coroutine, so the write-back path (volume fan-out, driver batches)
  // shows up in traces even when the cache absorbed every foreground write.
  const OpTrace t = TraceBegin(ClientOp::kSyncAll);
  Status status = co_await SyncAllImpl();
  TraceEnd(t, 0);
  co_return status;
}

Task<Status> LocalClient::SyncAllImpl() {
  // Distinct shards in mount order; each shard's mounts sync on that shard.
  std::vector<Scheduler*> shards;
  for (auto& [name, mount] : mounts_) {
    Scheduler* s = mount.fs->scheduler();
    if (std::find(shards.begin(), shards.end(), s) == shards.end()) {
      shards.push_back(s);
    }
  }
  for (Scheduler* shard : shards) {
    PFS_CO_RETURN_IF_ERROR(co_await Route(shard, &LocalClient::SyncShard, shard));
  }
  co_return OkStatus();
}

Task<Status> LocalClient::SyncShard(Scheduler* shard) {
  BufferCache* cache = nullptr;
  for (auto& [name, mount] : mounts_) {
    if (mount.fs->scheduler() != shard) {
      continue;
    }
    if (cache != mount.fs->cache()) {
      cache = mount.fs->cache();
      PFS_CO_RETURN_IF_ERROR(co_await cache->SyncAll());
    }
  }
  for (auto& [name, mount] : mounts_) {
    if (mount.fs->scheduler() != shard) {
      continue;
    }
    PFS_CO_RETURN_IF_ERROR(co_await mount.fs->layout()->Sync());
  }
  co_return OkStatus();
}

}  // namespace pfs
