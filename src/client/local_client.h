// LocalClient: the concrete abstract-client-interface implementation that
// resolves hierarchical names over one or more mounted file systems and
// dispatches operations to instantiated files. Both PFS (via the NFS-style
// front-end) and Patsy (via the trace replayers) drive this class — the same
// code on-line and off-line, which is the point of the framework.
//
// Paths are "/<mount>/dir/.../name"; the first component selects the mounted
// file system (the paper's server exported 14 file systems).
//
// Sharding: every mounted file system is pinned to one scheduler shard. An
// operation invoked from another shard hops to the owner with CallOn and
// runs its *Local body there; same-shard calls collapse to plain inline
// awaits, so a single-shard system behaves exactly as before. The fd table
// is the one piece of genuinely shared state and sits under a mutex.
#ifndef PFS_CLIENT_LOCAL_CLIENT_H_
#define PFS_CLIENT_LOCAL_CLIENT_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "client/client_interface.h"
#include "fs/file_system.h"
#include "fs/file_table.h"
#include "obs/trace_context.h"
#include "sched/shard.h"

namespace pfs {

class TraceRecorder;
class MetricRegistry;
class CounterMetric;
class HistogramMetric;

class LocalClient final : public ClientInterface {
 public:
  explicit LocalClient(Scheduler* sched) : sched_(sched) {}

  // Mounts `fs` under "/<name>". The file system must be formatted/mounted
  // at the layout level already. Not thread-safe: mount before running.
  void AddMount(const std::string& name, FileSystem* fs);

  // Enables request tracing (obs/): Open/Read/Write/Fsync/SyncAll become
  // trace roots — a fresh trace id rides the calling thread for the life of
  // the operation, so every stage below attributes its spans to it.
  void set_trace_recorder(TraceRecorder* recorder) { tracer_ = recorder; }

  // Registers client_ops_total / client_op_seconds (labelled {op="..."}) with
  // the live metrics plane; the TraceBegin/TraceEnd bracket feeds them.
  void BindMetrics(MetricRegistry* registry);

  // ClientInterface
  Task<Result<Fd>> Open(const std::string& path, OpenOptions options) override;
  Task<Status> Close(Fd fd) override;
  Task<Result<uint64_t>> Read(Fd fd, uint64_t offset, uint64_t len,
                              std::span<std::byte> out) override;
  Task<Result<uint64_t>> Write(Fd fd, uint64_t offset, uint64_t len,
                               std::span<const std::byte> in) override;
  Task<Status> Truncate(Fd fd, uint64_t new_size) override;
  Task<Status> Fsync(Fd fd) override;
  Task<Result<FileAttrs>> FStat(Fd fd) override;
  Task<Result<FileAttrs>> Stat(const std::string& path) override;
  Task<Status> Unlink(const std::string& path) override;
  Task<Status> Mkdir(const std::string& path) override;
  Task<Status> Rmdir(const std::string& path) override;
  Task<Status> Rename(const std::string& from, const std::string& to) override;
  Task<Result<std::vector<DirEntry>>> ReadDir(const std::string& path) override;
  Task<Status> SymlinkAt(const std::string& path, const std::string& target) override;
  Task<Result<std::string>> ReadLink(const std::string& path) override;
  Task<Status> SyncAll() override;

  size_t open_file_count() const {
    std::lock_guard<std::mutex> lk(fd_mu_);
    return open_files_.size();
  }

 private:
  struct Mount {
    FileSystem* fs;
    std::unique_ptr<FileTable> table;
  };

  struct Resolved {
    Mount* mount;
    uint64_t parent_ino;     // directory holding the leaf (0 for fs root)
    std::string leaf;        // final path component ("" for fs root)
  };

  struct OpenFile {
    Mount* mount;
    uint64_t ino;
  };

  // Splits "/mnt/a/b" and walks directories to the parent of the leaf.
  Task<Result<Resolved>> ResolveParent(const std::string& path);
  // Full resolution to an existing object's (mount, ino, type).
  Task<Result<std::pair<Mount*, DirEntry>>> ResolveExisting(const std::string& path);

  static FileAttrs AttrsOf(const File& file);
  // Acquires `ino` as a directory: kNotDirectory, with nothing left acquired,
  // when it is any other type. Pair with mount->table->Release(ino).
  static Task<Result<Directory*>> AcquireDir(Mount* mount, uint64_t ino,
                                             const std::string& path);
  // Frees an inode whose directory entry is gone: now, or at its last close
  // while it is still open (Unix semantics).
  static Task<Status> FreeUnlinked(Mount* mount, uint64_t ino);

  // -- cross-shard routing --------------------------------------------------
  // The shard owning the file system the path's mount component names
  // (nullptr for unknown mounts: the local body reports the NotFound).
  // mounts_ is immutable once running, so this reads it lock-free.
  Scheduler* SchedForPath(const std::string& path);
  // Copies the fd's entry out under the fd-table mutex; `close` also drops
  // it from the table.
  bool LookupFd(Fd fd, OpenFile* out, bool close = false);
  // Runs (this->*local)(args...) on `target`'s loop: inline when the caller
  // already runs there (or there is nowhere sensible to hop), else through a
  // CallOn round trip. The arguments are copied into the call, so they may
  // name the caller's temporaries.
  template <typename R, typename... Params, typename... Args>
  Task<R> Route(Scheduler* target, Task<R> (LocalClient::*local)(Params...),
                Args... args);
  // The fd ops' path: look `fd` up (closing it when `close`), then Route
  // `local` to the file's shard with the entry as its first argument.
  template <typename R, typename... Params, typename... Args>
  Task<R> RouteFd(Fd fd, bool close, Task<R> (LocalClient::*local)(OpenFile, Params...),
                  Args... args);

  // -- shard-local op bodies (run on the mount's shard) ---------------------
  Task<Result<Fd>> OpenLocal(const std::string& path, OpenOptions options);
  Task<Result<Fd>> OpenImpl(const std::string& path, OpenOptions options);
  Task<Status> CloseLocal(OpenFile open);
  Task<Result<uint64_t>> ReadLocal(OpenFile open, uint64_t offset, uint64_t len,
                                   std::span<std::byte> out);
  Task<Result<uint64_t>> WriteLocal(OpenFile open, uint64_t offset, uint64_t len,
                                    std::span<const std::byte> in);
  Task<Status> TruncateLocal(OpenFile open, uint64_t new_size);
  Task<Status> FsyncLocal(OpenFile open);
  Task<Result<FileAttrs>> FStatLocal(OpenFile open);
  Task<Result<FileAttrs>> StatLocal(const std::string& path);
  Task<Status> UnlinkLocal(const std::string& path);
  Task<Status> MkdirLocal(const std::string& path);
  Task<Status> RmdirLocal(const std::string& path);
  Task<Status> RenameLocal(const std::string& from, const std::string& to);
  Task<Result<std::vector<DirEntry>>> ReadDirLocal(const std::string& path);
  Task<Status> SymlinkAtLocal(const std::string& path, const std::string& target);
  Task<Result<std::string>> ReadLinkLocal(const std::string& path);
  // Syncs the caches and layouts of the mounts living on `shard`, in mount
  // order, deduping shared caches.
  Task<Status> SyncShard(Scheduler* shard);
  Task<Status> SyncAllImpl();

  // Root-span bracket, shared by tracing and the live metrics plane.
  // TraceBegin saves the thread's context and installs a fresh trace id;
  // TraceEnd records the client.op span (and, when metrics are bound, the
  // op counter + latency sample) and restores it. Explicit (not RAII) so the
  // end stamp lands before co_return, not at frame destruction. Runs against
  // the *executing* shard's scheduler, so routed ops trace on the shard that
  // does the work. With metrics bound but tracing off, only 1-in-64 ops
  // read the clock for the latency histogram: op counters stay exact while
  // the per-op cost stays at a handful of relaxed stores.
  enum class ClientOp : uint8_t { kOpen = 0, kRead, kWrite, kFsync, kSyncAll };
  static constexpr size_t kClientOpCount = 5;
  static constexpr uint32_t kLatencySampleEvery = 64;  // power of two
  struct OpTrace {
    Thread* self = nullptr;     // null: tracing off for this op
    Scheduler* sched = nullptr; // null: neither tracing nor metrics active
    ClientOp op = ClientOp::kOpen;
    bool timed = false;         // this op's latency lands in the histogram
    TraceContext saved;
    TimePoint begin;
  };
  OpTrace TraceBegin(ClientOp op);
  void TraceEnd(const OpTrace& t, uint64_t arg);

  Scheduler* sched_;  // shard 0: the client's home loop
  TraceRecorder* tracer_ = nullptr;
  // Live metrics plane, indexed by ClientOp (null until BindMetrics).
  CounterMetric* m_ops_[kClientOpCount] = {};
  HistogramMetric* m_latency_[kClientOpCount] = {};
  std::map<std::string, Mount> mounts_;
  // The fd table is shared across shards (any shard may open/close/use fds),
  // so it lives under a mutex; entries are copied out, never held across
  // suspension points.
  mutable std::mutex fd_mu_;
  std::map<Fd, OpenFile> open_files_;
  Fd next_fd_ = 3;
};

}  // namespace pfs

#endif  // PFS_CLIENT_LOCAL_CLIENT_H_
