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
// awaits, so a single-shard system behaves exactly as before. Each shard
// owns the fds of the files opened on it: an fd names its shard's table, so
// an fd call is routed by its fd as a path call is by its mount, and only
// that shard's loop reads or writes the table. No lock is shared.
#ifndef PFS_CLIENT_LOCAL_CLIENT_H_
#define PFS_CLIENT_LOCAL_CLIENT_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/client_interface.h"
#include "fs/file_system.h"
#include "fs/file_table.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "sched/affinity.h"
#include "sched/shard.h"

namespace pfs {

class TraceRecorder;

class LocalClient final : public ClientInterface {
 public:
  // Counts ops in `metrics` as client_ops_total / client_op_seconds,
  // labelled {op="..."}; the TraceBegin/TraceEnd bracket feeds them.
  LocalClient(Scheduler* sched, MetricRegistry* metrics);

  // Mounts `fs` under "/<name>". The file system must be formatted/mounted
  // at the layout level already. Not thread-safe: mount before running.
  void AddMount(const std::string& name, FileSystem* fs);

  // Enables request tracing (obs/): Open/Read/Write/Fsync/SyncAll become
  // trace roots — a fresh trace id rides the calling thread for the life of
  // the operation, so every stage below attributes its spans to it.
  void set_trace_recorder(TraceRecorder* recorder) { tracer_ = recorder; }

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

 private:
  friend class LocalClientTestPeer;

  struct Mount {
    FileSystem* fs;
    std::unique_ptr<FileTable> table;
  };

  struct Resolved {
    Mount* mount;
    uint64_t parent_ino;     // directory holding the leaf (0 for fs root)
    std::string leaf;        // final path component ("" for fs root)
  };

  // One open file: its mount, its inode and the File its open's
  // FileTable::Acquire pinned. A null mount marks a free slot.
  struct OpenFile {
    Mount* mount = nullptr;
    uint64_t ino = 0;
    File* file = nullptr;
  };

  // One shard's fds: slot s of shard k's table is fd 3 + s * shards + k.
  // Only shard k's loop reads or writes it, which the affinity checks
  // assert; its home is null while no mount lives on the shard. A closed
  // slot is the next one reused, so warm opens allocate nothing. Aligned so
  // that two shards' tables share no cache line.
  struct alignas(64) FdTable : ShardAffine {
    std::vector<OpenFile> slots;
    std::vector<uint32_t> free_slots;  // closed slots, the last closed on top
  };
  static constexpr Fd kFirstFd = 3;  // 0-2 are never issued
  // The table and slot an fd of at least kFirstFd names.
  struct FdRef {
    uint32_t shard;
    uint32_t slot;
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
  // The shard owning `fd`'s table (nullptr for an fd below 3 or one naming
  // a shard with no mount: the local body reports the bad fd). The homes
  // are fixed once running, so this reads them lock-free.
  Scheduler* SchedForFd(Fd fd) const;
  FdRef DecodeFd(Fd fd) const;
  // The fd of `shard`'s slot `slot`, or nullopt past the largest Fd.
  static std::optional<Fd> EncodeFd(size_t slot, size_t shard, size_t shards);
  // Run on the mount's shard: takes a slot in its table for `open`.
  Result<Fd> TakeFd(const OpenFile& open);
  // Run on `fd`'s shard: its open file, or nullptr when `fd` is not open.
  // The pointer is into the table, so copy what is needed before a
  // suspension point (an open there may grow the table).
  OpenFile* FindOpen(Fd fd);
  // Run on `fd`'s shard, for an open `fd`: frees its slot for reuse.
  void FreeFd(Fd fd);
  // Runs (this->*local)(args...) on `target`'s loop: inline when the caller
  // already runs there (or there is nowhere sensible to hop), else through a
  // CallOn round trip. The arguments are copied into the call, so they may
  // name the caller's temporaries; the bodies therefore take them by value.
  template <typename R, typename... Params, typename... Args>
  Task<R> Route(Scheduler* target, Task<R> (LocalClient::*local)(Params...),
                Args... args);

  // -- shard-local op bodies (run on the mount's shard) ---------------------
  Task<Result<Fd>> OpenLocal(std::string path, OpenOptions options);
  Task<Result<Fd>> OpenImpl(const std::string& path, OpenOptions options);
  // The fd bodies run on `fd`'s shard and look its slot up there.
  Task<Status> CloseLocal(Fd fd);
  Task<Result<uint64_t>> ReadLocal(Fd fd, uint64_t offset, uint64_t len,
                                   std::span<std::byte> out);
  Task<Result<uint64_t>> WriteLocal(Fd fd, uint64_t offset, uint64_t len,
                                    std::span<const std::byte> in);
  Task<Status> TruncateLocal(Fd fd, uint64_t new_size);
  Task<Status> FsyncLocal(Fd fd);
  Task<Result<FileAttrs>> FStatLocal(Fd fd);
  Task<Result<FileAttrs>> StatLocal(std::string path);
  Task<Status> UnlinkLocal(std::string path);
  Task<Status> MkdirLocal(std::string path);
  Task<Status> RmdirLocal(std::string path);
  Task<Status> RenameLocal(std::string from, std::string to);
  Task<Result<std::vector<DirEntry>>> ReadDirLocal(std::string path);
  Task<Status> SymlinkAtLocal(std::string path, std::string target);
  Task<Result<std::string>> ReadLinkLocal(std::string path);
  // Syncs the caches and layouts of the mounts living on `shard`, in mount
  // order, deduping shared caches.
  Task<Status> SyncShard(Scheduler* shard);
  Task<Status> SyncAllImpl();

  // Root-span bracket, shared by tracing and the metric registry.
  // TraceBegin saves the thread's context and installs a fresh trace id;
  // TraceEnd counts the op, records its latency sample and (when tracing)
  // the client.op span, and restores the context. Explicit (not RAII) so the
  // end stamp lands before co_return, not at frame destruction. Runs against
  // the *executing* shard's scheduler, so routed ops trace on the shard that
  // does the work. With tracing off, only 1-in-64 ops read the clock for the
  // latency histogram: op counters stay exact while the per-op cost stays at
  // a handful of relaxed stores.
  enum class ClientOp : uint8_t { kOpen = 0, kRead, kWrite, kFsync, kSyncAll };
  static constexpr size_t kClientOpCount = 5;
  static constexpr uint32_t kLatencySampleEvery = 64;  // power of two
  struct OpTrace {
    Thread* self = nullptr;      // null: tracing off for this op
    Scheduler* sched = nullptr;  // the executing shard's loop
    ClientOp op = ClientOp::kOpen;
    bool timed = false;          // this op's latency lands in the histogram
    TraceContext saved;
    TimePoint begin;
  };
  OpTrace TraceBegin(ClientOp op);
  void TraceEnd(const OpTrace& t, uint64_t arg);
  // True for every kLatencySampleEvery-th op begun on `current`'s shard.
  bool SampleLatency(const Scheduler* current);

  Scheduler* sched_;  // shard 0: the client's home loop
  TraceRecorder* tracer_ = nullptr;
  // Indexed by ClientOp.
  CounterMetric* ops_[kClientOpCount];
  HistogramMetric* latency_[kClientOpCount];
  // The latency-sampling ticks: one per shard, written only by that shard's
  // loop, plus a shared one for ops begun outside the scheduler group. Per
  // client, so a system's samples depend on its own op sequence alone.
  struct alignas(64) SampleTick {
    uint32_t n = 0;
  };
  std::vector<SampleTick> shard_ticks_;
  std::atomic<uint32_t> outside_tick_{0};
  std::map<std::string, Mount, std::less<>> mounts_;  // found by string_view
  std::vector<FdTable> fd_tables_;  // indexed by shard
};

}  // namespace pfs

#endif  // PFS_CLIENT_LOCAL_CLIENT_H_
