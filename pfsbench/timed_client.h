// TimedClient: a decorator around ClientInterface that stamps every client
// call with the calling shard's Now() and files its latency under one of four
// classes. It is the benchmark's only end-to-end instrument, and it sits
// outside the system: nothing under src/ knows it exists.
//
// On the real clock the stamps are wall time; on Patsy's virtual clock they
// are simulated time — the same measurement code on both instantiations,
// which is the paper's point.
#ifndef PFSBENCH_TIMED_CLIENT_H_
#define PFSBENCH_TIMED_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "client/client_interface.h"
#include "histogram.h"
#include "sched/scheduler.h"

namespace pfsbench {

enum class OpClass : uint8_t { kRead, kWrite, kFsync, kMeta };
inline constexpr size_t kOpClasses = 4;

inline const char* OpClassName(OpClass c) {
  switch (c) {
    case OpClass::kRead:
      return "read";
    case OpClass::kWrite:
      return "write";
    case OpClass::kFsync:
      return "fsync";
    case OpClass::kMeta:
      return "meta";
  }
  return "?";
}

// One timed interval for the Chrome trace export. Client calls use the
// calling scheduler thread as `client` and its call number as `seq`, so
// "client:seq" identifies the request; probe spans use client 0.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t client;
  uint64_t seq;
};

// What a measured phase (or one slice of it) records. Every TimedClient of
// a run writes to the same log from one shard's OS thread, so it needs no
// locking.
struct CallLog {
  LogLinearHistogram latency[kOpClasses];
  uint64_t calls = 0;
  uint64_t errors = 0;
  uint64_t write_bytes = 0;
  std::string first_error;  // "<call>: <status>" of the first failed call

  uint64_t count(OpClass op) const { return latency[static_cast<size_t>(op)].count(); }

  void Merge(const CallLog& other) {
    for (size_t c = 0; c < kOpClasses; ++c) {
      latency[c].Merge(other.latency[c]);
    }
    calls += other.calls;
    errors += other.errors;
    write_bytes += other.write_bytes;
    if (first_error.empty()) {
      first_error = other.first_error;
    }
  }
};

// Spans for the Chrome trace export: recorded only while `tracing` is set,
// and capped (a traced run sets `limit` to kSpanLimit) so memory stays
// bounded at millions of calls per second.
inline constexpr size_t kSpanLimit = 200000;

struct SpanLog {
  bool tracing = false;
  size_t limit = 0;
  std::vector<Span> spans;
  uint64_t dropped = 0;

  void Add(const Span& span) {
    if (spans.size() < limit) {
      spans.push_back(span);
    } else {
      ++dropped;
    }
  }
};

class TimedClient final : public pfs::ClientInterface {
 public:
  TimedClient(pfs::ClientInterface* inner, CallLog* log, SpanLog* spans = nullptr)
      : inner_(inner), log_(log), spans_(spans) {}

  // Sends later calls' samples to `log` (the next slice of a phase).
  void set_log(CallLog* log) { log_ = log; }

  pfs::Task<pfs::Result<pfs::Fd>> Open(const std::string& path,
                                       pfs::OpenOptions options) override {
    const Stamp s = Begin();
    pfs::Result<pfs::Fd> r = co_await inner_->Open(path, options);
    End(s, OpClass::kMeta, "open", StatusOf(r));
    co_return r;
  }
  pfs::Task<pfs::Status> Close(pfs::Fd fd) override {
    const Stamp s = Begin();
    pfs::Status r = co_await inner_->Close(fd);
    End(s, OpClass::kMeta, "close", StatusOf(r));
    co_return r;
  }
  pfs::Task<pfs::Result<uint64_t>> Read(pfs::Fd fd, uint64_t offset, uint64_t len,
                                        std::span<std::byte> out) override {
    const Stamp s = Begin();
    pfs::Result<uint64_t> r = co_await inner_->Read(fd, offset, len, out);
    End(s, OpClass::kRead, "read", StatusOf(r));
    co_return r;
  }
  pfs::Task<pfs::Result<uint64_t>> Write(pfs::Fd fd, uint64_t offset, uint64_t len,
                                         std::span<const std::byte> in) override {
    const Stamp s = Begin();
    pfs::Result<uint64_t> r = co_await inner_->Write(fd, offset, len, in);
    if (r.ok()) {
      log_->write_bytes += len;
    }
    End(s, OpClass::kWrite, "write", StatusOf(r));
    co_return r;
  }
  pfs::Task<pfs::Status> Truncate(pfs::Fd fd, uint64_t new_size) override {
    const Stamp s = Begin();
    pfs::Status r = co_await inner_->Truncate(fd, new_size);
    End(s, OpClass::kMeta, "truncate", StatusOf(r));
    co_return r;
  }
  pfs::Task<pfs::Status> Fsync(pfs::Fd fd) override {
    const Stamp s = Begin();
    pfs::Status r = co_await inner_->Fsync(fd);
    End(s, OpClass::kFsync, "fsync", StatusOf(r));
    co_return r;
  }
  pfs::Task<pfs::Result<pfs::FileAttrs>> FStat(pfs::Fd fd) override {
    const Stamp s = Begin();
    pfs::Result<pfs::FileAttrs> r = co_await inner_->FStat(fd);
    End(s, OpClass::kMeta, "fstat", StatusOf(r));
    co_return r;
  }
  pfs::Task<pfs::Result<pfs::FileAttrs>> Stat(const std::string& path) override {
    const Stamp s = Begin();
    pfs::Result<pfs::FileAttrs> r = co_await inner_->Stat(path);
    End(s, OpClass::kMeta, "stat", StatusOf(r));
    co_return r;
  }
  pfs::Task<pfs::Status> Unlink(const std::string& path) override {
    const Stamp s = Begin();
    pfs::Status r = co_await inner_->Unlink(path);
    End(s, OpClass::kMeta, "unlink", StatusOf(r));
    co_return r;
  }
  pfs::Task<pfs::Status> Mkdir(const std::string& path) override {
    const Stamp s = Begin();
    pfs::Status r = co_await inner_->Mkdir(path);
    End(s, OpClass::kMeta, "mkdir", StatusOf(r));
    co_return r;
  }
  pfs::Task<pfs::Status> Rmdir(const std::string& path) override {
    const Stamp s = Begin();
    pfs::Status r = co_await inner_->Rmdir(path);
    End(s, OpClass::kMeta, "rmdir", StatusOf(r));
    co_return r;
  }
  pfs::Task<pfs::Status> Rename(const std::string& from, const std::string& to) override {
    const Stamp s = Begin();
    pfs::Status r = co_await inner_->Rename(from, to);
    End(s, OpClass::kMeta, "rename", StatusOf(r));
    co_return r;
  }
  pfs::Task<pfs::Result<std::vector<pfs::DirEntry>>> ReadDir(const std::string& path) override {
    const Stamp s = Begin();
    pfs::Result<std::vector<pfs::DirEntry>> r = co_await inner_->ReadDir(path);
    End(s, OpClass::kMeta, "readdir", StatusOf(r));
    co_return r;
  }
  pfs::Task<pfs::Status> SymlinkAt(const std::string& path, const std::string& target) override {
    const Stamp s = Begin();
    pfs::Status r = co_await inner_->SymlinkAt(path, target);
    End(s, OpClass::kMeta, "symlink", StatusOf(r));
    co_return r;
  }
  pfs::Task<pfs::Result<std::string>> ReadLink(const std::string& path) override {
    const Stamp s = Begin();
    pfs::Result<std::string> r = co_await inner_->ReadLink(path);
    End(s, OpClass::kMeta, "readlink", StatusOf(r));
    co_return r;
  }
  pfs::Task<pfs::Status> SyncAll() override {
    const Stamp s = Begin();
    pfs::Status r = co_await inner_->SyncAll();
    End(s, OpClass::kMeta, "sync_all", StatusOf(r));
    co_return r;
  }

 private:
  struct Stamp {
    pfs::Scheduler* sched;
    pfs::TimePoint begin;
  };

  static Stamp Begin() {
    pfs::Scheduler* sched = pfs::Scheduler::Current();
    return Stamp{sched, sched->Now()};
  }

  static pfs::Status StatusOf(const pfs::Status& s) { return s; }
  template <typename T>
  static pfs::Status StatusOf(const pfs::Result<T>& r) {
    return r.status();
  }

  // A failed call counts as an error, not as a latency sample.
  void End(const Stamp& s, OpClass op, const char* name, const pfs::Status& status) {
    const pfs::TimePoint end = s.sched->Now();
    ++log_->calls;
    ++seq_;
    if (!status.ok()) {
      ++log_->errors;
      if (log_->first_error.empty()) {
        log_->first_error = std::string(name) + ": " + status.ToString();
      }
      return;
    }
    log_->latency[static_cast<size_t>(op)].Record((end - s.begin).nanos());
    if (spans_ != nullptr && spans_->tracing) {
      const pfs::Thread* self = s.sched->current_thread();
      spans_->Add(Span{name, s.begin.nanos(), end.nanos(), self != nullptr ? self->id() : 0, seq_});
    }
  }

  pfs::ClientInterface* inner_;
  CallLog* log_;
  SpanLog* spans_;
  uint64_t seq_ = 0;
};

}  // namespace pfsbench

#endif  // PFSBENCH_TIMED_CLIENT_H_
