#include "cache/flush_policy.h"

#include "cache/buffer_cache.h"
#include "system/component_registry.h"

namespace pfs {

Task<Status> FlushPolicy::MakeSpace() {
  // Default space-maker: flush the file owning the oldest dirty block, the
  // base component's behaviour in the paper.
  co_return co_await cache_->FlushOldest(/*whole_file=*/true);
}

void WriteDelayPolicy::Attach(BufferCache* cache) {
  FlushPolicy::Attach(cache);
  cache->scheduler()->SpawnDaemon("flush.write-delay", Scanner());
}

Task<> WriteDelayPolicy::Scanner() {
  Scheduler* sched = cache_->scheduler();
  for (;;) {
    co_await sched->Sleep(kScanInterval);
    // Flush every file whose oldest dirty block exceeded the age limit
    // (paper §2: "when it detects that there exists a dirty block older than
    // 30 seconds, it flushes the file associated to the oldest block").
    for (;;) {
      CacheBlock* oldest = cache_->OldestFlushableDirty();
      if (oldest == nullptr || sched->Now() - oldest->dirtied_at < kMaxAge) {
        break;
      }
      (void)co_await cache_->FlushFile(oldest->id.fs_id, oldest->id.ino);
    }
  }
}

Task<Status> UpsPolicy::MakeSpace() {
  co_return co_await cache_->FlushOldest(/*whole_file=*/false);
}

Task<Status> NvramPolicy::AdmitDirty(uint64_t bytes) {
  // Dirty data may only occupy the NVRAM buffer. Drain the oldest dirty data
  // until the new bytes fit; if another thread's flush is already in flight,
  // wait for a transition instead of issuing more I/O.
  while (cache_->dirty_bytes() + bytes > options_.nvram_bytes) {
    const Status status = co_await cache_->FlushOldest(options_.whole_file);
    if (status.code() == ErrorCode::kNotFound) {
      co_await cache_->cleaned_event().Wait();
      continue;
    }
    PFS_CO_RETURN_IF_ERROR(status);
  }
  co_return OkStatus();
}

Task<Status> NvramPolicy::MakeSpace() {
  co_return co_await cache_->FlushOldest(options_.whole_file);
}

void RegisterBuiltinFlushPolicies() {
  FlushPolicyRegistry::Register(
      "write-delay", [](const FlushPolicyOptions&) { return std::make_unique<WriteDelayPolicy>(); });
  FlushPolicyRegistry::Register(
      "ups", [](const FlushPolicyOptions&) { return std::make_unique<UpsPolicy>(); });
  FlushPolicyRegistry::Register("nvram-whole", [](const FlushPolicyOptions& options) {
    return std::make_unique<NvramPolicy>(NvramPolicy::Options{options.nvram_bytes, true});
  });
  FlushPolicyRegistry::Register("nvram-partial", [](const FlushPolicyOptions& options) {
    return std::make_unique<NvramPolicy>(NvramPolicy::Options{options.nvram_bytes, false});
  });
}

}  // namespace pfs
