#include "sched/task.h"

#include <cstdint>
#include <new>

namespace pfs::internal {

#if PFS_FRAME_POOL

namespace {

// Frames up to kFrameClasses * kFrameClassBytes (2 KiB) are pooled; built
// with GCC 12, the largest frame pfsbench's workloads create is 1,120 bytes.
// Each OS thread caches at most kMaxCachedBytes of freed frames.
constexpr size_t kFrameClassBytes = 64;
constexpr size_t kFrameClasses = 32;
constexpr size_t kMaxCachedBytes = 1 << 20;

struct FreeFrameNode {
  FreeFrameNode* next;
};

enum class PoolState : uint8_t { kUnused, kLive, kReleased };

// This OS thread's free lists. Trivially destructible, so a frame freed
// during the thread's teardown, after ReleaseAtExit has run, can still see
// that the pool is gone.
struct FramePool {
  FreeFrameNode* lists[kFrameClasses];
  size_t cached_bytes;
  PoolState state;
};
constinit thread_local FramePool t_pool{};

// Registered on the thread's first cached frame; its destructor runs at
// thread exit and hands the cached frames back to the heap.
struct ReleaseAtExit {
  ~ReleaseAtExit() {
    for (size_t c = 0; c < kFrameClasses; ++c) {
      while (FreeFrameNode* node = t_pool.lists[c]) {
        t_pool.lists[c] = node->next;
        ::operator delete(node, (c + 1) * kFrameClassBytes);
      }
    }
    t_pool.cached_bytes = 0;
    t_pool.state = PoolState::kReleased;
  }
};
thread_local ReleaseAtExit t_release_at_exit;

size_t ClassOf(size_t size) { return (size - 1) / kFrameClassBytes; }

}  // namespace

void* AllocateFrame(size_t size) {
  const size_t c = ClassOf(size);
  if (c >= kFrameClasses) {
    return ::operator new(size);
  }
  if (FreeFrameNode* node = t_pool.lists[c]; node != nullptr) {
    t_pool.lists[c] = node->next;
    t_pool.cached_bytes -= (c + 1) * kFrameClassBytes;
    return node;
  }
  return ::operator new((c + 1) * kFrameClassBytes);
}

void FreeFrame(void* frame, size_t size) noexcept {
  const size_t c = ClassOf(size);
  if (c >= kFrameClasses) {
    ::operator delete(frame, size);
    return;
  }
  const size_t bytes = (c + 1) * kFrameClassBytes;
  if (t_pool.state == PoolState::kUnused) {
    (void)&t_release_at_exit;  // first use registers its destructor
    t_pool.state = PoolState::kLive;
  }
  if (t_pool.state == PoolState::kReleased ||
      t_pool.cached_bytes + bytes > kMaxCachedBytes) {
    ::operator delete(frame, bytes);
    return;
  }
  t_pool.lists[c] = new (frame) FreeFrameNode{t_pool.lists[c]};
  t_pool.cached_bytes += bytes;
}

size_t CachedFrameBytes() { return t_pool.cached_bytes; }

#else  // !PFS_FRAME_POOL

size_t CachedFrameBytes() { return 0; }

#endif  // PFS_FRAME_POOL

}  // namespace pfs::internal
