// Task<T>: the lazy coroutine type for every "thread of control" in the
// framework and for every async sub-operation they perform.
//
// A spawned file-system process is a Task<void> owned by a sched::Thread.
// Sub-operations (cache fills, disk I/O, log appends) are Task<Result<T>>s
// awaited by their caller; completion resumes the caller directly via
// symmetric transfer, so an entire call chain suspends and resumes as one
// schedulable unit — exactly the paper's "independent file-system processes
// [with] a separate thread of control inside the system".
//
// Every co_await of a Task creates a coroutine frame, so frames come from a
// pool instead of the heap: each OS thread keeps one free list per 64-byte
// size class. A frame freed on another OS thread joins that thread's lists,
// so no list is ever shared and none needs a lock. Frames larger than the
// largest class, and frames freed while the thread already caches its cap,
// go to ::operator new and ::operator delete; a thread's cached frames are
// released when it exits. Under AddressSanitizer the pool compiles out, so
// every frame is a heap block and a use after free is reported.
#ifndef PFS_SCHED_TASK_H_
#define PFS_SCHED_TASK_H_

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define PFS_FRAME_POOL 0
#else
#define PFS_FRAME_POOL 1
#endif

namespace pfs {

template <typename T>
class Task;

namespace internal {

void* AllocateFrame(size_t size);
void FreeFrame(void* frame, size_t size) noexcept;
// Bytes of freed frames this OS thread holds for reuse (tests).
size_t CachedFrameBytes();

struct TaskPromiseBase {
#if PFS_FRAME_POOL
  static void* operator new(size_t size) { return AllocateFrame(size); }
  static void operator delete(void* frame, size_t size) noexcept {
    FreeFrame(frame, size);
  }
#endif

  std::coroutine_handle<> continuation;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      // Resume whoever awaited us; a detached top-level task has no
      // continuation and parks here until its owner destroys it.
      std::coroutine_handle<> cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  // Library code is exception-free; anything escaping is a bug.
  void unhandled_exception() noexcept { std::terminate(); }
};

template <typename T>
struct TaskPromise final : TaskPromiseBase {
  std::optional<T> value;

  Task<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct TaskPromise<void> final : TaskPromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace internal

template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = internal::TaskPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(Handle h) noexcept : h_(h) {}

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { Destroy(); }

  bool valid() const { return h_ != nullptr; }
  bool done() const { return h_ != nullptr && h_.done(); }
  Handle handle() const { return h_; }

  // co_await support: starts the child coroutine via symmetric transfer and
  // resumes the awaiting coroutine when the child completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      T await_resume() {
        if constexpr (!std::is_void_v<T>) {
          PFS_CHECK_MSG(h.promise().value.has_value(), "task finished without a value");
          return std::move(*h.promise().value);
        }
      }
    };
    return Awaiter{h_};
  }

 private:
  void Destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }

  Handle h_ = nullptr;
};

namespace internal {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace internal

}  // namespace pfs

#endif  // PFS_SCHED_TASK_H_
