// Event and Notification: the framework's synchronization primitives.
//
// Paper §2: "The synchronization primitives are based on events. Each thread
// can pick a unique event and block on it. Once a thread has blocked itself,
// another thread signals the event through the scheduler to make the thread
// runnable again."
//
// Event has condition-variable semantics (no memory): a Signal with no waiter
// is lost, so callers re-check their predicate in a loop. Notification is the
// sticky variant for one-shot completions (I/O done, thread exited): a Wait
// after Notify does not block.
#ifndef PFS_SCHED_EVENT_H_
#define PFS_SCHED_EVENT_H_

#include <coroutine>
#include <deque>

#include "core/check.h"

namespace pfs {

class Scheduler;
class Thread;

class Event {
 public:
  explicit Event(Scheduler* sched) : sched_(sched) { PFS_CHECK(sched != nullptr); }

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  // Awaitable: blocks the calling thread until a signal. Callers are expected
  // to re-check their predicate afterwards: `while (!pred) co_await e.Wait();`
  class Awaiter {
   public:
    explicit Awaiter(Event* event) : event_(event) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { event_->BlockOn(h); }
    void await_resume() const noexcept {}

   private:
    Event* event_;
  };

  Awaiter Wait() { return Awaiter(this); }

  // Wakes the longest-waiting thread, if any (FIFO). No-op with no waiters.
  void Signal();

  // Wakes all waiting threads.
  void Broadcast();

  size_t waiter_count() const { return waiters_.size(); }

 private:
  friend class Notification;
  friend class Scheduler;

  // Parks the current thread on this event; used by Awaiter and Notification.
  void BlockOn(std::coroutine_handle<> h);

  Scheduler* sched_;
  std::deque<Thread*> waiters_;
};

class Notification {
 public:
  explicit Notification(Scheduler* sched) : event_(sched) {}

  bool HasFired() const { return fired_; }

  // Fires the notification and wakes all current waiters. Idempotent.
  void Notify();

  class Awaiter {
   public:
    explicit Awaiter(Notification* n) : n_(n) {}
    bool await_ready() const noexcept { return n_->fired_; }
    void await_suspend(std::coroutine_handle<> h) { n_->event_.BlockOn(h); }
    void await_resume() const noexcept {}

   private:
    Notification* n_;
  };

  Awaiter Wait() { return Awaiter(this); }

 private:
  friend class Thread;

  // A reused Thread record's done() starts unfired; nobody may be waiting.
  void Rearm() {
    PFS_CHECK(event_.waiter_count() == 0);
    fired_ = false;
  }

  bool fired_ = false;
  Event event_;
};

}  // namespace pfs

#endif  // PFS_SCHED_EVENT_H_
