// Mailbox: the lock-free multi-producer, single-consumer queue behind
// Scheduler::Post, plus the bounded spin that idle loops run before they
// park on a condition variable.
//
// A Mailbox is a Treiber stack of intrusive nodes: Push is one CAS on the
// head pointer, the empty check is one atomic load, and the consumer takes
// the whole stack with one exchange and reverses it, so nodes run in push
// order. Push order is a total order consistent with each producer's own
// program order, which is what virtual-clock lockstep determinism needs:
// on one OS thread the mailbox is an ordinary FIFO.
#ifndef PFS_SCHED_MAILBOX_H_
#define PFS_SCHED_MAILBOX_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>

namespace pfs {

// How long an idle loop — a shard waiting for posts, an IoExecutor worker
// waiting for batches — polls its queue before it parks. A handoff that
// arrives inside the window costs the receiver one atomic load instead of a
// futex wake plus a reschedule on each side. 50 us covers a cross-shard
// round trip and a page-cache pread with room to spare, while an idle
// server still sleeps almost all the time. It is a constant, not a knob:
// the right value depends on the cost of a wake on the host, not on the
// workload, and a tunable would be one more configuration to get wrong.
inline constexpr int64_t kIdleSpinNanos = 50'000;

// Steady-clock reading in nanoseconds.
inline int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Polls `ready` — which must be cheap, typically one atomic load — until it
// holds or the steady clock reaches `until_ns`. Returns whether it held.
// Each miss yields the CPU instead of pausing in place: the kernel often
// wakes the thread this one waits for onto this very CPU, and a pause loop
// would keep it off the CPU for the whole window (on a 4-vCPU KVM guest
// that stretched pfsbench hot-read's 64-fsync prefill from 6 ms to 30 ms).
// With nothing else runnable here, a yield returns at once.
template <typename Pred>
bool SpinUntil(int64_t until_ns, Pred ready) {
  while (!ready()) {
    if (MonotonicNanos() >= until_ns) {
      return ready();
    }
    std::this_thread::yield();
  }
  return true;
}

// One unit of posted work. Owned by whoever created it: Scheduler::Post
// wraps a callable in a heap node that frees itself, while CallOn embeds its
// node in the caller's coroutine frame so a cross-shard hop allocates
// nothing. A node sits in at most one mailbox at a time; once pushed, the
// poster must not touch it again.
class MailboxNode {
 public:
  MailboxNode(const MailboxNode&) = delete;
  MailboxNode& operator=(const MailboxNode&) = delete;

  // Runs the work on the consumer's thread. May free or re-post the node.
  virtual void Run() = 0;
  // Releases a node that will never run (its mailbox was torn down with
  // work still queued). Must not touch any other scheduler state.
  virtual void Drop() = 0;

 protected:
  MailboxNode() = default;
  ~MailboxNode() = default;

 private:
  friend class Mailbox;
  MailboxNode* next_ = nullptr;
};

class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  // Any thread. Sequentially consistent so that a poster's following load
  // of the consumer's park flag cannot be ordered before the push (see
  // Scheduler::Post).
  void Push(MailboxNode* node) {
    MailboxNode* head = head_.load(std::memory_order_relaxed);
    do {
      node->next_ = head;
    } while (!head_.compare_exchange_weak(head, node, std::memory_order_seq_cst,
                                          std::memory_order_relaxed));
  }

  // Any thread; one atomic load.
  bool empty() const { return head_.load(std::memory_order_seq_cst) == nullptr; }

  // Consumer only: detaches everything queued, returning it oldest first,
  // with the count in `*count`.
  MailboxNode* TakeAll(size_t* count) {
    MailboxNode* node = head_.exchange(nullptr, std::memory_order_acquire);
    MailboxNode* fifo = nullptr;
    size_t n = 0;
    while (node != nullptr) {
      MailboxNode* next = node->next_;
      node->next_ = fifo;
      fifo = node;
      node = next;
      ++n;
    }
    *count = n;
    return fifo;
  }

  static MailboxNode* Next(const MailboxNode* node) { return node->next_; }

  // Consumer only (or with every producer gone): drops everything queued.
  void DropAll() {
    size_t n = 0;
    for (MailboxNode* node = TakeAll(&n); node != nullptr;) {
      MailboxNode* next = node->next_;
      node->Drop();
      node = next;
    }
  }

 private:
  std::atomic<MailboxNode*> head_{nullptr};
};

namespace internal {

// The heap node Scheduler::Post wraps a callable in.
template <typename Fn>
class PostedFn final : public MailboxNode {
 public:
  explicit PostedFn(Fn fn) : fn_(std::move(fn)) {}
  void Run() override {
    fn_();
    delete this;
  }
  void Drop() override { delete this; }

 private:
  Fn fn_;
};

}  // namespace internal

}  // namespace pfs

#endif  // PFS_SCHED_MAILBOX_H_
