// The thread scheduler: cooperative coroutine threads over a virtual or real
// clock (paper §2, "Thread scheduler").
//
// One Scheduler instance drives one instantiated system — a Patsy simulator
// (virtual clock: time jumps to the next timer expiry whenever no thread is
// runnable) or an on-line PFS (real clock: timers expire in real time and
// external requests are injected from other OS threads via Post()).
//
// The default scheduling policy picks a *random* runnable thread, as in the
// paper; derived classes can override PickNext() to implement others.
#ifndef PFS_SCHED_SCHEDULER_H_
#define PFS_SCHED_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <coroutine>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/random.h"
#include "obs/trace_context.h"
#include "sched/event.h"
#include "sched/mailbox.h"
#include "sched/task.h"
#include "sched/time.h"

namespace pfs {

// Time source. VirtualClock advances only when the scheduler is idle;
// RealClock tracks the host's monotonic clock.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual TimePoint Now() const = 0;
  virtual bool is_virtual() const = 0;
  // Jumps virtual time forward; no-op for a real clock (real time advances on
  // its own while the scheduler sleeps).
  virtual void AdvanceTo(TimePoint t) = 0;
};

class VirtualClock final : public Clock {
 public:
  TimePoint Now() const override { return now_; }
  bool is_virtual() const override { return true; }
  void AdvanceTo(TimePoint t) override {
    if (t > now_) {
      now_ = t;
    }
  }

 private:
  TimePoint now_;
};

class RealClock final : public Clock {
 public:
  RealClock();
  // Shared-epoch construction: every shard of a SchedulerGroup reads the
  // same zero point, so cross-shard timestamps (trace spans, fault events)
  // are directly comparable.
  explicit RealClock(int64_t epoch_ns);
  static int64_t SteadyEpochNow();

  TimePoint Now() const override;
  bool is_virtual() const override { return false; }
  void AdvanceTo(TimePoint) override {}

  // A bound from above on Now() at a fraction of its cost: the kernel's
  // coarse monotonic clock, which lags the precise one by at most a tick,
  // plus two ticks. It is below Now() only when the coarse clock lags by
  // more than that. Where there is no coarse clock, it is Now().
  TimePoint NowUpperBound() const;

 private:
  int64_t epoch_ns_;  // steady_clock reading at construction
  int64_t coarse_slack_ns_;  // two ticks of the coarse clock
};

enum class ThreadState : uint8_t {
  kRunnable,
  kRunning,
  kBlocked,   // waiting on an Event
  kDelayed,   // sleeping until wake_time
  kFinished,
};

const char* ThreadStateName(ThreadState s);

// One independent file-system process. Created via Scheduler::Spawn; the
// coroutine frame is released as soon as the thread finishes.
class Thread {
 public:
  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  ThreadState state() const { return state_; }
  bool daemon() const { return daemon_; }

  // Fired when the thread's body returns. Join with: co_await t->done().Wait()
  Notification& done() { return done_; }

  // Request-tracing context (obs/). Spawn copies it from the spawning
  // thread, so fan-out workers attribute their spans to the request that
  // spawned them; default-empty (null recorder) means tracing is off.
  TraceContext trace;

 private:
  friend class Event;
  friend class Scheduler;

  Thread(Scheduler* sched, uint64_t id, std::string name, bool daemon, Task<> body);
  // Re-arms a reclaimed transient record for a new body (see SpawnImpl).
  void Reuse(uint64_t id, std::string name, bool daemon, Task<> body);

  uint64_t id_;
  std::string name_;
  bool daemon_;
  bool transient_ = false;  // record reclaimed on finish (SpawnTransient)
  size_t slot_ = 0;         // index in Scheduler::threads_
  Task<> body_;
  std::coroutine_handle<> resume_point_;
  ThreadState state_ = ThreadState::kRunnable;
  TimePoint wake_time_;
  Thread* next_waiter_ = nullptr;  // the next thread blocked on the same Event
  Notification done_;
};

class SchedulerGroup;

// Mailbox-depth histogram: log2 buckets over the non-empty DrainPosted batch
// sizes (bucket 0 = depth 1, bucket i = (2^(i-1), 2^i]).
inline constexpr size_t kMailboxDepthBuckets = 17;

class Scheduler {
 public:
  // `seed` drives the random pick policy; two runs with the same seed and the
  // same workload interleave identically.
  explicit Scheduler(std::unique_ptr<Clock> clock, uint64_t seed = 1);
  virtual ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  static std::unique_ptr<Scheduler> CreateVirtual(uint64_t seed = 1);
  static std::unique_ptr<Scheduler> CreateReal(uint64_t seed = 1);

  TimePoint Now() const { return clock_->Now(); }
  bool is_virtual() const { return clock_->is_virtual(); }

  // Spawns an independent thread of control. Regular threads keep Run()
  // alive until they finish; daemons (cleaners, flush scanners, disk
  // mechanisms) do not.
  Thread* Spawn(std::string name, Task<> body) { return SpawnImpl(std::move(name), false, std::move(body)); }
  Thread* SpawnDaemon(std::string name, Task<> body) { return SpawnImpl(std::move(name), true, std::move(body)); }

  // Fire-and-forget: the Thread record is reclaimed as soon as the body
  // finishes, so per-request spawns (volume fan-out fragments, on-line
  // request handlers) do not grow `threads_` without bound. Contract: the
  // caller must NOT retain the returned pointer or join on done() — use an
  // Event of its own for completion (a reclaimed record may be reused).
  Thread* SpawnTransient(std::string name, Task<> body) {
    return SpawnImpl(std::move(name), false, std::move(body), true);
  }

  // A daemon whose record is reclaimed when its body finishes: the lifetime
  // for one-shot background jobs (a fault schedule that applies its last
  // event, a bounded rebuild pass) — they must not keep Run() alive, and a
  // plain SpawnDaemon would leave a finished record in the thread table for
  // the rest of the process. Same no-retain/no-join contract as
  // SpawnTransient.
  Thread* SpawnTransientDaemon(std::string name, Task<> body) {
    return SpawnImpl(std::move(name), true, std::move(body), true);
  }

  // Runs until no non-daemon work remains (or RequestStop). With
  // set_keep_alive(true) — the on-line server mode — Run() only returns on
  // RequestStop and otherwise blocks waiting for Post()ed work. On the
  // virtual clock this is the lockstep loop over this one scheduler, the
  // loop a SchedulerGroup runs over its shards; on the real clock it is the
  // real-clock loop, which each real-clock shard also runs.
  void Run();

  // Runs for `d` of (virtual or real) time, or until RequestStop, running
  // daemons too once the non-daemon work is done. On the virtual clock the
  // clock ends at the deadline; a thread due exactly then is woken but runs
  // only in a later Run()/RunFor().
  void RunFor(Duration d);

  // Thread-safe: requests Run() to return at the next scheduling point.
  void RequestStop();

  // Thread-safe: executes `fn` on the scheduler loop (between thread steps).
  // This is how the on-line system injects external requests (paper §2:
  // "External events are also managed by the scheduler ... in a real
  // system"). `fn` must not block; typically it spawns a thread or signals an
  // event. Posting to a Close()d scheduler is a checked error. Posts run in
  // push order, so each posting thread's posts run in the order it made them.
  template <typename Fn>
  void Post(Fn fn) {
    PostNode(new internal::PostedFn<Fn>(std::move(fn)));
  }

  // Post() for a caller-owned node (CallOn keeps its hops in the calling
  // frame). The node must stay alive until it runs or is dropped.
  void PostNode(MailboxNode* node);

  // Declares that no further Post() is coming: the owner has shut the loop
  // down for good (server stopped, system torn down). A Post() after Close()
  // used to be silently dropped — the enqueued work would never run; now it
  // aborts with a message naming the scheduler, so the lost-work bug is loud
  // at the call site instead of a hang somewhere downstream.
  void Close();
  bool closed() const { return closed_.load(); }

  void set_keep_alive(bool keep_alive) { keep_alive_ = keep_alive; }

  // The scheduler currently executing on this OS thread (set while a
  // coroutine step or a posted function runs), or nullptr outside scheduler
  // control. Cross-shard helpers use it to find the calling coroutine's home
  // shard.
  static Scheduler* Current();

  // -- sharding (SchedulerGroup) --------------------------------------------
  uint32_t shard_index() const { return shard_index_; }
  SchedulerGroup* group() { return group_; }

  // -- per-shard scheduling statistics (the "sched" StatSource and the live
  // metrics plane read these; each counter is written only from this
  // scheduler's own OS thread, as a relaxed atomic so a scrape thread can
  // read a torn-free value mid-run) -----------------------------------------
  uint64_t posts_received() const { return posts_received_.load(std::memory_order_relaxed); }
  uint64_t cross_posts_sent() const {
    return cross_posts_sent_.load(std::memory_order_relaxed);
  }
  uint64_t mailbox_drains() const { return mailbox_drains_.load(std::memory_order_relaxed); }
  int64_t idle_nanos() const { return idle_ns_.load(std::memory_order_relaxed); }
  uint64_t mailbox_depth_bucket(size_t i) const {
    return mailbox_depth_[i].load(std::memory_order_relaxed);
  }

  // Thread-safe in-flight accounting for work running on *other* OS threads
  // (the real disk driver's I/O executor). While any external op is pending,
  // Run() blocks for its completion Post() instead of declaring deadlock or
  // returning. Pair every Begin with exactly one End.
  void BeginExternalOp();
  void EndExternalOp();

  // Suspends the calling thread for `d`.
  auto Sleep(Duration d) { return SleepUntilAwaiter{this, Now() + d}; }
  auto SleepUntil(TimePoint t) { return SleepUntilAwaiter{this, t}; }

  // Reschedules the calling thread, giving others a chance to run.
  auto Yield() { return YieldAwaiter{this}; }

  Thread* current_thread() { return current_; }
  uint64_t context_switches() const {
    return context_switches_.load(std::memory_order_relaxed);
  }
  size_t live_thread_count() const;
  // All retained records, finished or not (transient ones drop out on
  // finish) — lets tests assert per-request spawns do not accumulate.
  size_t thread_record_count() const { return threads_.size(); }

  // Writes a one-line-per-thread state dump to stderr (deadlock diagnosis).
  void DumpThreads() const;

  // Teardown: destroys every coroutine frame (running or suspended) while
  // the rest of the system is still alive. Owners whose schedulers outlive
  // the components the threads reference (the usual member order) must call
  // this before those components are destroyed; frame destructors may
  // release locks and signal events, which is only safe then.
  void DestroyAllThreads();

 protected:
  // Index into the runnable set of the next thread to run. Default: uniform
  // random (the paper's policy). Override for other policies.
  virtual size_t PickNext(size_t runnable_count);

 private:
  friend class Event;
  friend class SchedulerGroup;

  struct SleepUntilAwaiter {
    Scheduler* sched;
    TimePoint wake;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { sched->SuspendCurrentUntil(h, wake); }
    void await_resume() const noexcept {}
  };

  struct YieldAwaiter {
    Scheduler* sched;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { sched->YieldCurrent(h); }
    void await_resume() const noexcept {}
  };

  struct DelayEntry {
    TimePoint wake;
    uint64_t seq;  // tie-breaker: FIFO among equal wake times
    Thread* thread;
    bool operator>(const DelayEntry& other) const {
      if (wake != other.wake) {
        return wake > other.wake;
      }
      return seq > other.seq;
    }
  };

  Thread* SpawnImpl(std::string name, bool daemon, Task<> body, bool transient = false);

  // Called from awaiters, always on the scheduler's OS thread.
  void SuspendCurrentUntil(std::coroutine_handle<> h, TimePoint wake);
  void YieldCurrent(std::coroutine_handle<> h);
  void BlockCurrentOn(std::coroutine_handle<> h, Event* event);
  void MakeRunnable(Thread* t);

  // Run() and RunFor(): without a deadline, until no non-daemon work
  // remains; with one, until the deadline.
  void RunUntil(std::optional<TimePoint> deadline);
  // The virtual-clock loop over `shards` (a standalone scheduler, or a
  // group's shards on one OS thread). Each time step runs every shard, in
  // index order, to quiescence at the current instant, then advances every
  // clock to the earliest timer; the same seed gives the same steps.
  static void RunLockstep(std::span<Scheduler* const> shards,
                          std::optional<TimePoint> deadline);

  void RunOne();
  void WakeExpired();
  void DrainPosted();
  bool NonDaemonAlive() const;
  void FinishThread(Thread* t);

  // Real-clock idle waits (interruptible by Post/RequestStop): spin for
  // kIdleSpinNanos, then park. Both count as idle time.
  void WaitRealUntil(TimePoint t);
  void WaitRealForever();
  void IdleWait(int64_t deadline_ns);
  bool HasWakeReason() const { return !mailbox_.empty() || stop_.load(); }
  void Unpark();
  // Frees queued posts that will never run (teardown).
  void DropPosted() { mailbox_.DropAll(); }

  // SchedulerGroup hooks (see shard.h). Attach wires the shard into its
  // group's global-quiescence accounting; ResetStop lets the group reuse a
  // shard loop across multiple Run phases (setup, then the workload).
  void AttachToGroup(SchedulerGroup* group, uint32_t shard_index);
  void ResetStop() { stop_.store(false); }
  bool HasPosted() const { return !mailbox_.empty(); }

  std::unique_ptr<Clock> clock_;
  const RealClock* real_clock_ = nullptr;  // clock_, when it is a RealClock
  Rng rng_;
  std::vector<std::unique_ptr<Thread>> threads_;
  // Finished transient records kept for reuse, so a per-request spawn
  // allocates no Thread.
  std::vector<std::unique_ptr<Thread>> spare_threads_;
  std::vector<Thread*> runnable_;
  std::priority_queue<DelayEntry, std::vector<DelayEntry>, std::greater<DelayEntry>> delayed_;
  Thread* current_ = nullptr;
  uint64_t next_thread_id_ = 1;
  uint64_t next_delay_seq_ = 0;
  // Relaxed atomic, single writer (this loop's OS thread): the live metrics
  // listener reads it from its own thread mid-run.
  std::atomic<uint64_t> context_switches_{0};
  size_t live_non_daemon_ = 0;
  bool keep_alive_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> pending_external_{0};

  Mailbox mailbox_;
  std::atomic<bool> closed_{false};
  // Park protocol (see IdleWait/PostNode): the loop sets parked_ before its
  // last emptiness check and sleeps on park_cv_; a poster takes park_mu_
  // and notifies only when it sees parked_ after its push.
  std::atomic<bool> parked_{false};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  // Posts still inside PostNode(); the destructor waits for zero so a
  // poster never touches a freed scheduler. The decrement is a poster's
  // last access to this object.
  std::atomic<int> posters_{0};

  // Sharding: set once by SchedulerGroup before any shard runs.
  SchedulerGroup* group_ = nullptr;
  uint32_t shard_index_ = 0;

  // Per-shard scheduling stats; written only from this scheduler's own OS
  // thread (cross_posts_sent_ is charged to the *sender's* scheduler).
  // Relaxed atomics (single writer) so the metrics scrape thread may read
  // them while the loops run.
  std::atomic<uint64_t> posts_received_{0};
  std::atomic<uint64_t> cross_posts_sent_{0};
  std::atomic<uint64_t> mailbox_drains_{0};
  std::atomic<int64_t> idle_ns_{0};
  std::atomic<uint64_t> mailbox_depth_[kMailboxDepthBuckets] = {};
};

}  // namespace pfs

#endif  // PFS_SCHED_SCHEDULER_H_
