#include "sched/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <thread>

#include "core/log.h"
#include "sched/shard.h"

namespace pfs {

namespace {
constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();

// The scheduler whose loop is executing on this OS thread (set around every
// coroutine step and posted function). With sharding, multiple schedulers may
// take turns on one OS thread (lockstep mode), so this is per-step, not
// per-thread-lifetime.
thread_local Scheduler* g_current_scheduler = nullptr;
}  // namespace

RealClock::RealClock() : epoch_ns_(MonotonicNanos()) {}

int64_t RealClock::SteadyEpochNow() { return MonotonicNanos(); }

TimePoint RealClock::Now() const {
  return TimePoint::FromNanos(MonotonicNanos() - epoch_ns_);
}

Scheduler* Scheduler::Current() { return g_current_scheduler; }

const char* ThreadStateName(ThreadState s) {
  switch (s) {
    case ThreadState::kRunnable:
      return "runnable";
    case ThreadState::kRunning:
      return "running";
    case ThreadState::kBlocked:
      return "blocked";
    case ThreadState::kDelayed:
      return "delayed";
    case ThreadState::kFinished:
      return "finished";
  }
  return "?";
}

Thread::Thread(Scheduler* sched, uint64_t id, std::string name, bool daemon, Task<> body)
    : id_(id),
      name_(std::move(name)),
      daemon_(daemon),
      body_(std::move(body)),
      resume_point_(body_.handle()),
      done_(sched) {}

void Thread::Reuse(uint64_t id, std::string name, bool daemon, Task<> body) {
  id_ = id;
  name_ = std::move(name);
  daemon_ = daemon;
  body_ = std::move(body);
  resume_point_ = body_.handle();
  state_ = ThreadState::kRunnable;
  done_.Rearm();
  trace = TraceContext();
}

void Event::BlockOn(std::coroutine_handle<> h) { sched_->BlockCurrentOn(h, this); }

void Event::Signal() {
  if (waiters_.empty()) {
    return;
  }
  Thread* t = waiters_.front();
  waiters_.pop_front();
  sched_->MakeRunnable(t);
}

void Event::Broadcast() {
  while (!waiters_.empty()) {
    Thread* t = waiters_.front();
    waiters_.pop_front();
    sched_->MakeRunnable(t);
  }
}

void Notification::Notify() {
  if (!fired_) {
    fired_ = true;
    event_.Broadcast();
  }
}

Scheduler::Scheduler(std::unique_ptr<Clock> clock, uint64_t seed)
    : clock_(std::move(clock)), rng_(seed) {
  PFS_CHECK(clock_ != nullptr);
}

Scheduler::~Scheduler() {
  // A completion thread may still be between "work queued" and "Post()
  // returned" when the loop drains that work and the owner tears us down;
  // wait those posters out so they never touch freed members. The window is
  // a few instructions (the park check and at most one notify), so a
  // sleeping poll costs nothing in practice and keeps PostNode's common path
  // lock-free; the acquire load pairs with the poster's final release
  // decrement.
  while (posters_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  DropPosted();
}

std::unique_ptr<Scheduler> Scheduler::CreateVirtual(uint64_t seed) {
  return std::make_unique<Scheduler>(std::make_unique<VirtualClock>(), seed);
}

std::unique_ptr<Scheduler> Scheduler::CreateReal(uint64_t seed) {
  return std::make_unique<Scheduler>(std::make_unique<RealClock>(), seed);
}

Thread* Scheduler::SpawnImpl(std::string name, bool daemon, Task<> body, bool transient) {
  PFS_CHECK_MSG(body.valid(), "Spawn of an empty task");
  std::unique_ptr<Thread> thread;
  if (transient && !spare_threads_.empty()) {
    thread = std::move(spare_threads_.back());
    spare_threads_.pop_back();
    thread->Reuse(next_thread_id_++, std::move(name), daemon, std::move(body));
  } else {
    thread = std::unique_ptr<Thread>(
        new Thread(this, next_thread_id_++, std::move(name), daemon, std::move(body)));
  }
  Thread* t = thread.get();
  t->transient_ = transient;
  t->slot_ = threads_.size();
  if (current_ != nullptr) {
    t->trace = current_->trace;  // spawned work belongs to the spawning request
  }
  threads_.push_back(std::move(thread));
  if (!daemon) {
    ++live_non_daemon_;
    if (group_ != nullptr) {
      group_->NoteWorkBegun();
    }
  }
  runnable_.push_back(t);
  return t;
}

void Scheduler::AttachToGroup(SchedulerGroup* group, uint32_t shard_index) {
  group_ = group;
  shard_index_ = shard_index;
}

size_t Scheduler::PickNext(size_t runnable_count) {
  // The paper's default policy: pick a random thread from the runnable set.
  return static_cast<size_t>(rng_.NextBelow(runnable_count));
}

void Scheduler::RunOne() {
  const size_t idx = PickNext(runnable_.size());
  PFS_CHECK(idx < runnable_.size());
  Thread* t = runnable_[idx];
  runnable_.erase(runnable_.begin() + static_cast<ptrdiff_t>(idx));

  t->state_ = ThreadState::kRunning;
  current_ = t;
  // Single-writer relaxed bump (this loop's own OS thread); a plain ++ would
  // be an RMW on the hottest path in the scheduler.
  context_switches_.store(context_switches_.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
  std::coroutine_handle<> h = std::exchange(t->resume_point_, nullptr);
  PFS_CHECK_MSG(h != nullptr, "runnable thread with no resume point");
  Scheduler* prev = std::exchange(g_current_scheduler, this);
  h.resume();
  g_current_scheduler = prev;
  current_ = nullptr;

  if (t->body_.done()) {
    FinishThread(t);
  } else {
    // The thread must have parked itself via a scheduler awaitable.
    PFS_CHECK_MSG(t->state_ != ThreadState::kRunning,
                  "thread suspended outside scheduler control");
  }
}

void Scheduler::FinishThread(Thread* t) {
  t->state_ = ThreadState::kFinished;
  if (!t->daemon_) {
    PFS_CHECK(live_non_daemon_ > 0);
    --live_non_daemon_;
    if (group_ != nullptr) {
      group_->NoteWorkDone();
    }
  }
  t->done_.Notify();
  // Release the coroutine frame now; the Thread record stays for bookkeeping.
  t->body_ = Task<>();
  if (t->transient_) {
    // By the SpawnTransient contract no one holds this pointer, so the
    // record can be reclaimed (swap-with-back keeps the vector dense) and
    // kept for the next transient spawn.
    const size_t slot = t->slot_;
    spare_threads_.push_back(std::move(threads_[slot]));
    if (slot != threads_.size() - 1) {
      threads_[slot] = std::move(threads_.back());
      threads_[slot]->slot_ = slot;
    }
    threads_.pop_back();
  }
}

void Scheduler::SuspendCurrentUntil(std::coroutine_handle<> h, TimePoint wake) {
  Thread* t = current_;
  PFS_CHECK_MSG(t != nullptr, "Sleep outside a scheduler thread");
  t->resume_point_ = h;
  t->state_ = ThreadState::kDelayed;
  t->wake_time_ = wake;
  delayed_.push(DelayEntry{wake, next_delay_seq_++, t});
}

void Scheduler::YieldCurrent(std::coroutine_handle<> h) {
  Thread* t = current_;
  PFS_CHECK_MSG(t != nullptr, "Yield outside a scheduler thread");
  t->resume_point_ = h;
  t->state_ = ThreadState::kRunnable;
  runnable_.push_back(t);
}

void Scheduler::BlockCurrentOn(std::coroutine_handle<> h, Event* event) {
  Thread* t = current_;
  PFS_CHECK_MSG(t != nullptr, "Event wait outside a scheduler thread");
  t->resume_point_ = h;
  t->state_ = ThreadState::kBlocked;
  event->waiters_.push_back(t);
}

void Scheduler::MakeRunnable(Thread* t) {
  PFS_CHECK_MSG(t->state_ == ThreadState::kBlocked, "MakeRunnable on non-blocked thread");
  t->state_ = ThreadState::kRunnable;
  runnable_.push_back(t);
}

void Scheduler::WakeExpired() {
  const TimePoint now = Now();
  while (!delayed_.empty() && delayed_.top().wake <= now) {
    Thread* t = delayed_.top().thread;
    delayed_.pop();
    PFS_CHECK(t->state_ == ThreadState::kDelayed);
    t->state_ = ThreadState::kRunnable;
    runnable_.push_back(t);
  }
}

void Scheduler::DrainPosted() {
  if (mailbox_.empty()) {
    return;
  }
  size_t depth = 0;
  MailboxNode* node = mailbox_.TakeAll(&depth);
  // Depth histogram: log2 bucket of the non-empty batch size.
  size_t bucket = 0;
  for (size_t d = depth; d > 1; d = (d + 1) / 2) {
    ++bucket;
  }
  if (bucket >= kMailboxDepthBuckets) {
    bucket = kMailboxDepthBuckets - 1;
  }
  mailbox_depth_[bucket].store(mailbox_depth_[bucket].load(std::memory_order_relaxed) + 1,
                               std::memory_order_relaxed);
  mailbox_drains_.store(mailbox_drains_.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  posts_received_.store(posts_received_.load(std::memory_order_relaxed) + depth,
                        std::memory_order_relaxed);
  Scheduler* prev = std::exchange(g_current_scheduler, this);
  while (node != nullptr) {
    MailboxNode* next = Mailbox::Next(node);  // Run() may free or re-post it
    node->Run();
    node = next;
    if (group_ != nullptr) {
      // Balances the NoteWorkBegun charged at Post() enqueue. Done *after* the
      // function ran, so anything it spawned is already counted and the group
      // cannot observe a spurious zero.
      group_->NoteWorkDone();
    }
  }
  g_current_scheduler = prev;
}

bool Scheduler::NonDaemonAlive() const { return live_non_daemon_ > 0; }

size_t Scheduler::live_thread_count() const {
  size_t n = 0;
  for (const auto& t : threads_) {
    if (t->state() != ThreadState::kFinished) {
      ++n;
    }
  }
  return n;
}

void Scheduler::DestroyAllThreads() {
  // A queued post may point into a suspended frame on any shard (CallOn
  // keeps its hops in the calling frame), so every mailbox of the group is
  // emptied before any frame goes away.
  if (group_ != nullptr) {
    group_->DropAllPosted();
  } else {
    DropPosted();
  }
  for (auto& t : threads_) {
    // Destroying a frame runs the destructors of its locals (lock guards,
    // buffers); those may legitimately signal events and mark other threads
    // runnable. Nothing is resumed.
    t->body_ = Task<>();
  }
  for (auto& t : threads_) {
    t->state_ = ThreadState::kFinished;
  }
  if (group_ != nullptr) {
    for (size_t i = 0; i < live_non_daemon_; ++i) {
      group_->NoteWorkDone();
    }
  }
  live_non_daemon_ = 0;
  runnable_.clear();
  while (!delayed_.empty()) {
    delayed_.pop();
  }
}

void Scheduler::DumpThreads() const {
  std::fprintf(stderr, "-- scheduler threads (now=%.6fs) --\n", Now().ToSecondsF());
  for (const auto& t : threads_) {
    if (t->state() == ThreadState::kFinished) {
      continue;
    }
    std::fprintf(stderr, "  [%llu] %-24s %s%s\n", static_cast<unsigned long long>(t->id()),
                 t->name().c_str(), ThreadStateName(t->state()), t->daemon() ? " (daemon)" : "");
  }
}

void Scheduler::WaitRealUntil(TimePoint t) {
  const Duration remaining = t - Now();
  if (remaining <= Duration()) {
    return;
  }
  IdleWait(MonotonicNanos() + remaining.nanos());
}

void Scheduler::WaitRealForever() { IdleWait(kNoDeadline); }

// Spin, then park. The park cannot lose a wakeup: this thread stores
// parked_ and then (under park_mu_, in the wait predicate) loads the mailbox
// head; PostNode pushes and then loads parked_. All four accesses are
// sequentially consistent, so at least one side sees the other's store:
// either the predicate sees the post, or the poster sees parked_ and
// notifies under park_mu_, which it can only take once this thread is
// inside wait() or has not yet checked the predicate.
void Scheduler::IdleWait(int64_t deadline_ns) {
  const int64_t start = MonotonicNanos();
  const bool ready = SpinUntil(std::min(start + kIdleSpinNanos, deadline_ns),
                               [this] { return HasWakeReason(); });
  if (!ready && MonotonicNanos() < deadline_ns) {
    parked_.store(true);
    {
      std::unique_lock<std::mutex> lk(park_mu_);
      const auto woken = [this] { return HasWakeReason(); };
      if (deadline_ns == kNoDeadline) {
        park_cv_.wait(lk, woken);
      } else {
        park_cv_.wait_until(lk,
                            std::chrono::steady_clock::time_point(
                                std::chrono::nanoseconds(deadline_ns)),
                            woken);
      }
    }
    parked_.store(false, std::memory_order_relaxed);
  }
  idle_ns_.store(idle_ns_.load(std::memory_order_relaxed) + (MonotonicNanos() - start),
                 std::memory_order_relaxed);
}

void Scheduler::Unpark() {
  // Taking the lock orders this notify after the loop's predicate check.
  { std::lock_guard<std::mutex> lk(park_mu_); }
  park_cv_.notify_one();
}

void Scheduler::Run() {
  for (;;) {
    DrainPosted();
    WakeExpired();
    if (stop_.load()) {
      return;
    }
    if (!runnable_.empty()) {
      RunOne();
      continue;
    }
    if (!NonDaemonAlive() && !keep_alive_) {
      return;  // only daemon housekeeping remains
    }
    if (!delayed_.empty()) {
      const TimePoint next = delayed_.top().wake;
      if (is_virtual()) {
        clock_->AdvanceTo(next);
      } else {
        WaitRealUntil(next);
      }
      continue;
    }
    // No runnable, no delayed. If I/O is in flight on another OS thread its
    // completion Post() is coming; block for it (virtual clock included —
    // simulated time simply does not advance while we wait).
    if (pending_external_.load() > 0) {
      WaitRealForever();
      continue;
    }
    // Otherwise, in a simulator this is a deadlock: blocked threads that
    // nothing can ever wake.
    if (is_virtual()) {
      DumpThreads();
      PFS_CHECK_MSG(false, "scheduler deadlock: threads blocked with no timer pending");
    }
    WaitRealForever();
  }
}

void Scheduler::RunFor(Duration d) {
  const TimePoint deadline = Now() + d;
  for (;;) {
    DrainPosted();
    WakeExpired();
    if (stop_.load() || Now() >= deadline) {
      return;
    }
    if (!runnable_.empty()) {
      RunOne();
      continue;
    }
    if (!delayed_.empty() && delayed_.top().wake <= deadline) {
      if (is_virtual()) {
        clock_->AdvanceTo(delayed_.top().wake);
      } else {
        WaitRealUntil(delayed_.top().wake);
      }
      continue;
    }
    if (pending_external_.load() > 0) {
      WaitRealForever();  // an I/O completion Post() is on its way
      continue;
    }
    // No work left before the deadline; run the clock out.
    if (is_virtual()) {
      clock_->AdvanceTo(deadline);
      return;
    }
    WaitRealUntil(deadline);  // may wake early for Post(); loop re-checks
  }
}

void Scheduler::RequestStop() {
  stop_.store(true);
  Unpark();
  if (group_ != nullptr) {
    group_->NotifyPosted();  // the monitor and the lockstep loop watch AnyStop()
  }
}

void Scheduler::PostNode(MailboxNode* node) {
  posters_.fetch_add(1, std::memory_order_relaxed);  // ordered by the push
  PFS_CHECK_MSG(!closed_.load(),
                "Post() to a closed scheduler: the loop has shut down and this "
                "work would never run");
  Scheduler* sender = Current();
  if (sender != nullptr && sender != this) {
    sender->cross_posts_sent_.store(
        sender->cross_posts_sent_.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
  }
  if (group_ != nullptr) {
    group_->NoteWorkBegun();
  }
  mailbox_.Push(node);
  if (parked_.load()) {
    Unpark();
  }
  if (group_ != nullptr && is_virtual()) {
    group_->NotifyPosted();  // the lockstep loop may be waiting for this
  }
  // Last access to this object: the destructor may free it once it sees 0.
  posters_.fetch_sub(1, std::memory_order_release);
}

void Scheduler::Close() { closed_.store(true); }

void Scheduler::BeginExternalOp() {
  pending_external_.fetch_add(1);
  if (group_ != nullptr) {
    group_->NoteWorkBegun();
  }
}

void Scheduler::EndExternalOp() {
  pending_external_.fetch_sub(1);
  if (group_ != nullptr) {
    group_->NoteWorkDone();
    if (is_virtual()) {
      // The lockstep loop may be parked on "all external ops finished" even
      // while other group work keeps the counter above zero — wake it
      // explicitly so that predicate gets re-evaluated. The real-clock
      // monitor only cares about stop and work_ == 0 (NoteWorkDone).
      group_->NotifyPosted();
    }
  }
}

}  // namespace pfs
