#include "sched/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <optional>
#include <span>
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

void Event::PushWaiter(Thread* t) {
  if (tail_ == nullptr) {
    head_ = t;
  } else {
    tail_->next_waiter_ = t;
  }
  tail_ = t;
  ++waiter_count_;
}

Thread* Event::PopWaiter() {
  Thread* t = head_;
  head_ = std::exchange(t->next_waiter_, nullptr);
  if (head_ == nullptr) {
    tail_ = nullptr;
  }
  --waiter_count_;
  return t;
}

void Event::Signal() {
  if (head_ != nullptr) {
    sched_->MakeRunnable(PopWaiter());
  }
}

void Event::Broadcast() {
  while (head_ != nullptr) {
    sched_->MakeRunnable(PopWaiter());
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
  event->PushWaiter(t);
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

void Scheduler::Run() { RunUntil(std::nullopt); }

void Scheduler::RunFor(Duration d) { RunUntil(Now() + d); }

void Scheduler::RunUntil(std::optional<TimePoint> deadline) {
  if (is_virtual()) {
    Scheduler* self = this;
    RunLockstep(std::span<Scheduler* const>(&self, 1), deadline);
    return;
  }
  for (;;) {
    DrainPosted();
    WakeExpired();
    if (stop_.load() || (deadline && Now() >= *deadline)) {
      return;
    }
    if (!runnable_.empty()) {
      RunOne();
      continue;
    }
    if (!deadline && !NonDaemonAlive() && !keep_alive_) {
      return;  // only daemon housekeeping remains
    }
    if (!delayed_.empty() && (!deadline || delayed_.top().wake <= *deadline)) {
      WaitRealUntil(delayed_.top().wake);
    } else if (deadline && pending_external_.load() == 0) {
      WaitRealUntil(*deadline);  // may wake early for Post(); the loop re-checks
    } else {
      WaitRealForever();  // an I/O completion or a request is posted, or a stop
    }
  }
}

void Scheduler::RunLockstep(std::span<Scheduler* const> shards,
                            std::optional<TimePoint> deadline) {
  const auto advance_all = [shards](TimePoint t) {
    // Every clock jumps to the same instant, so cross-shard timestamps stay
    // comparable and a timer fires at the same step on whichever shard.
    for (Scheduler* s : shards) {
      s->clock_->AdvanceTo(t);
    }
  };
  for (;;) {
    // Phase 1: every shard, in index order, runs to quiescence at the current
    // instant. Virtual time stands still within the phase. At the deadline
    // the phase only wakes the threads due then: they run in a later Run()
    // or RunFor().
    const bool due = deadline && shards[0]->Now() >= *deadline;
    for (Scheduler* s : shards) {
      for (;;) {
        s->DrainPosted();
        s->WakeExpired();
        if (due || s->stop_.load() || s->runnable_.empty()) {
          break;
        }
        s->RunOne();
      }
    }
    bool stopped = false;
    bool posted = false;
    bool alive = false;
    std::optional<TimePoint> next;
    for (const Scheduler* s : shards) {
      stopped = stopped || s->stop_.load();
      posted = posted || s->HasPosted();
      alive = alive || s->NonDaemonAlive();
      if (!s->delayed_.empty() && (!next || s->delayed_.top().wake < *next)) {
        next = s->delayed_.top().wake;
      }
    }
    if (stopped || due) {
      return;
    }
    if (posted) {
      continue;  // a later shard posted to an earlier one: sweep this instant again
    }
    // Phase 2: every shard is quiescent; jump the clocks to the earliest
    // timer, or wait for work from another OS thread. The keep-alive flags
    // and in-flight counts are read only on the branches that need them.
    const auto any = [shards](auto pred) {
      return std::any_of(shards.begin(), shards.end(), pred);
    };
    const auto kept_alive = [&any] {
      return any([](const Scheduler* s) { return s->keep_alive_; });
    };
    if (!deadline && !alive && !kept_alive()) {
      return;  // only daemon housekeeping remains, everywhere
    }
    if (next && (!deadline || *next <= *deadline)) {
      advance_all(*next);
      continue;
    }
    // In-flight I/O (its completion Post() is coming) or a server's loop
    // (kept alive for requests): wait for a post or a stop. Simulated time
    // does not advance meanwhile. A lone loop parks on its own condition
    // variable, since an unattached shard never notifies a group; several
    // loops wait on the group's, which their posts and stops notify.
    if (any([](const Scheduler* s) { return s->pending_external_.load() > 0; }) ||
        (!deadline && kept_alive())) {
      if (shards.size() == 1) {
        shards[0]->WaitRealForever();
      } else {
        shards[0]->group_->WaitUntil([shards] {
          return std::any_of(shards.begin(), shards.end(),
                             [](const Scheduler* s) { return s->HasWakeReason(); });
        });
      }
      continue;
    }
    if (deadline) {
      advance_all(*deadline);  // no work left before the deadline
      return;
    }
    // Blocked threads that nothing can ever wake.
    for (const Scheduler* s : shards) {
      s->DumpThreads();
    }
    PFS_CHECK_MSG(false, "scheduler deadlock: threads blocked with no timer pending");
  }
}

void Scheduler::RequestStop() {
  stop_.store(true);
  Unpark();
  if (group_ != nullptr) {
    group_->NotifyPosted();  // the monitor and the lockstep loop wait for stops
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
  }
}

}  // namespace pfs
