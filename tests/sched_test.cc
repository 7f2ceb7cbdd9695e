// Unit tests for src/sched: tasks, events, scheduler semantics under virtual
// and real clocks, sync primitives, channels.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sched/channel.h"
#include "sched/event.h"
#include "sched/scheduler.h"
#include "sched/shard.h"
#include "sched/sync.h"
#include "sched/task.h"
#include "sched/time.h"

namespace pfs {

// Reads the SchedulerGroup internals the public API deliberately leaves out.
class SchedulerGroupTestPeer {
 public:
  static uint64_t MonitorWakeups(const SchedulerGroup& group) {
    return group.monitor_wakeups_;
  }
};

namespace {

TEST(TimeTest, DurationConversions) {
  EXPECT_EQ(Duration::Millis(3).micros(), 3000);
  EXPECT_EQ(Duration::Seconds(2).millis(), 2000);
  EXPECT_EQ(Duration::Micros(5).nanos(), 5000);
  EXPECT_EQ(Duration::Minutes(2).millis(), 120000);
  EXPECT_EQ(Duration::Hours(1).millis(), 3600000);
  EXPECT_DOUBLE_EQ(Duration::Millis(1500).ToSecondsF(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::SecondsF(0.25).ToMillisF(), 250.0);
  EXPECT_EQ(Duration::MillisF(1.5).micros(), 1500);
}

TEST(TimeTest, DurationArithmeticAndComparison) {
  const Duration a = Duration::Millis(5);
  const Duration b = Duration::Millis(3);
  EXPECT_EQ((a + b).millis(), 8);
  EXPECT_EQ((a - b).millis(), 2);
  EXPECT_EQ((a * 4).millis(), 20);
  EXPECT_EQ((a / 5).millis(), 1);
  EXPECT_LT(b, a);
  EXPECT_TRUE(Duration().IsZero());
}

TEST(TimeTest, TimePointArithmetic) {
  const TimePoint t0 = TimePoint::FromNanos(1000);
  const TimePoint t1 = t0 + Duration::Micros(2);
  EXPECT_EQ((t1 - t0).nanos(), 2000);
  EXPECT_GT(t1, t0);
}

Task<int> ReturnValue(int v) { co_return v; }

Task<int> AddViaSubtasks(int a, int b) {
  const int x = co_await ReturnValue(a);
  const int y = co_await ReturnValue(b);
  co_return x + y;
}

Task<> StoreResult(int* out) { *out = co_await AddViaSubtasks(20, 22); }

TEST(TaskTest, NestedAwaitChains) {
  auto sched = Scheduler::CreateVirtual();
  int result = 0;
  sched->Spawn("adder", StoreResult(&result));
  sched->Run();
  EXPECT_EQ(result, 42);
}

Task<> SleepAndRecord(Scheduler* s, std::vector<int>* order, int id, Duration d) {
  co_await s->Sleep(d);
  order->push_back(id);
}

TEST(SchedulerTest, VirtualTimeOrdersByWakeTime) {
  auto sched = Scheduler::CreateVirtual();
  std::vector<int> order;
  sched->Spawn("late", SleepAndRecord(sched.get(), &order, 3, Duration::Millis(30)));
  sched->Spawn("early", SleepAndRecord(sched.get(), &order, 1, Duration::Millis(10)));
  sched->Spawn("mid", SleepAndRecord(sched.get(), &order, 2, Duration::Millis(20)));
  sched->Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched->Now(), TimePoint() + Duration::Millis(30));
}

TEST(SchedulerTest, VirtualTimeJumpsWhenIdle) {
  auto sched = Scheduler::CreateVirtual();
  std::vector<int> order;
  sched->Spawn("sleeper", SleepAndRecord(sched.get(), &order, 1, Duration::Hours(10)));
  sched->Run();
  // Ten simulated hours pass instantly; virtual time is exact.
  EXPECT_EQ(sched->Now(), TimePoint() + Duration::Hours(10));
}

Task<> NestedSleeps(Scheduler* s, std::vector<int64_t>* times) {
  co_await s->Sleep(Duration::Millis(1));
  times->push_back((s->Now() - TimePoint()).millis());
  co_await s->Sleep(Duration::Millis(2));
  times->push_back((s->Now() - TimePoint()).millis());
}

TEST(SchedulerTest, SequentialSleepsAccumulate) {
  auto sched = Scheduler::CreateVirtual();
  std::vector<int64_t> times;
  sched->Spawn("t", NestedSleeps(sched.get(), &times));
  sched->Run();
  EXPECT_EQ(times, (std::vector<int64_t>{1, 3}));
}

TEST(SchedulerTest, DeterministicForSeed) {
  auto run_once = [](uint64_t seed) {
    auto sched = Scheduler::CreateVirtual(seed);
    auto order = std::make_unique<std::vector<int>>();
    // All three runnable at t=0; random policy decides the order.
    for (int i = 0; i < 3; ++i) {
      sched->Spawn("t", SleepAndRecord(sched.get(), order.get(), i, Duration()));
    }
    sched->Run();
    return *order;
  };
  EXPECT_EQ(run_once(77), run_once(77));
}

TEST(SchedulerTest, RandomPolicyDependsOnSeed) {
  // With 12 threads the probability that two different seeds produce the
  // identical permutation is 1/12! — treat a collision as failure.
  auto run_once = [](uint64_t seed) {
    auto sched = Scheduler::CreateVirtual(seed);
    auto order = std::make_unique<std::vector<int>>();
    for (int i = 0; i < 12; ++i) {
      sched->Spawn("t", SleepAndRecord(sched.get(), order.get(), i, Duration()));
    }
    sched->Run();
    return *order;
  };
  EXPECT_NE(run_once(1), run_once(2));
}

Task<> WaitOnEvent(Event* e, int* hits) {
  co_await e->Wait();
  ++(*hits);
}

Task<> SignalLater(Scheduler* s, Event* e, bool broadcast) {
  co_await s->Sleep(Duration::Millis(1));
  if (broadcast) {
    e->Broadcast();
  } else {
    e->Signal();
  }
}

TEST(EventTest, SignalWakesExactlyOne) {
  auto sched = Scheduler::CreateVirtual();
  Event e(sched.get());
  int hits = 0;
  sched->SpawnDaemon("w1", WaitOnEvent(&e, &hits));
  sched->SpawnDaemon("w2", WaitOnEvent(&e, &hits));
  sched->Spawn("signaler", SignalLater(sched.get(), &e, /*broadcast=*/false));
  sched->Run();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(e.waiter_count(), 1u);
}

TEST(EventTest, BroadcastWakesAll) {
  auto sched = Scheduler::CreateVirtual();
  Event e(sched.get());
  int hits = 0;
  sched->SpawnDaemon("w1", WaitOnEvent(&e, &hits));
  sched->SpawnDaemon("w2", WaitOnEvent(&e, &hits));
  sched->SpawnDaemon("w3", WaitOnEvent(&e, &hits));
  sched->Spawn("signaler", SignalLater(sched.get(), &e, /*broadcast=*/true));
  sched->Run();
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(e.waiter_count(), 0u);
}

// Runs the thread that became runnable first, so the order in which an
// Event makes its waiters runnable is the order in which they run.
class FifoScheduler final : public Scheduler {
 public:
  FifoScheduler() : Scheduler(std::make_unique<VirtualClock>()) {}

 protected:
  size_t PickNext(size_t) override { return 0; }
};

// Starts waiting at time `at` (so waiters arrive in the order of `at`, not
// of their spawns) and records `id` when woken.
Task<> WaitFromThenRecord(Scheduler* s, Event* e, Duration at, int id,
                          std::vector<int>* woke) {
  co_await s->Sleep(at);
  co_await e->Wait();
  woke->push_back(id);
}

Task<> SignalThreeTimes(Scheduler* s, Event* e) {
  co_await s->Sleep(Duration::Millis(10));
  for (int i = 0; i < 3; ++i) {
    e->Signal();
    co_await s->Sleep(Duration::Millis(1));  // the woken thread records itself
  }
}

Task<> BroadcastAt10ms(Scheduler* s, Event* e) {
  co_await s->Sleep(Duration::Millis(10));
  e->Broadcast();
}

// Every wake order in a run, and so every golden report, rests on this FIFO:
// Signal wakes the longest waiter, and Broadcast makes the waiters runnable
// in the order they arrived.
TEST(EventTest, SignalWakesInArrivalOrder) {
  auto sched = Scheduler::CreateVirtual();
  Event e(sched.get());
  std::vector<int> woke;
  for (int id : {3, 1, 2}) {
    const Duration at = Duration::Millis(id);
    sched->SpawnDaemon("w", WaitFromThenRecord(sched.get(), &e, at, id, &woke));
  }
  sched->Spawn("signaler", SignalThreeTimes(sched.get(), &e));
  sched->Run();
  EXPECT_EQ(woke, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.waiter_count(), 0u);

  FifoScheduler fifo;
  Event b(&fifo);
  woke.clear();
  for (int id : {3, 1, 2}) {
    const Duration at = Duration::Millis(id);
    fifo.Spawn("w", WaitFromThenRecord(&fifo, &b, at, id, &woke));
  }
  fifo.Spawn("broadcaster", BroadcastAt10ms(&fifo, &b));
  fifo.Run();
  EXPECT_EQ(woke, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(b.waiter_count(), 0u);
}

TEST(EventTest, SignalWithNoWaitersIsLost) {
  auto sched = Scheduler::CreateVirtual();
  Event e(sched.get());
  e.Signal();  // nobody listening; nothing happens
  int hits = 0;
  sched->SpawnDaemon("w", WaitOnEvent(&e, &hits));
  sched->Spawn("signaler", SignalLater(sched.get(), &e, false));
  sched->Run();
  EXPECT_EQ(hits, 1);
}

Task<> WaitNotification(Notification* n, int* hits) {
  co_await n->Wait();
  ++(*hits);
}

TEST(NotificationTest, StickyAfterNotify) {
  auto sched = Scheduler::CreateVirtual();
  Notification n(sched.get());
  n.Notify();
  EXPECT_TRUE(n.HasFired());
  int hits = 0;
  // Waiting after the fact completes immediately.
  sched->Spawn("w", WaitNotification(&n, &hits));
  sched->Run();
  EXPECT_EQ(hits, 1);
}

Task<> JoinThread(Thread* t, int* joined) {
  co_await t->done().Wait();
  ++(*joined);
}

Task<> ShortTask(Scheduler* s) { co_await s->Sleep(Duration::Millis(5)); }

TEST(SchedulerTest, JoinViaDoneNotification) {
  auto sched = Scheduler::CreateVirtual();
  Thread* worker = sched->Spawn("worker", ShortTask(sched.get()));
  int joined = 0;
  sched->Spawn("joiner", JoinThread(worker, &joined));
  sched->Run();
  EXPECT_EQ(joined, 1);
  EXPECT_EQ(worker->state(), ThreadState::kFinished);
}

Task<> Forever(Scheduler* s) {
  for (;;) {
    co_await s->Sleep(Duration::Seconds(10));
  }
}

TEST(SchedulerTest, DaemonsDoNotKeepRunAlive) {
  auto sched = Scheduler::CreateVirtual();
  sched->SpawnDaemon("housekeeper", Forever(sched.get()));
  sched->Spawn("worker", ShortTask(sched.get()));
  sched->Run();  // must return once worker is done
  EXPECT_EQ(sched->Now(), TimePoint() + Duration::Millis(5));
}

TEST(SchedulerTest, TransientDaemonIsReclaimedAndDoesNotKeepRunAlive) {
  // The one-shot background-job lifetime (fault injectors, bounded rebuild
  // passes): a transient daemon neither keeps Run() alive while it sleeps
  // nor leaves a finished record in the thread table once its body returns.
  auto sched = Scheduler::CreateVirtual();
  const size_t baseline = sched->thread_record_count();
  sched->SpawnTransientDaemon("oneshot", ShortTask(sched.get()));  // 5ms body
  sched->SpawnTransientDaemon("sleeper", Forever(sched.get()));
  sched->Spawn("worker", [](Scheduler* s) -> Task<> {
    co_await s->Sleep(Duration::Millis(20));
  }(sched.get()));
  sched->Run();  // returns when worker finishes, sleeper still parked
  EXPECT_EQ(sched->Now(), TimePoint() + Duration::Millis(20));
  // oneshot finished mid-run and was reclaimed; worker's record is retained
  // (regular spawn), sleeper's is still live.
  EXPECT_EQ(sched->thread_record_count(), baseline + 2);
}

TEST(SchedulerTest, RunForBoundsVirtualTime) {
  auto sched = Scheduler::CreateVirtual();
  sched->SpawnDaemon("housekeeper", Forever(sched.get()));
  sched->RunFor(Duration::Seconds(35));
  EXPECT_EQ(sched->Now(), TimePoint() + Duration::Seconds(35));
}

Task<> CriticalSection(Scheduler* s, Mutex* m, int* active, int* max_active, int* done) {
  Mutex::Guard guard = co_await m->Lock();
  ++(*active);
  *max_active = std::max(*max_active, *active);
  co_await s->Sleep(Duration::Millis(1));
  --(*active);
  ++(*done);
}

TEST(MutexTest, MutualExclusion) {
  auto sched = Scheduler::CreateVirtual();
  Mutex m(sched.get());
  int active = 0;
  int max_active = 0;
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    sched->Spawn("cs", CriticalSection(sched.get(), &m, &active, &max_active, &done));
  }
  sched->Run();
  EXPECT_EQ(done, 8);
  EXPECT_EQ(max_active, 1);
  EXPECT_FALSE(m.locked());
}

Task<> GuardReleaseEarly(Scheduler* s, Mutex* m, bool* observed_unlocked) {
  Mutex::Guard guard = co_await m->Lock();
  guard.Release();
  *observed_unlocked = !m->locked();
  co_await s->Sleep(Duration::Millis(1));
}

TEST(MutexTest, GuardEarlyRelease) {
  auto sched = Scheduler::CreateVirtual();
  Mutex m(sched.get());
  bool observed_unlocked = false;
  sched->Spawn("t", GuardReleaseEarly(sched.get(), &m, &observed_unlocked));
  sched->Run();
  EXPECT_TRUE(observed_unlocked);
}

Task<> AcquireN(Scheduler* s, Semaphore* sem, int64_t n, int* done) {
  co_await sem->Acquire(n);
  co_await s->Sleep(Duration::Millis(1));
  sem->Release(n);
  ++(*done);
}

TEST(SemaphoreTest, LimitsConcurrency) {
  auto sched = Scheduler::CreateVirtual();
  Semaphore sem(sched.get(), 2);
  int done = 0;
  for (int i = 0; i < 6; ++i) {
    sched->Spawn("a", AcquireN(sched.get(), &sem, 1, &done));
  }
  sched->Run();
  EXPECT_EQ(done, 6);
  EXPECT_EQ(sem.available(), 2);
  // 6 tasks, 2 at a time, 1ms each => exactly 3ms of virtual time.
  EXPECT_EQ(sched->Now(), TimePoint() + Duration::Millis(3));
}

TEST(SemaphoreTest, TryAcquire) {
  auto sched = Scheduler::CreateVirtual();
  Semaphore sem(sched.get(), 1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

Task<> Producer(Channel<int>* ch, int n) {
  for (int i = 0; i < n; ++i) {
    const bool sent = co_await ch->Send(i);
    PFS_CHECK(sent);
  }
  ch->Close();
}

Task<> Consumer(Channel<int>* ch, std::vector<int>* out) {
  for (;;) {
    std::optional<int> v = co_await ch->Recv();
    if (!v.has_value()) {
      break;
    }
    out->push_back(*v);
  }
}

TEST(ChannelTest, DeliversInOrderThroughBoundedBuffer) {
  auto sched = Scheduler::CreateVirtual();
  Channel<int> ch(sched.get(), 2);  // capacity below item count forces blocking
  std::vector<int> out;
  sched->Spawn("producer", Producer(&ch, 20));
  sched->Spawn("consumer", Consumer(&ch, &out));
  sched->Run();
  ASSERT_EQ(out.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(out[i], i);
  }
}

TEST(ChannelTest, TryVariants) {
  auto sched = Scheduler::CreateVirtual();
  Channel<int> ch(sched.get(), 1);
  EXPECT_TRUE(ch.TrySend(1));
  EXPECT_FALSE(ch.TrySend(2));  // full
  int v = 0;
  EXPECT_TRUE(ch.TryRecv(&v));
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(ch.TryRecv(&v));  // empty
}

Task<> SendToClosed(Channel<int>* ch, bool* result) { *result = co_await ch->Send(1); }

TEST(ChannelTest, SendToClosedFails) {
  auto sched = Scheduler::CreateVirtual();
  Channel<int> ch(sched.get(), 1);
  ch.Close();
  bool result = true;
  sched->Spawn("s", SendToClosed(&ch, &result));
  sched->Run();
  EXPECT_FALSE(result);
}

TEST(SchedulerTest, PostExecutesOnLoop) {
  auto sched = Scheduler::CreateVirtual();
  int ran = 0;
  sched->Post([&] { ++ran; });
  sched->Run();
  EXPECT_EQ(ran, 1);
}

Task<> YieldingCounter(Scheduler* s, int* counter, int n) {
  for (int i = 0; i < n; ++i) {
    ++(*counter);
    co_await s->Yield();
  }
}

TEST(SchedulerTest, YieldInterleavesThreads) {
  auto sched = Scheduler::CreateVirtual();
  int c1 = 0;
  int c2 = 0;
  sched->Spawn("y1", YieldingCounter(sched.get(), &c1, 50));
  sched->Spawn("y2", YieldingCounter(sched.get(), &c2, 50));
  sched->Run();
  EXPECT_EQ(c1, 50);
  EXPECT_EQ(c2, 50);
  // Yields do not advance virtual time.
  EXPECT_EQ(sched->Now(), TimePoint());
  EXPECT_GE(sched->context_switches(), 100u);
}

TEST(SchedulerTest, RealClockSleepTakesWallTime) {
  auto sched = Scheduler::CreateReal();
  std::vector<int> order;
  sched->Spawn("t", SleepAndRecord(sched.get(), &order, 1, Duration::Millis(20)));
  const auto t0 = std::chrono::steady_clock::now();
  sched->Run();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(order, std::vector<int>{1});
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 18);
}

// While a thread is runnable, the real-clock loop checks its timers against
// the coarse clock's bound; the timer still fires on time, never early.
TEST(SchedulerTest, RealClockTimerFiresOnTimeWhileAThreadYields) {
  auto sched = Scheduler::CreateReal();
  TimePoint due;
  TimePoint woke;
  bool done = false;
  uint64_t yields = 0;
  sched->Spawn("sleeper", [](Scheduler* s, TimePoint* due_out, TimePoint* woke_out,
                             bool* done_out) -> Task<> {
    *due_out = s->Now() + Duration::Millis(20);
    co_await s->SleepUntil(*due_out);
    *woke_out = s->Now();
    *done_out = true;
  }(sched.get(), &due, &woke, &done));
  sched->Spawn("yielder", [](Scheduler* s, const bool* stop, uint64_t* count) -> Task<> {
    while (!*stop) {
      ++*count;
      co_await s->Yield();
    }
  }(sched.get(), &done, &yields));
  sched->Run();
  ASSERT_TRUE(done);
  EXPECT_GE(woke, due);
  EXPECT_LT(woke - due, Duration::Millis(500));
  EXPECT_GT(yields, 0u);
}

TEST(SchedulerTest, RealClockPostFromOtherOsThread) {
  auto sched = Scheduler::CreateReal();
  sched->set_keep_alive(true);
  int ran = 0;
  std::thread injector([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    sched->Post([&] { ++ran; });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    sched->RequestStop();
  });
  sched->Run();
  injector.join();
  EXPECT_EQ(ran, 1);
}

TEST(SchedulerTest, LiveThreadCountTracksFinish) {
  auto sched = Scheduler::CreateVirtual();
  sched->Spawn("a", ShortTask(sched.get()));
  sched->Spawn("b", ShortTask(sched.get()));
  EXPECT_EQ(sched->live_thread_count(), 2u);
  sched->Run();
  EXPECT_EQ(sched->live_thread_count(), 0u);
}

// -- Post-after-shutdown contract -------------------------------------------

TEST(SchedulerTest, PostBetweenRunsStillExecutes) {
  // Run() returning does not mean the loop is gone: work posted between runs
  // must execute on the next Run(), not vanish.
  auto sched = Scheduler::CreateVirtual();
  sched->Spawn("a", ShortTask(sched.get()));
  sched->Run();
  int ran = 0;
  sched->Post([&] { ++ran; });
  sched->Run();
  EXPECT_EQ(ran, 1);
}

TEST(SchedulerDeathTest, PostAfterCloseIsACheckedError) {
  // Once the owner declares the loop down for good (Close()), a straggler
  // Post() — the old silent-drop race — must fail loudly instead of
  // enqueueing work that will never run.
  auto sched = Scheduler::CreateVirtual();
  sched->Spawn("a", ShortTask(sched.get()));
  sched->Run();
  sched->Close();
  EXPECT_DEATH(sched->Post([] {}), "closed scheduler");
}

// -- Mailbox handoff: lock-free posts, spin-then-park idle loops -------------

TEST(SchedulerMailboxTest, ConcurrentProducersRunEveryPostOnceInProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 100000;
  auto sched = Scheduler::CreateReal();
  sched->set_keep_alive(true);
  // Posted closures run only on the loop's OS thread, so plain vectors do.
  std::vector<std::vector<int>> seen(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&sched, &seen, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        sched->Post([&seen, p, i] { seen[p].push_back(i); });
      }
    });
  }
  std::thread closer([&] {
    for (auto& t : producers) {
      t.join();
    }
    // Pushed after every producer's last post, so it runs after all of them.
    sched->Post([&sched] { sched->RequestStop(); });
  });
  sched->Run();
  closer.join();
  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(seen[p].size(), static_cast<size_t>(kPerProducer)) << "producer " << p;
    for (int i = 0; i < kPerProducer; ++i) {
      ASSERT_EQ(seen[p][i], i) << "producer " << p << " out of order";
    }
  }
  EXPECT_EQ(sched->posts_received(),
            static_cast<uint64_t>(kProducers * kPerProducer + 1));
}

TEST(SchedulerMailboxTest, PostWakesAParkedLoop) {
  auto sched = Scheduler::CreateReal();
  sched->set_keep_alive(true);
  std::thread loop([&sched] { sched->Run(); });
  for (int round = 0; round < 5; ++round) {
    // Far longer than the spin window: the loop is parked on its condvar.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::promise<void> ran;
    std::future<void> done = ran.get_future();
    sched->Post([&ran] { ran.set_value(); });
    // Liveness, not latency: a lost wakeup would leave the post queued.
    ASSERT_EQ(done.wait_for(std::chrono::seconds(30)), std::future_status::ready)
        << "round " << round;
  }
  sched->RequestStop();
  loop.join();
  EXPECT_GT(sched->idle_nanos(), 0);
}

TEST(SchedulerMailboxTest, DestructionWaitsForALatePoster) {
  // The loop runs the post (and stops) while the posting thread may still
  // be inside Post(); the destructor must wait it out. Clean under TSAN.
  for (int round = 0; round < 200; ++round) {
    auto sched = Scheduler::CreateReal();
    sched->set_keep_alive(true);
    Scheduler* raw = sched.get();
    std::thread loop([raw] { raw->Run(); });
    if (round % 4 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));  // let it park
    }
    std::thread poster([raw] { raw->Post([raw] { raw->RequestStop(); }); });
    loop.join();
    sched.reset();
    poster.join();
  }
}

TEST(SchedulerMailboxTest, QueuedPostsAreFreedWithTheScheduler) {
  auto token = std::make_shared<int>(0);
  {
    auto sched = Scheduler::CreateVirtual();
    sched->Post([token] { ++*token; });
    sched->Post([token] { ++*token; });
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 0);
}

// -- SchedulerGroup: sharded loops ------------------------------------------

// `tag` by value: the coroutine frame outlives the caller's argument.
Task<> PingAcrossShards(Scheduler* home, Scheduler* target, int rounds,
                        std::vector<std::string>* log, std::string tag) {
  for (int i = 0; i < rounds; ++i) {
    co_await home->Sleep(Duration::Micros(100 + 37 * i));
    auto body = [target, i]() -> Task<int> {
      co_await target->Sleep(Duration::Micros(50));
      co_return i * 10 + static_cast<int>(target->shard_index());
    };
    const int got = co_await CallOn<int>(home, target, body);
    log->push_back(tag + ":" + std::to_string(got));
  }
}

std::vector<std::string> RunLockstepPingMesh(uint64_t seed) {
  SchedulerGroup group(4, /*virtual_clock=*/true, seed);
  // Lockstep runs every shard on this OS thread, so one shared log is safe
  // and captures the global interleaving.
  std::vector<std::string> log;
  for (size_t s = 0; s < group.size(); ++s) {
    Scheduler* home = group.shard(s);
    Scheduler* target = group.shard((s + 1) % group.size());
    home->Spawn("ping" + std::to_string(s),
                PingAcrossShards(home, target, 5, &log, "s" + std::to_string(s)));
  }
  group.Run();
  return log;
}

TEST(SchedulerGroupTest, LockstepCrossShardRunsAreDeterministic) {
  const std::vector<std::string> a = RunLockstepPingMesh(99);
  const std::vector<std::string> b = RunLockstepPingMesh(99);
  EXPECT_EQ(a.size(), 20u);  // 4 shards x 5 rounds
  EXPECT_EQ(a, b);
}

TEST(SchedulerGroupTest, CallOnReturnsValueAndCountsCrossPosts) {
  SchedulerGroup group(2, /*virtual_clock=*/true, 7);
  Scheduler* home = group.shard(0);
  Scheduler* target = group.shard(1);
  int result = 0;
  home->Spawn("caller", [](Scheduler* h, Scheduler* t, int* out) -> Task<> {
    auto body = [t]() -> Task<int> {
      co_await t->Sleep(Duration::Millis(1));
      co_return 41 + static_cast<int>(t->shard_index());
    };
    *out = co_await CallOn<int>(h, t, body);
  }(home, target, &result));
  group.Run();
  EXPECT_EQ(result, 42);
  // The hop out and the completion hop home both went through mailboxes.
  EXPECT_GE(target->posts_received(), 1u);
  EXPECT_GE(home->posts_received(), 1u);
  EXPECT_GE(target->cross_posts_sent(), 1u);
}

TEST(SchedulerGroupTest, SameShardCallOnCollapsesInline) {
  SchedulerGroup group(2, /*virtual_clock=*/true, 7);
  Scheduler* home = group.shard(0);
  int result = 0;
  home->Spawn("caller", [](Scheduler* h, int* out) -> Task<> {
    auto body = [h]() -> Task<int> { co_return static_cast<int>(h->shard_index()) + 1; };
    *out = co_await CallOn<int>(h, h, body);
  }(home, &result));
  group.Run();
  EXPECT_EQ(result, 1);
  EXPECT_EQ(home->posts_received(), 0u);  // no mailbox round trip
}

TEST(SchedulerGroupTest, ThreadedRealClockShardsCompleteAcrossOsThreads) {
  SchedulerGroup group(2, /*virtual_clock=*/false, 3);
  int results[2] = {0, 0};
  for (int s = 0; s < 2; ++s) {
    Scheduler* home = group.shard(static_cast<size_t>(s));
    Scheduler* target = group.shard(static_cast<size_t>(1 - s));
    home->Spawn("w" + std::to_string(s), [](Scheduler* h, Scheduler* t, int* out) -> Task<> {
      co_await h->Sleep(Duration::Millis(2));
      auto body = [t]() -> Task<int> {
        co_await t->Sleep(Duration::Millis(1));
        co_return static_cast<int>(t->shard_index()) + 100;
      };
      *out = co_await CallOn<int>(h, t, body);
    }(home, target, &results[s]));
  }
  group.Run();
  EXPECT_EQ(results[0], 101);
  EXPECT_EQ(results[1], 100);
}

TEST(SchedulerGroupTest, ThreadedCallOnsWakeTheMonitorOnlyAtQuiescence) {
  constexpr int kCalls = 2000;
  SchedulerGroup group(2, /*virtual_clock=*/false, 5);
  Scheduler* home = group.shard(0);
  Scheduler* target = group.shard(1);
  int sum = 0;
  home->Spawn("caller", [](Scheduler* h, Scheduler* t, int n, int* out) -> Task<> {
    for (int i = 0; i < n; ++i) {
      auto body = [t, i]() -> Task<int> {
        co_return i + static_cast<int>(t->shard_index());
      };
      const int got = co_await CallOn<int>(h, t, body);
      *out += got;
    }
  }(home, target, kCalls, &sum));
  group.Run();
  EXPECT_EQ(sum, kCalls * (kCalls - 1) / 2 + kCalls);
  EXPECT_EQ(target->posts_received(), static_cast<uint64_t>(kCalls));
  EXPECT_EQ(home->posts_received(), static_cast<uint64_t>(kCalls));
  // 2 * kCalls posts, but the monitor wakes for global quiescence (plus the
  // odd spurious wakeup), not once per post.
  EXPECT_LE(SchedulerGroupTestPeer::MonitorWakeups(group), 4u);
}

// Logs `me` at each of `steps` steps; even ids yield between steps and odd
// ids sleep, so the schedule mixes random picks with clock jumps.
Task<> LogSteps(Scheduler* s, int me, int steps, std::vector<int>* log) {
  for (int i = 0; i < steps; ++i) {
    log->push_back(me);
    if (me % 2 == 0) {
      co_await s->Yield();
    } else {
      co_await s->Sleep(Duration::Micros(100 * me + i));
    }
  }
}

// One schedule, phase by phase.
struct PhaseLog {
  std::vector<int> order;
  std::vector<int64_t> now_ns;  // Now() after each phase
  ThreadState due_after_run_for = ThreadState::kFinished;
};

// Drives `loop` (a Scheduler or a SchedulerGroup) whose work all lives on
// `home` through Run(), a RunFor() whose deadline equals a thread's wake
// time, Run() again and a RunFor() with nothing left to do.
template <typename Loop>
PhaseLog DrivePhases(Loop* loop, Scheduler* home) {
  PhaseLog out;
  for (int id = 0; id < 4; ++id) {
    home->Spawn("t" + std::to_string(id), LogSteps(home, id, 8, &out.order));
  }
  loop->Run();
  out.now_ns.push_back(home->Now().nanos());
  Thread* due =
      home->Spawn("due", SleepAndRecord(home, &out.order, 99, Duration::Millis(3)));
  loop->RunFor(Duration::Millis(3));
  out.now_ns.push_back(home->Now().nanos());
  out.due_after_run_for = due->state();
  out.order.push_back(-1);  // "due" must log after this mark
  loop->Run();
  out.now_ns.push_back(home->Now().nanos());
  loop->RunFor(Duration::Millis(7));
  out.now_ns.push_back(home->Now().nanos());
  return out;
}

TEST(SchedulerGroupTest, GroupOfOneMatchesStandaloneSchedule) {
  // Every virtual-clock shape steps through one lockstep loop: a standalone
  // scheduler, a group of one and a two-shard group whose work all lives on
  // shard 0 (seeded like the standalone) interleave identically and stop
  // their clocks at the same instants, phase by phase.
  auto standalone = Scheduler::CreateVirtual(12345);
  const PhaseLog a = DrivePhases(standalone.get(), standalone.get());
  SchedulerGroup one(1, /*virtual_clock=*/true, 12345);
  const PhaseLog b = DrivePhases(&one, one.shard(0));
  SchedulerGroup two(2, /*virtual_clock=*/true, 12345);
  const PhaseLog c = DrivePhases(&two, two.shard(0));

  ASSERT_EQ(a.order.size(), 34u);  // 4 threads x 8 steps, the mark, "due"
  // A thread due exactly at a RunFor deadline is woken but not run; it runs
  // in the next Run(), which moves no clock.
  EXPECT_EQ(a.due_after_run_for, ThreadState::kRunnable);
  EXPECT_EQ(a.order[32], -1);
  EXPECT_EQ(a.order[33], 99);
  ASSERT_EQ(a.now_ns.size(), 4u);
  EXPECT_EQ(a.now_ns[1] - a.now_ns[0], Duration::Millis(3).nanos());
  EXPECT_EQ(a.now_ns[2], a.now_ns[1]);
  // With nothing left to run, RunFor runs the clock out to its deadline.
  EXPECT_EQ(a.now_ns[3] - a.now_ns[2], Duration::Millis(7).nanos());
  for (const PhaseLog* other : {&b, &c}) {
    EXPECT_EQ(other->order, a.order);
    EXPECT_EQ(other->now_ns, a.now_ns);
    EXPECT_EQ(other->due_after_run_for, a.due_after_run_for);
  }
  EXPECT_EQ(two.shard(1)->Now(), two.shard(0)->Now());
}

Task<> BlockForever(Scheduler* s) {
  Notification never(s);
  co_await never.Wait();
}

TEST(SchedulerDeathTest, BlockedThreadAbortsAsDeadlockOnEveryVirtualShape) {
  // Nothing runnable, no timer, no I/O in flight, and a non-daemon thread
  // still blocked: nothing can ever wake it, so the run aborts.
  EXPECT_DEATH(
      {
        auto sched = Scheduler::CreateVirtual();
        sched->Spawn("stuck", BlockForever(sched.get()));
        sched->Run();
      },
      "scheduler deadlock");
  for (size_t shards : {1, 2}) {
    EXPECT_DEATH(
        {
          SchedulerGroup group(shards, /*virtual_clock=*/true, 1);
          Scheduler* last = group.shard(shards - 1);
          last->Spawn("stuck", BlockForever(last));
          group.Run();
        },
        "scheduler deadlock")
        << shards << " shard(s)";
  }
}

// Posts, from another OS thread, a function to `target` that stops `loop`;
// returns how often it ran.
template <typename Loop>
int RunUntilAPostStopsIt(Loop* loop, Scheduler* target) {
  int ran = 0;
  std::thread poster([&] {
    // Far longer than the spin window: the loop is parked.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    target->Post([&] {
      ++ran;
      loop->RequestStop();
    });
  });
  loop->Run();
  poster.join();
  return ran;
}

TEST(SchedulerGroupTest, VirtualKeepAliveRunWithNothingPendingWaitsForAPost) {
  // A kept-alive virtual-clock loop with no thread, timer or I/O in flight
  // is an idle server, not a deadlock: it waits, on every shape, for a post.
  auto standalone = Scheduler::CreateVirtual();
  standalone->set_keep_alive(true);
  EXPECT_EQ(RunUntilAPostStopsIt(standalone.get(), standalone.get()), 1);
  EXPECT_EQ(standalone->Now(), TimePoint());

  for (size_t shards : {1, 2}) {
    SchedulerGroup group(shards, /*virtual_clock=*/true, 1);
    group.shard(0)->set_keep_alive(true);
    EXPECT_EQ(RunUntilAPostStopsIt(&group, group.shard(shards - 1)), 1) << shards;
    EXPECT_EQ(group.shard(0)->Now(), TimePoint());
  }
}

// -- Coroutine frame pool (sched/task.h) -------------------------------------
// Each case runs on a fresh OS thread, so it starts from an empty pool.

Task<int> SmallFrame(int v) { co_return v; }

// The array lives across a suspension point, so the frame holds all of it:
// larger than the largest pooled class.
Task<int> LargeFrame(Scheduler* s) {
  std::array<char, 4096> big{};
  big[0] = 1;
  co_await s->Yield();
  co_return big[0] + big[4095];
}

TEST(FramePoolTest, AFrameFreedOnAnotherOsThreadJoinsThatThreadsLists) {
#if !PFS_FRAME_POOL
  GTEST_SKIP() << "the frame pool compiles out under AddressSanitizer";
#endif
  size_t cached_here = 1;
  size_t cached_there = 0;
  void* frame = nullptr;
  void* reused = nullptr;
  std::thread([&] {
    Task<int> task = SmallFrame(1);
    frame = task.handle().address();
    std::thread([&] {
      task = Task<int>();  // freed here
      cached_there = internal::CachedFrameBytes();
      Task<int> again = SmallFrame(2);
      reused = again.handle().address();
    }).join();
    cached_here = internal::CachedFrameBytes();
  }).join();
  EXPECT_GT(cached_there, 0u);
  EXPECT_EQ(reused, frame);
  EXPECT_EQ(cached_here, 0u);  // the allocating thread got nothing back
}

// Destroyed at its OS thread's exit after the pool has released the
// thread's cached frames: it was constructed before the pool cached any.
struct FrameFreedAtThreadExit {
  Task<int> task;
  size_t* cached_after = nullptr;
  ~FrameFreedAtThreadExit() {
    task = Task<int>();  // the pool is gone: straight to the heap
    *cached_after = internal::CachedFrameBytes();
  }
};

TEST(FramePoolTest, AThreadThatExitsReleasesItsCachedFrames) {
#if !PFS_FRAME_POOL
  GTEST_SKIP() << "the frame pool compiles out under AddressSanitizer";
#endif
  size_t cached_before_exit = 0;
  size_t cached_after_exit = 1;
  std::thread([&] {
    thread_local FrameFreedAtThreadExit late;
    late.cached_after = &cached_after_exit;
    {
      Task<int> a = SmallFrame(1);
      Task<int> b = SmallFrame(2);
    }
    late.task = SmallFrame(3);
    cached_before_exit = internal::CachedFrameBytes();
  }).join();
  EXPECT_GT(cached_before_exit, 0u);
  EXPECT_EQ(cached_after_exit, 0u);
}

TEST(FramePoolTest, AFrameLargerThanTheLargestClassBypassesThePool) {
#if !PFS_FRAME_POOL
  GTEST_SKIP() << "the frame pool compiles out under AddressSanitizer";
#endif
  size_t after_large = 1;
  size_t after_small = 0;
  std::thread([&] {
    Task<int> large = LargeFrame(nullptr);
    large = Task<int>();
    after_large = internal::CachedFrameBytes();
    Task<int> small = SmallFrame(1);
    small = Task<int>();
    after_small = internal::CachedFrameBytes();
  }).join();
  EXPECT_EQ(after_large, 0u);
  EXPECT_GT(after_small, 0u);
}

}  // namespace
}  // namespace pfs
