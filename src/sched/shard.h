// Sharded scheduling: a SchedulerGroup owns N Scheduler shards, one per OS
// core, so independent filesystems/volume trees dispatch in true parallel.
//
// Execution model by clock type:
//   * Virtual clock (Patsy): the shards step in deterministic lockstep on ONE
//     OS thread, through the one loop that also steps a standalone
//     Scheduler (Scheduler::RunLockstep). Each time step runs every shard,
//     in shard-index order, to quiescence at the shared current time,
//     re-sweeping while cross-shard posts are still in flight, then advances
//     every shard's clock to the global minimum next-event time. Same seed +
//     same config => identical interleaving; a group of one steps exactly as
//     a standalone Scheduler with the same seed.
//   * Real clock (on-line PFS, benches): each shard runs the real-clock
//     Scheduler loop free on its own OS thread. A group-level work counter
//     (live non-daemon threads + queued posts + pending external ops, across
//     all shards) tells the monitor when everything has drained; it then
//     stops and joins the shard threads. A group of one runs its shard's
//     loop on the calling thread.
//   * A lone shard keeps out of the group accounting below: with nothing to
//     coordinate, it has no shared counter to bump and waits on its own park.
//
// Cross-shard interaction goes exclusively through Scheduler::Post (each
// shard's MPSC mailbox): Events/Notifications are shard-local, so a coroutine
// on shard A never touches shard B's run queue directly. CallOn<T> packages
// the full round trip: post a transient to the target shard, run the body
// there, post the result back home.
#ifndef PFS_SCHED_SHARD_H_
#define PFS_SCHED_SHARD_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "sched/scheduler.h"

namespace pfs {

class SchedulerGroup {
 public:
  // Builds `shards` schedulers. Shard i seeds its RNG with
  // seed + i * golden-ratio so shard streams are decorrelated but fully
  // determined by the scenario seed; shard 0's stream equals a standalone
  // Scheduler's with the same seed. Real clocks share one epoch so
  // cross-shard timestamps are comparable.
  SchedulerGroup(size_t shards, bool virtual_clock, uint64_t seed);
  ~SchedulerGroup();

  SchedulerGroup(const SchedulerGroup&) = delete;
  SchedulerGroup& operator=(const SchedulerGroup&) = delete;

  size_t size() const { return shards_.size(); }
  Scheduler* shard(size_t i) { return shards_[i].get(); }

  // Runs until no non-daemon work remains on any shard (or RequestStop).
  // Virtual clock: deterministic lockstep on the calling thread. Real clock:
  // one OS thread per shard, or the one shard's loop on the calling thread.
  // May be called again after it returns (e.g. setup phase, then the
  // workload) — threaded runs reset the shards' stop flags on exit.
  void Run();

  // Runs for `d` of (virtual or wall) time, as Scheduler::RunFor does.
  void RunFor(Duration d);

  // Thread-safe: stops every shard at its next scheduling point.
  void RequestStop();

  // The shard index whose loop is executing on this OS thread (thread-local,
  // set around every coroutine step and posted function), or -1 outside
  // scheduler control. The runtime affinity checks (sched/affinity.h) and
  // diagnostics use it; note that in virtual-clock lockstep mode several
  // shards take turns on one OS thread, so this is per-step, not
  // per-thread-lifetime.
  static int CurrentShard() {
    Scheduler* current = Scheduler::Current();
    return current != nullptr ? static_cast<int>(current->shard_index()) : -1;
  }

  // -- hooks called by Scheduler (see scheduler.cc) --------------------------
  // Group-level quiescence accounting: +1 per live non-daemon thread, queued
  // post, and pending external op, across all shards.
  void NoteWorkBegun() { work_.fetch_add(1); }
  void NoteWorkDone();
  // Wakes the virtual-clock lockstep loop (parked waiting for cross-shard
  // work or I/O completions) and the real-clock monitor (for a stop).
  void NotifyPosted();
  // Parks the lockstep loop until `ready()` holds; NotifyPosted wakes it.
  template <typename Pred>
  void WaitUntil(Pred ready) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, ready);
  }
  // Teardown: frees every shard's queued posts (they will never run).
  void DropAllPosted();

 private:
  friend class SchedulerGroupTestPeer;

  void RunThreaded(bool bounded, Duration d);
  bool AnyStop() const;

  std::vector<std::unique_ptr<Scheduler>> shards_;
  std::vector<Scheduler*> loops_;  // the same shards, as the lockstep loop's span
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<int64_t> work_{0};
  uint64_t monitor_wakeups_ = 0;  // real-clock monitor, guarded by mu_
};

namespace detail {

// One cross-shard call. It lives in the calling coroutine's frame, which
// stays suspended for the whole round trip, and it is its own mailbox node:
// posted to the target it spawns the body there; posted back home it wakes
// the caller. The Notification belongs to the home scheduler, so only the
// home shard ever touches it.
template <typename T, typename Fn>
class XCall final : public MailboxNode {
 public:
  XCall(Scheduler* from, Scheduler* to, Fn body)
      : home(from), target(to), fn(std::move(body)), done(from) {}

  void Run() override {
    if (value.has_value()) {
      done.Notify();  // homebound
    } else {
      target->SpawnTransient("xshard", Body(this));
    }
  }
  void Drop() override {}  // owned by the calling frame

  Scheduler* const home;
  Scheduler* const target;
  Fn fn;
  std::optional<T> value;
  Notification done;

 private:
  static Task<> Body(XCall* call) {
    call->value.emplace(co_await call->fn());
    // The caller may resume and free `call` as soon as it is pushed.
    Scheduler* home = call->home;
    home->PostNode(call);
  }
};

}  // namespace detail

// Runs `fn` (a callable returning Task<T>) on `target`'s shard and returns
// its result on `home`'s. Must be awaited from a coroutine scheduled on
// `home`; both are shards of one SchedulerGroup. Same-shard calls collapse
// to a plain inline await — at system.shards = 1 every CallOn is exactly
// the direct call it replaced. The home shard counts the round trip as an
// external op, so its loop (and the lockstep barrier) will not declare
// deadlock while the result is in flight on another shard. A hop allocates
// nothing after warm-up: the call state and both mailbox hops live in this
// frame, the target reuses a reclaimed Thread record, and the body's frames
// come from the frame pool (sched/task.h).
template <typename T, typename Fn>
Task<T> CallOn(Scheduler* home, Scheduler* target, Fn fn) {
  if (target == home || target == nullptr) {
    co_return co_await fn();
  }
  detail::XCall<T, Fn> call(home, target, std::move(fn));
  home->BeginExternalOp();
  target->PostNode(&call);
  co_await call.done.Wait();
  home->EndExternalOp();
  co_return std::move(*call.value);
}

}  // namespace pfs

#endif  // PFS_SCHED_SHARD_H_
