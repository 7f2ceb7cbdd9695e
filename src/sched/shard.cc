#include "sched/shard.h"

#include <chrono>
#include <thread>

#include "core/log.h"

namespace pfs {

namespace {
// Golden-ratio increment: decorrelates per-shard RNG streams while keeping
// them a pure function of the scenario seed.
constexpr uint64_t kShardSeedStride = 0x9E3779B97F4A7C15ull;
}  // namespace

SchedulerGroup::SchedulerGroup(size_t shards, bool virtual_clock, uint64_t seed) {
  PFS_CHECK_MSG(shards >= 1, "SchedulerGroup needs at least one shard");
  const int64_t epoch = virtual_clock ? 0 : RealClock::SteadyEpochNow();
  shards_.reserve(shards);
  loops_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    std::unique_ptr<Clock> clock;
    if (virtual_clock) {
      clock = std::make_unique<VirtualClock>();
    } else {
      clock = std::make_unique<RealClock>(epoch);
    }
    auto s = std::make_unique<Scheduler>(std::move(clock),
                                         seed + static_cast<uint64_t>(i) * kShardSeedStride);
    // Only several loops read the group's quiescence accounting; a lone
    // shard stays a standalone scheduler, with no shared counter to bump on
    // every spawn, post, and I/O completion.
    if (shards > 1) {
      s->AttachToGroup(this, static_cast<uint32_t>(i));
    }
    loops_.push_back(s.get());
    shards_.push_back(std::move(s));
  }
}

SchedulerGroup::~SchedulerGroup() {
  // Queued posts may point into frames on any shard; drop them all before
  // the first shard frees its frames.
  DropAllPosted();
}

void SchedulerGroup::DropAllPosted() {
  for (auto& s : shards_) {
    s->DropPosted();
  }
}

// On the virtual clock every shape — one shard or several — is the one
// lockstep loop on the calling thread. On the real clock a lone shard runs
// its loop on the calling thread, and several run on one OS thread each.
void SchedulerGroup::Run() {
  if (shards_[0]->is_virtual()) {
    Scheduler::RunLockstep(loops_, std::nullopt);
  } else if (shards_.size() == 1) {
    shards_[0]->Run();
  } else {
    RunThreaded(/*bounded=*/false, Duration());
  }
}

void SchedulerGroup::RunFor(Duration d) {
  if (shards_[0]->is_virtual()) {
    Scheduler::RunLockstep(loops_, shards_[0]->Now() + d);
  } else if (shards_.size() == 1) {
    shards_[0]->RunFor(d);
  } else {
    RunThreaded(/*bounded=*/true, d);
  }
}

void SchedulerGroup::RequestStop() {
  for (auto& s : shards_) {
    s->RequestStop();
  }
}

void SchedulerGroup::NoteWorkDone() {
  const int64_t prev = work_.fetch_sub(1);
  PFS_CHECK_MSG(prev > 0, "scheduler group work counter underflow");
  if (prev == 1) {
    // Take the lock so the notify cannot slot between the monitor's predicate
    // check and its wait (classic lost-wakeup).
    std::lock_guard<std::mutex> lk(mu_);
    cv_.notify_all();
  }
}

void SchedulerGroup::NotifyPosted() {
  std::lock_guard<std::mutex> lk(mu_);
  cv_.notify_all();
}

bool SchedulerGroup::AnyStop() const {
  for (const auto& s : shards_) {
    if (s->stop_.load()) {
      return true;
    }
  }
  return false;
}

void SchedulerGroup::RunThreaded(bool bounded, Duration d) {
  std::vector<bool> prev_keep_alive(shards_.size());
  bool server_mode = false;
  for (size_t i = 0; i < shards_.size(); ++i) {
    prev_keep_alive[i] = shards_[i]->keep_alive_;
    // A caller that set keep_alive before Run() wants server semantics:
    // stay up while idle, exit only on RequestStop.
    server_mode = server_mode || prev_keep_alive[i];
    // keep_alive: a shard whose own work drains early must keep its loop
    // alive for cross-shard posts until the *group* is globally done.
    shards_[i]->set_keep_alive(true);
  }
  std::vector<std::thread> threads;
  threads.reserve(shards_.size());
  for (auto& s : shards_) {
    threads.emplace_back([sp = s.get()] { sp->Run(); });
  }
  {
    // The monitor sleeps until stop or global quiescence: NoteWorkDone
    // notifies when work_ reaches zero, RequestStop always. Posts and
    // external-op completions do not wake it, so a run of N cross-shard
    // calls costs this thread O(1) wakeups.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(d.nanos());
    std::unique_lock<std::mutex> lk(mu_);
    while (!AnyStop() && (server_mode || work_.load() != 0)) {
      if (bounded) {
        if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
          break;
        }
      } else {
        cv_.wait(lk);
      }
      ++monitor_wakeups_;
    }
  }
  for (auto& s : shards_) {
    s->RequestStop();
  }
  for (auto& t : threads) {
    t.join();
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->ResetStop();
    shards_[i]->set_keep_alive(prev_keep_alive[i]);
  }
}

}  // namespace pfs
