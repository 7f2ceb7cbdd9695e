#include "sched/affinity.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "core/check.h"
#include "stats/registry.h"

namespace pfs {

namespace {

// -1 = unresolved, 0 = off, 1 = on. Resolved once; SetAffinityChecksForTesting
// rewrites the cache directly.
std::atomic<int> g_affinity_checks{-1};

int ResolveFromEnvironment() {
  const char* env = std::getenv("PFS_AFFINITY_CHECK");
  if (env != nullptr && *env != '\0') {
    return std::strcmp(env, "0") == 0 ? 0 : 1;
  }
#ifdef NDEBUG
  return 0;  // default off outside Debug; arm with PFS_AFFINITY_CHECK=1
#else
  return 1;  // Debug builds check by default
#endif
}

}  // namespace

bool AffinityChecksEnabled() {
  int state = g_affinity_checks.load(std::memory_order_relaxed);
  if (state < 0) [[unlikely]] {
    state = ResolveFromEnvironment();
    g_affinity_checks.store(state, std::memory_order_relaxed);
  }
  return state != 0;
}

void SetAffinityChecksForTesting(bool enabled) {
  g_affinity_checks.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void ShardAffine::ReportAffinityViolation(const char* file, int line,
                                          Scheduler* current) const {
  // The component name comes from its StatSource identity when it has one;
  // the hot path deliberately stores nothing extra on the mixin.
  std::string name = affinity_label_ != nullptr ? affinity_label_ : "<unnamed component>";
  if (const auto* source = dynamic_cast<const StatSource*>(this); source != nullptr) {
    name = source->stat_name();
  }
  const Thread* thread = current->current_thread();
  CheckFailed(
      "PFS_ASSERT_SHARD failed at %s:%d: \"%s\" is pinned to shard %u but was "
      "entered from shard %u (thread \"%s\"); cross-shard access must go through "
      "Post/CallOn/CrossShardDevice\n",
      file, line, name.c_str(), affinity_home_->shard_index(), current->shard_index(),
      thread != nullptr ? thread->name().c_str() : "<posted fn>");
}

}  // namespace pfs
