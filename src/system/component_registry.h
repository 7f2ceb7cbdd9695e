// The component registry: the run-time half of the paper's cut-and-paste
// property. Every pluggable family — storage layouts, log cleaners, cache
// replacement policies, flush policies, volume kinds, disk-queue policies,
// disk models — registers a named entry here, next to its implementation;
// SystemBuilder and SystemConfig::Parse resolve names through the registry
// instead of hard-coded string switches, so adding a component (or shadowing
// a builtin from user code) never touches the assembly layer.
//
// Extension recipe ("add a layout in three lines"):
//
//   LayoutRegistry::Register("mylayout", {
//       [](LayoutContext ctx) { return std::make_unique<MyLayout>(...); },
//       [](const SystemConfig&) { return MyLayout::kMinBlocks; }});
//
// Call Register from anywhere before the first Build/Parse — typically a
// registration function next to the implementation, or main() for one-off
// experiments. Registering an existing name replaces it.
#ifndef PFS_SYSTEM_COMPONENT_REGISTRY_H_
#define PFS_SYSTEM_COMPONENT_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cache/flush_policy.h"
#include "cache/replacement.h"
#include "core/result.h"
#include "core/status.h"
#include "disk/disk_model.h"
#include "driver/disk_driver.h"
#include "driver/io_engine.h"
#include "fault/fault_schedule.h"
#include "layout/cleaner.h"
#include "layout/storage_layout.h"
#include "layout/types.h"
#include "system/system_config.h"
#include "volume/volume.h"

namespace pfs {

// Registers every builtin component exactly once (thread-safe, idempotent);
// lookups call this lazily, so builtins are always visible. Implemented in
// component_registry.cc by forwarding to the per-family registration
// functions below, each of which lives next to its components.
void EnsureBuiltinComponentsRegistered();

void RegisterLfsLayout();                    // src/layout/lfs_layout.cc
void RegisterFfsLayout();                    // src/layout/ffs_layout.cc
void RegisterGuessingLayout();               // src/layout/guessing_layout.cc
void RegisterBuiltinCleaners();              // src/layout/cleaner.cc
void RegisterBuiltinReplacementPolicies();   // src/cache/replacement.cc
void RegisterBuiltinFlushPolicies();         // src/cache/flush_policy.cc
void RegisterBuiltinVolumeKinds();           // src/volume/volume.cc
void RegisterBuiltinQueuePolicies();         // src/driver/disk_driver.cc
                                             // RegisterBuiltinIoEngines:
                                             // src/driver/io_engine.cc
                                             // (declared in io_engine.h)
void RegisterBuiltinDiskModels();            // src/disk/disk_model.cc
                                             // RegisterBuiltinFaultActions:
                                             // src/fault/fault_schedule.cc
                                             // (declared in fault_schedule.h)

// One registry per component family; `Traits` names the family (for error
// messages) and the registered value type (a factory, a descriptor struct,
// or a plain enum value). Entries keep registration order, and their
// addresses stay stable across later registrations.
template <typename Traits>
class ComponentRegistry {
 public:
  using Value = typename Traits::Value;

  // Registers `name`, replacing an existing entry of the same name (so user
  // code can shadow a builtin — the builtins are registered first, even when
  // this is the process's first registry call). Register before concurrent
  // lookups begin: replacing an entry while another thread uses its Value is
  // a data race.
  static void Register(std::string name, Value value) {
    EnsureBuiltinComponentsRegistered();
    ComponentRegistry& r = Instance();
    std::lock_guard<std::mutex> lock(r.mu_);
    for (auto& entry : r.entries_) {
      if (entry.first == name) {
        entry.second = std::move(value);
        return;
      }
    }
    r.entries_.emplace_back(std::move(name), std::move(value));
  }

  // The entry registered under `name`, or nullptr. The pointer stays valid
  // for the process lifetime (re-registration replaces the Value in place —
  // see the caveat on Register).
  static const Value* Find(std::string_view name) {
    EnsureBuiltinComponentsRegistered();
    ComponentRegistry& r = Instance();
    std::lock_guard<std::mutex> lock(r.mu_);
    for (const auto& entry : r.entries_) {
      if (entry.first == name) {
        return &entry.second;
      }
    }
    return nullptr;
  }

  static bool Contains(std::string_view name) { return Find(name) != nullptr; }

  // Registered names, in registration order (builtins first).
  static std::vector<std::string> Names() {
    EnsureBuiltinComponentsRegistered();
    ComponentRegistry& r = Instance();
    std::lock_guard<std::mutex> lock(r.mu_);
    std::vector<std::string> names;
    names.reserve(r.entries_.size());
    for (const auto& entry : r.entries_) {
      names.push_back(entry.first);
    }
    return names;
  }

  // "lfs, ffs, guessing" — for error messages.
  static std::string NameList() {
    std::string out;
    for (const std::string& name : Names()) {
      if (!out.empty()) {
        out += ", ";
      }
      out += name;
    }
    return out;
  }

  // The uniform unknown-name error: names the config field, the family, the
  // offending value, and every registered alternative.
  static Status UnknownNameError(std::string_view field, std::string_view name) {
    return Status(ErrorCode::kInvalidArgument,
                  std::string(field) + ": unknown " + Traits::kFamily + " \"" +
                      std::string(name) + "\" (registered: " + NameList() + ")");
  }

 private:
  static ComponentRegistry& Instance() {
    static ComponentRegistry* instance = new ComponentRegistry();
    return *instance;
  }

  std::mutex mu_;
  // deque: stable element addresses while new entries are appended.
  std::deque<std::pair<std::string, Value>> entries_;
};

// ---------------------------------------------------------------------------
// Storage layouts ("lfs", "ffs", "guessing").
// ---------------------------------------------------------------------------

struct LayoutContext {
  Scheduler* sched;
  BlockDev dev;
  const SystemConfig* config;
  int fs_index;
};

struct LayoutFamily {
  static constexpr const char* kFamily = "layout";
  struct Value {
    // Builds file system `ctx.fs_index`'s layout over its volume.
    std::function<std::unique_ptr<StorageLayout>(LayoutContext ctx)> make;
    // Smallest partition (in file-system blocks) this layout formats in.
    std::function<uint64_t(const SystemConfig&)> min_partition_blocks;
    // Layout-specific config checks (e.g. LFS segment size); may be null.
    std::function<Status(const SystemConfig&)> validate;
  };
};
using LayoutRegistry = ComponentRegistry<LayoutFamily>;

// ---------------------------------------------------------------------------
// LFS log cleaners ("greedy", "cost-benefit").
// ---------------------------------------------------------------------------

struct CleanerFamily {
  static constexpr const char* kFamily = "cleaner";
  using Value = std::function<std::unique_ptr<CleanerPolicy>()>;
};
using CleanerRegistry = ComponentRegistry<CleanerFamily>;

// ---------------------------------------------------------------------------
// Cache replacement policies ("LRU", "RANDOM", "LFU", "SLRU", "LRU-2").
// ---------------------------------------------------------------------------

struct ReplacementFamily {
  static constexpr const char* kFamily = "replacement policy";
  using Value = std::function<std::unique_ptr<ReplacementPolicy>(uint64_t seed)>;
};
using ReplacementRegistry = ComponentRegistry<ReplacementFamily>;

// ---------------------------------------------------------------------------
// Cache flush (persistency) policies ("write-delay", "ups", "nvram-whole",
// "nvram-partial").
// ---------------------------------------------------------------------------

struct FlushPolicyOptions {
  uint64_t nvram_bytes = 4 * kMiB;
};

struct FlushPolicyFamily {
  static constexpr const char* kFamily = "flush policy";
  using Value = std::function<std::unique_ptr<FlushPolicy>(const FlushPolicyOptions&)>;
};
using FlushPolicyRegistry = ComponentRegistry<FlushPolicyFamily>;

// ---------------------------------------------------------------------------
// Volume kinds ("single", "concat", "striped", "mirror").
// ---------------------------------------------------------------------------

struct VolumeKindFamily {
  static constexpr const char* kFamily = "volume kind";
  struct Value {
    // Member-count bounds (a mirror of one disk has zero redundancy; a
    // stripe of one serializes on a single spindle).
    size_t min_members = 1;
    size_t max_members = SIZE_MAX;
    // Whether spec.failed_members may be non-empty (degraded-from-setup).
    bool allows_degraded_start = false;
    // Kind-specific spec checks beyond member counts; `field` prefixes error
    // messages ("volumes[3]"). May be null.
    std::function<Status(const VolumeSpec& spec, uint32_t sector_bytes,
                         const std::string& field)>
        validate;
    // Usable capacity (sectors) over member slices of the given sizes, or an
    // error when the spec cannot produce a usable volume.
    std::function<Result<uint64_t>(const std::vector<uint64_t>& member_sectors,
                                   const VolumeSpec& spec, uint32_t sector_bytes,
                                   const std::string& field)>
        capacity_sectors;
    // Assembles the volume named `name` whose members are `slices` (normally
    // disk-driver partitions); it counts into `metrics` under its own name.
    std::function<std::unique_ptr<Volume>(Scheduler* sched, MetricRegistry* metrics,
                                          const std::string& name,
                                          const std::vector<VolumeSliceRef>& slices,
                                          const VolumeSpec& spec, uint32_t sector_bytes)>
        assemble;
  };
};
using VolumeKindRegistry = ComponentRegistry<VolumeKindFamily>;

// ---------------------------------------------------------------------------
// Disk-queue scheduling policies ("FCFS", ..., "C-LOOK"): plain enum values.
// ---------------------------------------------------------------------------

struct QueuePolicyFamily {
  static constexpr const char* kFamily = "queue policy";
  using Value = QueueSchedPolicy;
};
using QueuePolicyRegistry = ComponentRegistry<QueuePolicyFamily>;

// ---------------------------------------------------------------------------
// The I/O engine ("threadpool"): how the file-backed driver's batches reach
// the kernel (io_engine.h). Its one entry is the only name
// `system.io_engine` accepts; pfsbench's device probe makes its engine
// through the factory.
// ---------------------------------------------------------------------------

struct IoEngineFamily {
  static constexpr const char* kFamily = "io engine";
  using Value = std::function<std::unique_ptr<IoEngine>()>;
};
using IoEngineRegistry = ComponentRegistry<IoEngineFamily>;

// ---------------------------------------------------------------------------
// Simulated disk models ("HP97560", "SyntheticTest"): parameter factories,
// keyed by DiskParams::model_name so configs serialize by model name.
// ---------------------------------------------------------------------------

struct DiskModelFamily {
  static constexpr const char* kFamily = "disk model";
  using Value = std::function<DiskParams()>;
};
using DiskModelRegistry = ComponentRegistry<DiskModelFamily>;

// ---------------------------------------------------------------------------
// Fault actions ("fail", "return"): what a scheduled fault event does to its
// target mirror member (fault_schedule.h defines FaultAction).
// ---------------------------------------------------------------------------

struct FaultActionFamily {
  static constexpr const char* kFamily = "fault action";
  using Value = FaultAction;
};
using FaultActionRegistry = ComponentRegistry<FaultActionFamily>;

}  // namespace pfs

#endif  // PFS_SYSTEM_COMPONENT_REGISTRY_H_
