// The declarative system description (the "cut-and-paste" knob): one value
// of SystemConfig names a complete file-server — topology (busses, disks,
// file systems), storage layout, cache and persistency policies, and the
// instantiation mode: simulated helper components (SCSI bus + disk models,
// virtual clock, time-accounting data mover) or the on-line ones (file-backed
// disks, real clock, real memory). SystemBuilder assembles either stack from
// the same description; PatsyServer and PfsServer are thin facades over it.
#ifndef PFS_SYSTEM_SYSTEM_CONFIG_H_
#define PFS_SYSTEM_SYSTEM_CONFIG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "cache/data_mover.h"
#include "core/result.h"
#include "core/units.h"
#include "disk/disk_model.h"

namespace pfs {

// Which helper components back the framework components (paper §2: the
// framework is identical; only the helpers differ between PFS and Patsy).
enum class BackendKind : uint8_t {
  kSimulated,   // ScsiBus + DiskModel behind SimDiskDriver; no real bytes
  kFileBacked,  // Unix files behind FileBackedDriver; real bytes in the cache
};

enum class ClockKind : uint8_t {
  kAuto,     // virtual for kSimulated, real for kFileBacked
  kVirtual,  // time jumps to the next timer expiry when idle
  kReal,     // the host's monotonic clock
};

const char* BackendKindName(BackendKind k);
const char* ClockKindName(ClockKind k);

// One file system's storage volume: which disks back it and how they are
// composed. Disk indices refer to the flattened topology (bus-major order,
// the same numbering as System::drivers()). A disk referenced by several
// volumes is partitioned evenly among them.
struct VolumeSpec {
  std::string kind = "single";  // a registered volume kind (VolumeKindRegistry)
  std::vector<int> members;     // disk indices; "single" takes exactly one
  uint32_t stripe_unit_kb = 64;  // striped only: stripe unit size
  // Mirror only: member positions (0-based within `members`) failed out at
  // setup, so the volume starts degraded — the "mirrored-degraded" scenario.
  std::vector<int> failed_members;
};

// One scheduled fault event in a scenario ("fault<i>.*" keys): at `at_ms`
// on the system clock, apply `action` to member position `member` of
// file-system volume `volume`. Actions resolve by name through
// FaultActionRegistry ("fail", "return"); src/fault turns the validated
// list into a FaultSchedule the FaultInjector daemon replays.
struct FaultSpec {
  uint64_t at_ms = 0;
  int volume = 0;
  int member = 0;
  std::string action = "fail";
};

struct SystemConfig {
  // -- instantiation -------------------------------------------------------
  BackendKind backend = BackendKind::kSimulated;
  ClockKind clock = ClockKind::kAuto;
  uint64_t seed = 42;

  // -- scheduling ----------------------------------------------------------
  // OS-core shards ("system.shards"): each shard is its own scheduler loop
  // (run queue, timer wheel, RNG stream), and with a real clock its own OS
  // thread. 1 = today's single-loop scheduler, bit-for-bit. Virtual-clock
  // shards step in deterministic lockstep (see sched/shard.h).
  int shards = 1;
  // Explicit per-file-system pins ("fs<i>.shard"); -1 (or an index past the
  // end) means the round-robin default f % shards.
  std::vector<int> fs_shards;

  // The shard file system f is pinned to.
  int ShardForFs(int f) const {
    const size_t i = static_cast<size_t>(f);
    const int pinned = i < fs_shards.size() ? fs_shards[i] : -1;
    if (pinned >= 0) {
      return pinned;
    }
    return shards > 0 ? f % shards : 0;
  }

  // -- topology (defaults: the paper's Allspice rebuild) -------------------
  // Simulated: one ScsiBus per entry, entry = disks on that bus.
  // File-backed: busses are not modelled; the total is the disk count.
  std::vector<int> disks_per_bus = {4, 3, 3};
  int num_filesystems = 14;

  // Disks in the topology, numbered bus-major from 0.
  int total_disks() const {
    int total = 0;
    for (int n : disks_per_bus) {
      total += n;
    }
    return total;
  }
  DiskParams disk_params = DiskParams::Hp97560();
  // Disk-queue scheduling policy name (round-trips with
  // QueueSchedPolicyName): FCFS, SSTF, SCAN, C-SCAN, LOOK, or C-LOOK.
  std::string queue_policy = "C-LOOK";

  // Per-file-system volumes (volumes[f] backs file system f). Empty: every
  // file system gets a single-disk volume, round-robin over the disks.
  std::vector<VolumeSpec> volumes;

  // -- fault schedule ------------------------------------------------------
  // Timestamped member faults the FaultInjector replays mid-run (timestamps
  // must be non-decreasing; targets must be mirror volumes). Empty: no
  // injector is built.
  std::vector<FaultSpec> faults;
  // Bandwidth cap on the RebuildDaemon's background copy I/O after a member
  // returns; 0 = uncapped (the rebuild contends at full speed).
  uint32_t rebuild_bw_kbps = 4096;

  // -- file-backed backend -------------------------------------------------
  // Disk 0 uses `image_path` verbatim; disk i > 0 appends ".i".
  std::string image_path;
  std::string disk_image_path(int disk) const {
    return disk == 0 ? image_path : image_path + "." + std::to_string(disk);
  }
  uint64_t image_bytes = 64 * kMiB;  // per disk
  bool format = true;                // format vs mount existing images
  int io_threads = 2;                // blocking-syscall pool size
  // Batch submission engine for file-backed I/O: "threadpool" (portable
  // preadv/pwritev) or "uring" (io_uring; falls back to threadpool when the
  // kernel lacks it). Registry-checked at parse time.
  std::string io_engine = "threadpool";

  // -- storage layout: "lfs" (paper default), "ffs", or "guessing" ---------
  std::string layout = "lfs";
  std::string cleaner = "greedy";  // greedy | cost-benefit
  uint32_t lfs_segment_blocks = 128;
  uint32_t max_inodes = 8192;

  // -- cache ---------------------------------------------------------------
  uint64_t cache_bytes = 48 * kMiB;
  std::string replacement = "LRU";           // LRU|RANDOM|LFU|SLRU|LRU-2
  std::string flush_policy = "write-delay";  // write-delay|ups|nvram-whole|nvram-partial
  uint64_t nvram_bytes = 2 * kMiB;
  bool async_flush = true;  // the §5.2 lesson, applied

  // -- observability -------------------------------------------------------
  struct TraceConfig {
    bool enabled = false;   // request tracing (spans, TraceSink, "trace" stats)
    std::string file;       // chrome trace_event export path ("" = no export)
    uint32_t sample_ms = 0;  // StatsSampler period; 0 = no time-series sampling
    uint32_t ring_capacity = 65536;  // spans per OS-thread ring buffer
  };
  TraceConfig trace;

  // Live metrics plane. Every system counts into a sharded MetricRegistry;
  // `enabled` serves it over HTTP (/metrics, /healthz, /statz on 127.0.0.1).
  struct MetricsConfig {
    bool enabled = false;  // start the HTTP listener and the /statz refresher
    uint32_t port = 0;     // TCP port; 0 = ephemeral (resolved after bind)
    // Prepended to every metric family name ("pfs" -> "pfs_cache_hits_total");
    // parse-checked against [a-zA-Z_][a-zA-Z0-9_]*.
    std::string prefix = "pfs";
  };
  MetricsConfig metrics;

  // -- simulated host (data-copy and per-op CPU accounting) ----------------
  HostModel host;

  // File system f is mounted at "/<mount_prefix><f>".
  std::string mount_prefix = "fs";

  bool simulated() const { return backend == BackendKind::kSimulated; }
  bool virtual_clock() const {
    return clock == ClockKind::kAuto ? simulated() : clock == ClockKind::kVirtual;
  }

  // The defaults above, spelled out: the rebuilt Sprite "Allspice" server of
  // §5.1 under the simulator.
  static SystemConfig AllspiceSim();

  // On-line server defaults: one file-backed disk, one LFS file system, a
  // small cache, real clock.
  static SystemConfig OnlineDefaults();

  // -- the textual scenario API --------------------------------------------
  // A scenario is a flat "key = value" text (one key per line, `#` comments,
  // dotted section prefixes: topology.*, volume<i>.*, image.*, layout.*,
  // cache.*, host.*); ScenarioKeys() below lists every key. Parse rejects
  // unknown keys, unknown component names (enumerating the registered
  // alternatives), malformed values, and duplicate keys — each with the
  // offending line number in the Status. Every field ToString() emits
  // round-trips: Parse(c.ToString()) rebuilds a config equal to `c`.
  // DiskParams round-trip by registered model name (topology.disk_model);
  // hand-mutated parameter structs do not serialize.
  static Result<SystemConfig> Parse(const std::string& text);
  std::string ToString() const;
};

// The largest accepted "system.shards" value.
inline constexpr int kMaxShards = 64;

// -- scenario keys -------------------------------------------------------------
// Every scenario key is one row of one table, ScenarioKeys(): the key, the
// SystemConfig field it sets, its value type, its validation rule, how it
// prints, and a one-line doc. Parse, ToString, `run_scenario --list-keys`
// (ScenarioKeyReference) and config_test's randomized round trip all read
// the table, so a new key is one row.

enum class KeyType : uint8_t {
  kBytes,    // digits with an optional KiB/MiB/GiB suffix
  kUint,     // digits in [min, max]
  kBool,     // true | false
  kString,   // the rest of the line, trimmed
  kName,     // a registered component name
  kIntList,  // comma-separated non-negative integers: "4, 3, 3"
  kEnum,     // one of a fixed set of names
};

// The field a key sets (SystemConfig::<field>, or a family member's).
using FieldRef = std::variant<uint64_t*, uint32_t*, int*, Duration*, bool*, std::string*,
                              std::vector<int>*, DiskParams*, BackendKind*, ClockKind*>;

// The accepted values of a kName or kEnum key, and the registry's rejection
// of any other (null for enums).
struct NameSet {
  std::vector<std::string> (*choices)();
  Status (*unknown)(std::string_view key, std::string_view value);
};

struct ScenarioKey {
  // "cache.bytes"; an indexed family's rows read "volume<i>.kind": <i> is
  // the member's 0-based index.
  const char* key;
  KeyType type;
  bool plain = false;  // kBytes printed as digits, not "48MiB"
  FieldRef (*field)(SystemConfig& config, size_t index);
  // kBytes/kUint: the accepted range; a value below `min` is rejected with
  // "<key>: <below_min>".
  uint64_t min = 0;
  uint64_t max = UINT64_MAX;
  const char* below_min = "";
  const NameSet* names = nullptr;  // kName/kEnum
  // kString: a rule on the value, returning the full rejection.
  Status (*rule)(const std::string& key, const std::string& value) = nullptr;
  bool optional = false;     // ToString leaves out an empty list or a negative int
  const char* alias = "";    // a legacy spelling Parse also accepts
  const char* section = "";  // ToString opens a "# <section>" block here
  const char* doc = "";
};

// Every scenario key, in ToString order.
const std::vector<ScenarioKey>& ScenarioKeys();

// Each plain key's `min` and `rule` on a config built in code (Parse checks
// them line by line).
Status CheckScenarioKeys(const SystemConfig& config);

// What `run_scenario --list-keys` prints: every key, its values, its
// default, and its doc.
std::string ScenarioKeyReference();

// Effective per-file-system volume specs: config.volumes, or the default
// round-robin single-disk spec per file system when none are given. Shared
// by SystemBuilder's placement planning and the shard cross-checks.
std::vector<VolumeSpec> EffectiveVolumeSpecs(const SystemConfig& config);

// Which shard owns each physical disk (index = flattened bus-major disk
// index): the shard of the first file system whose volume references the
// disk. The simulated backend assigns whole busses at a time — one bus's
// DiskModel/driver coroutines all live on one loop — so every disk on a bus
// inherits the bus's first claimant. Unreferenced disks (and busses) fall to
// shard 0. A file system pinned elsewhere reaches foreign disks through a
// CrossShardDevice proxy.
std::vector<int> DiskShardOwners(const SystemConfig& config);

// Shard cross-checks shared by Parse (which maps `key` back to the scenario
// line that set it) and SystemBuilder::Validate (which reports `key`
// verbatim): shard counts in [1, kMaxShards], fs pins inside the shard and
// file-system ranges, virtual-clock-only simulated sharding, and
// shard-local mirror members.
struct ShardSpecError {
  std::string key;  // "system.shards" or "fs<i>.shard"
  std::string message;
};
std::optional<ShardSpecError> CheckShardSpecs(const SystemConfig& config);

// Reads and parses one scenario file; errors are prefixed with the path.
Result<SystemConfig> LoadScenarioFile(const std::string& path);

// The shared "--config <file>" command-line convention of the benches and
// examples: `scenario` is the loaded file when the flag was given, and
// `positional` collects every other argument in order. A --config with no
// value, or an unloadable file, is an error — a tool silently falling back
// to its default config would report the wrong system's results.
struct ScenarioArgs {
  std::optional<SystemConfig> scenario;
  std::vector<std::string> positional;
};
Result<ScenarioArgs> ParseScenarioArgs(int argc, char** argv);

}  // namespace pfs

#endif  // PFS_SYSTEM_SYSTEM_CONFIG_H_
