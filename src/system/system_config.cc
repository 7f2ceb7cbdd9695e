// SystemConfig's textual scenario API: Parse/ToString over a flat
// "key = value" format, so a complete file-server composition is a text file
// (examples/scenarios/) instead of compiled C++. Component names are checked
// against the registries at parse time, with the registered alternatives
// enumerated in every rejection.
#include "system/system_config.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <type_traits>
#include <variant>

#include "fault/fault_schedule.h"
#include "obs/metrics.h"
#include "system/component_registry.h"

namespace pfs {

const char* BackendKindName(BackendKind k) {
  switch (k) {
    case BackendKind::kSimulated:
      return "simulated";
    case BackendKind::kFileBacked:
      return "file-backed";
  }
  return "?";
}

const char* ClockKindName(ClockKind k) {
  switch (k) {
    case ClockKind::kAuto:
      return "auto";
    case ClockKind::kVirtual:
      return "virtual";
    case ClockKind::kReal:
      return "real";
  }
  return "?";
}

SystemConfig SystemConfig::AllspiceSim() { return SystemConfig{}; }

SystemConfig SystemConfig::OnlineDefaults() {
  SystemConfig config;
  config.backend = BackendKind::kFileBacked;
  config.seed = 1;
  config.disks_per_bus = {1};
  config.num_filesystems = 1;
  config.cache_bytes = 8 * kMiB;
  config.lfs_segment_blocks = 64;
  config.max_inodes = 4096;
  return config;
}

namespace {

Status Invalid(const std::string& message) {
  return Status(ErrorCode::kInvalidArgument, message);
}

Status LineError(int line, const std::string& message) {
  return Invalid("line " + std::to_string(line) + ": " + message);
}

std::string Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])) != 0) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) {
    --end;
  }
  return std::string(s.substr(begin, end - begin));
}

// "48MiB" / "64KiB" / "1GiB" / "123": byte counts take an optional binary
// suffix; every other number is plain digits.
Result<uint64_t> ParseBytes(const std::string& value) {
  uint64_t multiplier = 1;
  std::string digits = value;
  const auto suffix_at = value.find_first_not_of("0123456789");
  if (suffix_at != std::string::npos) {
    const std::string suffix = value.substr(suffix_at);
    digits = value.substr(0, suffix_at);
    if (suffix == "KiB") {
      multiplier = kKiB;
    } else if (suffix == "MiB") {
      multiplier = kMiB;
    } else if (suffix == "GiB") {
      multiplier = kGiB;
    } else {
      return Invalid("\"" + value +
                     "\" is not a byte count (digits + optional KiB/MiB/GiB)");
    }
  }
  if (digits.empty()) {
    return Invalid("\"" + value + "\" is not a byte count");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(digits.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return Invalid("\"" + value + "\" is not a number");
  }
  if (parsed > UINT64_MAX / multiplier) {
    return Invalid("\"" + value + "\" overflows a 64-bit byte count");
  }
  return static_cast<uint64_t>(parsed) * multiplier;
}

// Bounded integer fields: a value the target field cannot hold is an error,
// never a silent truncation.
Result<uint64_t> ParseUint(const std::string& value, uint64_t max) {
  if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos) {
    return Invalid("\"" + value + "\" is not a non-negative integer");
  }
  PFS_ASSIGN_OR_RETURN(const uint64_t parsed, ParseBytes(value));
  if (parsed > max) {
    return Invalid("\"" + value + "\" is out of range (max " + std::to_string(max) + ")");
  }
  return parsed;
}

Result<bool> ParseBool(const std::string& value) {
  if (value == "true") {
    return true;
  }
  if (value == "false") {
    return false;
  }
  return Invalid("\"" + value + "\" is not a boolean (true or false)");
}

// "4, 3, 3" -> {4, 3, 3}; used for disk lists and member lists.
Result<std::vector<int>> ParseIntList(const std::string& value) {
  std::vector<int> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const std::string trimmed = Trim(item);
    PFS_ASSIGN_OR_RETURN(const uint64_t n, ParseUint(trimmed, UINT64_MAX));
    if (n > INT32_MAX) {
      return Invalid("\"" + trimmed + "\" is out of range");
    }
    out.push_back(static_cast<int>(n));
  }
  if (out.empty()) {
    return Invalid("\"" + value + "\" is not a comma-separated integer list");
  }
  return out;
}

std::string FormatBytes(uint64_t bytes) {
  if (bytes != 0 && bytes % kGiB == 0) {
    return std::to_string(bytes / kGiB) + "GiB";
  }
  if (bytes != 0 && bytes % kMiB == 0) {
    return std::to_string(bytes / kMiB) + "MiB";
  }
  if (bytes != 0 && bytes % kKiB == 0) {
    return std::to_string(bytes / kKiB) + "KiB";
  }
  return std::to_string(bytes);
}

std::string Join(const std::vector<std::string>& items, const char* separator) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) {
      out += separator;
    }
    out += item;
  }
  return out;
}

std::string JoinInts(const std::vector<int>& values) {
  std::vector<std::string> items;
  for (int v : values) {
    items.push_back(std::to_string(v));
  }
  return Join(items, ", ");
}

// "a or b", "a, b, or c".
std::string JoinOr(std::vector<std::string> items) {
  items.back() = "or " + items.back();
  return Join(items, items.size() > 2 ? ", " : " ");
}

// "volume3.members" -> {3, "members"} for prefix "volume"; nullopt when the
// key is not a <prefix><i>.* key.
struct IndexedKey {
  size_t index;
  std::string field;
};

std::optional<IndexedKey> ParseIndexedKey(const std::string& key, std::string_view prefix) {
  if (key.rfind(prefix, 0) != 0) {
    return std::nullopt;
  }
  const size_t dot = key.find('.');
  if (dot == std::string::npos || dot <= prefix.size()) {
    return std::nullopt;
  }
  const std::string digits = key.substr(prefix.size(), dot - prefix.size());
  // The digit-count bound keeps stoull from throwing out_of_range; an index
  // this large is a typo, and the unknown-key error names the line.
  if (digits.size() > 6 || digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return IndexedKey{static_cast<size_t>(std::stoull(digits)), key.substr(dot + 1)};
}

// -- the indexed families ------------------------------------------------------

// Which SystemConfig vector holds a family's members, and the rules on them.
struct Family {
  std::string_view prefix;  // "volume" for the volume<i>.* rows
  bool contiguous;          // members are numbered 0..n-1
  bool every_key_required;  // each member sets every key of the family
  size_t (*size)(const SystemConfig&);
  void (*resize)(SystemConfig&, size_t);
};

const Family kFamilies[] = {
    {"volume", true, false, [](const SystemConfig& c) { return c.volumes.size(); },
     [](SystemConfig& c, size_t n) { c.volumes.resize(n); }},
    {"fault", true, true, [](const SystemConfig& c) { return c.faults.size(); },
     [](SystemConfig& c, size_t n) { c.faults.resize(n); }},
    {"fs", false, false, [](const SystemConfig& c) { return c.fs_shards.size(); },
     [](SystemConfig& c, size_t n) { c.fs_shards.resize(n, -1); }},
};

// "volume<i>.kind" -> {the volume family, "kind"}; a plain key -> {null, key}.
std::pair<const Family*, std::string_view> SplitKey(const ScenarioKey& row) {
  const std::string_view key = row.key;
  const size_t marker = key.find("<i>.");
  for (const Family& family : kFamilies) {
    if (marker != std::string_view::npos && key.substr(0, marker) == family.prefix) {
      return {&family, key.substr(marker + 4)};
    }
  }
  return {nullptr, key};
}

const Family* FamilyOf(const ScenarioKey& row) { return SplitKey(row).first; }

// The key of family member `index`: "volume3.kind".
std::string KeyOf(const ScenarioKey& row, size_t index) {
  const auto [family, field] = SplitKey(row);
  if (family == nullptr) {
    return row.key;
  }
  return std::string(family->prefix) + std::to_string(index) + "." + std::string(field);
}

// The family's fields, in table order ("kind, members, ...").
std::string FamilyFields(const Family& family) {
  std::vector<std::string> fields;
  for (const ScenarioKey& row : ScenarioKeys()) {
    if (FamilyOf(row) == &family) {
      fields.emplace_back(SplitKey(row).second);
    }
  }
  return Join(fields, ", ");
}

// A written key's row, and the family member it names (0 for a plain key).
Result<std::pair<const ScenarioKey*, size_t>> MatchKey(const std::string& key) {
  for (const ScenarioKey& row : ScenarioKeys()) {
    if (key == row.key || key == row.alias) {
      return std::pair(&row, size_t{0});
    }
  }
  for (const Family& family : kFamilies) {
    const std::optional<IndexedKey> member = ParseIndexedKey(key, family.prefix);
    if (!member.has_value()) {
      continue;
    }
    for (const ScenarioKey& row : ScenarioKeys()) {
      if (SplitKey(row) == std::pair(&family, std::string_view(member->field))) {
        return std::pair(&row, member->index);
      }
    }
    return Invalid("unknown key \"" + key + "\" (" + std::string(family.prefix) +
                   " keys: " + FamilyFields(family) + ")");
  }
  return Invalid("unknown key \"" + key + "\"");
}

// -- reading and writing one field --------------------------------------------

// The enumerators of E, named by `kName`: the choices of an enum key.
template <typename E, int kCount, const char* (*kName)(E)>
std::vector<std::string> EnumNames() {
  std::vector<std::string> names;
  for (int v = 0; v < kCount; ++v) {
    names.emplace_back(kName(static_cast<E>(v)));
  }
  return names;
}

template <typename R>
constexpr NameSet kRegistered = {&R::Names, &R::UnknownNameError};
constexpr NameSet kBackends = {&EnumNames<BackendKind, 2, BackendKindName>, nullptr};
constexpr NameSet kClocks = {&EnumNames<ClockKind, 3, ClockKindName>, nullptr};

// Parses `value` into the field and applies the row's rules; `key` is the
// key as written, for messages.
Status SetField(const ScenarioKey& row, const FieldRef& field, const std::string& key,
                const std::string& value) {
  uint64_t n = 0;
  if (row.type == KeyType::kBytes || row.type == KeyType::kUint) {
    PFS_ASSIGN_OR_RETURN(n, row.type == KeyType::kBytes ? ParseBytes(value)
                                                        : ParseUint(value, row.max));
    if (n < row.min) {
      return Invalid(key + ": " + row.below_min);
    }
  }
  size_t choice = 0;
  if (row.names != nullptr) {
    const std::vector<std::string> names = row.names->choices();
    choice = static_cast<size_t>(std::find(names.begin(), names.end(), value) -
                                 names.begin());
    if (choice == names.size() && row.names->unknown != nullptr) {
      return row.names->unknown(key, value);
    }
    if (choice == names.size()) {
      return Invalid(key + ": unknown " + key + " \"" + value + "\" (expected " +
                     JoinOr(names) + ")");
    }
  }
  return std::visit(
      [&](auto* p) -> Status {
        using T = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_same_v<T, bool>) {
          PFS_ASSIGN_OR_RETURN(*p, ParseBool(value));
        } else if constexpr (std::is_same_v<T, std::vector<int>>) {
          PFS_ASSIGN_OR_RETURN(*p, ParseIntList(value));
        } else if constexpr (std::is_same_v<T, std::string>) {
          *p = value;
          if (row.rule != nullptr) {
            return row.rule(key, value);
          }
        } else if constexpr (std::is_same_v<T, DiskParams>) {
          *p = (*DiskModelRegistry::Find(value))();
        } else if constexpr (std::is_enum_v<T>) {
          *p = static_cast<T>(choice);
        } else if constexpr (std::is_same_v<T, Duration>) {
          *p = Duration::Nanos(static_cast<int64_t>(n));
        } else {
          *p = static_cast<T>(n);
        }
        return OkStatus();
      },
      field);
}

// The field as ToString prints it, or nullopt when an optional key is unset.
std::optional<std::string> PrintField(const ScenarioKey& row, const FieldRef& field) {
  return std::visit(
      [&row](auto* p) -> std::optional<std::string> {
        using T = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_same_v<T, bool>) {
          return *p ? "true" : "false";
        } else if constexpr (std::is_same_v<T, std::string>) {
          return *p;
        } else if constexpr (std::is_same_v<T, std::vector<int>>) {
          return row.optional && p->empty() ? std::nullopt : std::optional(JoinInts(*p));
        } else if constexpr (std::is_same_v<T, DiskParams>) {
          return p->model_name;
        } else if constexpr (std::is_enum_v<T>) {
          // "?" for a value outside the enumerators, like BackendKindName.
          const std::vector<std::string> names = row.names->choices();
          const auto v = static_cast<size_t>(*p);
          return v < names.size() ? names[v] : "?";
        } else if constexpr (std::is_same_v<T, Duration>) {
          return std::to_string(p->nanos());
        } else if constexpr (std::is_signed_v<T>) {
          if (row.optional && *p < 0) {
            return std::nullopt;
          }
          return std::to_string(*p);
        } else if (row.type == KeyType::kBytes && !row.plain) {
          return FormatBytes(*p);
        } else {
          return std::to_string(*p);
        }
      },
      field);
}

Status NonEmpty(const std::string& key, const std::string& value) {
  return value.empty() ? Invalid(key + ": must not be empty") : OkStatus();
}

Status MetricPrefix(const std::string& key, const std::string& value) {
  if (ValidMetricPrefix(value)) {
    return OkStatus();
  }
  return Invalid(key + " must match [a-zA-Z_][a-zA-Z0-9_]* (got \"" + value + "\")");
}

}  // namespace

// A row's field: `i` is the member of an indexed family's row.
#define FIELD(expr) \
  [](SystemConfig& c, [[maybe_unused]] size_t i) -> FieldRef { return &(expr); }

const std::vector<ScenarioKey>& ScenarioKeys() {
  using enum KeyType;
  static const std::vector<ScenarioKey> keys = {
      {.key = "backend", .type = kEnum, .field = FIELD(c.backend), .names = &kBackends,
       .doc = "Disk models behind a SCSI bus, or Unix files holding real bytes"},
      {.key = "clock", .type = kEnum, .field = FIELD(c.clock), .names = &kClocks,
       .doc = "auto: virtual for the simulated backend, real for file-backed"},
      {.key = "seed", .type = kUint, .field = FIELD(c.seed),
       .doc = "Seeds the random scheduling policy and every shard's RNG stream"},
      {.key = "mount_prefix", .type = kString, .field = FIELD(c.mount_prefix),
       .rule = NonEmpty, .doc = "File system i is mounted at /<mount_prefix><i>"},

      {.key = "system.shards", .type = kUint, .field = FIELD(c.shards), .min = 1,
       .max = kMaxShards, .below_min = "at least one shard is required",
       .section = "scheduling",
       .doc = "Scheduler loops; on the real clock each runs on its own OS thread"},
      {.key = "fs<i>.shard", .type = kUint, .field = FIELD(c.fs_shards[i]),
       .max = kMaxShards - 1, .optional = true,
       .doc = "The shard file system i is pinned to (default: i % system.shards)"},

      {.key = "topology.disks_per_bus", .type = kIntList, .field = FIELD(c.disks_per_bus),
       .section = "topology",
       .doc = "Disks on each bus; the file-backed backend sums them"},
      {.key = "topology.num_filesystems", .type = kUint,
       .field = FIELD(c.num_filesystems), .max = INT32_MAX,
       .doc = "File systems; by default each gets one disk, round-robin"},
      {.key = "topology.disk_model", .type = kName, .field = FIELD(c.disk_params),
       .names = &kRegistered<DiskModelRegistry>, .doc = "Simulated disk mechanism"},
      {.key = "topology.queue_policy", .type = kName, .field = FIELD(c.queue_policy),
       .names = &kRegistered<QueuePolicyRegistry>, .doc = "Disk-queue scheduling policy"},

      {.key = "volume<i>.kind", .type = kName, .field = FIELD(c.volumes[i].kind),
       .names = &kRegistered<VolumeKindRegistry>, .section = "per-file-system volumes",
       .doc = "How file system i's volume composes its member disks"},
      {.key = "volume<i>.members", .type = kIntList, .field = FIELD(c.volumes[i].members),
       .doc = "Disk indices (bus-major) of file system i's volume"},
      {.key = "volume<i>.stripe_unit_kb", .type = kUint,
       .field = FIELD(c.volumes[i].stripe_unit_kb), .max = UINT32_MAX,
       .doc = "Stripe unit"},
      {.key = "volume<i>.failed_members", .type = kIntList,
       .field = FIELD(c.volumes[i].failed_members), .optional = true,
       .doc = "Mirror member positions failed at setup: the mirror starts degraded"},

      {.key = "fault.rebuild_bw_kbps", .type = kUint, .field = FIELD(c.rebuild_bw_kbps),
       .max = UINT32_MAX, .section = "fault schedule",
       .doc = "Bandwidth cap on rebuild copy I/O after a member returns; 0 = none"},
      {.key = "fault<i>.at_ms", .type = kUint, .field = FIELD(c.faults[i].at_ms),
       .max = kMaxFaultAtMs,
       .doc = "When fault i fires, in system-clock ms (non-decreasing)"},
      {.key = "fault<i>.volume", .type = kUint, .field = FIELD(c.faults[i].volume),
       .max = INT32_MAX, .doc = "The mirror volume fault i targets"},
      {.key = "fault<i>.member", .type = kUint, .field = FIELD(c.faults[i].member),
       .max = INT32_MAX, .doc = "The member position within that volume"},
      {.key = "fault<i>.action", .type = kName, .field = FIELD(c.faults[i].action),
       .names = &kRegistered<FaultActionRegistry>,
       .doc = "What fault i does to the member"},

      {.key = "image.path", .type = kString, .field = FIELD(c.image_path),
       .section = "file-backed backend",
       .doc = "Disk 0's image; disk i > 0 appends .<i>"},
      {.key = "image.bytes", .type = kBytes, .field = FIELD(c.image_bytes),
       .doc = "Size of each disk image"},
      {.key = "image.format", .type = kBool, .field = FIELD(c.format),
       .doc = "Format the images (false: mount existing ones)"},
      {.key = "system.io_threads", .type = kUint, .field = FIELD(c.io_threads),
       .max = INT32_MAX, .alias = "image.io_threads", .doc = "Blocking-syscall threads"},
      {.key = "system.io_engine", .type = kName, .field = FIELD(c.io_engine),
       .names = &kRegistered<IoEngineRegistry>, .doc = "Batch submission engine"},

      {.key = "layout.name", .type = kName, .field = FIELD(c.layout),
       .names = &kRegistered<LayoutRegistry>, .section = "storage layout",
       .doc = "Layout"},
      {.key = "layout.cleaner", .type = kName, .field = FIELD(c.cleaner),
       .names = &kRegistered<CleanerRegistry>, .doc = "LFS segment cleaner policy"},
      {.key = "layout.lfs_segment_blocks", .type = kUint,
       .field = FIELD(c.lfs_segment_blocks), .max = UINT32_MAX,
       .doc = "Blocks per LFS segment"},
      {.key = "layout.max_inodes", .type = kUint, .field = FIELD(c.max_inodes),
       .max = UINT32_MAX, .doc = "Inodes per file system"},

      {.key = "cache.bytes", .type = kBytes, .field = FIELD(c.cache_bytes),
       .section = "cache",
       .doc = "Cache budget of the whole server, split evenly across shards"},
      {.key = "cache.replacement", .type = kName, .field = FIELD(c.replacement),
       .names = &kRegistered<ReplacementRegistry>, .doc = "Replacement policy"},
      {.key = "cache.flush_policy", .type = kName, .field = FIELD(c.flush_policy),
       .names = &kRegistered<FlushPolicyRegistry>,
       .doc = "When dirty blocks are written"},
      {.key = "cache.nvram_bytes", .type = kBytes, .field = FIELD(c.nvram_bytes),
       .doc = "NVRAM size of the nvram-* flush policies"},
      {.key = "cache.async_flush", .type = kBool, .field = FIELD(c.async_flush),
       .doc = "Write dirty blocks back off the writer's path"},

      {.key = "trace.enabled", .type = kBool, .field = FIELD(c.trace.enabled),
       .section = "observability",
       .doc = "Request tracing: spans, trace stats, Chrome export"},
      {.key = "trace.file", .type = kString, .field = FIELD(c.trace.file),
       .doc = "Chrome trace_event export path (empty: no export)"},
      {.key = "trace.sample_ms", .type = kUint, .field = FIELD(c.trace.sample_ms),
       .max = UINT32_MAX, .doc = "StatsSampler period; 0 = no sampling"},
      {.key = "trace.ring_capacity", .type = kUint, .field = FIELD(c.trace.ring_capacity),
       .max = UINT32_MAX, .doc = "Spans per OS-thread ring buffer"},
      {.key = "metrics.enabled", .type = kBool, .field = FIELD(c.metrics.enabled),
       .doc = "Serve the registry: /metrics, /healthz, /statz listener"},
      {.key = "metrics.port", .type = kUint, .field = FIELD(c.metrics.port), .max = 65535,
       .doc = "Listener port on 127.0.0.1; 0 = ephemeral"},
      {.key = "metrics.prefix", .type = kString, .field = FIELD(c.metrics.prefix),
       .rule = MetricPrefix, .doc = "Prefix of every metric family name"},

      {.key = "host.mem_bandwidth_bytes_per_sec", .type = kBytes, .plain = true,
       .field = FIELD(c.host.mem_bandwidth_bytes_per_sec), .min = 1,
       .below_min = "must be at least 1 byte per second",
       .section = "simulated host model", .doc = "Simulated buffer-copy bandwidth"},
      {.key = "host.per_op_cpu_ns", .type = kUint, .field = FIELD(c.host.per_op_cpu),
       .max = INT64_MAX,
       .doc = "Simulated CPU cost of decoding and dispatching a request"},

  };
  return keys;
}

#undef FIELD

Status CheckScenarioKeys(const SystemConfig& config) {
  // Re-reads every key that has a rule from its printed value, so a config
  // built in code meets the rules a scenario line does.
  SystemConfig fields = config;  // row accessors take a mutable config
  SystemConfig scratch;
  for (const ScenarioKey& row : ScenarioKeys()) {
    if (FamilyOf(row) == nullptr && (row.min > 0 || row.rule != nullptr)) {
      PFS_RETURN_IF_ERROR(SetField(row, row.field(scratch, 0), row.key,
                                   *PrintField(row, row.field(fields, 0))));
    }
  }
  return OkStatus();
}

Result<SystemConfig> SystemConfig::Parse(const std::string& text) {
  SystemConfig config;
  // Every member of a contiguous family takes a line of its own, so one
  // numbered past the line count can never complete its family: its value
  // is checked on this scratch config instead of growing `config` to it.
  SystemConfig scratch;
  const size_t line_count =
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  std::set<std::string> seen_keys;
  // The line that set each key (family members with canonical indices), so
  // the post-parse cross-checks can point at the offending line.
  std::map<std::string, int> key_lines;
  std::map<const Family*, std::set<size_t>> members;

  std::stringstream lines(text);
  std::string raw_line;
  int line_no = 0;
  while (std::getline(lines, raw_line)) {
    ++line_no;
    const size_t comment = raw_line.find('#');
    if (comment != std::string::npos) {
      raw_line.resize(comment);
    }
    const std::string line = Trim(raw_line);
    if (line.empty()) {
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return LineError(line_no, "expected \"key = value\", got \"" + line + "\"");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (key.empty()) {
      return LineError(line_no, "empty key");
    }
    const auto match = MatchKey(key);
    // "image.io_threads" is the legacy spelling of "system.io_threads"; fold
    // them together so a scenario can't set the same knob twice.
    const bool alias = match.ok() && key == match->first->alias;
    if (!seen_keys.insert(alias ? match->first->key : key).second) {
      return LineError(line_no, "duplicate key \"" + key + "\"");
    }
    if (!match.ok()) {
      return LineError(line_no, match.status().message());
    }
    const ScenarioKey& row = *match->first;
    SystemConfig* target = &config;
    size_t index = match->second;
    if (const Family* family = FamilyOf(row); family != nullptr) {
      members[family].insert(index);
      if (family->contiguous && index >= line_count) {
        target = &scratch;
        index = 0;
      }
      if (family->size(*target) <= index) {
        family->resize(*target, index + 1);
      }
    }
    key_lines[KeyOf(row, match->second)] = line_no;
    const Status status = SetField(row, row.field(*target, index), key, value);
    if (!status.ok()) {
      return LineError(line_no, status.message());
    }
  }

  for (const Family& family : kFamilies) {
    const std::set<size_t>& present = members[&family];
    if (!family.contiguous || present.empty()) {
      continue;
    }
    const std::string prefix(family.prefix);
    for (size_t i = 0; i <= *present.rbegin(); ++i) {
      if (present.count(i) == 0) {
        return Invalid(prefix + std::to_string(i) + ": missing (" + prefix +
                       " indices must be contiguous from 0)");
      }
      for (const ScenarioKey& row : ScenarioKeys()) {
        if (family.every_key_required && FamilyOf(row) == &family &&
            key_lines.count(KeyOf(row, i)) == 0) {
          return Invalid(KeyOf(row, i) + ": missing (every " + prefix + " needs " +
                         FamilyFields(family) + ")");
        }
      }
    }
  }
  if (!config.faults.empty()) {
    // Cross-field checks (volume/member ranges, mirror-kind targets,
    // monotonic timestamps) run against the finished config; errors point
    // back at the scenario line that set the offending field.
    if (auto error = CheckFaultSpecs(config); error.has_value()) {
      const std::string key = "fault" + std::to_string(error->fault) + "." + error->field;
      return LineError(key_lines[key], key + ": " + error->message);
    }
  }
  if (auto error = CheckShardSpecs(config); error.has_value()) {
    // Blame the line that set the key. A violation can also arise from a key
    // the scenario never wrote (a round-robin default pin conflicting with a
    // mirror): blame the system.shards line then, since sharding introduced
    // the conflict.
    auto it = key_lines.find(error->key);
    if (it == key_lines.end()) {
      it = key_lines.find("system.shards");
    }
    if (it == key_lines.end()) {
      return Invalid(error->key + ": " + error->message);
    }
    return LineError(it->second, error->key + ": " + error->message);
  }
  return config;
}

std::string SystemConfig::ToString() const {
  SystemConfig fields = *this;  // row accessors take a mutable config
  const std::vector<ScenarioKey>& keys = ScenarioKeys();
  std::string out = "# pfs scenario (SystemConfig::ToString)\n";
  for (size_t first = 0; first < keys.size();) {
    // One block: a plain key, or every key of an indexed family, member by
    // member. A block that prints nothing drops its section comment too.
    const Family* family = FamilyOf(keys[first]);
    size_t end = first + 1;
    while (family != nullptr && end < keys.size() && FamilyOf(keys[end]) == family) {
      ++end;
    }
    std::string block;
    for (size_t i = 0; i < (family != nullptr ? family->size(fields) : 1); ++i) {
      for (size_t k = first; k < end; ++k) {
        const std::optional<std::string> value =
            PrintField(keys[k], keys[k].field(fields, i));
        if (value.has_value()) {
          block += KeyOf(keys[k], i) + " = " + *value + "\n";
        }
      }
    }
    if (!block.empty() && *keys[first].section != '\0') {
      out += "\n# " + std::string(keys[first].section) + "\n";
    }
    out += block;
    first = end;
  }
  return out;
}

std::string ScenarioKeyReference() {
  // Indexed by KeyType; names (kName, kEnum) are listed from the table.
  static const char* const kValues[] = {"<bytes>[KiB|MiB|GiB]", "<integer>",
                                        "true | false",          "<text>",
                                        "",                      "<n>, <n>, ...",
                                        ""};
  SystemConfig defaults;
  std::string out =
      "# Scenario keys: one \"key = value\" per line; '#' starts a comment.\n"
      "# <i> numbers the members of an indexed family from 0.\n";
  for (const ScenarioKey& row : ScenarioKeys()) {
    std::string values = kValues[static_cast<size_t>(row.type)];
    if (row.names != nullptr) {
      values = Join(row.names->choices(), " | ");
    } else if (row.type == KeyType::kUint && row.max != UINT64_MAX) {
      values = std::to_string(row.min) + ".." + std::to_string(row.max);
    }
    out += "\n" + std::string(row.key) + " = " + values;
    if (FamilyOf(row) == nullptr) {
      out += "  [default: " + PrintField(row, row.field(defaults, 0)).value_or("") + "]";
    }
    if (*row.alias != '\0') {
      out += "  (alias: " + std::string(row.alias) + ")";
    }
    out += "\n    " + std::string(row.doc) + "\n";
  }
  return out;
}

std::vector<VolumeSpec> EffectiveVolumeSpecs(const SystemConfig& config) {
  if (!config.volumes.empty()) {
    return config.volumes;
  }
  const int total_disks = config.total_disks();
  std::vector<VolumeSpec> specs(
      static_cast<size_t>(std::max(config.num_filesystems, 0)));
  if (total_disks <= 0) {
    return specs;
  }
  for (int f = 0; f < config.num_filesystems; ++f) {
    specs[static_cast<size_t>(f)].members = {f % total_disks};
  }
  return specs;
}

std::vector<int> DiskShardOwners(const SystemConfig& config) {
  const int total_disks = config.total_disks();
  std::vector<int> owner(static_cast<size_t>(std::max(total_disks, 0)), -1);
  const std::vector<VolumeSpec> specs = EffectiveVolumeSpecs(config);
  const int fs_count =
      std::min(config.num_filesystems, static_cast<int>(specs.size()));
  for (int f = 0; f < fs_count; ++f) {
    const int s = config.ShardForFs(f);
    for (int d : specs[static_cast<size_t>(f)].members) {
      if (d >= 0 && d < total_disks && owner[static_cast<size_t>(d)] < 0) {
        owner[static_cast<size_t>(d)] = s;
      }
    }
  }
  if (config.simulated()) {
    // Whole busses at a time: the first claimed disk on a bus claims the bus,
    // so one bus's DiskModel/ScsiBus/driver coroutines stay on one loop.
    size_t base = 0;
    for (int n : config.disks_per_bus) {
      int bus_owner = -1;
      for (int d = 0; d < n; ++d) {
        if (owner[base + static_cast<size_t>(d)] >= 0) {
          bus_owner = owner[base + static_cast<size_t>(d)];
          break;
        }
      }
      for (int d = 0; d < n; ++d) {
        owner[base + static_cast<size_t>(d)] = bus_owner;
      }
      base += static_cast<size_t>(n);
    }
  }
  for (int& o : owner) {
    if (o < 0) {
      o = 0;
    }
  }
  return owner;
}

std::optional<ShardSpecError> CheckShardSpecs(const SystemConfig& config) {
  if (config.shards < 1 || config.shards > kMaxShards) {
    return ShardSpecError{"system.shards",
                          "must be between 1 and " + std::to_string(kMaxShards) + ", got " +
                              std::to_string(config.shards)};
  }
  const std::string valid_shards =
      config.shards == 1 ? std::string("the only valid shard is 0")
                         : "valid shards are 0.." + std::to_string(config.shards - 1);
  for (size_t f = 0; f < config.fs_shards.size(); ++f) {
    const int s = config.fs_shards[f];
    if (s < 0) {
      continue;  // round-robin default
    }
    const std::string key = "fs" + std::to_string(f) + ".shard";
    if (static_cast<int>(f) >= config.num_filesystems) {
      return ShardSpecError{key, "file system index " + std::to_string(f) +
                                     " outside topology.num_filesystems = " +
                                     std::to_string(config.num_filesystems)};
    }
    if (s >= config.shards) {
      return ShardSpecError{key, "shard " + std::to_string(s) +
                                     " does not exist (system.shards = " +
                                     std::to_string(config.shards) + "; " + valid_shards + ")"};
    }
  }
  if (config.shards == 1) {
    return std::nullopt;  // single loop: nothing can cross shards
  }
  if (config.simulated() && !config.virtual_clock()) {
    return ShardSpecError{"system.shards",
                          "the sharded simulated backend needs the virtual clock (a real "
                          "clock would step disk mechanisms on multiple loops "
                          "nondeterministically)"};
  }
  // A mirror's members must all live on the mirror's own shard: mirror writes
  // fan out to every member and the rebuild daemon copies member-to-member,
  // so a cross-shard member would put every replica write through a proxy
  // round trip — reject it as a layout error instead.
  const std::vector<VolumeSpec> specs = EffectiveVolumeSpecs(config);
  if (static_cast<int>(specs.size()) != config.num_filesystems) {
    return std::nullopt;  // malformed volume list: PlanVolumes reports it
  }
  const std::vector<int> owners = DiskShardOwners(config);
  for (int f = 0; f < config.num_filesystems; ++f) {
    const VolumeSpec& spec = specs[static_cast<size_t>(f)];
    if (spec.kind != "mirror") {
      continue;
    }
    const int fs_shard = config.ShardForFs(f);
    for (int d : spec.members) {
      if (d < 0 || d >= static_cast<int>(owners.size())) {
        continue;  // out-of-range member: PlanVolumes reports it
      }
      if (owners[static_cast<size_t>(d)] != fs_shard) {
        return ShardSpecError{
            "fs" + std::to_string(f) + ".shard",
            "mirror volume" + std::to_string(f) + " member disk " + std::to_string(d) +
                " is owned by shard " + std::to_string(owners[static_cast<size_t>(d)]) +
                " but the mirror is pinned to shard " + std::to_string(fs_shard) +
                "; mirror members must be shard-local (" + valid_shards + ")"};
      }
    }
  }
  return std::nullopt;
}

Result<ScenarioArgs> ParseScenarioArgs(int argc, char** argv) {
  ScenarioArgs out;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--config") {
      if (i + 1 >= argc) {
        return Status(ErrorCode::kInvalidArgument,
                      "--config: missing scenario file argument");
      }
      PFS_ASSIGN_OR_RETURN(SystemConfig config, LoadScenarioFile(argv[++i]));
      out.scenario = std::move(config);
    } else {
      out.positional.emplace_back(argv[i]);
    }
  }
  return out;
}

Result<SystemConfig> LoadScenarioFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status(ErrorCode::kNotFound, path + ": cannot open scenario file");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = SystemConfig::Parse(buffer.str());
  if (!parsed.ok()) {
    return Status(parsed.code(), path + ": " + parsed.status().message());
  }
  return parsed;
}

}  // namespace pfs
