// Tests for the textual scenario API (SystemConfig::Parse / ToString) and
// the component registry: every field round-trips, unknown keys and names
// are rejected with line numbers and the registered alternatives, the
// shipped scenario files stay buildable on both backends, and the registry
// accepts run-time extensions without touching the assembly layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/random.h"
#include "system/component_registry.h"
#include "system/system_builder.h"

namespace pfs {
namespace {

TEST(ConfigRoundTripTest, AllspiceSim) {
  const SystemConfig config = SystemConfig::AllspiceSim();
  auto reparsed = SystemConfig::Parse(config.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(config.ToString(), reparsed->ToString());
  EXPECT_TRUE(SystemBuilder::Validate(*reparsed).ok());
}

TEST(ConfigRoundTripTest, OnlineDefaults) {
  SystemConfig config = SystemConfig::OnlineDefaults();
  config.image_path = "/tmp/pfs_config_test.img";
  auto reparsed = SystemConfig::Parse(config.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(config.ToString(), reparsed->ToString());
  EXPECT_EQ(reparsed->backend, BackendKind::kFileBacked);
  EXPECT_EQ(reparsed->image_path, config.image_path);
  EXPECT_TRUE(SystemBuilder::Validate(*reparsed).ok());
}

TEST(ConfigRoundTripTest, EveryFieldSurvives) {
  SystemConfig config;
  config.backend = BackendKind::kFileBacked;
  config.clock = ClockKind::kVirtual;
  config.seed = 1234567;
  config.disks_per_bus = {2, 1, 5};
  config.num_filesystems = 3;
  config.disk_params = DiskParams::SyntheticTest();
  config.queue_policy = "SSTF";
  VolumeSpec mirror;
  mirror.kind = "mirror";
  mirror.members = {0, 3};
  mirror.failed_members = {1};
  VolumeSpec striped;
  striped.kind = "striped";
  striped.members = {1, 2, 4};
  striped.stripe_unit_kb = 128;
  VolumeSpec single;
  single.members = {5};
  config.volumes = {mirror, striped, single};
  config.faults = {FaultSpec{2500, 0, 0, "fail"}, FaultSpec{9000, 0, 0, "return"}};
  config.rebuild_bw_kbps = 768;
  config.image_path = "/tmp/pfs images/with spaces.img";
  config.image_bytes = 24 * kMiB + 512;
  config.format = false;
  config.io_threads = 7;
  config.layout = "ffs";
  config.cleaner = "cost-benefit";
  config.lfs_segment_blocks = 64;
  config.max_inodes = 1024;
  config.cache_bytes = 3 * kMiB + kKiB;
  config.replacement = "LRU-2";
  config.flush_policy = "nvram-partial";
  config.nvram_bytes = 768 * kKiB;
  config.async_flush = false;
  config.host.mem_bandwidth_bytes_per_sec = 123456789;
  config.host.per_op_cpu = Duration::Nanos(98765);
  config.mount_prefix = "vol";

  auto reparsed = SystemConfig::Parse(config.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(config.ToString(), reparsed->ToString());
  EXPECT_EQ(reparsed->disk_params.model_name, "SyntheticTest");
  EXPECT_EQ(reparsed->volumes.size(), 3u);
  EXPECT_EQ(reparsed->volumes[0].failed_members, std::vector<int>{1});
  EXPECT_EQ(reparsed->volumes[1].stripe_unit_kb, 128u);
  EXPECT_EQ(reparsed->host.per_op_cpu.nanos(), 98765);
  EXPECT_EQ(reparsed->image_path, config.image_path);
  ASSERT_EQ(reparsed->faults.size(), 2u);
  EXPECT_EQ(reparsed->faults[1].at_ms, 9000u);
  EXPECT_EQ(reparsed->faults[1].action, "return");
  EXPECT_EQ(reparsed->rebuild_bw_kbps, 768u);
}

TEST(ConfigRoundTripTest, ShardKeysSurvive) {
  auto parsed = SystemConfig::Parse(
      "backend = simulated\n"
      "topology.disks_per_bus = 2, 2\n"
      "topology.num_filesystems = 4\n"
      "system.shards = 4\n"
      "fs1.shard = 2\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->shards, 4);
  EXPECT_EQ(parsed->ShardForFs(0), 0);  // round-robin default
  EXPECT_EQ(parsed->ShardForFs(1), 2);  // explicit pin
  EXPECT_EQ(parsed->ShardForFs(3), 3);

  const std::string text = parsed->ToString();
  EXPECT_NE(text.find("system.shards = 4"), std::string::npos) << text;
  EXPECT_NE(text.find("fs1.shard = 2"), std::string::npos) << text;
  auto reparsed = SystemConfig::Parse(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(text, reparsed->ToString());
}

TEST(ConfigRoundTripTest, MetricsKeysSurvive) {
  auto parsed = SystemConfig::Parse(
      "backend = simulated\n"
      "metrics.enabled = true\n"
      "metrics.port = 9091\n"
      "metrics.prefix = patsy\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->metrics.enabled);
  EXPECT_EQ(parsed->metrics.port, 9091u);
  EXPECT_EQ(parsed->metrics.prefix, "patsy");

  const std::string text = parsed->ToString();
  EXPECT_NE(text.find("metrics.enabled = true"), std::string::npos) << text;
  EXPECT_NE(text.find("metrics.port = 9091"), std::string::npos) << text;
  EXPECT_NE(text.find("metrics.prefix = patsy"), std::string::npos) << text;
  auto reparsed = SystemConfig::Parse(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(text, reparsed->ToString());
}

TEST(ConfigParseTest, RejectsBadMetricsValuesWithLineNumbers) {
  auto port = SystemConfig::Parse("seed = 1\nmetrics.port = 70000\n");
  ASSERT_FALSE(port.ok());
  EXPECT_EQ(port.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(port.status().message().find("line 2"), std::string::npos)
      << port.status().ToString();

  auto prefix = SystemConfig::Parse("seed = 1\nbackend = simulated\nmetrics.prefix = 9bad-prefix\n");
  ASSERT_FALSE(prefix.ok());
  EXPECT_EQ(prefix.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(prefix.status().message().find("line 3"), std::string::npos)
      << prefix.status().ToString();
  EXPECT_NE(prefix.status().message().find("metrics.prefix"), std::string::npos)
      << prefix.status().ToString();
}

// A random value `row` accepts: mostly small, since small values make
// consistent scenarios. Wide values stay below 2^16 as well: a count such as
// topology.num_filesystems sizes what Validate allocates.
std::string RandomValue(const ScenarioKey& row, Rng& rng) {
  switch (row.type) {
    case KeyType::kBytes:
    case KeyType::kUint: {
      const uint64_t n =
          std::min(row.max, row.min + rng.NextBelow(rng.NextBelow(4) == 0 ? 1 << 16 : 2));
      if (row.type == KeyType::kBytes && n < (1u << 20) && rng.NextBelow(2) == 0) {
        return std::to_string(n + 1) + "MiB";
      }
      return std::to_string(n);
    }
    case KeyType::kBool:
      return rng.NextBelow(2) == 0 ? "true" : "false";
    case KeyType::kString: {
      // Also a valid metric prefix: [a-zA-Z_][a-zA-Z0-9_]*.
      std::string text(1, static_cast<char>('a' + rng.NextBelow(26)));
      for (uint64_t k = rng.NextBelow(8); k > 0; --k) {
        text += "az_09"[rng.NextBelow(5)];
      }
      return text;
    }
    case KeyType::kName:
    case KeyType::kEnum: {
      const std::vector<std::string> names = row.names->choices();
      return names[rng.NextBelow(names.size())];
    }
    case KeyType::kIntList: {
      std::string text = std::to_string(rng.NextBelow(8));
      for (uint64_t k = rng.NextBelow(3); k > 0; --k) {
        text += ", " + std::to_string(rng.NextBelow(8));
      }
      return text;
    }
  }
  return "";
}

// Randomized scenarios written key by key from the key table, so a new key
// is covered without editing this test. Whenever one parses (a cross-key
// check such as a fault aimed at a non-mirror rejects the rest),
// Parse(ToString(c)) must reproduce the serialization and the validation
// verdict, whether or not the config is actually buildable.
TEST(ConfigRoundTripTest, RandomizedConfigs) {
  Rng rng(20260730);
  const std::vector<ScenarioKey>& keys = ScenarioKeys();
  std::vector<int> round_tripped(keys.size(), 0);
  int round_trips = 0;
  for (int round = 0; round < 600; ++round) {
    std::string scenario;
    std::vector<size_t> written;
    std::map<std::string, uint64_t> members;  // indexed family -> member count
    for (size_t r = 0; r < keys.size(); ++r) {
      const std::string key = keys[r].key;
      const size_t marker = key.find("<i>");
      uint64_t count = 1;
      if (marker != std::string::npos) {
        auto [family, fresh] = members.try_emplace(key.substr(0, marker), 0);
        if (fresh && rng.NextBelow(2) == 0) {
          family->second = 1 + rng.NextBelow(3);
        }
        count = family->second;
      } else if (rng.NextBelow(2) == 0) {
        continue;  // keep the default
      }
      for (uint64_t i = 0; i < count; ++i) {
        std::string name = key;
        if (marker != std::string::npos) {
          name.replace(marker, 3, std::to_string(i));
        }
        scenario += name + " = " + RandomValue(keys[r], rng) + "\n";
        written.push_back(r);
      }
    }
    auto parsed = SystemConfig::Parse(scenario);
    if (!parsed.ok()) {
      continue;
    }
    ++round_trips;
    for (size_t r : written) {
      ++round_tripped[r];
    }

    const std::string text = parsed->ToString();
    auto reparsed = SystemConfig::Parse(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
    EXPECT_EQ(text, reparsed->ToString()) << "round " << round;
    const Status original_verdict = SystemBuilder::Validate(*parsed);
    const Status reparsed_verdict = SystemBuilder::Validate(*reparsed);
    EXPECT_EQ(original_verdict.code(), reparsed_verdict.code())
        << "round " << round << ": " << original_verdict.ToString() << " vs "
        << reparsed_verdict.ToString() << "\n" << text;
  }
  EXPECT_GE(round_trips, 50);
  for (size_t r = 0; r < keys.size(); ++r) {
    EXPECT_GT(round_tripped[r], 0) << keys[r].key << " never round-tripped";
  }
}

TEST(ConfigParseTest, RejectsUnknownKeyWithLineNumber) {
  auto result = SystemConfig::Parse("seed = 1\nnot_a_key = 2\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(result.status().message().find("not_a_key"), std::string::npos);
}

TEST(ConfigParseTest, RejectsUnknownComponentNamesListingAlternatives) {
  auto layout = SystemConfig::Parse("layout.name = zfs\n");
  ASSERT_FALSE(layout.ok());
  for (const char* registered : {"lfs", "ffs", "guessing"}) {
    EXPECT_NE(layout.status().message().find(registered), std::string::npos)
        << layout.status().ToString();
  }
  EXPECT_NE(layout.status().message().find("line 1"), std::string::npos);

  auto kind = SystemConfig::Parse("volume0.kind = raid6\nvolume0.members = 0, 1\n");
  ASSERT_FALSE(kind.ok());
  for (const char* registered : {"single", "concat", "striped", "mirror"}) {
    EXPECT_NE(kind.status().message().find(registered), std::string::npos)
        << kind.status().ToString();
  }

  auto queue = SystemConfig::Parse("topology.queue_policy = ELEVATOR\n");
  ASSERT_FALSE(queue.ok());
  EXPECT_NE(queue.status().message().find("C-LOOK"), std::string::npos);

  auto model = SystemConfig::Parse("topology.disk_model = IBM350\n");
  ASSERT_FALSE(model.ok());
  EXPECT_NE(model.status().message().find("HP97560"), std::string::npos);

  auto engine = SystemConfig::Parse("system.io_engine = epoll\n");
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().message().find("threadpool"), std::string::npos)
      << engine.status().ToString();
  EXPECT_NE(engine.status().message().find("line 1"), std::string::npos);
}

TEST(ConfigParseTest, IoKeysRoundTripAndTheOldSpellingIsUnknown) {
  auto parsed =
      SystemConfig::Parse("system.io_threads = 5\nsystem.io_engine = threadpool\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->io_threads, 5);
  EXPECT_EQ(parsed->io_engine, "threadpool");
  EXPECT_NE(parsed->ToString().find("system.io_threads = 5"), std::string::npos);
  EXPECT_NE(parsed->ToString().find("system.io_engine = threadpool"), std::string::npos);

  auto legacy = SystemConfig::Parse("image.io_threads = 3\n");
  ASSERT_FALSE(legacy.ok());
  EXPECT_NE(legacy.status().message().find("line 1: unknown key \"image.io_threads\""),
            std::string::npos)
      << legacy.status().ToString();
}

TEST(ConfigParseTest, BoundsIoThreads) {
  // Every I/O thread is an OS thread the file-backed system starts when it
  // is built, so the key's range is checked at its line.
  auto above = SystemConfig::Parse("system.io_threads = 65\n");
  ASSERT_FALSE(above.ok());
  EXPECT_NE(above.status().message().find("line 1: system.io_threads"), std::string::npos)
      << above.status().ToString();
  EXPECT_NE(above.status().message().find("max 64"), std::string::npos)
      << above.status().ToString();
  auto zero = SystemConfig::Parse("system.io_threads = 0\n");
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.status().message().find("line 1: system.io_threads"), std::string::npos)
      << zero.status().ToString();
  auto at_cap = SystemConfig::Parse("system.io_threads = 64\n");
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->io_threads, 64);

  // A config built in code fails in Build's validation, which runs before
  // the I/O pool starts: the error names the key and no image is created.
  SystemConfig config = SystemConfig::OnlineDefaults();
  config.image_path = "/tmp/pfs_config_io_threads.img";
  std::filesystem::remove(config.image_path);
  for (const int threads : {65, 0}) {
    config.io_threads = threads;
    auto built = SystemBuilder::Build(config);
    ASSERT_FALSE(built.ok()) << threads;
    EXPECT_NE(built.status().message().find("system.io_threads"), std::string::npos)
        << built.status().ToString();
    EXPECT_FALSE(std::filesystem::exists(config.image_path)) << threads;
  }
}

TEST(ConfigParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(SystemConfig::Parse("this line has no equals sign\n").ok());
  EXPECT_FALSE(SystemConfig::Parse("seed = twelve\n").ok());
  EXPECT_FALSE(SystemConfig::Parse("cache.bytes = 48Mib\n").ok());  // bad suffix
  EXPECT_FALSE(SystemConfig::Parse("cache.async_flush = yes\n").ok());
  EXPECT_FALSE(SystemConfig::Parse("seed = 1\nseed = 2\n").ok());  // duplicate
  EXPECT_FALSE(SystemConfig::Parse("mount_prefix =\n").ok());
  // volume indices must be contiguous from 0.
  auto gap = SystemConfig::Parse("volume1.kind = mirror\nvolume1.members = 0, 1\n");
  ASSERT_FALSE(gap.ok());
  EXPECT_NE(gap.status().message().find("volume0"), std::string::npos);
  // An absurd volume index is rejected as an unknown key, not a crash.
  EXPECT_FALSE(SystemConfig::Parse("volume99999999999999999999.kind = mirror\n").ok());
}

TEST(ConfigParseTest, RejectsOutOfRangeIntegers) {
  // Values the target field cannot hold must be errors, never silent
  // truncations (4294967297 would wrap num_filesystems to 1).
  EXPECT_FALSE(SystemConfig::Parse("topology.num_filesystems = 4294967297\n").ok());
  EXPECT_FALSE(SystemConfig::Parse("system.io_threads = 99999999999\n").ok());
  EXPECT_FALSE(SystemConfig::Parse("layout.max_inodes = 4294967296\n").ok());
  EXPECT_FALSE(SystemConfig::Parse("volume0.kind = striped\nvolume0.members = 0, 1\n"
                                   "volume0.stripe_unit_kb = 4294967296\n")
                   .ok());
}

TEST(ConfigParseTest, BoundsFileSystemCount) {
  // Validation sizes vectors by topology.num_filesystems: with two shards the
  // shard checks build one VolumeSpec per file system, so a count of two
  // billion asked for about 170 GB. The key's cap rejects it at its line.
  auto huge =
      SystemConfig::Parse("system.shards = 2\ntopology.num_filesystems = 2000000000\n");
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(huge.status().message().find("line 2"), std::string::npos)
      << huge.status().ToString();
  EXPECT_NE(huge.status().message().find("max " + std::to_string(kMaxFilesystems)),
            std::string::npos)
      << huge.status().ToString();
  auto at_cap = SystemConfig::Parse("topology.num_filesystems = " +
                                    std::to_string(kMaxFilesystems) + "\n");
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->num_filesystems, kMaxFilesystems);

  // A config built in code meets the same cap in Validate.
  SystemConfig config = SystemConfig::AllspiceSim();
  config.shards = 2;
  config.num_filesystems = kMaxFilesystems + 1;
  const Status status = SystemBuilder::Validate(config);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.message().find("num_filesystems"), std::string::npos) << status.ToString();
}

TEST(ConfigParseTest, RejectsOverflowingByteCounts) {
  auto overflow = SystemConfig::Parse("seed = 1\ncache.bytes = 17179869185GiB\n");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(overflow.status().message().find("line 2"), std::string::npos)
      << overflow.status().ToString();
  EXPECT_NE(overflow.status().message().find("17179869185GiB"), std::string::npos);
  EXPECT_FALSE(SystemConfig::Parse("image.bytes = 18014398509481984KiB\n").ok());
  // The largest count that still fits parses exactly.
  auto fits = SystemConfig::Parse("cache.bytes = 17179869183GiB\n");
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits->cache_bytes, 17179869183ull * kGiB);
  // per_op_cpu_ns lands in a signed Duration.
  EXPECT_FALSE(SystemConfig::Parse("host.per_op_cpu_ns = 9223372036854775808\n").ok());
}

TEST(ConfigParseTest, RejectsZeroMemoryBandwidth) {
  auto zero = SystemConfig::Parse("seed = 1\n\nhost.mem_bandwidth_bytes_per_sec = 0\n");
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(zero.status().message().find("line 3"), std::string::npos)
      << zero.status().ToString();
  EXPECT_NE(zero.status().message().find("host.mem_bandwidth_bytes_per_sec"),
            std::string::npos);

  // A config built in code gets the same rule from Validate (and Build).
  SystemConfig config;
  config.host.mem_bandwidth_bytes_per_sec = 0;
  const Status status = SystemBuilder::Validate(config);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.message().find("host.mem_bandwidth_bytes_per_sec"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(SystemBuilder::Build(config).ok());
}

// Keys bounded only by a maximum: a config built in code meets the bound
// in Validate, as a scenario line does in Parse. Unchecked, a port of 70000
// would bind port 4464.
TEST(ConfigParseTest, ValidateAppliesMaximumOnlyBounds) {
  SystemConfig port;
  port.metrics.port = 70000;
  Status status = SystemBuilder::Validate(port);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.message().find("metrics.port"), std::string::npos)
      << status.ToString();

  SystemConfig cpu;
  cpu.host.per_op_cpu = Duration::Nanos(-5);
  status = SystemBuilder::Validate(cpu);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.message().find("host.per_op_cpu_ns"), std::string::npos)
      << status.ToString();
}

TEST(ConfigParseTest, KeyReferenceListsEveryKey) {
  const std::string reference = ScenarioKeyReference();
  for (const ScenarioKey& row : ScenarioKeys()) {
    EXPECT_NE(reference.find(std::string("\n") + row.key + " = "), std::string::npos)
        << row.key;
  }
}

TEST(ConfigParseTest, ScenarioArgsFlagHandling) {
  const char* trailing[] = {"bench", "--config"};
  auto missing_value = ParseScenarioArgs(2, const_cast<char**>(trailing));
  ASSERT_FALSE(missing_value.ok());
  EXPECT_NE(missing_value.status().message().find("--config"), std::string::npos);

  const char* none[] = {"bench", "1a", "0.5", "--json"};
  auto no_flag = ParseScenarioArgs(4, const_cast<char**>(none));
  ASSERT_TRUE(no_flag.ok());
  EXPECT_FALSE(no_flag->scenario.has_value());
  EXPECT_EQ(no_flag->positional,
            (std::vector<std::string>{"1a", "0.5", "--json"}));
}

TEST(ConfigParseTest, AcceptsCommentsWhitespaceAndSuffixes) {
  auto result = SystemConfig::Parse(
      "# a comment line\n"
      "\n"
      "  seed   =  7   # trailing comment\n"
      "cache.bytes = 2GiB\n"
      "cache.nvram_bytes = 512KiB\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->seed, 7u);
  EXPECT_EQ(result->cache_bytes, 2 * kGiB);
  EXPECT_EQ(result->nvram_bytes, 512 * kKiB);
}

TEST(ConfigParseTest, LoadScenarioFileReportsPath) {
  auto missing = LoadScenarioFile("/tmp/does_not_exist.pfs_scenario");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), ErrorCode::kNotFound);
  EXPECT_NE(missing.status().message().find("/tmp/does_not_exist"), std::string::npos);
}

// Every unknown-name Status from Validate enumerates the registered
// alternatives, family by family.
TEST(ValidateErrorMessageTest, UnknownNamesListRegisteredAlternatives) {
  struct Case {
    const char* field;
    void (*mutate)(SystemConfig&);
    std::vector<std::string> expect_names;
  };
  const std::vector<Case> cases = {
      {"layout", [](SystemConfig& c) { c.layout = "nope"; }, LayoutRegistry::Names()},
      {"cleaner", [](SystemConfig& c) { c.cleaner = "nope"; }, CleanerRegistry::Names()},
      {"replacement", [](SystemConfig& c) { c.replacement = "nope"; },
       ReplacementRegistry::Names()},
      {"flush_policy", [](SystemConfig& c) { c.flush_policy = "nope"; },
       FlushPolicyRegistry::Names()},
      {"queue_policy", [](SystemConfig& c) { c.queue_policy = "nope"; },
       QueuePolicyRegistry::Names()},
      {"kind",
       [](SystemConfig& c) {
         c.disks_per_bus = {2};
         c.num_filesystems = 1;
         VolumeSpec spec;
         spec.kind = "nope";
         spec.members = {0};
         c.volumes = {spec};
       },
       VolumeKindRegistry::Names()},
  };
  for (const Case& test_case : cases) {
    SystemConfig config;
    test_case.mutate(config);
    const Status status = SystemBuilder::Validate(config);
    ASSERT_EQ(status.code(), ErrorCode::kInvalidArgument) << test_case.field;
    EXPECT_NE(status.message().find(test_case.field), std::string::npos)
        << status.ToString();
    for (const std::string& name : test_case.expect_names) {
      EXPECT_NE(status.message().find(name), std::string::npos)
          << test_case.field << ": " << status.ToString();
    }
  }
}

TEST(ValidateVolumeSpecTest, RejectsMirrorsAndStripesWithOneMember) {
  for (const char* kind : {"mirror", "striped"}) {
    SystemConfig config;
    config.disks_per_bus = {2};
    config.num_filesystems = 1;
    VolumeSpec spec;
    spec.kind = kind;
    spec.members = {0};
    config.volumes = {spec};
    const Status status = SystemBuilder::Validate(config);
    EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument) << kind;
    EXPECT_NE(status.ToString().find("at least 2"), std::string::npos)
        << kind << ": " << status.ToString();
  }
}

TEST(ValidateVolumeSpecTest, RejectsBadFailedMembers) {
  SystemConfig base;
  base.disks_per_bus = {2};
  base.num_filesystems = 1;
  VolumeSpec mirror;
  mirror.kind = "mirror";
  mirror.members = {0, 1};

  // Position outside the member list.
  SystemConfig config = base;
  VolumeSpec spec = mirror;
  spec.failed_members = {2};
  config.volumes = {spec};
  EXPECT_EQ(SystemBuilder::Validate(config).code(), ErrorCode::kInvalidArgument);

  // Every member failed: no live member left to serve reads.
  config = base;
  spec = mirror;
  spec.failed_members = {0, 1};
  config.volumes = {spec};
  Status status = SystemBuilder::Validate(config);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("live"), std::string::npos);

  // Degraded start is a mirror-only concept.
  config = base;
  spec = VolumeSpec{};
  spec.kind = "striped";
  spec.members = {0, 1};
  spec.failed_members = {0};
  config.volumes = {spec};
  status = SystemBuilder::Validate(config);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("failed_members"), std::string::npos);
}

TEST(ValidateVolumeSpecTest, AcceptsDegradedMirror) {
  SystemConfig config;
  config.disks_per_bus = {2};
  config.num_filesystems = 1;
  VolumeSpec spec;
  spec.kind = "mirror";
  spec.members = {0, 1};
  spec.failed_members = {1};
  config.volumes = {spec};
  EXPECT_TRUE(SystemBuilder::Validate(config).ok())
      << SystemBuilder::Validate(config).ToString();
}

// The extension recipe from the registry header, end to end: register a new
// layout name at run time and build a system with it — no assembly-layer
// changes involved.
TEST(ComponentRegistryTest, RuntimeLayoutRegistrationBuilds) {
  ASSERT_NE(LayoutRegistry::Find("lfs"), nullptr);
  LayoutRegistry::Register("lfs-alias", *LayoutRegistry::Find("lfs"));

  SystemConfig config;
  config.disks_per_bus = {2};
  config.num_filesystems = 1;
  config.layout = "lfs-alias";
  ASSERT_TRUE(SystemBuilder::Validate(config).ok())
      << SystemBuilder::Validate(config).ToString();
  auto system = SystemBuilder::Build(config);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  EXPECT_TRUE((*system)->Setup().ok());
  EXPECT_EQ(std::string((*system)->layout(0)->layout_name()), "lfs");

  // The new name shows up in unknown-name errors too.
  config.layout = "nope";
  EXPECT_NE(SystemBuilder::Validate(config).message().find("lfs-alias"),
            std::string::npos);
}

#ifdef PFS_SCENARIO_DIR
std::vector<std::filesystem::path> ScenarioFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(PFS_SCENARIO_DIR)) {
    if (entry.path().extension() == ".scenario") {
      files.push_back(entry.path());
    }
  }
  return files;
}

// Every shipped scenario parses, validates, round-trips, and validates with
// the backend flipped (the cut-and-paste property for text files).
TEST(ScenarioFilesTest, ParseValidateRoundTripBothBackends) {
  const auto files = ScenarioFiles();
  ASSERT_GE(files.size(), 4u) << "expected the four shipped scenarios in "
                              << PFS_SCENARIO_DIR;
  for (const auto& path : files) {
    SCOPED_TRACE(path.string());
    auto loaded = LoadScenarioFile(path.string());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(SystemBuilder::Validate(*loaded).ok())
        << SystemBuilder::Validate(*loaded).ToString();

    auto reparsed = SystemConfig::Parse(loaded->ToString());
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(loaded->ToString(), reparsed->ToString());

    SystemConfig flipped = *loaded;
    flipped.backend = flipped.simulated() ? BackendKind::kFileBacked
                                          : BackendKind::kSimulated;
    if (!flipped.simulated() && flipped.image_path.empty()) {
      flipped.image_path = "/tmp/pfs_scenario_flip.img";
    }
    EXPECT_TRUE(SystemBuilder::Validate(flipped).ok())
        << SystemBuilder::Validate(flipped).ToString();
  }
}

// One scenario built on both backends produces the same logical topology:
// volume kinds, stat names, and mounts are backend-independent.
TEST(ScenarioFilesTest, SameTopologyOnBothBackends) {
  const std::filesystem::path path =
      std::filesystem::path(PFS_SCENARIO_DIR) / "striped-8-disk.scenario";
  auto loaded = LoadScenarioFile(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  SystemConfig sim = *loaded;
  sim.backend = BackendKind::kSimulated;
  SystemConfig real = *loaded;
  real.backend = BackendKind::kFileBacked;
  real.image_path = "/tmp/pfs_scenario_topology.img";
  real.image_bytes = 16 * kMiB;

  auto sim_system = SystemBuilder::Build(sim);
  ASSERT_TRUE(sim_system.ok()) << sim_system.status().ToString();
  auto real_system = SystemBuilder::Build(real);
  ASSERT_TRUE(real_system.ok()) << real_system.status().ToString();

  ASSERT_EQ((*sim_system)->filesystem_count(), (*real_system)->filesystem_count());
  EXPECT_EQ((*sim_system)->drivers().size(), (*real_system)->drivers().size());
  for (int f = 0; f < (*sim_system)->filesystem_count(); ++f) {
    EXPECT_EQ((*sim_system)->volume(f)->stat_name(),
              (*real_system)->volume(f)->stat_name());
    EXPECT_EQ(std::string((*sim_system)->volume(f)->kind()),
              std::string((*real_system)->volume(f)->kind()));
    EXPECT_EQ((*sim_system)->volume(f)->member_count(),
              (*real_system)->volume(f)->member_count());
    EXPECT_EQ((*sim_system)->mount_name(f), (*real_system)->mount_name(f));
  }
  for (int i = 0; i < real.total_disks(); ++i) {
    std::remove(real.disk_image_path(i).c_str());
  }
}
#endif  // PFS_SCENARIO_DIR

}  // namespace
}  // namespace pfs
