// Unit tests for src/trace and src/workload: formats, synthesis rule (against
// the map-based oracle it replaced), generator distributional properties, and
// the replayer's stress mode and replay order.
#include <gtest/gtest.h>

#include <iterator>
#include <map>

#include "core/random.h"
#include "online/recording_client.h"
#include "system/system_builder.h"
#include "trace/replayer.h"
#include "trace/trace.h"
#include "workload/generator.h"

namespace pfs {
namespace {

TEST(TraceFormatTest, SpriteRecordRoundTrip) {
  TraceRecord r;
  r.time_us = 123456;
  r.client = 3;
  r.op = TraceOp::kWrite;
  r.path = "/fs2/f17";
  r.offset = 8192;
  r.length = 4096;
  const std::string line = EncodeSpriteRecord(r);
  auto decoded = DecodeSpriteRecord(line);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->time_us, 123456);
  EXPECT_EQ(decoded->client, 3u);
  EXPECT_EQ(decoded->op, TraceOp::kWrite);
  EXPECT_EQ(decoded->path, "/fs2/f17");
  EXPECT_EQ(decoded->offset, 8192u);
  EXPECT_EQ(decoded->length, 4096u);
}

TEST(TraceFormatTest, CreatVerbMarksCreate) {
  TraceRecord r;
  r.op = TraceOp::kOpen;
  r.create = true;
  r.path = "/fs0/new";
  const std::string line = EncodeSpriteRecord(r);
  EXPECT_NE(line.find("CREAT"), std::string::npos);
  auto decoded = DecodeSpriteRecord(line);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->create);
  EXPECT_EQ(decoded->op, TraceOp::kOpen);
}

TEST(TraceFormatTest, AllOpsRoundTrip) {
  for (TraceOp op : {TraceOp::kOpen, TraceOp::kClose, TraceOp::kRead, TraceOp::kWrite,
                     TraceOp::kStat, TraceOp::kUnlink, TraceOp::kTruncate, TraceOp::kMkdir,
                     TraceOp::kRmdir, TraceOp::kRename}) {
    TraceRecord r;
    r.op = op;
    r.path = "/fs0/x";
    r.path2 = "/fs0/y";
    r.length = 42;
    auto decoded = DecodeSpriteRecord(EncodeSpriteRecord(r));
    ASSERT_TRUE(decoded.ok()) << TraceOpName(op);
    EXPECT_EQ(decoded->op, op);
  }
}

TEST(TraceFormatTest, RejectsGarbage) {
  EXPECT_FALSE(DecodeSpriteRecord("not a record").ok());
  EXPECT_FALSE(DecodeSpriteRecord("1 2 FROB /x").ok());
  EXPECT_FALSE(DecodeSpriteRecord("1 2 READ /x").ok());  // missing offset/length
}

TEST(TraceFormatTest, SpriteParseSkipsComments) {
  auto records = SpriteTraceReader::Parse("# header\n0 1 STAT /fs0/a\n\n10 1 STAT /fs0/b\n");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
}

TEST(TraceFormatTest, CodaRoundTrip) {
  std::vector<TraceRecord> records;
  TraceRecord open;
  open.time_us = 0;
  open.client = 1;
  open.op = TraceOp::kOpen;
  open.path = "/fs0/f";
  open.create = true;
  records.push_back(open);
  TraceRecord read;
  read.time_us = 50;
  read.client = 1;
  read.op = TraceOp::kRead;
  read.path = "/fs0/f";
  read.offset = 0;
  read.length = 100;
  records.push_back(read);
  TraceRecord close;
  close.time_us = 100;
  close.client = 1;
  close.op = TraceOp::kClose;
  close.path = "/fs0/f";
  records.push_back(close);

  auto decoded = CodaTraceReader::Parse(EncodeCodaTrace(records));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[0].op, TraceOp::kOpen);
  EXPECT_TRUE((*decoded)[0].create);
  EXPECT_EQ((*decoded)[1].op, TraceOp::kRead);
  EXPECT_EQ((*decoded)[1].length, 100u);
  EXPECT_EQ((*decoded)[2].op, TraceOp::kClose);
}

TEST(TraceFormatTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/pfs_trace_test.txt";
  std::vector<TraceRecord> records;
  TraceRecord r;
  r.time_us = 5;
  r.client = 2;
  r.op = TraceOp::kStat;
  r.path = "/fs1/file";
  records.push_back(r);
  ASSERT_TRUE(SpriteTraceWriter::WriteFile(path, records).ok());
  auto read_back = SpriteTraceReader::ReadFile(path);
  ASSERT_TRUE(read_back.ok());
  ASSERT_EQ(read_back->size(), 1u);
  EXPECT_EQ((*read_back)[0].path, "/fs1/file");
  std::remove(path.c_str());
}

TEST(SynthesisTest, EquidistantPlacementBetweenOpenAndClose) {
  // Paper §4: "the operations are positioned equidistant between the open
  // and close operation".
  std::vector<TraceRecord> records;
  TraceRecord open;
  open.time_us = 1000;
  open.client = 1;
  open.op = TraceOp::kOpen;
  open.path = "/fs0/f";
  records.push_back(open);
  for (int i = 0; i < 3; ++i) {
    TraceRecord r;
    r.time_us = -1;
    r.client = 1;
    r.op = TraceOp::kRead;
    r.path = "/fs0/f";
    records.push_back(r);
  }
  TraceRecord close = open;
  close.op = TraceOp::kClose;
  close.time_us = 5000;
  records.push_back(close);

  SynthesizeMissingTimes(&records);
  EXPECT_EQ(records[1].time_us, 2000);
  EXPECT_EQ(records[2].time_us, 3000);
  EXPECT_EQ(records[3].time_us, 4000);
}

TEST(SynthesisTest, OrphanUnknownTimesClampToZero) {
  std::vector<TraceRecord> records;
  TraceRecord r;
  r.time_us = -1;
  r.client = 1;
  r.op = TraceOp::kRead;
  r.path = "/fs0/f";
  records.push_back(r);
  SynthesizeMissingTimes(&records);
  EXPECT_EQ(records[0].time_us, 0);
}

// The map-based synthesis SynthesizeMissingTimes replaced, kept as the
// oracle: a map keyed by a copied client+path, with a vector of unknown-time
// indices per open session.
void OracleSynthesizeMissingTimes(std::vector<TraceRecord>* records) {
  struct Session {
    int64_t open_time = 0;
    std::vector<size_t> unknown;
  };
  std::map<std::pair<uint32_t, std::string>, Session> open_sessions;
  for (size_t i = 0; i < records->size(); ++i) {
    TraceRecord& r = (*records)[i];
    const auto key = std::make_pair(r.client, r.path);
    switch (r.op) {
      case TraceOp::kOpen:
        open_sessions[key] = Session{r.time_us, {}};
        break;
      case TraceOp::kClose: {
        auto it = open_sessions.find(key);
        if (it != open_sessions.end()) {
          const Session& session = it->second;
          const int64_t span = r.time_us - session.open_time;
          const auto n = static_cast<int64_t>(session.unknown.size());
          for (int64_t k = 0; k < n; ++k) {
            (*records)[session.unknown[static_cast<size_t>(k)]].time_us =
                session.open_time + span * (k + 1) / (n + 1);
          }
          open_sessions.erase(it);
        }
        break;
      }
      default:
        if (r.time_us < 0) {
          auto it = open_sessions.find(key);
          if (it != open_sessions.end()) {
            it->second.unknown.push_back(i);
          } else {
            r.time_us = 0;
          }
        }
        break;
    }
  }
}

void ExpectSynthesisMatchesOracle(const std::vector<TraceRecord>& trace,
                                  const std::string& name) {
  std::vector<TraceRecord> expected = trace;
  OracleSynthesizeMissingTimes(&expected);
  std::vector<TraceRecord> actual = trace;
  SynthesizeMissingTimes(&actual);
  ASSERT_EQ(actual.size(), expected.size()) << name;
  size_t changed = 0;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].time_us, expected[i].time_us) << name << " record " << i;
    changed += actual[i].time_us != trace[i].time_us ? 1 : 0;
  }
  EXPECT_GT(changed, 0u) << name << ": the trace had no time to synthesize";
}

TEST(SynthesisTest, MatchesTheMapOracleOnGeneratorTraces) {
  for (const char* name : {"1a", "1b", "5"}) {
    WorkloadParams params = WorkloadParams::SpriteLike(name, 0.05);
    ExpectSynthesisMatchesOracle(GenerateWorkload(params), name);
  }
  BurstWorkloadParams burst;
  burst.duration = Duration::Seconds(60);
  ExpectSynthesisMatchesOracle(GenerateBurstWorkload(burst), "burst");
}

// Random interleavings of three clients on four paths. Sessions overlap
// across clients and paths; some are reopened without a close, some closes
// have no open, and opens, closes and other ops may have unknown times too.
TEST(SynthesisTest, MatchesTheMapOracleOnRandomInterleavings) {
  const TraceOp kOps[] = {TraceOp::kOpen,  TraceOp::kClose,  TraceOp::kRead,
                          TraceOp::kWrite, TraceOp::kStat,   TraceOp::kUnlink,
                          TraceOp::kTruncate};
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    std::vector<TraceRecord> trace;
    int64_t now_us = 0;
    for (int i = 0; i < 400; ++i) {
      TraceRecord r;
      r.client = static_cast<uint32_t>(rng.NextBelow(3));
      r.path = "/fs0/f" + std::to_string(rng.NextBelow(4));
      r.op = kOps[rng.NextBelow(std::size(kOps))];
      now_us += rng.NextInRange(0, 5000);
      // Unknown-time reads and writes are the common case; any op may be.
      const bool io = r.op == TraceOp::kRead || r.op == TraceOp::kWrite;
      r.time_us = rng.NextBool(io ? 0.7 : 0.1) ? -rng.NextInRange(1, 3) : now_us;
      trace.push_back(std::move(r));
    }
    ExpectSynthesisMatchesOracle(trace, "seed " + std::to_string(seed));
  }
}

TEST(SynthesisTest, AReopenWithoutACloseStartsANewSession) {
  auto record = [](TraceOp op, int64_t time_us) {
    TraceRecord r;
    r.client = 1;
    r.op = op;
    r.path = "/fs0/f";
    r.time_us = time_us;
    return r;
  };
  std::vector<TraceRecord> records = {
      record(TraceOp::kOpen, 100),  record(TraceOp::kRead, -1),
      record(TraceOp::kOpen, 1000), record(TraceOp::kRead, -1),
      record(TraceOp::kClose, 2000), record(TraceOp::kClose, 3000),
      record(TraceOp::kRead, -1)};
  std::vector<TraceRecord> expected = records;
  OracleSynthesizeMissingTimes(&expected);
  SynthesizeMissingTimes(&records);
  EXPECT_EQ(records[1].time_us, -1);    // dropped with the first session
  EXPECT_EQ(records[3].time_us, 1500);  // midway through the second
  EXPECT_EQ(records[6].time_us, 0);     // after a close with no open session
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].time_us, expected[i].time_us) << i;
  }
}

TEST(GeneratorTest, DeterministicForSeed) {
  WorkloadParams params = WorkloadParams::SpriteLike("1a", 0.05);
  const auto a = GenerateWorkload(params);
  const auto b = GenerateWorkload(params);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time_us, b[i].time_us);
    EXPECT_EQ(a[i].path, b[i].path);
    EXPECT_EQ(static_cast<int>(a[i].op), static_cast<int>(b[i].op));
  }
}

TEST(GeneratorTest, SelfConsistentOpens) {
  // Every OPEN without create must reference a file created earlier by the
  // same generator run.
  const auto records = GenerateWorkload(WorkloadParams::SpriteLike("1a", 0.1));
  std::set<std::string> created;
  for (const TraceRecord& r : records) {
    if (r.op == TraceOp::kOpen) {
      if (r.create) {
        created.insert(r.path);
      } else {
        EXPECT_TRUE(created.contains(r.path)) << r.path;
      }
    } else if (r.op == TraceOp::kUnlink) {
      created.erase(r.path);
    }
  }
}

TEST(GeneratorTest, HotFilesystemsEmerge) {
  const auto records = GenerateWorkload(WorkloadParams::SpriteLike("1a", 0.2));
  std::map<std::string, int> per_fs;
  for (const TraceRecord& r : records) {
    per_fs[r.path.substr(0, r.path.find('/', 1))]++;
  }
  // The two hottest file systems must dominate (the paper's two hot spots).
  std::vector<int> counts;
  for (const auto& [fs, count] : per_fs) {
    counts.push_back(count);
  }
  std::sort(counts.rbegin(), counts.rend());
  ASSERT_GE(counts.size(), 3u);
  int total = 0;
  for (int c : counts) {
    total += c;
  }
  EXPECT_GT(counts[0] + counts[1], total / 3);
}

TEST(GeneratorTest, TraceProfilesDiffer) {
  const auto t1b = GenerateWorkload(WorkloadParams::SpriteLike("1b", 0.1));
  const auto t3a = GenerateWorkload(WorkloadParams::SpriteLike("3a", 0.1));
  auto write_bytes = [](const std::vector<TraceRecord>& records) {
    uint64_t bytes = 0;
    for (const auto& r : records) {
      if (r.op == TraceOp::kWrite) {
        bytes += r.length;
      }
    }
    return bytes;
  };
  // 1b (parallel large writes) must write far more than 3a (read-heavy).
  EXPECT_GT(write_bytes(t1b), 2 * write_bytes(t3a));
}

TEST(GeneratorTest, BurstWorkloadShape) {
  BurstWorkloadParams params;
  params.duration = Duration::Seconds(60);
  const auto records = GenerateBurstWorkload(params);
  ASSERT_FALSE(records.empty());
  uint64_t burst_bytes = 0;
  int bursts = 0;
  for (const auto& r : records) {
    if (r.client == 0 && r.op == TraceOp::kWrite) {
      burst_bytes += r.length;
    }
    if (r.client == 0 && r.op == TraceOp::kOpen) {
      ++bursts;
    }
  }
  EXPECT_GE(bursts, 5);  // one burst per 10 s over 60 s
  EXPECT_EQ(burst_bytes, static_cast<uint64_t>(bursts) * params.burst_bytes);
}

// -- replayer stress mode (respect_timing = false) ---------------------------

struct ReplayOutcome {
  uint64_t ops = 0;
  uint64_t errors = 0;
  uint64_t read_samples = 0;
  uint64_t write_samples = 0;
  uint64_t meta_samples = 0;
  Duration simulated_time;
};

ReplayOutcome Replay(std::vector<TraceRecord> records, bool respect_timing) {
  SystemConfig config;
  config.disks_per_bus = {1};
  config.num_filesystems = 1;
  config.cache_bytes = 2 * kMiB;
  config.lfs_segment_blocks = 64;
  config.max_inodes = 1024;
  auto system_or = SystemBuilder::Build(config);
  PFS_CHECK(system_or.ok());
  std::unique_ptr<System> system = std::move(system_or).value();
  PFS_CHECK(system->Setup().ok());

  TraceReplayer::Options options;
  options.respect_timing = respect_timing;
  TraceReplayer replayer(system->scheduler(), system->client(), options);
  replayer.AddRecords(std::move(records));
  replayer.Start();
  system->scheduler()->Run();

  ReplayOutcome out;
  out.ops = replayer.ops_completed();
  out.errors = replayer.errors();
  out.read_samples = replayer.reads().count();
  out.write_samples = replayer.writes().count();
  out.meta_samples = replayer.metadata().count();
  out.simulated_time = system->scheduler()->Now() - TimePoint();
  return out;
}

TEST(ReplayerStressTest, StressReplayCompletesAndRecordsPerClassLatencies) {
  WorkloadParams params = WorkloadParams::SpriteLike("1a", 0.02);
  params.clients = 4;
  params.num_filesystems = 1;
  const auto records = GenerateWorkload(params);
  ASSERT_FALSE(records.empty());

  const ReplayOutcome stress = Replay(records, /*respect_timing=*/false);
  EXPECT_GT(stress.ops, 0u);
  EXPECT_GT(stress.read_samples, 0u);
  EXPECT_GT(stress.write_samples, 0u);
  EXPECT_GT(stress.meta_samples, 0u);
  EXPECT_EQ(stress.ops, stress.read_samples + stress.write_samples + stress.meta_samples);
}

TEST(ReplayerStressTest, StressMatchesTimedReplayLogically) {
  WorkloadParams params = WorkloadParams::SpriteLike("1a", 0.02);
  params.clients = 4;
  params.num_filesystems = 1;
  const auto records = GenerateWorkload(params);

  const ReplayOutcome stress = Replay(records, /*respect_timing=*/false);
  const ReplayOutcome timed = Replay(records, /*respect_timing=*/true);

  // The same operations succeed and fail either way; only the pacing (and
  // thus the simulated wall time) differs.
  EXPECT_EQ(stress.ops, timed.ops);
  EXPECT_EQ(stress.errors, timed.errors);
  EXPECT_EQ(stress.read_samples, timed.read_samples);
  EXPECT_EQ(stress.write_samples, timed.write_samples);
  EXPECT_EQ(stress.meta_samples, timed.meta_samples);
  EXPECT_LT(stress.simulated_time.nanos(), timed.simulated_time.nanos());
}

TEST(ReplayerStressTest, StatJsonCarriesTheCounters) {
  WorkloadParams params = WorkloadParams::SpriteLike("1a", 0.01);
  params.clients = 2;
  params.num_filesystems = 1;

  SystemConfig config;
  config.disks_per_bus = {1};
  config.num_filesystems = 1;
  config.cache_bytes = 2 * kMiB;
  config.lfs_segment_blocks = 64;
  config.max_inodes = 1024;
  auto system = std::move(SystemBuilder::Build(config)).value();
  ASSERT_TRUE(system->Setup().ok());
  TraceReplayer::Options options;
  options.respect_timing = false;
  TraceReplayer replayer(system->scheduler(), system->client(), options);
  replayer.AddRecords(GenerateWorkload(params));
  replayer.Start();
  system->scheduler()->Run();

  const std::string json = replayer.StatJson();
  EXPECT_EQ(json.find("{\"ops\":"), 0u);
  EXPECT_NE(json.find("\"overall_ms\""), std::string::npos);
  EXPECT_NE(json.find(std::to_string(replayer.ops_completed())), std::string::npos);
}

// -- replay order -------------------------------------------------------------

TraceRecord MkdirAt(uint32_t client, int64_t time_us, const std::string& name) {
  TraceRecord r;
  r.time_us = time_us;
  r.client = client;
  r.op = TraceOp::kMkdir;
  r.path = "/fs0/" + name;
  return r;
}

// Replays `batches` (one AddRecords call each) on a small simulated system
// and returns the paths in the order the client saw them.
std::vector<std::string> ReplayOrder(std::vector<std::vector<TraceRecord>> batches) {
  SystemConfig config;
  config.disks_per_bus = {1};
  config.num_filesystems = 1;
  config.cache_bytes = 2 * kMiB;
  config.lfs_segment_blocks = 64;
  config.max_inodes = 1024;
  auto system = std::move(SystemBuilder::Build(config)).value();
  PFS_CHECK(system->Setup().ok());
  RecordingClient recorder(system->scheduler(), system->client());
  TraceReplayer replayer(system->scheduler(), &recorder);
  for (std::vector<TraceRecord>& batch : batches) {
    replayer.AddRecords(std::move(batch));
  }
  replayer.Start();
  system->scheduler()->Run();
  PFS_CHECK(replayer.errors() == 0);
  std::vector<std::string> order;
  for (const TraceRecord& r : recorder.records()) {
    order.push_back(r.path.substr(5));
  }
  return order;
}

using Order = std::vector<std::string>;

TEST(ReplayerTest, EqualTimestampsReplayInInputOrder) {
  EXPECT_EQ(ReplayOrder({{MkdirAt(0, 100, "c"), MkdirAt(0, 100, "a"),
                          MkdirAt(0, 100, "b"), MkdirAt(0, 100, "d")}}),
            (Order{"c", "a", "b", "d"}));
}

TEST(ReplayerTest, InputOutOfTimeOrderReplaysInTimeOrder) {
  EXPECT_EQ(ReplayOrder({{MkdirAt(0, 300, "c"), MkdirAt(0, 100, "a"),
                          MkdirAt(0, 200, "b"), MkdirAt(0, 100, "a2")}}),
            (Order{"a", "a2", "b", "c"}));
}

TEST(ReplayerTest, ASecondAddRecordsAppends) {
  // Client 1's records in the second batch merge into its order by time;
  // a tie with the first batch replays the first batch's record first.
  const Order order = ReplayOrder({{MkdirAt(1, 100, "x"), MkdirAt(1, 300, "z")},
                                   {MkdirAt(1, 50, "w"), MkdirAt(1, 100, "y")}});
  EXPECT_EQ(order, (Order{"w", "x", "y", "z"}));
}

}  // namespace
}  // namespace pfs
