// Tests for the fault-injection and recovery subsystem: fault-schedule
// parse and validation errors (line-numbered, with registered alternatives),
// round-tripping of the fault<i>.* scenario keys, MirrorVolume rebuild-debt
// extents and availability accounting, SetMemberFailed racing in-flight
// mirror I/O, the RebuildDaemon's drain-and-reinstate loop (down to the
// slice offsets its writes land at), and the FaultInjector end to end on
// both backends.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "client/client_interface.h"
#include "driver/file_backed_driver.h"
#include "driver/io_executor.h"
#include "fault/fault_injector.h"
#include "fault/fault_schedule.h"
#include "fault/rebuild_daemon.h"
#include "system/component_registry.h"
#include "system/system_builder.h"
#include "volume/volume.h"

namespace pfs {
namespace {

constexpr uint32_t kSector = 512;

// Byte-holding BlockDevice; `delay` makes every operation take simulated
// time, so tests can interleave failures with in-flight I/O.
class MemDevice final : public BlockDevice {
 public:
  MemDevice(Scheduler* sched, uint64_t nsectors)
      : sched_(sched), data_(nsectors * kSector, std::byte{0}) {}

  Task<Status> Read(uint64_t sector, uint32_t count, std::span<std::byte> out) override {
    if (!delay.IsZero()) {
      co_await sched_->Sleep(delay);
    }
    ++reads;
    if (fail) {
      co_return Status(ErrorCode::kIoError, "injected member failure");
    }
    PFS_CHECK((sector + count) * kSector <= data_.size());
    if (!out.empty()) {
      std::memcpy(out.data(), data_.data() + sector * kSector, count * kSector);
    }
    co_return OkStatus();
  }

  Task<Status> Write(uint64_t sector, uint32_t count,
                     std::span<const std::byte> in) override {
    if (!delay.IsZero()) {
      co_await sched_->Sleep(delay);
    }
    ++writes;
    if (fail) {
      co_return Status(ErrorCode::kIoError, "injected member failure");
    }
    PFS_CHECK((sector + count) * kSector <= data_.size());
    if (!in.empty()) {
      std::memcpy(data_.data() + sector * kSector, in.data(), count * kSector);
    }
    co_return OkStatus();
  }

  uint64_t total_sectors() const override { return data_.size() / kSector; }
  uint32_t sector_bytes() const override { return kSector; }

  std::byte at(uint64_t sector, uint64_t byte) const { return data_[sector * kSector + byte]; }

  Duration delay;
  bool fail = false;
  int reads = 0;
  int writes = 0;

 private:
  Scheduler* sched_;
  std::vector<std::byte> data_;
};

Status RunIo(Scheduler* sched, Task<Status> op) {
  Status result(ErrorCode::kAborted);
  sched->Spawn("io", [](Task<Status> t, Status* out) -> Task<> {
    *out = co_await std::move(t);
  }(std::move(op), &result));
  sched->Run();
  return result;
}

std::vector<std::byte> Pattern(uint32_t sectors, uint8_t salt = 0) {
  std::vector<std::byte> buf(sectors * kSector);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>((i / kSector + salt) & 0xff);
  }
  return buf;
}

// A scenario prefix with one two-way mirror, so fault keys have a target.
constexpr const char* kMirrorPrefix =
    "topology.disks_per_bus = 2\n"
    "topology.num_filesystems = 1\n"
    "volume0.kind = mirror\n"
    "volume0.members = 0, 1\n";

// -- parse errors ------------------------------------------------------------

TEST(FaultParseTest, UnknownActionNamesLineAndAlternatives) {
  auto result = SystemConfig::Parse(std::string(kMirrorPrefix) +
                                    "fault0.at_ms = 100\n"      // line 5
                                    "fault0.volume = 0\n"       // line 6
                                    "fault0.member = 1\n"       // line 7
                                    "fault0.action = explode\n" /* line 8 */);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("line 8"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("explode"), std::string::npos);
  for (const char* registered : {"fail", "return"}) {
    EXPECT_NE(result.status().message().find(registered), std::string::npos)
        << result.status().ToString();
  }
}

TEST(FaultParseTest, OutOfRangeVolumeNamesItsLine) {
  auto result = SystemConfig::Parse(std::string(kMirrorPrefix) +
                                    "fault0.at_ms = 100\n"
                                    "fault0.volume = 3\n"  // line 6
                                    "fault0.member = 0\n"
                                    "fault0.action = fail\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 6"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("volume index 3"), std::string::npos);
}

TEST(FaultParseTest, OutOfRangeMemberNamesItsLine) {
  auto result = SystemConfig::Parse(std::string(kMirrorPrefix) +
                                    "fault0.at_ms = 100\n"
                                    "fault0.volume = 0\n"
                                    "fault0.member = 5\n"  // line 7
                                    "fault0.action = fail\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 7"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("member position 5"), std::string::npos);
  EXPECT_NE(result.status().message().find("2 member(s)"), std::string::npos);
}

TEST(FaultParseTest, NonMonotonicTimestampsNameTheLaterLine) {
  auto result = SystemConfig::Parse(std::string(kMirrorPrefix) +
                                    "fault0.at_ms = 500\n"
                                    "fault0.volume = 0\n"
                                    "fault0.member = 1\n"
                                    "fault0.action = fail\n"
                                    "fault1.at_ms = 100\n"  // line 9: goes backwards
                                    "fault1.volume = 0\n"
                                    "fault1.member = 1\n"
                                    "fault1.action = return\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 9"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("non-monotonic"), std::string::npos);
}

TEST(FaultParseTest, NonMirrorTargetRejected) {
  // Default volumes are single-disk slices: nothing to fail over to.
  auto result = SystemConfig::Parse(
      "topology.disks_per_bus = 2\n"
      "topology.num_filesystems = 1\n"
      "fault0.at_ms = 100\n"
      "fault0.volume = 0\n"  // line 4
      "fault0.member = 0\n"
      "fault0.action = fail\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 4"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("only mirror members"), std::string::npos);
}

TEST(FaultParseTest, MissingFieldsAndGapsRejected) {
  // fault0.member never set.
  auto missing = SystemConfig::Parse(std::string(kMirrorPrefix) +
                                     "fault0.at_ms = 100\n"
                                     "fault0.volume = 0\n"
                                     "fault0.action = fail\n");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("fault0.member"), std::string::npos)
      << missing.status().ToString();

  // Indices must be contiguous from 0.
  auto gap = SystemConfig::Parse(std::string(kMirrorPrefix) +
                                 "fault1.at_ms = 100\n"
                                 "fault1.volume = 0\n"
                                 "fault1.member = 1\n"
                                 "fault1.action = fail\n");
  ASSERT_FALSE(gap.ok());
  EXPECT_NE(gap.status().message().find("fault0"), std::string::npos)
      << gap.status().ToString();

  // Unknown fault field lists the valid ones.
  auto unknown = SystemConfig::Parse(std::string(kMirrorPrefix) + "fault0.when = 100\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("at_ms"), std::string::npos)
      << unknown.status().ToString();
}

TEST(FaultParseTest, RoundTripAndScheduleResolution) {
  auto parsed = SystemConfig::Parse(std::string(kMirrorPrefix) +
                                    "fault.rebuild_bw_kbps = 512\n"
                                    "fault0.at_ms = 5000\n"
                                    "fault0.volume = 0\n"
                                    "fault0.member = 1\n"
                                    "fault0.action = fail\n"
                                    "fault1.at_ms = 15000\n"
                                    "fault1.volume = 0\n"
                                    "fault1.member = 1\n"
                                    "fault1.action = return\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->rebuild_bw_kbps, 512u);
  ASSERT_EQ(parsed->faults.size(), 2u);

  auto reparsed = SystemConfig::Parse(parsed->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(parsed->ToString(), reparsed->ToString());

  auto schedule = FaultSchedule::FromConfig(*parsed);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  ASSERT_EQ(schedule->size(), 2u);
  EXPECT_EQ(schedule->events()[0].at, Duration::Seconds(5));
  EXPECT_EQ(schedule->events()[0].action, FaultAction::kFail);
  EXPECT_EQ(schedule->events()[1].action, FaultAction::kReturn);
  EXPECT_EQ(schedule->last_event_time(), Duration::Seconds(15));
  EXPECT_TRUE(SystemBuilder::Validate(*parsed).ok())
      << SystemBuilder::Validate(*parsed).ToString();
}

// Programmatic configs get the same checks from SystemBuilder::Validate.
TEST(FaultValidateTest, BuilderRejectsBadSchedules) {
  SystemConfig config;
  config.disks_per_bus = {2};
  config.num_filesystems = 1;
  VolumeSpec mirror;
  mirror.kind = "mirror";
  mirror.members = {0, 1};
  config.volumes = {mirror};
  config.faults = {FaultSpec{100, 0, 1, "shred"}};
  Status status = SystemBuilder::Validate(config);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.message().find("faults[0].action"), std::string::npos)
      << status.ToString();

  config.faults = {FaultSpec{100, 0, 1, "fail"}, FaultSpec{50, 0, 1, "return"}};
  status = SystemBuilder::Validate(config);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.message().find("faults[1].at_ms"), std::string::npos)
      << status.ToString();

  // Timestamps that would overflow the ms -> ns conversion are rejected,
  // not wrapped into the past.
  config.faults = {FaultSpec{kMaxFaultAtMs + 1, 0, 1, "fail"}};
  status = SystemBuilder::Validate(config);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.message().find("out of range"), std::string::npos) << status.ToString();
}

// -- MirrorVolume debt extents and availability accounting -------------------

TEST(MirrorDebtTest, ExtentsMergeAndPopInChunks) {
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(sched.get(), 64);
  MemDevice b(sched.get(), 64);
  MirrorVolume vol(sched.get(), &metrics, "v", {&a, &b});
  ASSERT_TRUE(vol.SetMemberFailed(0, true).ok());

  // Three writes: two adjacent (merge into [0, 8)), one separate ([16, 20)).
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 4, Pattern(4))).ok());
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(4, 4, Pattern(4))).ok());
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(16, 4, Pattern(4))).ok());
  EXPECT_EQ(vol.debt_sectors(0), 12u);
  EXPECT_EQ(vol.rebuild_debt_bytes(), 12u * kSector);

  // An overlapping re-write does not double-count.
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(2, 4, Pattern(4))).ok());
  EXPECT_EQ(vol.debt_sectors(0), 12u);

  // Pop in 5-sector chunks: [0,5), [5,8), [16,20), then dry.
  auto first = vol.PopDebtExtent(0, 5);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, (std::pair<uint64_t, uint32_t>{0, 5}));
  auto second = vol.PopDebtExtent(0, 5);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, (std::pair<uint64_t, uint32_t>{5, 3}));
  auto third = vol.PopDebtExtent(0, 5);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(*third, (std::pair<uint64_t, uint32_t>{16, 4}));
  EXPECT_FALSE(vol.PopDebtExtent(0, 5).has_value());

  // A failed copy pushes its extent back.
  vol.PushDebtExtent(0, 16, 4);
  EXPECT_EQ(vol.debt_sectors(0), 4u);
}

TEST(MirrorDebtTest, RefusalsAndAvailabilityReachTheStats) {
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(sched.get(), 64);
  MemDevice b(sched.get(), 64);
  MirrorVolume vol(sched.get(), &metrics, "v", {&a, &b});
  a.delay = Duration::Millis(1);
  b.delay = Duration::Millis(1);

  ASSERT_TRUE(vol.SetMemberFailed(0, true).ok());
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 4, Pattern(4, 2))).ok());
  EXPECT_EQ(vol.SetMemberFailed(0, false).code(), ErrorCode::kUnsupported);
  EXPECT_EQ(vol.reinstate_refusals(), 1u);
  EXPECT_GT(vol.degraded_time().nanos(), 0);

  const std::string json = vol.StatJson();
  EXPECT_NE(json.find("\"reinstate_refusals\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rebuild_debt_bytes\":2048"), std::string::npos) << json;
  EXPECT_NE(json.find("\"degraded_ms\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mttr_ms\":"), std::string::npos) << json;

  // Drain the debt by hand and reinstate: a repair with a measurable MTTR.
  while (vol.PopDebtExtent(0, 64).has_value()) {
  }
  ASSERT_TRUE(vol.SetMemberFailed(0, false).ok());
  EXPECT_EQ(vol.repairs(), 1u);
  EXPECT_GT(vol.mean_time_to_repair().nanos(), 0);
  EXPECT_NE(vol.StatJson().find("\"repairs\":1"), std::string::npos);
}

TEST(MirrorDebtTest, SetMemberFailedRacesInFlightIo) {
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(sched.get(), 64);
  MemDevice b(sched.get(), 64);
  MirrorVolume vol(sched.get(), &metrics, "v", {&a, &b});
  a.delay = Duration::Millis(10);
  b.delay = Duration::Millis(10);

  // A write is in flight on both members when member 0 is failed out. The
  // write still succeeds, and because member 0's fragment was issued (and
  // landed), it owes no debt for it — the issue-time set decides, not the
  // flag at completion. With no debt, the member can come straight back.
  auto fresh = Pattern(4, 9);
  Status write_result(ErrorCode::kAborted);
  sched->Spawn("write", [](MirrorVolume* v, std::span<const std::byte> data,
                           Status* out) -> Task<> {
    *out = co_await v->Write(0, 4, data);
  }(&vol, fresh, &write_result));
  sched->Spawn("failer", [](Scheduler* s, MirrorVolume* v) -> Task<> {
    co_await s->Sleep(Duration::Millis(1));  // mid-flight: inside the 10ms I/O
    PFS_CHECK(v->SetMemberFailed(0, true).ok());
  }(sched.get(), &vol));
  sched->Run();
  ASSERT_TRUE(write_result.ok()) << write_result.ToString();
  EXPECT_TRUE(vol.member_failed(0));
  EXPECT_EQ(vol.debt_sectors(0), 0u);
  EXPECT_EQ(a.at(0, 0), fresh[0]);  // the fragment landed before the flag
  EXPECT_EQ(b.at(0, 0), fresh[0]);
  ASSERT_TRUE(vol.SetMemberFailed(0, false).ok());

  // Reads racing a failure keep working from the survivor.
  std::vector<std::byte> back(4 * kSector);
  Status read_result(ErrorCode::kAborted);
  sched->Spawn("read", [](MirrorVolume* v, std::span<std::byte> out,
                          Status* st) -> Task<> {
    *st = co_await v->Read(0, 4, out);
  }(&vol, back, &read_result));
  sched->Spawn("failer2", [](Scheduler* s, MirrorVolume* v) -> Task<> {
    co_await s->Sleep(Duration::Millis(1));
    PFS_CHECK(v->SetMemberFailed(1, true).ok());  // in-flight read target
    PFS_CHECK(v->SetMemberFailed(1, false).ok());  // no debt: comes right back
  }(sched.get(), &vol));
  sched->Run();
  ASSERT_TRUE(read_result.ok()) << read_result.ToString();
  EXPECT_EQ(back, fresh);
}

TEST(MirrorDebtTest, ReinstateRefusedWhileASkippingWriteIsInFlight) {
  // The divergence race: member 0 is failed with zero debt, and a write
  // that skipped it is still in flight when a reinstate arrives. Letting it
  // back in would lose the write's debt (recorded only at completion) and
  // serve stale data — the reinstate must be refused until the write lands.
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(sched.get(), 64);
  MemDevice b(sched.get(), 64);
  MirrorVolume vol(sched.get(), &metrics, "v", {&a, &b});
  b.delay = Duration::Millis(10);
  ASSERT_TRUE(vol.SetMemberFailed(0, true).ok());

  auto fresh = Pattern(4, 6);
  Status write_result(ErrorCode::kAborted);
  Status midflight_reinstate(ErrorCode::kOk);
  sched->Spawn("write", [](MirrorVolume* v, std::span<const std::byte> data,
                           Status* out) -> Task<> {
    *out = co_await v->Write(0, 4, data);  // only member 1; 10ms in flight
  }(&vol, fresh, &write_result));
  sched->Spawn("reinstater", [](Scheduler* s, MirrorVolume* v, Status* out) -> Task<> {
    co_await s->Sleep(Duration::Millis(1));
    *out = v->SetMemberFailed(0, false);
  }(sched.get(), &vol, &midflight_reinstate));
  sched->Run();

  ASSERT_TRUE(write_result.ok()) << write_result.ToString();
  EXPECT_EQ(midflight_reinstate.code(), ErrorCode::kUnsupported)
      << midflight_reinstate.ToString();
  EXPECT_TRUE(vol.member_failed(0));     // still out
  EXPECT_EQ(vol.debt_sectors(0), 4u);    // the debt landed at completion
  EXPECT_EQ(vol.reinstate_refusals(), 1u);
  EXPECT_NE(a.at(0, 0), fresh[0]);       // stale bytes never rejoined the mirror

  // Once the debt is drained the member comes back for real.
  while (vol.PopDebtExtent(0, 64).has_value()) {
  }
  ASSERT_TRUE(vol.SetMemberFailed(0, false).ok());
}

// -- RebuildDaemon -----------------------------------------------------------

TEST(RebuildDaemonTest, DrainsDebtCopiesBytesAndReinstates) {
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(sched.get(), 64);
  MemDevice b(sched.get(), 64);
  MirrorVolume vol(sched.get(), &metrics, "v", {&a, &b});

  auto data = Pattern(8, 3);
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 8, data)).ok());
  ASSERT_TRUE(vol.SetMemberFailed(0, true).ok());
  auto fresh = Pattern(8, 4);
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 8, fresh)).ok());
  ASSERT_NE(a.at(0, 0), fresh[0]);  // member 0 is stale
  EXPECT_EQ(vol.debt_sectors(0), 8u);

  RebuildDaemon::Options options;
  options.bw_kbps = 64;
  options.chunk_sectors = 2;
  options.copy_real_data = true;
  RebuildDaemon daemon(sched.get(), &metrics, &vol, options);
  daemon.Start();
  daemon.RequestRebuild(0);
  EXPECT_FALSE(daemon.idle());

  sched->Spawn("waiter", [](Scheduler* s, RebuildDaemon* d) -> Task<> {
    while (!d->idle()) {
      co_await s->Sleep(Duration::Millis(1));
    }
  }(sched.get(), &daemon));
  sched->Run();

  EXPECT_TRUE(daemon.idle());
  EXPECT_FALSE(vol.member_failed(0));
  EXPECT_EQ(vol.debt_sectors(0), 0u);
  EXPECT_EQ(daemon.completed(), 1u);
  EXPECT_EQ(daemon.rebuilt_sectors(), 8u);
  EXPECT_EQ(vol.rebuilt_sectors(), 8u);
  EXPECT_EQ(vol.repairs(), 1u);
  // The stale bytes were actually re-copied through the volume path.
  for (uint64_t s = 0; s < 8; ++s) {
    EXPECT_EQ(a.at(s, 0), fresh[s * kSector]) << "sector " << s;
  }
  // The 64 kbps cap makes 4 KiB take ~62ms of simulated time.
  EXPECT_GT(sched->Now().nanos(), Duration::Millis(50).nanos());
  EXPECT_NE(daemon.StatJson().find("\"completed\":1"), std::string::npos)
      << daemon.StatJson();
  EXPECT_NE(vol.StatJson().find("\"rebuilt_bytes\":4096"), std::string::npos)
      << vol.StatJson();
}

TEST(RebuildDaemonTest, AbortedCopyKeepsTheMemberFailedAndTheDebt) {
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(sched.get(), 64);
  MemDevice b(sched.get(), 64);
  MirrorVolume vol(sched.get(), &metrics, "v", {&a, &b});
  ASSERT_TRUE(vol.SetMemberFailed(0, true).ok());
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 4, Pattern(4))).ok());

  a.fail = true;  // the returning member refuses the copy writes
  RebuildDaemon daemon(sched.get(), &metrics, &vol, RebuildDaemon::Options{0, 8, true});
  daemon.Start();
  daemon.RequestRebuild(0);
  sched->Spawn("waiter", [](Scheduler* s, RebuildDaemon* d) -> Task<> {
    while (!d->idle()) {
      co_await s->Sleep(Duration::Millis(1));
    }
  }(sched.get(), &daemon));
  sched->Run();

  EXPECT_EQ(daemon.aborted(), 1u);
  EXPECT_EQ(daemon.completed(), 0u);
  EXPECT_TRUE(vol.member_failed(0));
  EXPECT_EQ(vol.debt_sectors(0), 4u);  // pushed back for a later retry

  // The member recovers; a second request finishes the job.
  a.fail = false;
  daemon.RequestRebuild(0);
  sched->Spawn("waiter2", [](Scheduler* s, RebuildDaemon* d) -> Task<> {
    while (!d->idle()) {
      co_await s->Sleep(Duration::Millis(1));
    }
  }(sched.get(), &daemon));
  sched->Run();
  EXPECT_EQ(daemon.completed(), 1u);
  EXPECT_FALSE(vol.member_failed(0));
}

TEST(RebuildDaemonTest, RebuildWritesLandAtTheReturningMembersSliceOffset) {
  // Two mirrors share two file-backed disks, half each, so the second
  // mirror's slices start mid-disk. A rebuild write that dropped the slice
  // start would land in the first mirror's half of disk 1.
  const std::string base = testing::TempDir() + "/pfs_rebuild_slice_test.img";
  constexpr uint64_t kDiskBytes = 1 * kMiB;
  constexpr uint64_t kHalf = kDiskBytes / kSector / 2;
  constexpr uint64_t kAt = 24;  // member-local sector of the rebuilt write
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  IoExecutor executor(1);
  std::vector<std::unique_ptr<FileBackedDriver>> disks;
  for (int d = 0; d < 2; ++d) {
    const std::string path = base + "." + std::to_string(d);
    std::remove(path.c_str());
    auto driver = FileBackedDriver::Create(sched.get(), &metrics, "d" + std::to_string(d),
                                           path, kDiskBytes, &executor);
    ASSERT_TRUE(driver.ok()) << driver.status().ToString();
    (*driver)->Start();
    disks.push_back(std::move(driver).value());
  }
  MirrorVolume first(sched.get(), &metrics, "m0",
                     {{disks[0].get(), 0, kHalf}, {disks[1].get(), 0, kHalf}});
  MirrorVolume second(sched.get(), &metrics, "m1",
                      {{disks[0].get(), kHalf, kHalf}, {disks[1].get(), kHalf, kHalf}});

  const std::vector<std::byte> kept = Pattern(8, 1);
  ASSERT_TRUE(RunIo(sched.get(), first.Write(kAt, 8, kept)).ok());
  ASSERT_TRUE(second.SetMemberFailed(1, true).ok());
  const std::vector<std::byte> fresh = Pattern(8, 9);
  ASSERT_TRUE(RunIo(sched.get(), second.Write(kAt, 8, fresh)).ok());
  ASSERT_EQ(second.debt_sectors(1), 8u);

  RebuildDaemon daemon(sched.get(), &metrics, &second, RebuildDaemon::Options{0, 8, true});
  daemon.Start();
  daemon.RequestRebuild(1);
  sched->Spawn("waiter", [](Scheduler* s, RebuildDaemon* d) -> Task<> {
    while (!d->idle()) {
      co_await s->Sleep(Duration::Millis(1));
    }
  }(sched.get(), &daemon));
  sched->Run();
  EXPECT_EQ(daemon.completed(), 1u);
  EXPECT_FALSE(second.member_failed(1));

  // Disk 1, read below the volumes: the second mirror's slice holds the
  // rebuilt bytes and the first mirror's slice still holds its own.
  std::vector<std::byte> back(8 * kSector);
  ASSERT_TRUE(RunIo(sched.get(), disks[1]->Read(kHalf + kAt, 8, back)).ok());
  EXPECT_EQ(back, fresh);
  ASSERT_TRUE(RunIo(sched.get(), disks[1]->Read(kAt, 8, back)).ok());
  EXPECT_EQ(back, kept);

  disks.clear();
  for (int d = 0; d < 2; ++d) {
    std::remove((base + "." + std::to_string(d)).c_str());
  }
}

// -- FaultInjector through the assembled system ------------------------------

// Drives a built system's workload until the schedule fires, then waits for
// quiescence — the same shape run_scenario uses.
void DriveFaultWorkload(System* sys) {
  Status result(ErrorCode::kAborted);
  sys->scheduler()->Spawn("workload", [](System* s, Status* out) -> Task<> {
    LocalClient* client = s->client();
    OpenOptions create;
    create.create = true;
    for (int i = 0; !s->fault_injector()->done(); ++i) {
      auto fd = co_await client->Open("/" + s->mount_name(0) + "/f" +
                                          std::to_string(i % 8), create);
      if (!fd.ok()) {
        *out = fd.status();
        co_return;
      }
      auto wrote = co_await client->Write(*fd, 0, 4096, {});
      if (!wrote.ok()) {
        *out = wrote.status();
        co_return;
      }
      if (Status st = co_await client->Close(*fd); !st.ok()) {
        *out = st;
        co_return;
      }
      if (i % 4 == 3) {
        if (Status st = co_await client->SyncAll(); !st.ok()) {
          *out = st;
          co_return;
        }
      }
    }
    while (!s->fault_quiescent()) {
      co_await s->scheduler()->Sleep(Duration::Millis(5));
    }
    *out = OkStatus();
  }(sys, &result));
  sys->scheduler()->Run();
  ASSERT_TRUE(result.ok()) << result.ToString();
}

void ExpectFailReturnRebuildCycle(System* sys) {
  auto* mirror = dynamic_cast<MirrorVolume*>(sys->volume(0));
  ASSERT_NE(mirror, nullptr);
  FaultInjector* injector = sys->fault_injector();
  ASSERT_NE(injector, nullptr);
  EXPECT_TRUE(injector->quiescent());
  EXPECT_EQ(injector->applied_count(), 2u);
  EXPECT_EQ(injector->fails_applied(), 1u);
  EXPECT_EQ(injector->returns_applied(), 1u);
  EXPECT_GT(mirror->degraded_reads() + mirror->missed_writes(), 0u)
      << "the degraded window saw no traffic";
  EXPECT_EQ(mirror->live_member_count(), 2u);  // reinstated
  EXPECT_EQ(mirror->rebuild_debt_bytes(), 0u);  // drained
  EXPECT_GT(mirror->rebuilt_sectors(), 0u);
  EXPECT_EQ(mirror->repairs(), 1u);
  EXPECT_GT(mirror->degraded_time().nanos(), 0);
  EXPECT_EQ(sys->rebuild_daemon(0)->completed(), 1u);
}

SystemConfig FaultCycleConfig() {
  SystemConfig config;
  config.disks_per_bus = {2};
  config.num_filesystems = 1;
  config.cache_bytes = 4 * kMiB;
  config.lfs_segment_blocks = 64;
  config.max_inodes = 1024;
  VolumeSpec mirror;
  mirror.kind = "mirror";
  mirror.members = {0, 1};
  config.volumes = {mirror};
  config.rebuild_bw_kbps = 512;
  config.faults = {FaultSpec{50, 0, 1, "fail"}, FaultSpec{450, 0, 1, "return"}};
  return config;
}

TEST(FaultInjectorSystemTest, FailReturnRebuildOnTheSimulator) {
  SystemConfig config = FaultCycleConfig();
  auto system = SystemBuilder::Build(config);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_TRUE((*system)->Setup().ok());
  DriveFaultWorkload(system->get());
  ExpectFailReturnRebuildCycle(system->get());
}

TEST(FaultInjectorSystemTest, FailReturnRebuildOnTheFileBackedBackend) {
  SystemConfig config = FaultCycleConfig();
  config.backend = BackendKind::kFileBacked;
  // The on-line shape: real clock, real bytes through FileBackedDriver,
  // real copy I/O in the rebuild. The synced workload easily straddles the
  // 400ms degraded window; an uncapped-ish rebuild keeps the test short.
  config.rebuild_bw_kbps = 8192;
  config.image_path = "/tmp/pfs_fault_test.img";
  config.image_bytes = 16 * kMiB;
  auto system = SystemBuilder::Build(config);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_TRUE((*system)->Setup().ok());
  DriveFaultWorkload(system->get());
  ExpectFailReturnRebuildCycle(system->get());
  for (int i = 0; i < 2; ++i) {
    std::remove(("/tmp/pfs_fault_test.img" +
                 (i == 0 ? std::string() : "." + std::to_string(i)))
                    .c_str());
  }
}

}  // namespace
}  // namespace pfs
