// Unit tests for src/volume: address-mapping round-trips for striped,
// concatenated, and mirrored volumes over an in-memory fake device, mirror
// degraded-mode behavior, and the volumes' statistics.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/json.h"
#include "sched/scheduler.h"
#include "volume/volume.h"

namespace pfs {
namespace {

constexpr uint32_t kSector = 512;

// Byte-holding BlockDevice that completes inline: pure address-mapping
// checks, no disk model underneath.
class MemDevice final : public BlockDevice {
 public:
  explicit MemDevice(uint64_t nsectors) : data_(nsectors * kSector, std::byte{0}) {}

  Task<Status> Read(uint64_t sector, uint32_t count, std::span<std::byte> out) override {
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
  size_t QueueDepthHint() const override { return hint; }

  std::byte at(uint64_t sector, uint64_t byte) const { return data_[sector * kSector + byte]; }

  size_t hint = 0;
  bool fail = false;
  int reads = 0;
  int writes = 0;

 private:
  std::vector<std::byte> data_;
};

// Runs one volume operation to completion on a virtual-clock scheduler.
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

TEST(SingleDiskVolumeTest, SliceOffsetsIntoBacking) {
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice disk(64);
  SingleDiskVolume vol(sched.get(), &metrics, "v", {&disk, /*start_sector=*/16,
                                                    /*nsectors=*/32});
  EXPECT_EQ(vol.total_sectors(), 32u);

  auto data = Pattern(4);
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 4, data)).ok());
  EXPECT_EQ(disk.at(16, 0), data[0]);  // volume sector 0 = backing sector 16

  std::vector<std::byte> back(4 * kSector);
  ASSERT_TRUE(RunIo(sched.get(), vol.Read(0, 4, back)).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(vol.member_reads(0), 1u);
  EXPECT_EQ(vol.member_writes(0), 1u);
}

TEST(ConcatVolumeTest, SplitsAcrossTheMemberBoundary) {
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(8);
  MemDevice b(8);
  ConcatVolume vol(sched.get(), &metrics, "v", {&a, &b});
  ASSERT_EQ(vol.total_sectors(), 16u);

  // Sectors 6..10 straddle the boundary: 2 on `a`, 2 on `b`.
  auto data = Pattern(4, 7);
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(6, 4, data)).ok());
  EXPECT_EQ(a.at(6, 0), data[0]);
  EXPECT_EQ(a.at(7, 0), data[kSector]);
  EXPECT_EQ(b.at(0, 0), data[2 * kSector]);
  EXPECT_EQ(b.at(1, 0), data[3 * kSector]);

  std::vector<std::byte> back(4 * kSector);
  ASSERT_TRUE(RunIo(sched.get(), vol.Read(6, 4, back)).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(vol.member_reads(0), 1u);
  EXPECT_EQ(vol.member_reads(1), 1u);
  EXPECT_GT(vol.fanout_width().max(), 1.0);
}

TEST(StripedVolumeTest, MapSectorRoundRobinsUnits) {
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(16);
  MemDevice b(16);
  MemDevice c(16);
  StripedVolume vol(sched.get(), &metrics, "v", {&a, &b, &c}, /*stripe_unit_sectors=*/4);
  EXPECT_EQ(vol.total_sectors(), 48u);
  EXPECT_EQ(vol.MapSector(0), (std::pair<size_t, uint64_t>{0, 0}));
  EXPECT_EQ(vol.MapSector(3), (std::pair<size_t, uint64_t>{0, 3}));
  EXPECT_EQ(vol.MapSector(4), (std::pair<size_t, uint64_t>{1, 0}));
  EXPECT_EQ(vol.MapSector(8), (std::pair<size_t, uint64_t>{2, 0}));
  EXPECT_EQ(vol.MapSector(12), (std::pair<size_t, uint64_t>{0, 4}));  // second stripe
  EXPECT_EQ(vol.MapSector(47), (std::pair<size_t, uint64_t>{2, 15}));
}

TEST(StripedVolumeTest, WriteReadRoundTripAndPlacement) {
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(16);
  MemDevice b(16);
  StripedVolume vol(sched.get(), &metrics, "v", {&a, &b}, 4);

  // One request covering the whole volume: every sector lands where
  // MapSector says, and reading it back restores the pattern.
  auto data = Pattern(32, 3);
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 32, data)).ok());
  for (uint64_t s = 0; s < 32; ++s) {
    const auto [member, member_sector] = vol.MapSector(s);
    const MemDevice& dev = member == 0 ? a : b;
    EXPECT_EQ(dev.at(member_sector, 0), data[s * kSector]) << "sector " << s;
  }
  std::vector<std::byte> back(32 * kSector);
  ASSERT_TRUE(RunIo(sched.get(), vol.Read(0, 32, back)).ok());
  EXPECT_EQ(back, data);

  // The large request split and touched both members.
  EXPECT_EQ(vol.requests(), 2u);
  EXPECT_GT(vol.member_reads(0), 0u);
  EXPECT_GT(vol.member_reads(1), 0u);
  EXPECT_EQ(vol.fanout_width().max(), 2.0);
}

TEST(StripedVolumeTest, EmptySpansSimulatedMode) {
  // The simulated backend passes empty spans; splitting must not touch them.
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(16);
  MemDevice b(16);
  StripedVolume vol(sched.get(), &metrics, "v", {&a, &b}, 4);
  EXPECT_TRUE(RunIo(sched.get(), vol.Write(0, 24, {})).ok());
  EXPECT_TRUE(RunIo(sched.get(), vol.Read(2, 9, {})).ok());
}

TEST(MirrorVolumeTest, WritesAllMembersReadsBalance) {
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(16);
  MemDevice b(16);
  MirrorVolume vol(sched.get(), &metrics, "v", {&a, &b});
  EXPECT_EQ(vol.total_sectors(), 16u);

  auto data = Pattern(4, 9);
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(2, 4, data)).ok());
  for (uint64_t s = 0; s < 4; ++s) {
    EXPECT_EQ(a.at(2 + s, 0), data[s * kSector]);
    EXPECT_EQ(b.at(2 + s, 0), data[s * kSector]);
  }

  // Equal queue depths: reads rotate over the members instead of pinning
  // member 0 (the mirror read balance the stats report).
  std::vector<std::byte> back(4 * kSector);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(RunIo(sched.get(), vol.Read(2, 4, back)).ok());
    EXPECT_EQ(back, data);
  }
  EXPECT_EQ(vol.member_reads(0), 3u);
  EXPECT_EQ(vol.member_reads(1), 3u);
}

TEST(MirrorVolumeTest, ReadsPreferTheShortestQueue) {
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(16);
  MemDevice b(16);
  MirrorVolume vol(sched.get(), &metrics, "v", {&a, &b});
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 2, Pattern(2))).ok());

  a.hint = 5;  // member 0 busy
  std::vector<std::byte> back(2 * kSector);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(RunIo(sched.get(), vol.Read(0, 2, back)).ok());
  }
  EXPECT_EQ(vol.member_reads(0), 0u);
  EXPECT_EQ(vol.member_reads(1), 4u);
}

TEST(MirrorVolumeTest, DegradedReadsAndRebuildDebt) {
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(16);
  MemDevice b(16);
  MirrorVolume vol(sched.get(), &metrics, "v", {&a, &b});
  auto data = Pattern(4, 5);
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 4, data)).ok());

  // Member 0 fails: reads keep working from member 1, and writes it misses
  // are counted as rebuild debt.
  ASSERT_TRUE(vol.SetMemberFailed(0, true).ok());
  EXPECT_EQ(vol.live_member_count(), 1u);
  std::vector<std::byte> back(4 * kSector);
  ASSERT_TRUE(RunIo(sched.get(), vol.Read(0, 4, back)).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(a.reads, 0);

  auto fresh = Pattern(4, 6);
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 4, fresh)).ok());
  EXPECT_EQ(vol.missed_writes(), 1u);
  EXPECT_EQ(vol.member_missed_writes(0), 1u);
  EXPECT_EQ(b.at(0, 0), fresh[0]);
  EXPECT_NE(a.at(0, 0), fresh[0]);  // stale: member 0 missed the write

  // The degraded-mode counters reach the machine-readable stats too,
  // including the outstanding rebuild debt (4 sectors = 2048 bytes).
  const std::string json = vol.StatJson();
  EXPECT_NE(json.find("\"live_members\":1"), std::string::npos);
  EXPECT_NE(json.find("\"missed_writes\":1"), std::string::npos);
  EXPECT_NE(json.find("\"degraded_reads\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rebuild_debt_bytes\":2048"), std::string::npos) << json;
  EXPECT_NE(json.find("\"reinstate_refusals\":0"), std::string::npos) << json;

  // Both members failed: reads and writes surface an I/O error.
  ASSERT_TRUE(vol.SetMemberFailed(1, true).ok());
  EXPECT_EQ(RunIo(sched.get(), vol.Read(0, 4, back)).code(), ErrorCode::kIoError);
  EXPECT_EQ(RunIo(sched.get(), vol.Write(0, 4, fresh)).code(), ErrorCode::kIoError);

  // Member 1 carries no rebuild debt and comes back; member 0 missed a
  // write, so reinstating it (no rebuild exists yet) is refused — its stale
  // blocks must not rotate into reads.
  ASSERT_TRUE(vol.SetMemberFailed(1, false).ok());
  EXPECT_EQ(vol.SetMemberFailed(0, false).code(), ErrorCode::kUnsupported);
  EXPECT_TRUE(vol.member_failed(0));
  EXPECT_EQ(vol.reinstate_refusals(), 1u);  // the refusal itself is observable
  ASSERT_TRUE(RunIo(sched.get(), vol.Read(0, 4, back)).ok());
  EXPECT_EQ(back, fresh);
}

TEST(MirrorVolumeTest, FallsBackWhenAMemberErrorsUnmarked) {
  // A member that fails without being marked (returns kIoError) is retried
  // on the survivors.
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(16);
  MemDevice b(16);
  MirrorVolume vol(sched.get(), &metrics, "v", {&a, &b});
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 2, Pattern(2, 4))).ok());

  a.fail = true;
  b.hint = 1;  // steer the first attempt at the broken member 0
  std::vector<std::byte> back(2 * kSector);
  ASSERT_TRUE(RunIo(sched.get(), vol.Read(0, 2, back)).ok());
  EXPECT_EQ(back, Pattern(2, 4));
  EXPECT_GT(a.reads, 0);  // attempted, failed over

  // The erroring member is failed out (a survivor has the data), so later
  // reads stop paying a doomed attempt on it — and the fallback read shows
  // up in the fan-out histogram as having touched both members.
  EXPECT_TRUE(vol.member_failed(0));
  EXPECT_EQ(vol.fanout_width().max(), 2.0);
  const int attempts_before = a.reads;
  ASSERT_TRUE(RunIo(sched.get(), vol.Read(0, 2, back)).ok());
  EXPECT_EQ(a.reads, attempts_before);
}

TEST(MirrorVolumeTest, AllMembersErroringDoesNotBrickTheVolume) {
  // One transient glitch hitting every replica at once must not mark the
  // whole mirror failed: nothing diverged (no member took the write), so
  // the volume recovers as soon as the members do.
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(16);
  MemDevice b(16);
  MirrorVolume vol(sched.get(), &metrics, "v", {&a, &b});
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 2, Pattern(2, 1))).ok());

  a.fail = true;
  b.fail = true;
  EXPECT_EQ(RunIo(sched.get(), vol.Write(0, 2, Pattern(2, 2))).code(),
            ErrorCode::kIoError);
  EXPECT_EQ(RunIo(sched.get(), vol.Read(0, 2, {})).code(), ErrorCode::kIoError);
  EXPECT_EQ(vol.live_member_count(), 2u);  // still live: transient, no divergence
  EXPECT_EQ(vol.missed_writes(), 0u);

  a.fail = false;
  b.fail = false;
  std::vector<std::byte> back(2 * kSector);
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 2, Pattern(2, 3))).ok());
  ASSERT_TRUE(RunIo(sched.get(), vol.Read(0, 2, back)).ok());
  EXPECT_EQ(back, Pattern(2, 3));
}

TEST(MirrorVolumeTest, WriteErrorFailsTheMemberOutInsteadOfDiverging) {
  // A live member whose write errors while a replica succeeds must leave the
  // mirror degraded: otherwise later reads alternate between old and new
  // data depending on which member they pick.
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(16);
  MemDevice b(16);
  MirrorVolume vol(sched.get(), &metrics, "v", {&a, &b});
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 2, Pattern(2, 1))).ok());

  b.fail = true;  // transient error, not marked by anyone
  auto fresh = Pattern(2, 2);
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 2, fresh)).ok());  // a persisted it
  EXPECT_TRUE(vol.member_failed(1));
  EXPECT_EQ(vol.live_member_count(), 1u);
  EXPECT_EQ(vol.missed_writes(), 1u);

  // Every read now comes from the member that has the new data.
  b.fail = false;
  std::vector<std::byte> back(2 * kSector);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(RunIo(sched.get(), vol.Read(0, 2, back)).ok());
    EXPECT_EQ(back, fresh);
  }
  EXPECT_EQ(b.reads, 0);
}

TEST(VolumeFanoutTest, TransientWorkersAreReclaimed) {
  // Fan-out workers are transient scheduler threads: a long run of split
  // requests must not grow the scheduler's thread table per fragment.
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(64);
  MemDevice b(64);
  StripedVolume vol(sched.get(), &metrics, "v", {&a, &b}, 4);

  constexpr int kOps = 50;
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 32, {})).ok());  // 8 fragments each
  }
  EXPECT_GT(vol.requests(), 0u);
  // One retained record per RunIo joiner; the 8 * kOps fragment workers are
  // all reclaimed.
  EXPECT_LE(sched->thread_record_count(), static_cast<size_t>(kOps) + 4);
}

TEST(StripedVolumeTest, MapCoalescesAdjacentUnitsPerMember) {
  // 16 sectors over 2 members at 4-sector units = 4 units, 2 per member.
  // Each member's units are member-contiguous, so coalescing folds the 4
  // fragments into 2 — one per member — with caller-buffer segments.
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(16);
  MemDevice b(16);
  StripedVolume vol(sched.get(), &metrics, "v", {&a, &b}, 4);

  auto fragments = vol.Map(0, 16);
  ASSERT_EQ(fragments.size(), 2u);
  EXPECT_EQ(fragments[0].member, 0u);
  EXPECT_EQ(fragments[0].sector, 0u);
  EXPECT_EQ(fragments[0].count, 8u);
  ASSERT_EQ(fragments.segments(0).size(), 2u);
  EXPECT_EQ(fragments.segments(0)[0].byte_offset, 0u);
  EXPECT_EQ(fragments.segments(0)[0].count, 4u);
  EXPECT_EQ(fragments.segments(0)[1].byte_offset, 8 * kSector);  // unit 2
  EXPECT_EQ(fragments.segments(0)[1].count, 4u);
  EXPECT_EQ(fragments[1].member, 1u);
  EXPECT_EQ(fragments[1].sector, 0u);
  EXPECT_EQ(fragments[1].count, 8u);
  ASSERT_EQ(fragments.segments(1).size(), 2u);
  EXPECT_EQ(fragments.segments(1)[0].byte_offset, 4 * kSector);  // unit 1
  EXPECT_EQ(fragments.segments(1)[1].byte_offset, 12 * kSector);  // unit 3
}

TEST(StripedVolumeTest, MapSingleSectorStaysSingleFragment) {
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(16);
  MemDevice b(16);
  StripedVolume vol(sched.get(), &metrics, "v", {&a, &b}, 4);

  auto fragments = vol.Map(5, 1);
  ASSERT_EQ(fragments.size(), 1u);
  EXPECT_EQ(fragments[0].member, 1u);
  EXPECT_EQ(fragments[0].sector, 1u);
  EXPECT_EQ(fragments[0].count, 1u);
  EXPECT_TRUE(fragments.segments(0).empty());  // contiguous, no bounce needed
  EXPECT_EQ(vol.coalesced_fragments(), 0u);
}

TEST(StripedVolumeTest, MapWrapsAcrossAllMembersAtExactUnitMultiples) {
  // 12 sectors over 3 members at 2-sector units = 6 units, exactly 2 per
  // member; every member's pair of units merges into one fragment.
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(16);
  MemDevice b(16);
  MemDevice c(16);
  StripedVolume vol(sched.get(), &metrics, "v", {&a, &b, &c}, 2);

  auto fragments = vol.Map(0, 12);
  ASSERT_EQ(fragments.size(), 3u);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(fragments[m].member, m);
    EXPECT_EQ(fragments[m].sector, 0u);
    EXPECT_EQ(fragments[m].count, 4u);
    ASSERT_EQ(fragments.segments(m).size(), 2u);
    EXPECT_EQ(fragments.segments(m)[0].byte_offset, m * 2 * kSector);
    EXPECT_EQ(fragments.segments(m)[1].byte_offset, (m + 3) * 2 * kSector);
  }
  EXPECT_EQ(vol.coalesced_fragments(), 3u);  // 6 fragments merged down to 3
}

TEST(StripedVolumeTest, CoalescingSendsOneRequestPerMember) {
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(16);
  MemDevice b(16);
  StripedVolume vol(sched.get(), &metrics, "v", {&a, &b}, 4);

  // 16 sectors = 2 units per member: one gathered write per member, one
  // scattered read per member, and the pattern survives the bounce buffer.
  auto data = Pattern(16, 11);
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 16, data)).ok());
  EXPECT_EQ(a.writes, 1);
  EXPECT_EQ(b.writes, 1);
  for (uint64_t s = 0; s < 16; ++s) {
    const auto [member, member_sector] = vol.MapSector(s);
    const MemDevice& dev = member == 0 ? a : b;
    EXPECT_EQ(dev.at(member_sector, 0), data[s * kSector]) << "sector " << s;
    EXPECT_EQ(dev.at(member_sector, kSector - 1), data[s * kSector + kSector - 1]);
  }

  std::vector<std::byte> back(16 * kSector);
  ASSERT_TRUE(RunIo(sched.get(), vol.Read(0, 16, back)).ok());
  EXPECT_EQ(a.reads, 1);
  EXPECT_EQ(b.reads, 1);
  EXPECT_EQ(back, data);
  EXPECT_GT(vol.coalesced_fragments(), 0u);
  EXPECT_EQ(vol.bounce_bytes(), 2u * 16 * kSector);  // both directions bounced
}

TEST(StripedVolumeTest, RequestsBeyondTheInlineStorageSpillAndRoundTrip) {
  // 40 one-sector units over 2 members: 40 pieces, more than a FragmentList
  // holds inline, coalesced into 2 fragments of 20 segments each (and, with
  // coalescing off, 40 fragments). Both paths still move the right bytes.
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(32);
  MemDevice b(32);
  StripedVolume on(sched.get(), &metrics, "on", {&a, &b}, 1);
  MemDevice c(32);
  MemDevice d(32);
  StripedVolume off(sched.get(), &metrics, "off", {&c, &d}, 1);
  off.set_coalesce(false);
  static_assert(40 > Volume::kInlinePieces && 40 > Volume::kInlineFragments);

  const auto fragments = on.Map(0, 40);
  ASSERT_EQ(fragments.size(), 2u);
  ASSERT_EQ(fragments.segments(0).size(), 20u);
  ASSERT_EQ(fragments.segments(1).size(), 20u);
  EXPECT_EQ(fragments.segments(1)[19].byte_offset, 39 * kSector);
  EXPECT_EQ(off.Map(0, 40).size(), 40u);

  auto data = Pattern(40, 17);
  ASSERT_TRUE(RunIo(sched.get(), on.Write(0, 40, data)).ok());
  ASSERT_TRUE(RunIo(sched.get(), off.Write(0, 40, data)).ok());
  EXPECT_EQ(a.writes + b.writes, 2);
  EXPECT_EQ(c.writes + d.writes, 40);
  std::vector<std::byte> back_on(40 * kSector);
  std::vector<std::byte> back_off(40 * kSector);
  ASSERT_TRUE(RunIo(sched.get(), on.Read(0, 40, back_on)).ok());
  ASSERT_TRUE(RunIo(sched.get(), off.Read(0, 40, back_off)).ok());
  EXPECT_EQ(back_on, data);
  EXPECT_EQ(back_off, data);
}

TEST(StripedVolumeTest, CoalescingOffMatchesCoalescingOn) {
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(16);
  MemDevice b(16);
  StripedVolume on(sched.get(), &metrics, "on", {&a, &b}, 4);
  MemDevice c(16);
  MemDevice d(16);
  StripedVolume off(sched.get(), &metrics, "off", {&c, &d}, 4);
  off.set_coalesce(false);

  auto data = Pattern(16, 13);
  ASSERT_TRUE(RunIo(sched.get(), on.Write(0, 16, data)).ok());
  ASSERT_TRUE(RunIo(sched.get(), off.Write(0, 16, data)).ok());

  // Same bytes in the same member sectors, different request counts: the
  // uncoalesced volume sent one request per stripe unit.
  for (uint64_t s = 0; s < 16; ++s) {
    const auto [member, member_sector] = on.MapSector(s);
    const MemDevice& dev_on = member == 0 ? a : b;
    const MemDevice& dev_off = member == 0 ? c : d;
    EXPECT_EQ(dev_on.at(member_sector, 0), dev_off.at(member_sector, 0));
  }
  EXPECT_EQ(a.writes + b.writes, 2);
  EXPECT_EQ(c.writes + d.writes, 4);
  EXPECT_EQ(off.coalesced_fragments(), 0u);
  EXPECT_EQ(off.bounce_bytes(), 0u);

  std::vector<std::byte> back_on(16 * kSector);
  std::vector<std::byte> back_off(16 * kSector);
  ASSERT_TRUE(RunIo(sched.get(), on.Read(0, 16, back_on)).ok());
  ASSERT_TRUE(RunIo(sched.get(), off.Read(0, 16, back_off)).ok());
  EXPECT_EQ(back_on, data);
  EXPECT_EQ(back_off, data);
}

TEST(StripedVolumeTest, CoalescedEmptySpansSkipTheBounce) {
  // Simulated mode: empty caller spans coalesce (fewer member requests) but
  // never allocate a bounce buffer — no real bytes move.
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(16);
  MemDevice b(16);
  StripedVolume vol(sched.get(), &metrics, "v", {&a, &b}, 4);
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 16, {})).ok());
  EXPECT_EQ(a.writes, 1);
  EXPECT_EQ(b.writes, 1);
  EXPECT_GT(vol.coalesced_fragments(), 0u);
  EXPECT_EQ(vol.bounce_bytes(), 0u);
}

TEST(ConcatVolumeTest, MapDoesNotMergeAcrossMembers) {
  // Concat fragments on different members stay separate; within one member a
  // run is already contiguous, so nothing needs merging either.
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(8);
  MemDevice b(8);
  ConcatVolume vol(sched.get(), &metrics, "v", {&a, &b});
  auto fragments = vol.Map(6, 4);
  ASSERT_EQ(fragments.size(), 2u);
  EXPECT_EQ(fragments[0].member, 0u);
  EXPECT_EQ(fragments[1].member, 1u);
  EXPECT_TRUE(fragments.segments(0).empty());
  EXPECT_TRUE(fragments.segments(1).empty());
  EXPECT_EQ(vol.coalesced_fragments(), 0u);
}

TEST(VolumeStatsTest, ReportAndJson) {
  auto sched = Scheduler::CreateVirtual(1);
  MetricRegistry metrics(1, "pfs");
  MemDevice a(16);
  MemDevice b(16);
  StripedVolume vol(sched.get(), &metrics, "v", {&a, &b}, 4);
  ASSERT_TRUE(RunIo(sched.get(), vol.Write(0, 16, Pattern(16))).ok());

  EXPECT_EQ(vol.stat_name(), "volume.v");
  auto json = ParseJson(vol.StatJson());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(json->Find("kind")->string_value, "striped");
  ASSERT_EQ(json->Find("members")->array.size(), 2u);
  EXPECT_GT(json->Find("members")->array[1].Find("writes")->number_value, 0.0);
  EXPECT_EQ(json->Find("split_requests")->number_value, 1.0);

  StatsRegistry registry;
  registry.Register(&vol);
  const std::string all = registry.ReportJson();
  EXPECT_EQ(all.find("{\"volume.v\":{"), 0u);
  EXPECT_EQ(all.back(), '}');
}

}  // namespace
}  // namespace pfs
