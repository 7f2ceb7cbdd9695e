// Volumes: BlockDevice compositions between the storage layouts and the
// disk drivers.
//
//   SingleDiskVolume  one partition slice of one device (the seed behavior)
//   ConcatVolume      member slices appended end to end
//   StripedVolume     RAID-0: fixed stripe units round-robin over members;
//                     requests are split at unit boundaries and fanned out
//                     to the members in parallel via the scheduler
//   MirrorVolume      RAID-1: writes go to every live member in parallel,
//                     reads pick the live member with the shortest queue and
//                     fall back to the others when a member is failed
//
// A volume's members are its slices: each is a partition of a device (a
// disk driver, or its cross-shard proxy), and a volume addresses it
// directly, so a fragment is counted, timed and traced once, by the volume
// that issued it.
//
// Every volume is a StatSource: per-member request counts, fan-out width
// per request, and (for mirrors) the read balance across members. Request
// counts and latencies live in the system's MetricRegistry.
#ifndef PFS_VOLUME_VOLUME_H_
#define PFS_VOLUME_VOLUME_H_

#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/inline_vector.h"
#include "core/vector_pool.h"
#include "obs/metrics.h"
#include "sched/affinity.h"
#include "sched/scheduler.h"
#include "stats/histogram.h"
#include "stats/registry.h"
#include "volume/block_device.h"

namespace pfs {

// One member slice a volume composes: the partition [start_sector,
// start_sector + nsectors) of a device. A bare device converts to its whole
// extent, so `{&a, &b}` lists two whole disks.
struct VolumeSliceRef {
  VolumeSliceRef(BlockDevice* d, uint64_t start, uint64_t n)
      : device(d), start_sector(start), nsectors(n) {}
  VolumeSliceRef(BlockDevice* d) : VolumeSliceRef(d, 0, d->total_sectors()) {}

  BlockDevice* device;
  uint64_t start_sector;
  uint64_t nsectors;
};

// Volumes are shard-affine (ShardAffine): the constructor pins them to the
// scheduler they are built on, and every Read/Write entry path asserts the
// caller runs on that loop (foreign shards reach a volume only through a
// CrossShardDevice proxy or CallOn).
class Volume : public BlockDevice, public StatSource, public ShardAffine {
 public:
  // Registers the request counter, the request-latency histogram and one
  // fragment-latency histogram per member in `metrics`, labelled
  // {volume="<name>"}.
  Volume(Scheduler* sched, MetricRegistry* metrics, std::string name,
         std::vector<VolumeSliceRef> members);

  virtual const char* kind() const = 0;
  const std::string& name() const { return name_; }
  size_t member_count() const { return members_.size(); }

  // Member i's slice at a member-local address: the slice start added, the
  // slice bound checked. Nothing is counted, timed or traced here: the
  // caller accounts for the I/O (a volume request, or a rebuild copy).
  Task<Status> ReadMember(size_t i, uint64_t sector, uint32_t count,
                          std::span<std::byte> out) {
    const VolumeSliceRef& slice = members_[i];
    PFS_CHECK(sector + count <= slice.nsectors);
    return slice.device->Read(slice.start_sector + sector, count, out);
  }
  Task<Status> WriteMember(size_t i, uint64_t sector, uint32_t count,
                           std::span<const std::byte> in) {
    const VolumeSliceRef& slice = members_[i];
    PFS_CHECK(sector + count <= slice.nsectors);
    return slice.device->Write(slice.start_sector + sector, count, in);
  }

  uint32_t sector_bytes() const override { return sector_bytes_; }

  // StatSource
  std::string stat_name() const override { return "volume." + name_; }
  std::string StatJson() const override;

  // Completed requests.
  uint64_t requests() const { return requests_->Total(); }
  // Whole-request latency.
  LatencyHistogram latency() const { return latency_->Snapshot(); }
  uint64_t member_reads(size_t i) const { return member_reads_[i].value(); }
  uint64_t member_writes(size_t i) const { return member_writes_[i].value(); }
  const Histogram& fanout_width() const { return fanout_; }
  uint64_t coalesced_fragments() const { return coalesced_.value(); }
  uint64_t bounce_bytes() const { return bounce_bytes_.value(); }

  // Per-member fragment latency, from `begin` to `end`. Public because the
  // fan-out workers (free coroutines) call it with their own stamps.
  void NoteFragmentDone(size_t member, TimePoint begin, TimePoint end) {
    member_latency_[member]->RecordDuration(end - begin);
  }

  // Fragment coalescing (on by default): merge adjacent same-member pieces
  // of a mapped request so each member sees at most one contiguous request
  // per call. Off reproduces the historical one-fragment-per-crossing
  // behavior — benches and tests use it to compare the two paths.
  void set_coalesce(bool on) { coalesce_ = on; }
  bool coalesce() const { return coalesce_; }

  // One caller-buffer segment of a coalesced fragment: `count` sectors of
  // device data starting `byte_offset` bytes into the request's span.
  struct FragmentSegment {
    uint64_t byte_offset;
    uint32_t count;
  };

  // One member-local piece of a logical request. `byte_offset` locates the
  // piece in the request's (possibly empty) data span. When coalescing
  // merged pieces whose buffer positions are not contiguous (striping
  // interleaves members), the fragment's segments (FragmentList::segments)
  // list the caller-buffer segments in device order and the I/O goes
  // through a bounce buffer; no segments means the piece is contiguous at
  // `byte_offset`. Public for the address-mapping tests (like
  // StripedVolume::MapSector).
  struct Fragment {
    size_t member;
    uint64_t sector;  // member-local address
    uint32_t count;
    uint64_t byte_offset;
    uint32_t first_segment = 0;  // into the owning FragmentList's segments
    uint32_t segment_count = 0;
  };

  // Fragments a striped request of the shipped topologies maps to at most:
  // one per member of an 8-disk stripe.
  static constexpr size_t kInlineFragments = 8;
  // Segments and uncoalesced pieces held inline: a whole 512 KiB LFS
  // segment written through a 4-member stripe at 64 KiB units crosses at
  // most 9 units.
  static constexpr size_t kInlinePieces = 16;

  // The fragments of one request, with their segments. Up to
  // kInlineFragments fragments and kInlinePieces segments live inline, so
  // mapping such a request allocates nothing; larger ones spill to the heap.
  class FragmentList {
   public:
    size_t size() const { return fragments_.size(); }
    bool empty() const { return fragments_.empty(); }
    const Fragment& operator[](size_t i) const { return fragments_[i]; }
    const Fragment* begin() const { return fragments_.begin(); }
    const Fragment* end() const { return fragments_.end(); }
    std::span<const FragmentSegment> segments(size_t i) const {
      const Fragment& f = fragments_[i];
      return {segments_.data() + f.first_segment, f.segment_count};
    }

    // Appends a fragment contiguous in the caller's buffer.
    void Add(size_t member, uint64_t sector, uint32_t count, uint64_t byte_offset) {
      fragments_.push_back(Fragment{member, sector, count, byte_offset});
    }

   private:
    friend class Volume;
    InlineVector<Fragment, kInlineFragments> fragments_;
    InlineVector<FragmentSegment, kInlinePieces> segments_;
  };

  // Fragment `i` of `fragments`: a plain member Read/Write for a contiguous
  // fragment; a segmented one gathers (write) or scatters (read) through a
  // per-request bounce buffer, so the member still sees one contiguous
  // request. Empty caller spans skip the bounce (the simulated backend
  // moves no bytes). RunFragments' fan-out workers use it.
  Task<Status> IoFragment(bool is_write, const FragmentList& fragments, size_t i,
                          std::span<std::byte> out, std::span<const std::byte> in);

 protected:
  // The uncoalesced pieces of a request, in caller-buffer order.
  using Pieces = InlineVector<Fragment, kInlinePieces>;

  // Merges adjacent same-member, member-contiguous `pieces` (which must be in
  // caller-buffer order) into the fragments of one request and counts the
  // merges. Pieces whose buffer positions touch merge in place; strided
  // pieces become the merged fragment's segments, for the bounce path.
  // With set_coalesce(false) every piece stays a fragment of its own.
  FragmentList CoalesceFragments(const Pieces& pieces);

  // Performs the fragments and joins: a lone fragment runs inline on the
  // calling thread; several are spawned as transient scheduler threads so
  // members work in parallel. Returns the first non-ok member status;
  // `per_fragment` (empty, or one entry per fragment) receives every
  // fragment's own status, for callers whose policy is not first-error (the
  // mirror fails members out individually). `fragments` must outlive the
  // co_await (a caller local).
  Task<Status> RunFragments(bool is_write, std::span<std::byte> out,
                            std::span<const std::byte> in, const FragmentList& fragments,
                            std::span<Status> per_fragment = {});

  // Request bracket shared by every entry path (RunFragments and the
  // Read/Write overrides that bypass it): the shard-affinity assertion, the
  // request count and latency, and a volume.request span when the calling
  // thread carries a TraceContext. Not RAII on purpose — the end stamp must be
  // taken before co_return, not whenever the coroutine frame happens to be
  // destroyed.
  TimePoint OpBegin() const {
    PFS_ASSERT_SHARD();
    return sched_->Now();
  }
  void OpFinish(TimePoint begin, uint64_t count) {
    OpFinish(begin, sched_->Now(), count);
  }
  // With the end stamp the caller already took.
  void OpFinish(TimePoint begin, TimePoint end, uint64_t count);

  Scheduler* sched_;
  std::string name_;
  std::vector<VolumeSliceRef> members_;
  uint32_t sector_bytes_;

  // Requests, counted once each at completion (OpFinish), and their
  // whole-request latency.
  CounterMetric* requests_;
  HistogramMetric* latency_;
  std::vector<HistogramMetric*> member_latency_;  // fragment latency, per member

  Counter split_requests_;  // requests split across distinct address ranges
  Counter coalesced_;       // fragments merged away by coalescing
  Counter bounce_bytes_;    // bytes gathered/scattered through bounce buffers
  bool coalesce_ = true;
  std::vector<Counter> member_reads_;
  std::vector<Counter> member_writes_;
  Histogram fanout_;  // distinct members touched per request
};

// One partition slice of one device — how today's per-disk partitions enter
// the volume layer. A disk driver is itself a BlockDevice, so the slice may
// be of a whole disk or of any other volume.
class SingleDiskVolume final : public Volume {
 public:
  SingleDiskVolume(Scheduler* sched, MetricRegistry* metrics, std::string name,
                   VolumeSliceRef slice);

  const char* kind() const override { return "single"; }
  Task<Status> Read(uint64_t sector, uint32_t count, std::span<std::byte> out) override;
  Task<Status> Write(uint64_t sector, uint32_t count, std::span<const std::byte> in) override;
  uint64_t total_sectors() const override { return members_[0].nsectors; }
  size_t QueueDepthHint() const override { return members_[0].device->QueueDepthHint(); }
};

// Members appended end to end; requests crossing a member boundary are split.
class ConcatVolume final : public Volume {
 public:
  ConcatVolume(Scheduler* sched, MetricRegistry* metrics, std::string name,
               std::vector<VolumeSliceRef> members);

  // Capacity of a concat over members of these sizes — the constructor and
  // SystemBuilder's volume planner share this one formula.
  static uint64_t CapacitySectors(const std::vector<uint64_t>& member_sectors);

  const char* kind() const override { return "concat"; }
  Task<Status> Read(uint64_t sector, uint32_t count, std::span<std::byte> out) override;
  Task<Status> Write(uint64_t sector, uint32_t count, std::span<const std::byte> in) override;
  uint64_t total_sectors() const override { return total_; }

  // The member-local fragments a request maps (and, with coalescing on,
  // merges) to — exposed for the coalescing tests; Read/Write use it.
  FragmentList Map(uint64_t sector, uint32_t count);

 private:
  std::vector<uint64_t> member_start_;  // logical sector where member i begins
  uint64_t total_ = 0;
};

// RAID-0. Logical stripe unit u lives on member u % n at member-local unit
// u / n; capacity is bounded by the smallest member (whole units only).
class StripedVolume final : public Volume {
 public:
  StripedVolume(Scheduler* sched, MetricRegistry* metrics, std::string name,
                std::vector<VolumeSliceRef> members, uint32_t stripe_unit_sectors);

  // Whole stripes only, bounded by the smallest member; 0 when one stripe
  // unit exceeds the smallest member (the planner rejects, the constructor
  // CHECKs). Shared with SystemBuilder's volume planner.
  static uint64_t CapacitySectors(const std::vector<uint64_t>& member_sectors,
                                  uint32_t stripe_unit_sectors);

  const char* kind() const override { return "striped"; }
  Task<Status> Read(uint64_t sector, uint32_t count, std::span<std::byte> out) override;
  Task<Status> Write(uint64_t sector, uint32_t count, std::span<const std::byte> in) override;
  uint64_t total_sectors() const override { return total_; }

  uint32_t stripe_unit_sectors() const { return unit_; }

  // Member-local address of a logical sector (exposed for address-mapping
  // tests; Read/Write use the same arithmetic).
  std::pair<size_t, uint64_t> MapSector(uint64_t sector) const;

  // The member-local fragments a request maps to: one per stripe-unit
  // crossing without coalescing; with it, merged so each member appears at
  // most once (consecutive logical units on a member are member-contiguous,
  // their buffer positions strided — hence FragmentList::segments). Exposed
  // for the coalescing tests; Read/Write use it.
  FragmentList Map(uint64_t sector, uint32_t count);

 private:
  uint32_t unit_;
  uint64_t total_ = 0;
};

// RAID-1. Writes fan out to every live member; reads pick the live member
// with the shortest queue (rotating on ties, so equal members share load).
// A member marked failed is skipped: degraded reads are served by the
// survivors, and writes it misses are counted as rebuild debt. A live
// member whose write errors is failed out on the spot (a write succeeds if
// any replica persisted) — replicas never diverge silently.
class MirrorVolume final : public Volume {
 public:
  // Adds a rebuild-debt gauge to the base metrics, updated at every debt
  // mutation so a scrape sees the outstanding debt live.
  MirrorVolume(Scheduler* sched, MetricRegistry* metrics, std::string name,
               std::vector<VolumeSliceRef> members);

  static uint64_t CapacitySectors(const std::vector<uint64_t>& member_sectors);

  const char* kind() const override { return "mirror"; }
  Task<Status> Read(uint64_t sector, uint32_t count, std::span<std::byte> out) override;
  Task<Status> Write(uint64_t sector, uint32_t count, std::span<const std::byte> in) override;
  uint64_t total_sectors() const override { return total_; }

  // Failing a member out always succeeds. Reinstating one refuses
  // (kUnsupported) while the member carries rebuild debt — its stale blocks
  // would rotate into reads; the RebuildDaemon (src/fault) drains the debt
  // first and then reinstates. Refusals are counted (reinstate_refusals).
  Status SetMemberFailed(size_t i, bool failed);
  bool member_failed(size_t i) const { return failed_[i]; }
  // Writes member i missed while failed out: its rebuild debt.
  uint64_t member_missed_writes(size_t i) const { return member_missed_[i].value(); }
  size_t live_member_count() const;
  uint64_t missed_writes() const { return missed_writes_.value(); }
  uint64_t degraded_reads() const { return degraded_reads_.value(); }

  // -- rebuild-debt extents (the RebuildDaemon's work queue) ---------------
  // Debt is tracked as merged member-local sector extents, so a rebuild
  // copies exactly the ranges the member missed (mirror members share the
  // volume's address space: member-local sector == volume sector).
  uint64_t debt_sectors(size_t i) const;
  // Outstanding debt over all members, in bytes (also in StatJson).
  uint64_t rebuild_debt_bytes() const;
  // Removes and returns up to `max_sectors` from the front of member i's
  // lowest debt extent; nullopt when the member owes nothing. A foreground
  // write racing the copy simply re-adds its extent (the member is still
  // failed), so the rebuild loop re-copies it before draining dry.
  std::optional<std::pair<uint64_t, uint32_t>> PopDebtExtent(size_t i, uint32_t max_sectors);
  // Returns a popped extent to the debt map (a rebuild copy that failed).
  void PushDebtExtent(size_t i, uint64_t sector, uint32_t count);
  // True when SetMemberFailed(i, false) would be refused right now:
  // outstanding debt, or an in-flight write that skipped the member. The
  // RebuildDaemon polls this before its routine reinstate attempts, so
  // reinstate_refusals counts only genuine premature-reinstate calls.
  bool ReinstateBlocked(size_t i) const {
    return !debt_[i].empty() || inflight_missing_[i] > 0;
  }

  // -- rebuild/availability accounting (hooks for the RebuildDaemon) -------
  void NoteRebuildCopied(uint64_t sectors) { rebuilt_sectors_.Inc(sectors); }
  void NoteRebuildElapsed(Duration d) { rebuild_ns_ += d.nanos(); }
  uint64_t rebuilt_sectors() const { return rebuilt_sectors_.value(); }
  uint64_t reinstate_refusals() const { return reinstate_refusals_.value(); }
  uint64_t repairs() const { return repairs_; }
  // Cumulative wall/sim time with >= 1 member failed, open interval included.
  Duration degraded_time() const;
  // Mean time to repair over completed reinstatements.
  Duration mean_time_to_repair() const;

  std::string StatJson() const override;

 private:
  // Member indices, held inline up to kInlineFragments members.
  using MemberList = InlineVector<size_t, kInlineFragments>;
  // Live members, shortest queue first; `rr_` rotates equal-depth choices.
  MemberList ReadOrder();

  // The one place a member transitions to failed (explicit SetMemberFailed
  // and the Read/Write fail-out paths), so the degraded-time clock and
  // per-member down-since stamps stay consistent. Idempotent.
  void MarkMemberFailed(size_t i);
  // Merges [sector, sector + count) into member i's debt extents.
  void AddDebt(size_t i, uint64_t sector, uint32_t count);
  // Refreshes the live rebuild-debt gauge after a debt mutation. Runs on
  // the owning shard, like every debt mutation.
  void UpdateDebtGauge();

  GaugeMetric* debt_bytes_;

  std::vector<bool> failed_;
  uint64_t total_ = 0;
  size_t rr_ = 0;
  VectorPool<Status> write_results_;  // Write's per-member statuses
  Counter missed_writes_;  // writes a failed member did not see (rebuild debt)
  std::vector<Counter> member_missed_;  // the same debt, per member
  Counter degraded_reads_;

  // Rebuild debt as merged [start, end) sector extents, per member.
  std::vector<std::map<uint64_t, uint64_t>> debt_;
  // Writes currently in flight whose fragment set skipped member i (it was
  // failed at issue). Their debt is recorded at completion, so reinstating
  // while this is non-zero would lose it and silently diverge the mirror —
  // SetMemberFailed(i, false) refuses until they drain.
  std::vector<size_t> inflight_missing_;
  // Availability accounting.
  std::vector<TimePoint> down_since_;  // valid while failed_[i]
  size_t failed_count_ = 0;
  TimePoint degraded_since_;   // valid while failed_count_ > 0
  int64_t degraded_ns_ = 0;    // closed degraded intervals
  uint64_t repairs_ = 0;
  int64_t repair_total_ns_ = 0;
  Counter reinstate_refusals_;
  Counter rebuilt_sectors_;
  int64_t rebuild_ns_ = 0;  // time the RebuildDaemon spent copying for us
};

}  // namespace pfs

#endif  // PFS_VOLUME_VOLUME_H_
