#include "volume/volume.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "system/component_registry.h"

namespace pfs {
namespace {

std::span<std::byte> SubSpan(std::span<std::byte> s, uint64_t off, uint64_t len) {
  return s.empty() ? s : s.subspan(static_cast<size_t>(off), static_cast<size_t>(len));
}

std::span<const std::byte> SubSpan(std::span<const std::byte> s, uint64_t off, uint64_t len) {
  return s.empty() ? s : s.subspan(static_cast<size_t>(off), static_cast<size_t>(len));
}

// Countdown join for a fan-out: lives in the issuing coroutine's frame, so
// the workers need no joinable Thread records (they are spawned transient
// and reclaimed on finish).
struct FanoutJoin {
  FanoutJoin(Scheduler* sched, size_t n) : remaining(n), done(sched) {}
  size_t remaining;
  Event done;
  // The failed fragment with the lowest index, whatever order they finish in.
  size_t first_error_index = SIZE_MAX;
  Status first_error;
};

// One member's share of a split request, run as its own scheduler thread so
// the members seek and transfer concurrently. The worker inherits the
// issuer's TraceContext at spawn, so its fragment span carries the right id.
Task<> FragmentIo(Scheduler* sched, Volume* volume, bool is_write,
                  const Volume::FragmentList* fragments, size_t index,
                  std::span<std::byte> out, std::span<const std::byte> in,
                  Status* result,  // nullptr: the caller wants only the first error
                  FanoutJoin* join) {
  Thread* self = sched->current_thread();
  const bool traced = self != nullptr && self->trace.active();
  const Volume::Fragment& f = (*fragments)[index];
  const TimePoint begin = sched->Now();
  const Status status = co_await volume->IoFragment(is_write, *fragments, index, out, in);
  const TimePoint end = sched->Now();
  volume->NoteFragmentDone(f.member, begin, end);
  if (traced) {
    RecordSpan(self->trace, TraceStage::kFragment, self->id(), begin, end, f.count);
  }
  if (result != nullptr) {
    *result = status;
  }
  if (!status.ok() && index < join->first_error_index) {
    join->first_error_index = index;
    join->first_error = status;
  }
  if (--join->remaining == 0) {
    join->done.Signal();
  }
}

}  // namespace

Volume::Volume(Scheduler* sched, MetricRegistry* metrics, std::string name,
               std::vector<VolumeSliceRef> members)
    : sched_(sched), name_(std::move(name)), members_(std::move(members)) {
  PFS_CHECK_MSG(!members_.empty(), "volume needs at least one member");
  const std::string label = "volume=\"" + name_ + "\"";
  requests_ = metrics->Counter("volume_requests_total", "Requests completed", label);
  latency_ = metrics->Histogram("volume_request_seconds",
                                "Whole-request latency at the volume layer", label, 1e-9);
  for (size_t i = 0; i < members_.size(); ++i) {
    member_latency_.push_back(metrics->Histogram(
        "volume_fragment_seconds", "Per-member fragment service latency",
        label + ",member=\"" + std::to_string(i) + "\"", 1e-9));
  }
  BindHomeShard(sched_);  // all entry paths assert via OpBegin()
  sector_bytes_ = members_[0].device->sector_bytes();
  for (const VolumeSliceRef& m : members_) {
    PFS_CHECK_MSG(m.device->sector_bytes() == sector_bytes_,
                  "volume members disagree on sector size");
    PFS_CHECK_MSG(m.start_sector + m.nsectors <= m.device->total_sectors(),
                  "partition slice beyond the end of the backing device");
  }
  member_reads_.resize(members_.size());
  member_writes_.resize(members_.size());
}

Task<Status> Volume::IoFragment(bool is_write, const FragmentList& fragments, size_t i,
                                std::span<std::byte> out, std::span<const std::byte> in) {
  const Fragment& f = fragments[i];
  const uint64_t bytes = static_cast<uint64_t>(f.count) * sector_bytes_;
  if (f.segment_count == 0) {
    if (is_write) {
      co_return co_await WriteMember(f.member, f.sector, f.count,
                                     SubSpan(in, f.byte_offset, bytes));
    }
    co_return co_await ReadMember(f.member, f.sector, f.count,
                                  SubSpan(out, f.byte_offset, bytes));
  }
  // Scattered caller-buffer segments (striping interleaves members in the
  // logical address space). With no data to move — the simulated backend —
  // the merged request just goes down with an empty span.
  if (is_write ? in.empty() : out.empty()) {
    if (is_write) {
      co_return co_await WriteMember(f.member, f.sector, f.count, {});
    }
    co_return co_await ReadMember(f.member, f.sector, f.count, {});
  }
  std::vector<std::byte> bounce(static_cast<size_t>(bytes));
  bounce_bytes_.Inc(bytes);
  if (is_write) {
    uint64_t off = 0;
    for (const FragmentSegment& seg : fragments.segments(i)) {
      const uint64_t len = static_cast<uint64_t>(seg.count) * sector_bytes_;
      std::memcpy(bounce.data() + off, in.data() + seg.byte_offset, len);
      off += len;
    }
    co_return co_await WriteMember(f.member, f.sector, f.count, bounce);
  }
  const Status status = co_await ReadMember(f.member, f.sector, f.count, bounce);
  if (status.ok()) {
    uint64_t off = 0;
    for (const FragmentSegment& seg : fragments.segments(i)) {
      const uint64_t len = static_cast<uint64_t>(seg.count) * sector_bytes_;
      std::memcpy(out.data() + seg.byte_offset, bounce.data() + off, len);
      off += len;
    }
  }
  co_return status;
}

Volume::FragmentList Volume::CoalesceFragments(const Pieces& pieces) {
  FragmentList out;
  if (!coalesce_ || pieces.size() < 2) {
    for (const Fragment& piece : pieces) {
      out.fragments_.push_back(piece);
    }
    return out;
  }
  // First the fragment each piece joins. Merging only with the member's
  // latest fragment keeps device order within the member.
  InlineVector<uint32_t, kInlinePieces> owner;
  for (const Fragment& piece : pieces) {
    size_t idx = out.size();
    while (idx > 0 && out.fragments_[idx - 1].member != piece.member) {
      --idx;
    }
    if (idx > 0 && out.fragments_[idx - 1].sector + out.fragments_[idx - 1].count ==
                       piece.sector) {
      out.fragments_[idx - 1].count += piece.count;
      owner.push_back(static_cast<uint32_t>(idx - 1));
      coalesced_.Inc();
      continue;
    }
    owner.push_back(static_cast<uint32_t>(out.size()));
    out.fragments_.push_back(piece);
  }
  // Then each fragment's segments: the maximal runs of its pieces that touch
  // in the caller's buffer. A fragment that is one run needs none.
  for (uint32_t k = 0; k < out.size(); ++k) {
    Fragment& f = out.fragments_[k];
    const size_t first = out.segments_.size();
    for (size_t i = 0; i < pieces.size(); ++i) {
      if (owner[i] != k) {
        continue;
      }
      const Fragment& piece = pieces[i];
      if (out.segments_.size() > first) {
        FragmentSegment& back = out.segments_.back();
        if (back.byte_offset + static_cast<uint64_t>(back.count) * sector_bytes_ ==
            piece.byte_offset) {
          back.count += piece.count;
          continue;
        }
      }
      out.segments_.push_back({piece.byte_offset, piece.count});
    }
    const size_t runs = out.segments_.size() - first;
    if (runs == 1) {
      out.segments_.pop_back();
    } else {
      f.first_segment = static_cast<uint32_t>(first);
      f.segment_count = static_cast<uint32_t>(runs);
    }
  }
  return out;
}

Task<Status> Volume::RunFragments(bool is_write, std::span<std::byte> out,
                                  std::span<const std::byte> in,
                                  const FragmentList& fragments,
                                  std::span<Status> per_fragment) {
  PFS_CHECK(per_fragment.empty() || per_fragment.size() == fragments.size());
  const TimePoint op_begin = OpBegin();
  // Alloc-free fan-out tracking; members beyond 64 share the last bit (the
  // histogram clamps far earlier anyway).
  uint64_t seen = 0;
  int distinct = 0;
  uint64_t total_count = 0;
  for (const Fragment& f : fragments) {
    const uint64_t bit = uint64_t{1} << std::min<size_t>(f.member, 63);
    if ((seen & bit) == 0) {
      seen |= bit;
      ++distinct;
    }
    total_count += f.count;
    (is_write ? member_writes_ : member_reads_)[f.member].Inc();
  }
  fanout_.Record(static_cast<double>(distinct));
  if (fragments.empty()) {
    OpFinish(op_begin, 0);
    co_return OkStatus();
  }
  if (fragments.size() == 1) {
    const Status status = co_await IoFragment(is_write, fragments, 0, out, in);
    // One stamp ends the fragment, its span and the request.
    const TimePoint end = sched_->Now();
    NoteFragmentDone(fragments[0].member, op_begin, end);
    if (!per_fragment.empty()) {
      per_fragment[0] = status;
    }
    const Thread* self = sched_->current_thread();
    if (self != nullptr && self->trace.active()) {
      // The lone fragment ran inline; give it its span here so single- and
      // multi-fragment requests look alike in the trace.
      RecordSpan(self->trace, TraceStage::kFragment, self->id(), op_begin, end,
                 fragments[0].count);
    }
    OpFinish(op_begin, end, total_count);
    co_return status;
  }
  // "Split" means partitioned into distinct address pieces — a mirror's
  // whole-range replica writes fan out without splitting anything. A
  // coalesced striped fragment can carry the same member-local sector and
  // count as its siblings, but its segment list marks it as a partition.
  for (size_t i = 0; i < fragments.size(); ++i) {
    if (fragments[i].segment_count > 0 ||
        (i > 0 && (fragments[i].sector != fragments[0].sector ||
                   fragments[i].count != fragments[0].count))) {
      split_requests_.Inc();
      break;
    }
  }
  // The join keeps the first error in fragment order.
  FanoutJoin join(sched_, fragments.size());
  for (size_t i = 0; i < fragments.size(); ++i) {
    Status* result = per_fragment.empty() ? nullptr : &per_fragment[i];
    sched_->SpawnTransient(name_ + ".io", FragmentIo(sched_, this, is_write, &fragments,
                                                     i, out, in, result, &join));
  }
  while (join.remaining > 0) {
    co_await join.done.Wait();
  }
  OpFinish(op_begin, total_count);
  co_return join.first_error;
}

void Volume::OpFinish(TimePoint begin, TimePoint end, uint64_t count) {
  requests_->Inc();
  latency_->RecordDuration(end - begin);
  const Thread* self = sched_->current_thread();
  if (self != nullptr && self->trace.active()) {
    RecordSpan(self->trace, TraceStage::kVolume, self->id(), begin, end, count);
  }
}

std::string Volume::StatJson() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{\"kind\":\"%s\",\"sectors\":%llu,\"members\":[",
                kind(), static_cast<unsigned long long>(total_sectors()));
  std::string out(buf);
  for (size_t i = 0; i < members_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s{\"reads\":%llu,\"writes\":%llu}", i == 0 ? "" : ",",
                  static_cast<unsigned long long>(member_reads_[i].value()),
                  static_cast<unsigned long long>(member_writes_[i].value()));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "],\"requests\":%llu,\"split_requests\":%llu,\"coalesced\":%llu,"
                "\"bounce_bytes\":%llu,\"fanout_mean\":%.3f,\"fanout_max\":%.3f,",
                static_cast<unsigned long long>(requests()),
                static_cast<unsigned long long>(split_requests_.value()),
                static_cast<unsigned long long>(coalesced_.value()),
                static_cast<unsigned long long>(bounce_bytes_.value()), fanout_.mean(),
                fanout_.max());
  out += buf;
  // The cumulative registry histogram: the same source a /metrics scrape
  // reads, so the two always agree.
  out += latency_->LatencyMsJsonObject("latency_ms");
  out += "}";
  return out;
}

// -- SingleDiskVolume --------------------------------------------------------

SingleDiskVolume::SingleDiskVolume(Scheduler* sched, MetricRegistry* metrics,
                                   std::string name, VolumeSliceRef slice)
    : Volume(sched, metrics, std::move(name), {slice}) {}

// The hottest path in the system (every cache miss and flush of the default
// configuration): no allocations, just the offset and the counters.
Task<Status> SingleDiskVolume::Read(uint64_t sector, uint32_t count,
                                    std::span<std::byte> out) {
  const TimePoint op_begin = OpBegin();
  member_reads_[0].Inc();
  fanout_.Record(1);
  const Status status = co_await ReadMember(0, sector, count, out);
  const TimePoint end = sched_->Now();
  NoteFragmentDone(0, op_begin, end);
  OpFinish(op_begin, end, count);
  co_return status;
}

Task<Status> SingleDiskVolume::Write(uint64_t sector, uint32_t count,
                                     std::span<const std::byte> in) {
  const TimePoint op_begin = OpBegin();
  member_writes_[0].Inc();
  fanout_.Record(1);
  const Status status = co_await WriteMember(0, sector, count, in);
  const TimePoint end = sched_->Now();
  NoteFragmentDone(0, op_begin, end);
  OpFinish(op_begin, end, count);
  co_return status;
}

// -- ConcatVolume ------------------------------------------------------------

namespace {
std::vector<uint64_t> MemberSectors(const std::vector<VolumeSliceRef>& members) {
  std::vector<uint64_t> sizes;
  sizes.reserve(members.size());
  for (const VolumeSliceRef& m : members) {
    sizes.push_back(m.nsectors);
  }
  return sizes;
}
}  // namespace

uint64_t ConcatVolume::CapacitySectors(const std::vector<uint64_t>& member_sectors) {
  uint64_t total = 0;
  for (uint64_t s : member_sectors) {
    total += s;
  }
  return total;
}

ConcatVolume::ConcatVolume(Scheduler* sched, MetricRegistry* metrics, std::string name,
                           std::vector<VolumeSliceRef> members)
    : Volume(sched, metrics, std::move(name), std::move(members)) {
  for (const VolumeSliceRef& m : members_) {
    member_start_.push_back(total_);
    total_ += m.nsectors;  // the running sum IS CapacitySectors()
  }
}

Volume::FragmentList ConcatVolume::Map(uint64_t sector, uint32_t count) {
  PFS_CHECK(sector + count <= total_);
  Pieces pieces;
  size_t m = 0;
  while (m + 1 < members_.size() && member_start_[m + 1] <= sector) {
    ++m;
  }
  uint64_t byte_offset = 0;
  uint32_t remaining = count;
  while (remaining > 0) {
    const uint64_t local = sector - member_start_[m];
    const uint64_t avail = members_[m].nsectors - local;
    const uint32_t n = static_cast<uint32_t>(std::min<uint64_t>(remaining, avail));
    pieces.push_back({m, local, n, byte_offset});
    sector += n;
    remaining -= n;
    byte_offset += static_cast<uint64_t>(n) * sector_bytes_;
    ++m;
  }
  return CoalesceFragments(pieces);
}

Task<Status> ConcatVolume::Read(uint64_t sector, uint32_t count, std::span<std::byte> out) {
  const FragmentList fragments = Map(sector, count);
  co_return co_await RunFragments(false, out, {}, fragments);
}

Task<Status> ConcatVolume::Write(uint64_t sector, uint32_t count,
                                 std::span<const std::byte> in) {
  const FragmentList fragments = Map(sector, count);
  co_return co_await RunFragments(true, {}, in, fragments);
}

// -- StripedVolume -----------------------------------------------------------

uint64_t StripedVolume::CapacitySectors(const std::vector<uint64_t>& member_sectors,
                                        uint32_t stripe_unit_sectors) {
  uint64_t min_sectors = member_sectors[0];
  for (uint64_t s : member_sectors) {
    min_sectors = std::min(min_sectors, s);
  }
  const uint64_t units_per_member = min_sectors / stripe_unit_sectors;
  return units_per_member * member_sectors.size() * stripe_unit_sectors;
}

StripedVolume::StripedVolume(Scheduler* sched, MetricRegistry* metrics, std::string name,
                             std::vector<VolumeSliceRef> members,
                             uint32_t stripe_unit_sectors)
    : Volume(sched, metrics, std::move(name), std::move(members)),
      unit_(stripe_unit_sectors) {
  PFS_CHECK_MSG(unit_ > 0, "stripe unit must be at least one sector");
  total_ = CapacitySectors(MemberSectors(members_), unit_);
  PFS_CHECK_MSG(total_ > 0, "stripe unit larger than the smallest member");
}

std::pair<size_t, uint64_t> StripedVolume::MapSector(uint64_t sector) const {
  const uint64_t unit = sector / unit_;
  const size_t member = static_cast<size_t>(unit % members_.size());
  const uint64_t member_unit = unit / members_.size();
  return {member, member_unit * unit_ + sector % unit_};
}

Volume::FragmentList StripedVolume::Map(uint64_t sector, uint32_t count) {
  PFS_CHECK(sector + count <= total_);
  Pieces pieces;
  uint64_t byte_offset = 0;
  uint32_t remaining = count;
  while (remaining > 0) {
    const auto [member, member_sector] = MapSector(sector);
    const uint32_t in_unit = static_cast<uint32_t>(sector % unit_);
    const uint32_t n = std::min(remaining, unit_ - in_unit);
    pieces.push_back({member, member_sector, n, byte_offset});
    sector += n;
    remaining -= n;
    byte_offset += static_cast<uint64_t>(n) * sector_bytes_;
  }
  return CoalesceFragments(pieces);
}

Task<Status> StripedVolume::Read(uint64_t sector, uint32_t count, std::span<std::byte> out) {
  const FragmentList fragments = Map(sector, count);
  co_return co_await RunFragments(false, out, {}, fragments);
}

Task<Status> StripedVolume::Write(uint64_t sector, uint32_t count,
                                  std::span<const std::byte> in) {
  const FragmentList fragments = Map(sector, count);
  co_return co_await RunFragments(true, {}, in, fragments);
}

// -- MirrorVolume ------------------------------------------------------------

uint64_t MirrorVolume::CapacitySectors(const std::vector<uint64_t>& member_sectors) {
  uint64_t min_sectors = member_sectors[0];
  for (uint64_t s : member_sectors) {
    min_sectors = std::min(min_sectors, s);
  }
  return min_sectors;
}

MirrorVolume::MirrorVolume(Scheduler* sched, MetricRegistry* metrics, std::string name,
                           std::vector<VolumeSliceRef> members)
    : Volume(sched, metrics, std::move(name), std::move(members)),
      debt_bytes_(metrics->Gauge("volume_rebuild_debt_bytes",
                                 "Outstanding mirror rebuild debt in bytes",
                                 "volume=\"" + name_ + "\"")),
      failed_(members_.size(), false) {
  total_ = CapacitySectors(MemberSectors(members_));
  member_missed_.resize(members_.size());
  debt_.resize(members_.size());
  down_since_.resize(members_.size());
  inflight_missing_.resize(members_.size());
}

void MirrorVolume::MarkMemberFailed(size_t i) {
  if (failed_[i]) {
    return;
  }
  failed_[i] = true;
  down_since_[i] = sched_->Now();
  if (failed_count_++ == 0) {
    degraded_since_ = sched_->Now();
  }
}

Status MirrorVolume::SetMemberFailed(size_t i, bool failed) {
  PFS_CHECK(i < failed_.size());
  if (failed) {
    MarkMemberFailed(i);
    return OkStatus();
  }
  if (!failed_[i]) {
    return OkStatus();
  }
  if (!debt_[i].empty()) {
    reinstate_refusals_.Inc();
    return Status(ErrorCode::kUnsupported,
                  "mirror " + name_ + ": member " + std::to_string(i) + " owes " +
                      std::to_string(debt_sectors(i) * sector_bytes_) +
                      " byte(s) of rebuild debt; reinstating it without a rebuild would "
                      "serve stale data");
  }
  if (inflight_missing_[i] > 0) {
    reinstate_refusals_.Inc();
    return Status(ErrorCode::kUnsupported,
                  "mirror " + name_ + ": " + std::to_string(inflight_missing_[i]) +
                      " in-flight write(s) skipped member " + std::to_string(i) +
                      "; reinstating before their debt is recorded would serve stale "
                      "data");
  }
  failed_[i] = false;
  ++repairs_;
  repair_total_ns_ += (sched_->Now() - down_since_[i]).nanos();
  PFS_CHECK(failed_count_ > 0);
  if (--failed_count_ == 0) {
    degraded_ns_ += (sched_->Now() - degraded_since_).nanos();
  }
  return OkStatus();
}

void MirrorVolume::AddDebt(size_t i, uint64_t sector, uint32_t count) {
  if (count == 0) {
    return;
  }
  std::map<uint64_t, uint64_t>& debt = debt_[i];
  uint64_t start = sector;
  uint64_t end = sector + count;
  auto it = debt.lower_bound(start);
  if (it != debt.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= start) {  // touching counts as mergeable
      start = prev->first;
      end = std::max(end, prev->second);
      debt.erase(prev);
    }
  }
  while (it != debt.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = debt.erase(it);
  }
  debt.emplace(start, end);
  UpdateDebtGauge();
}

void MirrorVolume::UpdateDebtGauge() {
  debt_bytes_->Set(static_cast<int64_t>(rebuild_debt_bytes()));
}

uint64_t MirrorVolume::debt_sectors(size_t i) const {
  uint64_t total = 0;
  for (const auto& [start, end] : debt_[i]) {
    total += end - start;
  }
  return total;
}

uint64_t MirrorVolume::rebuild_debt_bytes() const {
  uint64_t sectors = 0;
  for (size_t i = 0; i < members_.size(); ++i) {
    sectors += debt_sectors(i);
  }
  return sectors * sector_bytes_;
}

std::optional<std::pair<uint64_t, uint32_t>> MirrorVolume::PopDebtExtent(
    size_t i, uint32_t max_sectors) {
  PFS_CHECK(i < debt_.size());
  std::map<uint64_t, uint64_t>& debt = debt_[i];
  if (debt.empty() || max_sectors == 0) {
    return std::nullopt;
  }
  auto it = debt.begin();
  const uint64_t start = it->first;
  const uint64_t end = it->second;
  const uint64_t take = std::min<uint64_t>(end - start, max_sectors);
  debt.erase(it);
  if (start + take < end) {
    debt.emplace(start + take, end);
  }
  UpdateDebtGauge();
  return std::make_pair(start, static_cast<uint32_t>(take));
}

void MirrorVolume::PushDebtExtent(size_t i, uint64_t sector, uint32_t count) {
  AddDebt(i, sector, count);
}

Duration MirrorVolume::degraded_time() const {
  int64_t ns = degraded_ns_;
  if (failed_count_ > 0) {
    ns += (sched_->Now() - degraded_since_).nanos();
  }
  return Duration::Nanos(ns);
}

Duration MirrorVolume::mean_time_to_repair() const {
  return repairs_ == 0 ? Duration()
                       : Duration::Nanos(repair_total_ns_ / static_cast<int64_t>(repairs_));
}

size_t MirrorVolume::live_member_count() const {
  size_t live = 0;
  for (bool f : failed_) {
    live += f ? 0 : 1;
  }
  return live;
}

MirrorVolume::MemberList MirrorVolume::ReadOrder() {
  MemberList live;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (!failed_[i]) {
      live.push_back(i);
    }
  }
  if (live.size() < 2) {
    return live;
  }
  const auto depth = [this](size_t m) { return members_[m].device->QueueDepthHint(); };
  // A stable insertion sort: the order a stable sort gives, with no
  // temporary buffer, over a mirror's few members.
  size_t* order = live.data();
  for (size_t i = 1; i < live.size(); ++i) {
    const size_t m = order[i];
    const size_t d = depth(m);
    size_t j = i;
    for (; j > 0 && depth(order[j - 1]) > d; --j) {
      order[j] = order[j - 1];
    }
    order[j] = m;
  }
  // Rotate the equal-shortest prefix so members with identical queues share
  // the read load instead of member 0 taking everything.
  const size_t d0 = depth(order[0]);
  size_t ties = 1;
  while (ties < live.size() && depth(order[ties]) == d0) {
    ++ties;
  }
  if (ties > 1) {
    std::rotate(order, order + rr_++ % ties, order + ties);
  }
  return live;
}

Task<Status> MirrorVolume::Read(uint64_t sector, uint32_t count, std::span<std::byte> out) {
  PFS_CHECK(sector + count <= total_);
  const TimePoint op_begin = OpBegin();
  const MemberList order = ReadOrder();
  if (order.empty()) {
    fanout_.Record(0);
    OpFinish(op_begin, count);
    co_return Status(ErrorCode::kIoError, "mirror " + name_ + ": no live members");
  }
  if (order.size() < members_.size()) {
    degraded_reads_.Inc();
  }
  Status last = OkStatus();
  for (size_t i = 0; i < order.size(); ++i) {
    member_reads_[order[i]].Inc();
    last = co_await ReadMember(order[i], sector, count, out);
    if (last.ok()) {
      // Members whose attempts errored are failed out now that a survivor
      // proved the data is available — otherwise a dead member's empty
      // queue keeps winning ReadOrder and every read pays a doomed attempt
      // first, forever. (All-members-erroring is left unmarked: that looks
      // transient, and failing everyone would brick the volume.)
      for (size_t j = 0; j < i; ++j) {
        MarkMemberFailed(order[j]);
      }
      fanout_.Record(static_cast<double>(i + 1));  // members actually touched
      OpFinish(op_begin, count);
      co_return last;
    }
  }
  fanout_.Record(static_cast<double>(order.size()));
  OpFinish(op_begin, count);
  co_return last;
}

Task<Status> MirrorVolume::Write(uint64_t sector, uint32_t count,
                                 std::span<const std::byte> in) {
  PFS_CHECK(sector + count <= total_);
  FragmentList fragments;
  MemberList skipped;  // failed at issue: they will miss this write
  for (size_t m = 0; m < members_.size(); ++m) {
    if (!failed_[m]) {
      fragments.Add(m, sector, count, 0);
    } else {
      skipped.push_back(m);
    }
  }
  if (fragments.empty()) {
    fanout_.Record(0);
    OpFinish(OpBegin(), count);
    co_return Status(ErrorCode::kIoError, "mirror " + name_ + ": no live members");
  }
  // While this write is in flight, the skipped members' debt for it is not
  // yet recorded — block their reinstatement until it is (or until the
  // write turns out to have failed everywhere).
  for (size_t m : skipped) {
    ++inflight_missing_[m];
  }
  // Per-fragment statuses, not just the first error: a member whose write
  // fails while a replica succeeds must leave the mirror degraded — treating
  // it as still live would let later reads return divergent data.
  VectorPool<Status>::Lease results(&write_results_);
  results->resize(fragments.size());
  const Status first_error = co_await RunFragments(true, {}, in, fragments, *results);
  for (size_t m : skipped) {
    --inflight_missing_[m];
  }
  size_t successes = 0;
  for (const Status& s : *results) {
    successes += s.ok() ? 1 : 0;
  }
  if (successes == 0) {
    // Every replica refused the write: nothing diverged (the caller sees
    // the error, no member took the data, no debt accrues), and failing
    // everyone out would brick the volume on a transient glitch — same
    // policy as Read.
    co_return first_error;
  }
  // A replica persisted it: every member that did not — skipped at issue,
  // or errored just now — owes this write as rebuild debt. The issue-time
  // set, not the current failed_ flags: a member that took the write and
  // was failed out mid-flight holds the data (no debt), and one skipped at
  // issue owes it even if something reinstated it meanwhile.
  for (size_t m : skipped) {
    missed_writes_.Inc();
    member_missed_[m].Inc();
    AddDebt(m, sector, count);
  }
  for (size_t i = 0; i < fragments.size(); ++i) {
    if (!(*results)[i].ok()) {
      MarkMemberFailed(fragments[i].member);
      missed_writes_.Inc();
      member_missed_[fragments[i].member].Inc();
      AddDebt(fragments[i].member, sector, count);
    }
  }
  co_return OkStatus();
}

std::string MirrorVolume::StatJson() const {
  std::string out = Volume::StatJson();
  out.pop_back();  // extend the base object in place
  const uint64_t rebuilt_bytes = rebuilt_sectors_.value() * sector_bytes_;
  const double rebuild_s = static_cast<double>(rebuild_ns_) / 1e9;
  const double rebuild_kbps = rebuild_s > 0 ? static_cast<double>(rebuilt_bytes) / rebuild_s / 1024.0 : 0.0;
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                ",\"live_members\":%zu,\"missed_writes\":%llu,\"degraded_reads\":%llu,"
                "\"reinstate_refusals\":%llu,\"rebuild_debt_bytes\":%llu,"
                "\"degraded_ms\":%.3f,\"repairs\":%llu,\"mttr_ms\":%.3f,"
                "\"rebuilt_bytes\":%llu,\"rebuild_ms\":%.3f,\"rebuild_kbps\":%.1f}",
                live_member_count(), static_cast<unsigned long long>(missed_writes_.value()),
                static_cast<unsigned long long>(degraded_reads_.value()),
                static_cast<unsigned long long>(reinstate_refusals_.value()),
                static_cast<unsigned long long>(rebuild_debt_bytes()),
                degraded_time().ToMillisF(), static_cast<unsigned long long>(repairs_),
                mean_time_to_repair().ToMillisF(),
                static_cast<unsigned long long>(rebuilt_bytes),
                static_cast<double>(rebuild_ns_) / 1e6, rebuild_kbps);
  return out + buf;
}

namespace {

uint32_t StripeUnitSectors(const VolumeSpec& spec, uint32_t sector_bytes) {
  return static_cast<uint32_t>(spec.stripe_unit_kb * kKiB / sector_bytes);
}

}  // namespace

void RegisterBuiltinVolumeKinds() {
  {
    VolumeKindFamily::Value single;
    single.min_members = 1;
    single.max_members = 1;
    single.capacity_sectors = [](const std::vector<uint64_t>& member_sectors,
                                 const VolumeSpec&, uint32_t,
                                 const std::string&) -> Result<uint64_t> {
      return member_sectors[0];
    };
    single.assemble = [](Scheduler* sched, MetricRegistry* metrics,
                         const std::string& name,
                         const std::vector<VolumeSliceRef>& slices, const VolumeSpec&,
                         uint32_t) {
      return std::unique_ptr<Volume>(
          std::make_unique<SingleDiskVolume>(sched, metrics, name, slices[0]));
    };
    VolumeKindRegistry::Register("single", std::move(single));
  }
  {
    VolumeKindFamily::Value concat;
    concat.capacity_sectors = [](const std::vector<uint64_t>& member_sectors,
                                 const VolumeSpec&, uint32_t,
                                 const std::string&) -> Result<uint64_t> {
      return ConcatVolume::CapacitySectors(member_sectors);
    };
    concat.assemble = [](Scheduler* sched, MetricRegistry* metrics,
                         const std::string& name,
                         const std::vector<VolumeSliceRef>& slices, const VolumeSpec&,
                         uint32_t) {
      return std::unique_ptr<Volume>(
          std::make_unique<ConcatVolume>(sched, metrics, name, slices));
    };
    VolumeKindRegistry::Register("concat", std::move(concat));
  }
  {
    VolumeKindFamily::Value striped;
    striped.min_members = 2;
    striped.validate = [](const VolumeSpec& spec, uint32_t sector_bytes,
                          const std::string& field) {
      if (spec.stripe_unit_kb == 0) {
        return Status(ErrorCode::kInvalidArgument,
                      field + ".stripe_unit_kb: stripe unit must be positive");
      }
      // Units must be whole sectors, or the unit arithmetic truncates (and a
      // unit smaller than one sector would divide by zero).
      if (spec.stripe_unit_kb * kKiB % sector_bytes != 0) {
        return Status(ErrorCode::kInvalidArgument,
                      field + ".stripe_unit_kb: " + std::to_string(spec.stripe_unit_kb) +
                          " KiB is not a multiple of the " + std::to_string(sector_bytes) +
                          "-byte sector");
      }
      return OkStatus();
    };
    striped.capacity_sectors = [](const std::vector<uint64_t>& member_sectors,
                                  const VolumeSpec& spec, uint32_t sector_bytes,
                                  const std::string& field) -> Result<uint64_t> {
      const uint64_t capacity = StripedVolume::CapacitySectors(
          member_sectors, StripeUnitSectors(spec, sector_bytes));
      if (capacity == 0) {
        return Status(ErrorCode::kInvalidArgument,
                      field +
                          ".stripe_unit_kb: one stripe unit exceeds the smallest member "
                          "slice");
      }
      return capacity;
    };
    striped.assemble = [](Scheduler* sched, MetricRegistry* metrics,
                          const std::string& name,
                          const std::vector<VolumeSliceRef>& slices,
                          const VolumeSpec& spec, uint32_t sector_bytes) {
      return std::unique_ptr<Volume>(std::make_unique<StripedVolume>(
          sched, metrics, name, slices, StripeUnitSectors(spec, sector_bytes)));
    };
    VolumeKindRegistry::Register("striped", std::move(striped));
  }
  {
    VolumeKindFamily::Value mirror;
    mirror.min_members = 2;
    mirror.allows_degraded_start = true;
    mirror.validate = [](const VolumeSpec& spec, uint32_t, const std::string& field) {
      for (size_t i = 0; i < spec.failed_members.size(); ++i) {
        const int m = spec.failed_members[i];
        if (m < 0 || static_cast<size_t>(m) >= spec.members.size()) {
          return Status(ErrorCode::kInvalidArgument,
                        field + ".failed_members: position " + std::to_string(m) +
                            " outside the volume's " + std::to_string(spec.members.size()) +
                            " member(s)");
        }
        for (size_t prev = 0; prev < i; ++prev) {
          if (spec.failed_members[prev] == m) {
            return Status(ErrorCode::kInvalidArgument,
                          field + ".failed_members: position " + std::to_string(m) +
                              " listed twice");
          }
        }
      }
      if (spec.failed_members.size() >= spec.members.size()) {
        return Status(ErrorCode::kInvalidArgument,
                      field + ".failed_members: at least one member must stay live");
      }
      return OkStatus();
    };
    mirror.capacity_sectors = [](const std::vector<uint64_t>& member_sectors,
                                 const VolumeSpec&, uint32_t,
                                 const std::string&) -> Result<uint64_t> {
      return MirrorVolume::CapacitySectors(member_sectors);
    };
    mirror.assemble = [](Scheduler* sched, MetricRegistry* metrics,
                         const std::string& name,
                         const std::vector<VolumeSliceRef>& slices,
                         const VolumeSpec& spec, uint32_t) {
      auto volume = std::make_unique<MirrorVolume>(sched, metrics, name, slices);
      for (int m : spec.failed_members) {
        // Failing a member out (no rebuild debt yet) always succeeds.
        PFS_CHECK(volume->SetMemberFailed(static_cast<size_t>(m), true).ok());
      }
      return std::unique_ptr<Volume>(std::move(volume));
    };
    VolumeKindRegistry::Register("mirror", std::move(mirror));
  }
}

}  // namespace pfs
