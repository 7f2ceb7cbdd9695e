// The file-backed workloads: closed-loop clients against the on-line server
// (real clock, file-backed disk images, real bytes in the cache). Each client
// owns its files, issues one call, waits for the reply, yields to the
// scheduler, and issues the next — for a fixed wall-clock phase.
//
//   hot-read       1 shard, 1 LFS, 64 MiB cache, write-delay; 16 clients x
//                  4 x 16 KiB (1 MiB); 95% 4 KiB reads, 5% 4 KiB
//                  overwrites. Every read hits and nothing is flushed, so
//                  client dispatch, cache lookup and copy-out do all the work.
//   sharded-front  the same files and mix on 2 shards (one LFS and 32 MiB of
//                  cache each), every client on shard 0: half the calls hop
//                  to shard 1 through the cross-shard mailbox.
//   cold-mix       1 shard, 1 LFS on a 4-disk stripe (64 KiB unit), 2 MiB
//                  cache, UPS; 8 clients x 16 x 128 KiB (16 MiB, 8x the
//                  cache); 60% 8 KiB reads, 25% 4 KiB overwrites, 5% fsync,
//                  10% metadata. Most lookups miss, so fill, layout,
//                  striping, driver queueing and the I/O engine do the work.
//
// The write workloads keep their dirty data well inside the cache and cold-
// mix uses UPS: under write-delay a cache full of dirty blocks spins instead
// of flushing (a known defect this benchmark stays clear of).
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>

#include "bench.h"
#include "core/random.h"
#include "layers.h"
#include "probes.h"

namespace pfsbench {
namespace {

using WallClock = std::chrono::steady_clock;
using pfs::kKiB;
using pfs::kMiB;

constexpr uint64_t kBlock = pfs::kDefaultBlockSize;

struct FileWorkload {
  const char* name;
  int shards;
  int filesystems;  // file system f lives on shard f % shards
  int disks;
  bool striped;  // one file system striped over every disk
  uint64_t image_bytes;
  uint64_t cache_bytes;  // whole server, split evenly over the shards
  const char* flush_policy;
  int io_threads;
  int clients;  // all on shard 0; client c's files live on file system c % filesystems
  int files_per_client;
  uint64_t file_bytes;
  uint64_t read_bytes;
  // Op mix in percent; the rest is metadata (create+close, stat, unlink of
  // a per-client temp file, in turn). Writes and fsyncs go to file 0.
  int read_pct;
  int write_pct;
  int fsync_pct;
};

// Data sets are small on purpose. Wall-clock rates of work that lives in the
// host's shared last-level cache swing by +-10-20% from one minute to the
// next on a shared machine, while work that fits the core's private caches
// stays within a few percent. hot-read and sharded-front read 1 MiB; cold-mix
// keeps its ratios (read set 8x the cache, write region half of it) at small
// sizes.
//
// io_threads: hot-read and sharded-front do no I/O while measured; one pool
// thread keeps sharded-front's two shard threads plus the monitor within 4.
constexpr FileWorkload kWorkloads[] = {
    {"hot-read", 1, 1, 1, false, 64 * kMiB, 64 * kMiB, "write-delay", 1, 16, 4, 16 * kKiB,
     4 * kKiB, 95, 5, 0},
    {"sharded-front", 2, 2, 2, false, 64 * kMiB, 64 * kMiB, "write-delay", 1, 16, 4, 16 * kKiB,
     4 * kKiB, 95, 5, 0},
    {"cold-mix", 1, 1, 4, true, 64 * kMiB, 2 * kMiB, "ups", 2, 8, 16, 128 * kKiB, 8 * kKiB, 60,
     25, 5},
};

constexpr int kSetupRepetitions = 5;
// The end-to-end metrics are medians over this many equal slices of the
// phase, so interference that hits one slice stays out of the result.
constexpr int kSlices = 10;
// Traced runs measure half the phase, alternating untraced and traced slices.
constexpr int kTracedSlices = 8;

const FileWorkload* FindWorkload(const std::string& name) {
  for (const FileWorkload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

pfs::SystemConfig MakeConfig(const FileWorkload& w, const Options& options, bool simulated,
                             const std::string& image) {
  pfs::SystemConfig c = pfs::SystemConfig::OnlineDefaults();
  c.seed = options.seed;
  c.shards = w.shards;
  c.disks_per_bus = {w.disks};
  c.num_filesystems = w.filesystems;
  if (w.striped) {
    pfs::VolumeSpec stripe;
    stripe.kind = "striped";
    stripe.stripe_unit_kb = 64;
    for (int d = 0; d < w.disks; ++d) {
      stripe.members.push_back(d);
    }
    c.volumes = {stripe};
  }
  c.cache_bytes = w.cache_bytes;
  c.flush_policy = w.flush_policy;
  if (simulated) {
    c.backend = pfs::BackendKind::kSimulated;  // HP 97560s on one SCSI bus, virtual clock
  } else {
    c.image_path = image;
    c.image_bytes = w.image_bytes;
    c.io_threads = w.io_threads;
  }
  return c;
}

void RemoveImages(const pfs::SystemConfig& c) {
  if (c.simulated()) {
    return;
  }
  for (int d = 0; d < c.disks_per_bus[0]; ++d) {
    const std::string path = d == 0 ? c.image_path : c.image_path + "." + std::to_string(d);
    std::remove(path.c_str());
  }
}

// -- data patterns --------------------------------------------------------------
// Every 4 KiB block a client writes carries 512 words derived from
// (client, file, block, version); reads check three of them.

uint64_t BlockKey(int client, int file, uint64_t block, uint32_t version) {
  uint64_t h = (static_cast<uint64_t>(client) << 48) ^ (static_cast<uint64_t>(file) << 40) ^
               (block << 20) ^ version;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

constexpr size_t kWords = kBlock / sizeof(uint64_t);
constexpr size_t kCheckedWords[] = {0, kWords / 2 - 1, kWords - 1};

void FillBlock(std::byte* out, uint64_t key) {
  for (size_t i = 0; i < kWords; ++i) {
    const uint64_t word = key + i * 0x9e3779b97f4a7c15ull;
    std::memcpy(out + i * sizeof(word), &word, sizeof(word));
  }
}

bool CheckBlock(const std::byte* in, uint64_t key) {
  for (size_t i : kCheckedWords) {
    uint64_t word = 0;
    std::memcpy(&word, in + i * sizeof(word), sizeof(word));
    if (word != key + i * 0x9e3779b97f4a7c15ull) {
      return false;
    }
  }
  return true;
}

// -- clients --------------------------------------------------------------------

enum class OpKind : uint8_t { kRead, kWrite, kFsync, kMeta };

struct Op {
  OpKind kind;
  int file;
  uint64_t block;
};

struct ClientState {
  int id = 0;
  int fs = 0;
  pfs::Rng rng{1};
  std::vector<pfs::Fd> fds;
  std::vector<std::vector<uint32_t>> versions;  // [file][block]
  int meta_step = 0;
  uint64_t ops = 0;
  uint64_t op_limit = UINT64_MAX;
  uint64_t mismatches = 0;
  bool finished = false;
  std::string error;
  std::vector<std::byte> buf;  // empty on the simulated backend
};

std::string FilePath(const ClientState& c, int file) {
  return "/fs" + std::to_string(c.fs) + "/c" + std::to_string(c.id) + "." + std::to_string(file);
}

std::string TempPath(const ClientState& c) {
  return "/fs" + std::to_string(c.fs) + "/c" + std::to_string(c.id) + ".tmp";
}

// The op stream depends only on the seed and the client, never on the
// backend or on timing, so the simulator can replay exactly what the server
// ran.
Op NextOp(const FileWorkload& w, ClientState* c) {
  const uint64_t blocks = w.file_bytes / kBlock;
  const uint64_t pick = c->rng.NextBelow(100);
  if (pick < static_cast<uint64_t>(w.read_pct)) {
    const uint64_t read_blocks = w.read_bytes / kBlock;
    return Op{OpKind::kRead, static_cast<int>(c->rng.NextBelow(w.files_per_client)),
              c->rng.NextBelow(blocks - read_blocks + 1)};
  }
  if (pick < static_cast<uint64_t>(w.read_pct + w.write_pct)) {
    return Op{OpKind::kWrite, 0, c->rng.NextBelow(blocks)};
  }
  if (pick < static_cast<uint64_t>(w.read_pct + w.write_pct + w.fsync_pct)) {
    return Op{OpKind::kFsync, 0, 0};
  }
  return Op{OpKind::kMeta, 0, 0};
}

struct Run {
  const FileWorkload* w = nullptr;
  pfs::System* sys = nullptr;
  bool real = true;
  std::vector<std::unique_ptr<ClientState>> clients;
  // The phase runs as equal slices, one log each; the clients stop at each
  // slice's deadline and start again in the next. Traced runs alternate
  // untraced (even) and traced (odd) slices. A zero slice length runs one
  // slice until every client reaches its op_limit.
  pfs::Duration slice_length;
  std::vector<CallLog> slices = std::vector<CallLog>(1);
  std::vector<double> slice_wall_s;
  size_t slice = 0;
  pfs::TimePoint deadline;
  bool alternate_tracing = false;
  SpanLog spans;
  // Work done so far (files, ops, blocks verified): the stall detector's
  // progress count. Each phase's detector outlives the phase, since its
  // daemon wakes once more during the next one.
  uint64_t progress = 0;
  std::vector<std::unique_ptr<StallWatch>> watches;

  CallLog Total() const {
    CallLog total;
    for (const CallLog& slice : slices) {
      total.Merge(slice);
    }
    return total;
  }
};

pfs::Task<pfs::Status> DoOp(Run* run, ClientState* c, pfs::ClientInterface* client, const Op& op) {
  const FileWorkload& w = *run->w;
  switch (op.kind) {
    case OpKind::kRead: {
      const uint64_t offset = op.block * kBlock;
      PFS_CO_ASSIGN_OR_RETURN(const uint64_t n,
                              co_await client->Read(c->fds[op.file], offset, w.read_bytes,
                                                    std::span<std::byte>(c->buf).first(
                                                        run->real ? w.read_bytes : 0)));
      if (n != w.read_bytes) {
        co_return pfs::Status(pfs::ErrorCode::kIoError, "short read");
      }
      if (run->real) {
        for (uint64_t b = 0; b < w.read_bytes / kBlock; ++b) {
          const uint64_t block = op.block + b;
          const uint64_t key = BlockKey(c->id, op.file, block, c->versions[op.file][block]);
          if (!CheckBlock(c->buf.data() + b * kBlock, key)) {
            ++c->mismatches;
          }
        }
      }
      co_return pfs::OkStatus();
    }
    case OpKind::kWrite: {
      const uint32_t version = ++c->versions[0][op.block];
      if (run->real) {
        FillBlock(c->buf.data(), BlockKey(c->id, 0, op.block, version));
      }
      PFS_CO_ASSIGN_OR_RETURN(
          const uint64_t n,
          co_await client->Write(c->fds[0], op.block * kBlock, kBlock,
                                 std::span<const std::byte>(c->buf).first(run->real ? kBlock : 0)));
      if (n != kBlock) {
        co_return pfs::Status(pfs::ErrorCode::kIoError, "short write");
      }
      co_return pfs::OkStatus();
    }
    case OpKind::kFsync:
      co_return co_await client->Fsync(c->fds[0]);
    case OpKind::kMeta: {
      const std::string path = TempPath(*c);
      const int step = c->meta_step;
      c->meta_step = (step + 1) % 3;
      if (step == 0) {
        pfs::OpenOptions create;
        create.create = true;
        PFS_CO_ASSIGN_OR_RETURN(const pfs::Fd fd, co_await client->Open(path, create));
        co_return co_await client->Close(fd);
      }
      if (step == 1) {
        auto attrs = co_await client->Stat(path);
        co_return attrs.status();
      }
      co_return co_await client->Unlink(path);
    }
  }
  co_return pfs::Status(pfs::ErrorCode::kUnsupported, "unknown op");
}

pfs::Task<> ClientLoop(Run* run, ClientState* c) {
  pfs::Scheduler* sched = pfs::Scheduler::Current();
  TimedClient client(run->sys->client(), &run->slices[run->slice], &run->spans);
  while (c->ops < c->op_limit && sched->Now() < run->deadline) {
    const Op op = NextOp(*run->w, c);
    const pfs::Status status = co_await DoOp(run, c, &client, op);
    if (!status.ok()) {
      c->error = status.ToString();
      break;
    }
    ++c->ops;
    ++run->progress;
    co_await sched->Yield();
  }
  c->finished = true;
}

// Creates and fills every client's files (pattern version 0), keeps them
// open, and syncs. One writer, and every file is fsynced as soon as it is
// written, so dirty data never fills the cache: pushing cold-mix's read set
// through its smaller cache any other way can stall forever in the cache's
// asynchronous flusher, depending on the scheduler's interleaving.
pfs::Task<> Prefill(Run* run, std::string* error) {
  const FileWorkload& w = *run->w;
  pfs::ClientInterface* client = run->sys->client();
  std::vector<std::byte> data(run->real ? w.file_bytes : 0);
  for (auto& c : run->clients) {
    for (int f = 0; f < w.files_per_client; ++f) {
      if (run->real) {
        for (uint64_t b = 0; b < w.file_bytes / kBlock; ++b) {
          FillBlock(data.data() + b * kBlock, BlockKey(c->id, f, b, 0));
        }
      }
      const std::string path = FilePath(*c, f);
      pfs::OpenOptions create;
      create.create = true;
      auto fd = co_await client->Open(path, create);
      if (!fd.ok()) {
        *error = "prefill open: " + fd.status().ToString();
        co_return;
      }
      auto wrote = co_await client->Write(*fd, 0, w.file_bytes, data);
      const pfs::Status synced = co_await client->Fsync(*fd);
      if (!wrote.ok() || *wrote != w.file_bytes || !synced.ok()) {
        *error = "prefill write failed";
        co_return;
      }
      c->fds.push_back(*fd);
      ++run->progress;
    }
  }
  const pfs::Status synced = co_await client->SyncAll();
  if (!synced.ok()) {
    *error = "prefill sync: " + synced.ToString();
  }
}

// Re-reads every block of each client's write file and checks its version.
pfs::Task<> VerifyWrites(Run* run, ClientState* c) {
  const uint64_t blocks = run->w->file_bytes / kBlock;
  for (uint64_t b = 0; b < blocks; ++b) {
    auto n = co_await run->sys->client()->Read(c->fds[0], b * kBlock, kBlock,
                                                std::span<std::byte>(c->buf).first(kBlock));
    if (!n.ok() || *n != kBlock ||
        !CheckBlock(c->buf.data(), BlockKey(c->id, 0, b, c->versions[0][b]))) {
      ++c->mismatches;
    }
    ++run->progress;
  }
}

std::string FirstClientError(const Run& run) {
  for (const auto& c : run.clients) {
    if (!c->error.empty()) {
      return "client " + std::to_string(c->id) + ": " + c->error;
    }
  }
  return {};
}

// Runs the system until its non-daemon threads finish, under a stall
// detector watching run->progress. Returns the wall seconds it took; sets
// `problem` when the detector fired.
double RunWatched(Run* run, std::string* problem) {
  auto watch = std::make_unique<StallWatch>();
  watch->progress = &run->progress;
  run->sys->scheduler()->SpawnDaemon("pfsbench.watch", WatchForStall(run->sys, watch.get()));
  const auto begin = WallClock::now();
  run->sys->RunToCompletion();
  const double wall = std::chrono::duration<double>(WallClock::now() - begin).count();
  watch->done = true;
  if (watch->fired) {
    *problem = "stalled: " + watch->reason;
  }
  run->watches.push_back(std::move(watch));
  return wall;
}

// Builds, formats and prefills one system; the clients' op streams start
// from the seed. Returns an empty pointer (with `problem` set) on failure.
std::unique_ptr<pfs::System> SetUp(Run* run, const pfs::SystemConfig& config,
                                   const Options& options, std::string* problem) {
  auto built = pfs::SystemBuilder::Build(config);
  if (!built.ok()) {
    *problem = "build: " + built.status().ToString();
    return nullptr;
  }
  std::unique_ptr<pfs::System> sys = std::move(built).value();
  const pfs::Status setup = sys->Setup();
  if (!setup.ok()) {
    *problem = "setup: " + setup.ToString();
    return nullptr;
  }
  run->sys = sys.get();
  run->real = !config.simulated();
  run->clients.clear();
  const FileWorkload& w = *run->w;
  for (int i = 0; i < w.clients; ++i) {
    auto c = std::make_unique<ClientState>();
    c->id = i;
    c->fs = i % w.filesystems;
    c->rng = pfs::Rng(options.seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(i) + 1);
    c->versions.assign(static_cast<size_t>(w.files_per_client),
                       std::vector<uint32_t>(w.file_bytes / kBlock, 0));
    c->buf.resize(run->real ? w.read_bytes : 0);
    run->clients.push_back(std::move(c));
  }
  std::string error;
  sys->scheduler()->Spawn("pfsbench.prefill", Prefill(run, &error));
  RunWatched(run, problem);
  if (problem->empty() && !error.empty()) {
    *problem = error;
  }
  if (!problem->empty()) {
    return nullptr;
  }
  return sys;
}

// Runs the closed loop slice by slice (see Run). Returns the phase's wall
// time; sets `problem` when a client failed or the stall detector fired.
double MeasurePhase(Run* run, std::string* problem) {
  double wall = 0;
  for (run->slice = 0; run->slice < run->slices.size() && problem->empty(); ++run->slice) {
    pfs::Scheduler* sched = run->sys->scheduler();
    run->deadline = run->slice_length.IsZero() ? pfs::TimePoint::FromNanos(INT64_MAX)
                                               : sched->Now() + run->slice_length;
    run->spans.tracing = run->alternate_tracing && run->slice % 2 == 1;
    for (auto& c : run->clients) {
      c->finished = false;
      sched->Spawn("pfsbench.client." + std::to_string(c->id), ClientLoop(run, c.get()));
    }
    run->slice_wall_s.push_back(RunWatched(run, problem));
    wall += run->slice_wall_s.back();
    if (std::string error = FirstClientError(*run); problem->empty() && !error.empty()) {
      *problem = error;
    }
  }
  run->spans.tracing = false;
  return wall;
}

uint64_t Unfinished(const Run& run) {
  uint64_t n = 0;
  for (const auto& c : run.clients) {
    n += c->finished ? 0 : 1;
  }
  return n;
}

uint64_t Mismatches(const Run& run) {
  uint64_t n = 0;
  for (const auto& c : run.clients) {
    n += c->mismatches;
  }
  return n;
}

// The cold-mix traced run's second half: the identical op sequence (the
// same per-client op counts) on the simulated backend, verification off (the
// simulator moves no bytes). Prints the two per-layer tables side by side
// and checks that both sides wrote a non-zero amount of log.
void CompareWithSimulator(const FileWorkload& w, const Options& options, const Run& server,
                          uint64_t server_log_blocks, const Report& server_layers,
                          const ProbeChain& server_probes, Outcome* out) {
  Run sim;
  sim.w = &w;
  const pfs::SystemConfig config = MakeConfig(w, options, /*simulated=*/true, "");
  std::string problem;
  std::unique_ptr<pfs::System> sys = SetUp(&sim, config, options, &problem);
  if (sys == nullptr) {
    out->problems.push_back("simulator: " + problem);
    return;
  }
  for (size_t i = 0; i < sim.clients.size(); ++i) {
    sim.clients[i]->op_limit = server.clients[i]->ops;
  }
  const LayerSnapshot before = TakeSnapshot(*sys);
  const double wall = MeasurePhase(&sim, &problem);
  if (!problem.empty()) {
    out->problems.push_back("simulator: " + problem);
    return;
  }
  const LayerSnapshot after = TakeSnapshot(*sys);
  const CallLog sim_log = sim.Total();
  const CallLog server_log = server.Total();
  Report sim_layers;
  const PhaseWork work{sim_log.calls, sim_log.count(OpClass::kWrite), sim_log.write_bytes, wall};
  AddLayerMetrics(before, after, work, &sim_layers);
  SpanLog probe_spans;
  const ProbeChain sim_probes = RunProbeChain(*sys, "", &probe_spans);
  if (!sim_probes.problem.empty()) {
    out->problems.push_back("simulator probe: " + sim_probes.problem);
  }

  std::printf("\n# cold-mix, same %llu calls on both instantiations: server (file-backed, real "
              "clock) | simulator (4 x HP 97560 striped, virtual clock)\n",
              static_cast<unsigned long long>(sim_log.calls));
  std::printf("%-28s %16s %16s\n", "accessor metric", "server", "simulator");
  for (const Metric& m : server_layers.metrics()) {
    for (const Metric& s : sim_layers.metrics()) {
      if (s.name == m.name) {
        std::printf("%-28s %16.4f %16.4f %s\n", m.name.c_str(), m.value, s.value, m.unit.c_str());
      }
    }
  }
  std::printf("%-28s %16s %16s %16s\n", "probe p50", "server wall us", "sim clock us",
              "sim wall us");
  for (size_t i = 0; i < server_probes.tiers.size() && i < sim_probes.tiers.size(); ++i) {
    const ProbeResult& a = server_probes.tiers[i];
    const ProbeResult& b = sim_probes.tiers[i];
    std::printf("%-28s %16.3f %16.3f %16.3f\n", a.name.c_str(), a.wall_us, b.clock_us, b.wall_us);
  }
  Report sim_latency;
  AddLatencyMetrics(sim_log, &sim_latency);
  std::printf("%-28s %16s %16s\n", "client latency", "server us", "sim clock us");
  Report server_latency;
  AddLatencyMetrics(server_log, &server_latency);
  for (const Metric& m : server_latency.metrics()) {
    for (const Metric& s : sim_latency.metrics()) {
      if (s.name == m.name) {
        std::printf("%-28s %16.3f %16.3f\n", m.name.c_str(), m.value, s.value);
      }
    }
  }

  // Sim-vs-real consistency on a quantity both sides must produce: log
  // blocks the layout wrote through the driver for the clients' fsyncs.
  const uint64_t sim_log_blocks = after.log_blocks - before.log_blocks;
  std::printf("# log blocks written: server %llu, simulator %llu (ratio %.3f)\n",
              static_cast<unsigned long long>(server_log_blocks),
              static_cast<unsigned long long>(sim_log_blocks),
              Ratio(static_cast<double>(sim_log_blocks), static_cast<double>(server_log_blocks)));
  if (sim_log_blocks == 0 || server_log_blocks == 0) {
    out->problems.push_back("sim-vs-real: a side wrote no log blocks, nothing to compare");
  }
}

}  // namespace

bool IsFileWorkload(const std::string& name) { return FindWorkload(name) != nullptr; }

Outcome RunFileWorkload(const Options& options) {
  Outcome out;
  const FileWorkload& w = *FindWorkload(options.workload);
  const std::string image = options.work_dir + "/pfsbench-" + std::to_string(::getpid()) + "-" +
                            w.name + ".img";
  const pfs::SystemConfig config = MakeConfig(w, options, /*simulated=*/false, image);

  // Set-up, several times: the measured phase uses the last system.
  Run run;
  run.w = &w;
  std::unique_ptr<pfs::System> sys;
  std::vector<double> setup_s;
  const int repetitions = options.traced ? 1 : kSetupRepetitions;
  for (int rep = 0; rep < repetitions; ++rep) {
    if (sys != nullptr) {
      sys.reset();
      RemoveImages(config);
    }
    std::string problem;
    const auto begin = WallClock::now();
    sys = SetUp(&run, config, options, &problem);
    setup_s.push_back(std::chrono::duration<double>(WallClock::now() - begin).count());
    if (sys == nullptr) {
      out.problems.push_back(problem);
      RemoveImages(config);
      return out;
    }
  }

  const LayerSnapshot before = TakeSnapshot(*sys);
  const double phase_s = options.traced ? options.seconds / 2 : options.seconds;
  const int slices = options.traced ? kTracedSlices : kSlices;
  run.slice_length = pfs::Duration::SecondsF(phase_s / slices);
  run.slices.resize(static_cast<size_t>(slices));
  if (options.traced) {
    run.alternate_tracing = true;
    run.spans.limit = kSpanLimit;
  }
  std::string problem;
  const double wall = MeasurePhase(&run, &problem);
  if (!problem.empty()) {
    out.problems.push_back(problem);
  }
  const LayerSnapshot after = TakeSnapshot(*sys);

  // Final check of every written block, then the counts.
  if (problem.empty()) {
    for (auto& c : run.clients) {
      sys->scheduler()->Spawn("pfsbench.verify", VerifyWrites(&run, c.get()));
    }
    RunWatched(&run, &problem);
    if (!problem.empty()) {
      out.problems.push_back("verification " + problem);
    }
  }
  const uint64_t mismatches = Mismatches(run);
  const uint64_t unfinished = Unfinished(run);
  if (mismatches != 0) {
    out.problems.push_back(std::to_string(mismatches) +
                           " blocks read back with the wrong contents");
  }
  const CallLog total = run.Total();
  out.attempted = total.calls + unfinished;
  out.failed = total.errors + mismatches + unfinished;
  if (total.errors != 0) {
    out.problems.push_back(std::to_string(total.errors) + " calls failed (first: " +
                           total.first_error + ")");
  }

  if (!options.traced) {
    AddSlicedMetrics(run.slices, run.slice_wall_s, &out.report);
    out.report.Add("setup_s", Median(setup_s), "s",
                   "median of " + std::to_string(setup_s.size()) + " set-ups");
  } else {
    const PhaseWork work{total.calls, total.count(OpClass::kWrite), total.write_bytes, wall};
    AddLayerMetrics(before, after, work, &out.report);
    double rate[2] = {0, 0};
    for (size_t i = 0; i < run.slices.size(); ++i) {
      rate[i % 2] += Ratio(static_cast<double>(run.slices[i].calls), run.slice_wall_s[i]);
    }
    out.report.Add("obs.trace_overhead", Ratio(rate[0], rate[1]), "ratio",
                   "untraced / traced calls per second, alternating slices");
    out.report.Add("replay.backlog", 0, "ratio", "trace replay only");
    out.report.Add("replay.unfinished", static_cast<double>(unfinished), "count");
    out.report.Add("obs.spans_dropped", static_cast<double>(run.spans.dropped), "count");
    // A stalled system stays stopped; probing it would only hang.
    if (out.problems.empty()) {
      const ProbeChain probes = RunProbeChain(*sys, config.image_path, &run.spans);
      if (!probes.problem.empty()) {
        out.problems.push_back("probe: " + probes.problem);
      }
      AddProbeMetrics(probes, &out.report);
      if (std::string(w.name) == "cold-mix" && out.problems.empty()) {
        CompareWithSimulator(w, options, run, after.log_blocks - before.log_blocks, out.report,
                             probes, &out);
      }
    }
    out.spans = std::move(run.spans.spans);
  }
  out.report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  sys.reset();
  RemoveImages(config);
  return out;
}

}  // namespace pfsbench
