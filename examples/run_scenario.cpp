// Scenario smoke runner: parse a textual scenario file, build the described
// system (simulated or file-backed), run a short mixed workload against it,
// and print a one-screen summary. CTest and CI run every file in
// examples/scenarios/ through this, so scenario files can never rot.
//
//   ./run_scenario <file.scenario> [--ops N] [--files N] [--wscale BYTES]
//                  [--stats] [--trace FILE] [--metrics PORT] [--report-json FILE]
//   ./run_scenario --list-keys
//
// --list-keys prints every scenario key (its values, default, and doc) from
// the key table SystemConfig::Parse reads, and exits.
//
// --stats prints StatsRegistry::ReportAll() once the workload has finished:
// each stat source as a "== <name> ==" line followed by its StatJson on one
// line, the same objects --report-json writes.
//
// --report-json FILE writes the run's StatsRegistry::ReportJson() to FILE
// once the workload has finished. On the virtual clock the report is a pure
// function of the scenario and the flags, so tests/golden/ keeps one per
// simulated scenario and the scenario_* tests compare against it.
//
// --trace FILE force-enables request tracing regardless of the scenario's
// trace.* keys and exports the run as Chrome trace_event JSON to FILE (plus
// the sampled stats time series to FILE's "-samples" sibling). Recording
// spans leaves a simulated run as it is (the scenario_*_traced tests check
// the report), but unless the scenario sets trace.sample_ms, --trace also
// starts the stats sampler at 20 ms, and on the virtual clock the sampler is
// one more coroutine, so a --trace run is not step-for-step the run without.
//
// --metrics PORT serves the live metrics plane on PORT (0 = ask the kernel):
// it forces metrics.enabled, which starts the HTTP listener (/metrics,
// /healthz, /statz) and the /statz refresher. The metric registry counts with
// or without it; on the virtual clock the refresher is one more coroutine on
// shard 0, so a run with --metrics is not step-for-step the run without.
// Whenever the listener runs, the bound port is printed (and flushed) right
// after setup as "metrics: http://127.0.0.1:<port>/metrics", so a scraper
// driving this binary can pick it up mid-run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

#include "client/client_interface.h"
#include "system/system_builder.h"

using namespace pfs;

namespace {

// A small mixed workload over every mount: create, write, read back, close,
// and an occasional unlink, so layouts, cache, volumes, and drivers all see
// traffic (degraded mirrors serve the reads from their survivors). With a
// fault schedule, the loop keeps generating traffic until the last event
// has fired (so writes land inside the degraded window and accrue rebuild
// debt), syncs, and then waits for the rebuild daemons to drain.
struct SmokeShape {
  int files = 64;        // distinct file names per mount (--files)
  uint64_t wscale = 2048;  // write-size step; op i writes 1024 + (i%8)*wscale (--wscale)
};

Task<Status> Smoke(System* sys, int ops, SmokeShape shape, uint64_t* done) {
  LocalClient* client = sys->client();
  FaultInjector* injector = sys->fault_injector();
  OpenOptions create;
  create.create = true;
  const int nfs = sys->filesystem_count();
  for (int i = 0; i < ops || (injector != nullptr && !injector->done()); ++i) {
    const std::string mount = "/" + sys->mount_name(i % nfs);
    const std::string path = mount + "/smoke_" + std::to_string(i % shape.files);
    auto fd = co_await client->Open(path, create);
    PFS_CO_RETURN_IF_ERROR(fd.status());
    const uint64_t bytes = 1024 + static_cast<uint64_t>(i % 8) * shape.wscale;
    auto wrote = co_await client->Write(*fd, 0, bytes, {});
    PFS_CO_RETURN_IF_ERROR(wrote.status());
    auto read = co_await client->Read(*fd, 0, bytes, {});
    PFS_CO_RETURN_IF_ERROR(read.status());
    PFS_CO_RETURN_IF_ERROR(co_await client->Close(*fd));
    if (i % 16 == 15) {
      PFS_CO_RETURN_IF_ERROR(co_await client->Unlink(path));
    }
    // A cold read against the far side of the file set: once the live set
    // outgrows the cache (a big --files/--wscale), these miss and pull
    // blocks back up through the volumes — the read path's latency shows in
    // stats and traces instead of pure cache hits.
    if (i % 4 == 3) {
      const std::string old_path =
          mount + "/smoke_" + std::to_string((i + shape.files / 2) % shape.files);
      auto old_fd = co_await client->Open(old_path, OpenOptions{});
      if (old_fd.ok()) {
        auto old_read = co_await client->Read(*old_fd, 0, 4096, {});
        PFS_CO_RETURN_IF_ERROR(old_read.status());
        PFS_CO_RETURN_IF_ERROR(co_await client->Close(*old_fd));
      } else if (old_fd.status().code() != ErrorCode::kNotFound) {
        co_return old_fd.status();
      }
    }
    // Push dirty blocks through the volumes while members may be failed:
    // rebuild debt only accrues on flushed writes, not cache-resident ones.
    if (injector != nullptr && i % 50 == 49) {
      PFS_CO_RETURN_IF_ERROR(co_await client->SyncAll());
    }
    ++*done;
  }
  PFS_CO_RETURN_IF_ERROR(co_await client->SyncAll());
  while (!sys->fault_quiescent()) {
    co_await sys->scheduler()->Sleep(Duration::Millis(20));
  }
  co_return co_await client->SyncAll();
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_path;
  std::string trace_file;
  std::string report_json_file;
  SmokeShape shape;
  int ops = 1000;
  bool with_stats = false;
  bool with_metrics = false;
  int metrics_port = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-keys") == 0) {
      std::printf("%s", ScenarioKeyReference().c_str());
      return 0;
    }
    if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
      ops = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      with_stats = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      with_metrics = true;
      metrics_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_file = argv[++i];
    } else if (std::strcmp(argv[i], "--files") == 0 && i + 1 < argc) {
      shape.files = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--wscale") == 0 && i + 1 < argc) {
      shape.wscale = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--report-json") == 0 && i + 1 < argc) {
      report_json_file = argv[++i];
    } else {
      scenario_path = argv[i];
    }
  }
  if (scenario_path.empty() || ops < 1 || shape.files < 1 || shape.wscale < 1 ||
      metrics_port < 0 || metrics_port > 65535) {
    std::fprintf(stderr,
                 "usage: run_scenario <file.scenario> [--ops N] [--files N] [--wscale BYTES] "
                 "[--stats] [--trace FILE] [--metrics PORT] [--report-json FILE]\n"
                 "       run_scenario --list-keys\n");
    return 2;
  }

  auto loaded = LoadScenarioFile(scenario_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "parse failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  SystemConfig config = *loaded;
  if (!trace_file.empty()) {
    config.trace.enabled = true;
    config.trace.file = trace_file;
    if (config.trace.sample_ms == 0) {
      config.trace.sample_ms = 20;  // time-series samples ride along by default
    }
  }
  if (with_metrics) {
    config.metrics.enabled = true;
    config.metrics.port = static_cast<uint32_t>(metrics_port);
  }

  // A private image path, so concurrent smoke runs of different scenarios
  // never collide on the file the scenario happens to name.
  if (!config.simulated()) {
    config.image_path =
        "/tmp/pfs_scenario_smoke_" + std::to_string(static_cast<long>(getpid())) + ".img";
    config.format = true;
  }

  auto built = SystemBuilder::Build(config);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n", built.status().ToString().c_str());
    return 1;
  }
  System& sys = **built;
  if (Status status = sys.Setup(); !status.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (sys.metrics_port() != 0) {
    // Flushed before the workload starts so a scraper can curl mid-run.
    std::printf("metrics: http://127.0.0.1:%u/metrics\n", sys.metrics_port());
    std::fflush(stdout);
  }

  uint64_t done = 0;
  Status result(ErrorCode::kAborted);
  sys.scheduler()->Spawn("scenario.smoke", [](System* s, int n, SmokeShape shape_in,
                                              uint64_t* d, Status* out) -> Task<> {
    *out = co_await Smoke(s, n, shape_in, d);
  }(&sys, ops, shape, &done, &result));
  sys.RunToCompletion();

  std::printf("scenario: %s\n", scenario_path.c_str());
  std::printf("  backend=%s disks=%d filesystems=%d layout=%s flush=%s\n",
              BackendKindName(config.backend), config.total_disks(), config.num_filesystems,
              config.layout.c_str(), config.flush_policy.c_str());
  for (int f = 0; f < sys.filesystem_count() && f < 4; ++f) {
    Volume* v = sys.volume(f);
    std::printf("  %s: kind=%s members=%zu\n", v->stat_name().c_str(), v->kind(),
                v->member_count());
  }
  std::printf("  ops=%llu/%d result=%s elapsed=%.3f ms (%s clock)\n",
              static_cast<unsigned long long>(done), ops, result.ToString().c_str(),
              (sys.scheduler()->Now() - TimePoint()).ToMillisF(),
              config.virtual_clock() ? "virtual" : "real");
  if (FaultInjector* injector = sys.fault_injector(); injector != nullptr) {
    std::printf("  fault: %s\n", injector->StatJson().c_str());
    for (int f = 0; f < sys.filesystem_count(); ++f) {
      if (auto* mirror = dynamic_cast<MirrorVolume*>(sys.volume(f)); mirror != nullptr) {
        std::printf("  %s: degraded=%.3fms repairs=%llu debt=%lluB rebuilt=%lluB\n",
                    mirror->stat_name().c_str(), mirror->degraded_time().ToMillisF(),
                    static_cast<unsigned long long>(mirror->repairs()),
                    static_cast<unsigned long long>(mirror->rebuild_debt_bytes()),
                    static_cast<unsigned long long>(mirror->rebuilt_sectors() *
                                                    mirror->sector_bytes()));
      }
    }
  }
  if (with_stats) {
    std::printf("%s", sys.stats().ReportAll().c_str());
  }
  bool report_written = true;
  if (!report_json_file.empty()) {
    const std::string report = sys.stats().ReportJson() + "\n";
    std::FILE* out = std::fopen(report_json_file.c_str(), "w");
    report_written =
        out != nullptr && std::fwrite(report.data(), 1, report.size(), out) == report.size();
    if (out != nullptr && std::fclose(out) != 0) {
      report_written = false;
    }
    if (!report_written) {
      std::fprintf(stderr, "cannot write %s\n", report_json_file.c_str());
    }
  }
  if (sys.metrics_http() != nullptr) {
    std::printf("  metrics: port=%u scrapes=%llu\n", sys.metrics_port(),
                static_cast<unsigned long long>(sys.metrics()->scrapes()));
  }
  if (const TraceRecorder* tracer = sys.tracer(); tracer != nullptr) {
    std::printf("  trace: %zu span(s)", tracer->span_count());
    if (Status status = sys.ExportObservability(); !status.ok()) {
      std::fprintf(stderr, "\ntrace export failed: %s\n", status.ToString().c_str());
      return 1;
    }
    if (!config.trace.file.empty()) {
      std::printf(" -> %s", config.trace.file.c_str());
      if (sys.stats_sampler() != nullptr) {
        std::printf(" (+%s)", TraceSamplesPath(config.trace.file).c_str());
      }
    }
    std::printf("\n");
  }

  if (!config.simulated()) {
    for (int i = 0; i < config.total_disks(); ++i) {
      std::remove(config.disk_image_path(i).c_str());
    }
  }
  return result.ok() && report_written ? 0 : 1;
}
