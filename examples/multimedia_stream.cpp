// Continuous-media storage (the paper's motivating Pegasus use case): a
// multimedia file is an *active* file — on open it spawns its own thread
// inside the file system that pre-loads data at the stream's bit rate, and
// its blocks evict first so the stream cannot flood the cache.
//
//   ./multimedia_stream
#include <cstdio>

#include "fs/multimedia_file.h"
#include "patsy/patsy.h"

using namespace pfs;

int main() {
  PatsyConfig config;
  config.disks_per_bus = {1};
  config.num_filesystems = 1;
  config.cache_bytes = 2 * kMiB;  // small on purpose: watch the hint protect it
  config.flush_policy = "ups";
  PatsyServer server(config);
  if (!server.Setup().ok()) {
    return 1;
  }

  Status result(ErrorCode::kAborted);
  server.scheduler()->Spawn("stream", [](PatsyServer* srv, Status* out) -> Task<> {
    LocalClient* fs = srv->client();
    Scheduler* sched = srv->scheduler();

    // Store a 4 MiB "movie" as a multimedia file.
    OpenOptions create;
    create.create = true;
    create.create_type = FileType::kMultimedia;
    auto fd = co_await fs->Open("/fs0/movie.mpg", create);
    PFS_CHECK(fd.ok());
    auto wrote = co_await fs->Write(*fd, 0, 4 * kMiB, {});
    PFS_CHECK(wrote.ok());
    PFS_CHECK((co_await fs->Close(*fd)).ok());
    PFS_CHECK((co_await fs->SyncAll()).ok());

    // Stream it at (roughly) MPEG-1 rate: sequential 16 KiB reads with
    // real-time pacing; the active pre-loader runs ahead of us.
    auto stream_fd = co_await fs->Open("/fs0/movie.mpg", OpenOptions{});
    PFS_CHECK(stream_fd.ok());
    LatencyHistogram jitter;
    const uint64_t chunk = 16 * kKiB;
    for (uint64_t off = 0; off < 4 * kMiB; off += chunk) {
      const TimePoint t0 = sched->Now();
      auto read = co_await fs->Read(*stream_fd, off, chunk, {});
      PFS_CHECK(read.ok() && *read == chunk);
      jitter.Record(sched->Now() - t0);
      co_await sched->Sleep(Duration::MillisF(85.0));  // ~1.5 Mb/s consumption
    }
    *out = co_await fs->Close(*stream_fd);

    std::printf("streamed 4 MiB in %.2f simulated seconds\n",
                (sched->Now() - TimePoint()).ToSecondsF());
    std::printf("per-read service time: %s\n", jitter.Summary().c_str());
    std::printf("p99 under 2ms means the pre-loader kept ahead of the consumer: %s\n",
                jitter.Percentile(0.99) < Duration::Millis(2) ? "yes" : "no");
  }(&server, &result));
  server.scheduler()->Run();

  if (!result.ok()) {
    std::fprintf(stderr, "stream failed: %s\n", result.ToString().c_str());
    return 1;
  }
  std::printf("\n== %s ==\n%s\n", server.cache()->stat_name().c_str(),
              server.cache()->StatJson().c_str());
  return 0;
}
