// Quickstart: build a simulated PFS file server from the component library,
// create a directory tree, write and read files, and print the component
// statistics — the whole public API surface in ~80 lines.
//
//   ./quickstart [--config file.scenario]
#include <cstdio>
#include <cstring>

#include "patsy/patsy.h"

using namespace pfs;

int main(int argc, char** argv) {
  // A small server: one SCSI bus, two HP97560 disks, two LFS file systems,
  // a 4 MiB cache with the UPS write-saving policy — or any textual
  // scenario, via --config.
  PatsyConfig config;
  config.disks_per_bus = {2};
  config.num_filesystems = 2;
  config.cache_bytes = 4 * kMiB;
  config.flush_policy = "ups";
  auto args = ParseScenarioArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 2;
  }
  if (args->scenario.has_value()) {
    config = *args->scenario;
    if (config.mount_prefix != "fs") {
      std::fprintf(stderr, "quickstart walks /fs0; the scenario must keep "
                           "mount_prefix = fs\n");
      return 2;
    }
  }
  PatsyServer server(config);
  if (!server.Setup().ok()) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }

  Status result(ErrorCode::kAborted);
  server.scheduler()->Spawn("quickstart", [](LocalClient* fs, Scheduler* sched,
                                             Status* out) -> Task<> {
    // Make a directory and create a file in it.
    *out = co_await fs->Mkdir("/fs0/projects");
    PFS_CHECK(out->ok());

    OpenOptions create;
    create.create = true;
    auto fd = co_await fs->Open("/fs0/projects/notes.txt", create);
    PFS_CHECK(fd.ok());

    // Write 64 KiB, read it back, check the attributes.
    auto wrote = co_await fs->Write(*fd, 0, 64 * kKiB, {});
    PFS_CHECK(wrote.ok() && *wrote == 64 * kKiB);
    auto read = co_await fs->Read(*fd, 0, 64 * kKiB, {});
    PFS_CHECK(read.ok() && *read == 64 * kKiB);
    auto attrs = co_await fs->FStat(*fd);
    PFS_CHECK(attrs.ok());
    std::printf("file: ino=%llu size=%llu bytes, %s\n",
                static_cast<unsigned long long>(attrs->ino),
                static_cast<unsigned long long>(attrs->size), FileTypeName(attrs->type));
    PFS_CHECK((co_await fs->Close(*fd)).ok());

    // List the directory.
    auto entries = co_await fs->ReadDir("/fs0/projects");
    PFS_CHECK(entries.ok());
    for (const DirEntry& e : *entries) {
      std::printf("  /fs0/projects/%s (ino %llu)\n", e.name.c_str(),
                  static_cast<unsigned long long>(e.ino));
    }

    // Rename across directories, then flush everything to (simulated) disk.
    PFS_CHECK((co_await fs->Mkdir("/fs0/archive")).ok());
    PFS_CHECK((co_await fs->Rename("/fs0/projects/notes.txt",
                                   "/fs0/archive/notes.txt")).ok());
    *out = co_await fs->SyncAll();
    std::printf("simulated time elapsed: %.3f ms\n",
                (sched->Now() - TimePoint()).ToMillisF());
  }(server.client(), server.scheduler(), &result));
  server.scheduler()->Run();

  if (!result.ok()) {
    std::fprintf(stderr, "quickstart failed: %s\n", result.ToString().c_str());
    return 1;
  }
  std::printf("\n-- component statistics --\n%s", server.stats().ReportAll().c_str());
  return 0;
}
