// Tests for the NFS-style front-end (XDR codec, loopback RPC) and the
// on-line PFS server (real clock, file-backed disk, cross-thread requests).
#include <gtest/gtest.h>

#include <cstdio>

#include "nfs/nfs.h"
#include "nfs/xdr.h"
#include "online/pfs_server.h"
#include "online/recording_client.h"
#include "patsy/patsy.h"

namespace pfs {
namespace {

TEST(XdrTest, ScalarsRoundTripBigEndian) {
  std::vector<std::byte> buf;
  XdrEncoder enc(&buf);
  enc.PutU32(0x01020304);
  enc.PutU64(0x0102030405060708ULL);
  enc.PutBool(true);
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 0x01);  // network byte order
  EXPECT_EQ(static_cast<uint8_t>(buf[3]), 0x04);
  XdrDecoder dec(buf);
  EXPECT_EQ(dec.TakeU32().value(), 0x01020304u);
  EXPECT_EQ(dec.TakeU64().value(), 0x0102030405060708ULL);
  EXPECT_TRUE(dec.TakeBool().value());
}

TEST(XdrTest, StringsArePadded) {
  std::vector<std::byte> buf;
  XdrEncoder enc(&buf);
  enc.PutString("abcde");  // 4 (len) + 5 + 3 pad = 12
  EXPECT_EQ(buf.size(), 12u);
  XdrDecoder dec(buf);
  EXPECT_EQ(dec.TakeString().value(), "abcde");
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(XdrTest, ShortBufferIsCorrupt) {
  std::vector<std::byte> buf(2);
  XdrDecoder dec(buf);
  EXPECT_EQ(dec.TakeU32().code(), ErrorCode::kCorrupt);
}

// NFS over a simulated Patsy server: the RPC boundary works identically
// off-line (virtual clock) and on-line.
TEST(NfsTest, EndToEndOverLoopback) {
  PatsyConfig config;
  config.disks_per_bus = {1};
  config.num_filesystems = 1;
  config.cache_bytes = 2 * kMiB;
  config.flush_policy = "ups";
  PatsyServer server(config);
  ASSERT_TRUE(server.Setup().ok());

  NfsLoopback loopback(server.scheduler(), 16);
  NfsServer nfs(server.scheduler(), server.client(), &loopback, 2);
  nfs.Start();
  NfsClient client(server.scheduler(), &loopback);

  Status result(ErrorCode::kAborted);
  server.scheduler()->Spawn("nfs.test", [](NfsClient* c, Status* out) -> Task<> {
    OpenOptions create;
    create.create = true;
    auto fd = co_await c->Open("/fs0/rpc.txt", create);
    if (!fd.ok()) {
      *out = fd.status();
      co_return;
    }
    auto wrote = co_await c->Write(*fd, 0, 9000, {});
    PFS_CHECK(wrote.ok() && *wrote == 9000);
    auto attrs = co_await c->FStat(*fd);
    PFS_CHECK(attrs.ok() && attrs->size == 9000);
    auto read = co_await c->Read(*fd, 0, 9000, {});
    PFS_CHECK(read.ok() && *read == 9000);
    PFS_CHECK((co_await c->Close(*fd)).ok());

    PFS_CHECK((co_await c->Mkdir("/fs0/dir")).ok());
    auto entries = co_await c->ReadDir("/fs0");
    PFS_CHECK(entries.ok() && entries->size() == 2);
    auto stat = co_await c->Stat("/fs0/rpc.txt");
    PFS_CHECK(stat.ok());
    PFS_CHECK((co_await c->Unlink("/fs0/rpc.txt")).ok());
    auto gone = co_await c->Stat("/fs0/rpc.txt");
    PFS_CHECK(gone.code() == ErrorCode::kNotFound);
    *out = co_await c->SyncAll();
  }(&client, &result));
  server.scheduler()->Run();
  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_GT(nfs.requests_served(), 5u);
}

TEST(NfsTest, ErrorsCrossTheWire) {
  PatsyConfig config;
  config.disks_per_bus = {1};
  config.num_filesystems = 1;
  config.flush_policy = "ups";
  PatsyServer server(config);
  ASSERT_TRUE(server.Setup().ok());
  NfsLoopback loopback(server.scheduler(), 16);
  NfsServer nfs(server.scheduler(), server.client(), &loopback, 1);
  nfs.Start();
  NfsClient client(server.scheduler(), &loopback);

  ErrorCode code = ErrorCode::kOk;
  server.scheduler()->Spawn("nfs.err", [](NfsClient* c, ErrorCode* out) -> Task<> {
    auto fd = co_await c->Open("/fs0/missing", OpenOptions{});
    *out = fd.code();
  }(&client, &code));
  server.scheduler()->Run();
  EXPECT_EQ(code, ErrorCode::kNotFound);
}

TEST(NfsTest, WritesAndTruncatesPastTheMaximumFileSizeAreOutOfRange) {
  // Offsets and sizes cross the wire as raw u64s: a write whose end wraps
  // and a truncate past the largest file are refused, the file keeps its
  // size, and the server keeps answering and can still write everything back.
  PatsyConfig config;
  config.disks_per_bus = {1};
  config.num_filesystems = 1;
  config.flush_policy = "ups";
  PatsyServer server(config);
  ASSERT_TRUE(server.Setup().ok());
  NfsLoopback loopback(server.scheduler(), 16);
  NfsServer nfs(server.scheduler(), server.client(), &loopback, 1);
  nfs.Start();
  NfsClient client(server.scheduler(), &loopback);

  struct Outcome {
    Status write_past{ErrorCode::kAborted};
    Status truncate_past{ErrorCode::kAborted};
    uint64_t size_after = 0;
    Status closed{ErrorCode::kAborted};
    Status synced{ErrorCode::kAborted};
  } outcome;
  server.scheduler()->Spawn("nfs.range", [](NfsClient* c, Outcome* out) -> Task<> {
    OpenOptions create;
    create.create = true;
    auto fd = co_await c->Open("/fs0/big", create);
    PFS_CHECK(fd.ok());
    PFS_CHECK((co_await c->Write(*fd, 0, 4096, {})).ok());
    out->write_past = (co_await c->Write(*fd, UINT64_MAX - 100, 200, {})).status();
    out->truncate_past = co_await c->Truncate(*fd, UINT64_MAX);
    auto attrs = co_await c->FStat(*fd);
    PFS_CHECK(attrs.ok());
    out->size_after = attrs->size;
    out->closed = co_await c->Close(*fd);
    out->synced = co_await c->SyncAll();
  }(&client, &outcome));
  server.scheduler()->Run();
  EXPECT_EQ(outcome.write_past.code(), ErrorCode::kOutOfRange)
      << outcome.write_past.ToString();
  EXPECT_EQ(outcome.truncate_past.code(), ErrorCode::kOutOfRange)
      << outcome.truncate_past.ToString();
  EXPECT_EQ(outcome.size_after, 4096u);
  EXPECT_TRUE(outcome.closed.ok()) << outcome.closed.ToString();
  EXPECT_TRUE(outcome.synced.ok()) << outcome.synced.ToString();
}

// The server answers a bad fd with kInvalidArgument and keeps serving: fds
// below 3, one never issued, a closed one, and one naming shard 1, where no
// file system is mounted.
TEST(NfsTest, BadFdsAreInvalidAndLeaveTheServerWorking) {
  PatsyConfig config;
  config.disks_per_bus = {1};
  config.num_filesystems = 1;
  config.flush_policy = "ups";
  config.shards = 2;
  PatsyServer server(config);
  ASSERT_TRUE(server.Setup().ok());
  NfsLoopback loopback(server.scheduler(), 16);
  NfsServer nfs(server.scheduler(), server.client(), &loopback, 1);
  nfs.Start();
  NfsClient client(server.scheduler(), &loopback);

  Status result(ErrorCode::kAborted);
  server.scheduler()->Spawn("nfs.badfd", [](NfsClient* c, Status* out) -> Task<> {
    OpenOptions create;
    create.create = true;
    auto good = co_await c->Open("/fs0/good", create);
    PFS_CHECK(good.ok());
    PFS_CHECK((co_await c->Write(*good, 0, 4096, {})).ok());
    auto closed = co_await c->Open("/fs0/good", OpenOptions{});
    PFS_CHECK(closed.ok());
    PFS_CHECK((co_await c->Close(*closed)).ok());
    // Below 3; never issued (shard 0's slot 100); closed; naming shard 1.
    const Fd bad[] = {-1, 0, 1, 2, *good + 2 * 100, *closed, *good + 1};
    for (const Fd fd : bad) {
      Status statuses[6];
      statuses[0] = (co_await c->Read(fd, 0, 4096, {})).status();
      statuses[1] = (co_await c->Write(fd, 0, 4096, {})).status();
      statuses[2] = co_await c->Truncate(fd, 0);
      statuses[3] = co_await c->Fsync(fd);
      statuses[4] = (co_await c->FStat(fd)).status();
      statuses[5] = co_await c->Close(fd);
      for (const Status& status : statuses) {
        if (status.code() != ErrorCode::kInvalidArgument) {
          *out = Status(ErrorCode::kCorrupt,
                        "fd " + std::to_string(fd) + ": " + status.ToString());
          co_return;
        }
      }
      auto read = co_await c->Read(*good, 0, 4096, {});
      PFS_CHECK(read.ok() && *read == 4096);
    }
    *out = co_await c->Close(*good);
  }(&client, &result));
  server.scheduler()->Run();
  EXPECT_TRUE(result.ok()) << result.ToString();
}

class OnlineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    image_ = testing::TempDir() + "/pfs_online_test.img";
    std::remove(image_.c_str());
  }
  void TearDown() override { std::remove(image_.c_str()); }

  std::string image_;
};

TEST_F(OnlineTest, ServesRequestsFromOtherThreads) {
  PfsServerConfig config;
  config.image_path = image_;
  config.image_bytes = 16 * kMiB;
  auto server_or = PfsServer::Start(config);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto server = std::move(server_or).value();

  const Status status = server->Submit([](ClientInterface* c) -> Task<Status> {
    OpenOptions create;
    create.create = true;
    auto fd = co_await c->Open("/fs0/online.txt", create);
    PFS_CO_RETURN_IF_ERROR(fd.status());
    std::vector<std::byte> data(8192, std::byte{0x42});
    auto wrote = co_await c->Write(*fd, 0, data.size(), data);
    PFS_CO_RETURN_IF_ERROR(wrote.status());
    std::vector<std::byte> back(8192);
    auto read = co_await c->Read(*fd, 0, back.size(), back);
    PFS_CO_RETURN_IF_ERROR(read.status());
    if (back != data) {
      co_return Status(ErrorCode::kCorrupt, "read-back mismatch");
    }
    co_return co_await c->Close(*fd);
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(server->Stop().ok());
}

TEST_F(OnlineTest, DataPersistsAcrossServerRestart) {
  PfsServerConfig config;
  config.image_path = image_;
  config.image_bytes = 16 * kMiB;
  {
    auto server = std::move(PfsServer::Start(config)).value();
    const Status status = server->Submit([](ClientInterface* c) -> Task<Status> {
      OpenOptions create;
      create.create = true;
      auto fd = co_await c->Open("/fs0/persist.txt", create);
      PFS_CO_RETURN_IF_ERROR(fd.status());
      std::vector<std::byte> data(4096);
      for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::byte>(i % 251);
      }
      auto wrote = co_await c->Write(*fd, 0, data.size(), data);
      PFS_CO_RETURN_IF_ERROR(wrote.status());
      co_return co_await c->Close(*fd);
    });
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(server->Stop().ok());
  }
  {
    config.format = false;  // remount the existing image
    auto server_or = PfsServer::Start(config);
    ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
    auto server = std::move(server_or).value();
    const Status status = server->Submit([](ClientInterface* c) -> Task<Status> {
      auto fd = co_await c->Open("/fs0/persist.txt", OpenOptions{});
      PFS_CO_RETURN_IF_ERROR(fd.status());
      std::vector<std::byte> back(4096);
      auto read = co_await c->Read(*fd, 0, back.size(), back);
      PFS_CO_RETURN_IF_ERROR(read.status());
      for (size_t i = 0; i < back.size(); ++i) {
        if (back[i] != static_cast<std::byte>(i % 251)) {
          co_return Status(ErrorCode::kCorrupt, "persisted data mismatch");
        }
      }
      co_return co_await c->Close(*fd);
    });
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_TRUE(server->Stop().ok());
  }
}

TEST_F(OnlineTest, RecordedTraceReplaysInPatsy) {
  // The paper's symbiosis: record on-line, replay off-line.
  PfsServerConfig config;
  config.image_path = image_;
  config.image_bytes = 16 * kMiB;
  config.record_trace = true;
  auto server = std::move(PfsServer::Start(config)).value();
  const Status status = server->Submit([](ClientInterface* c) -> Task<Status> {
    OpenOptions create;
    create.create = true;
    for (int i = 0; i < 5; ++i) {
      auto fd = co_await c->Open("/fs0/f" + std::to_string(i), create);
      PFS_CO_RETURN_IF_ERROR(fd.status());
      auto wrote = co_await c->Write(*fd, 0, 4096, {});
      PFS_CO_RETURN_IF_ERROR(wrote.status());
      PFS_CO_RETURN_IF_ERROR(co_await c->Close(*fd));
    }
    co_return OkStatus();
  });
  ASSERT_TRUE(status.ok());
  std::vector<TraceRecord> trace = server->TakeRecordedTrace();
  ASSERT_TRUE(server->Stop().ok());
  ASSERT_GE(trace.size(), 15u);  // 5 x (open, write, close)

  // Replay in the simulator from the same system description: both
  // instantiations mount /fs0, so the trace needs no path rewriting.
  PatsyConfig sim = config;
  sim.backend = BackendKind::kSimulated;
  sim.flush_policy = "ups";
  auto result = RunTraceSimulation(sim, std::move(trace));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->ops, 15u);
  EXPECT_EQ(result->errors, 0u);
}

}  // namespace
}  // namespace pfs
