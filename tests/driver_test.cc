// Unit tests for src/driver: queue scheduling policies, the simulated driver
// end-to-end, and the real file-backed driver.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "bus/scsi_bus.h"
#include "core/json.h"
#include "disk/disk_model.h"
#include "driver/disk_driver.h"
#include "driver/file_backed_driver.h"
#include "driver/io_engine.h"
#include "driver/io_executor.h"
#include "driver/sim_disk_driver.h"
#include "core/units.h"
#include "sched/scheduler.h"
#include "system/component_registry.h"

namespace pfs {

// Reads the IoExecutor internals the public API deliberately leaves out.
class IoExecutorTestPeer {
 public:
  static uint64_t Parks(IoExecutor& executor) {
    std::lock_guard<std::mutex> lk(executor.mu_);
    return executor.parks_;
  }
};

namespace {

struct SimFixture {
  explicit SimFixture(QueueSchedPolicy policy = QueueSchedPolicy::kClook,
                      DiskParams params = DiskParams::Hp97560()) {
    sched = Scheduler::CreateVirtual(42);
    ScsiBus::Params bus_params;
    bus_params.arbitration_delay = Duration();
    bus = std::make_unique<ScsiBus>(sched.get(), "scsi0", bus_params);
    disk = std::make_unique<DiskModel>(sched.get(), "d0", params, bus.get());
    disk->Start();
    driver = std::make_unique<SimDiskDriver>(sched.get(), &metrics, "d0", disk.get(),
                                             bus.get(), policy);
    driver->Start();
  }

  MetricRegistry metrics{1, "pfs"};
  std::unique_ptr<Scheduler> sched;
  std::unique_ptr<ScsiBus> bus;
  std::unique_ptr<DiskModel> disk;
  std::unique_ptr<SimDiskDriver> driver;
};

Task<> DoRead(BlockDevice* d, uint64_t sector, Status* out) {
  *out = co_await d->Read(sector, 8, {});
}

Task<> DoWrite(BlockDevice* d, uint64_t sector, Status* out) {
  *out = co_await d->Write(sector, 8, {});
}

TEST(SimDriverTest, ReadCompletesOk) {
  SimFixture f;
  Status status(ErrorCode::kAborted);
  f.sched->Spawn("r", DoRead(f.driver.get(), 5000, &status));
  f.sched->Run();
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(f.driver->ops_completed(), 1u);
  EXPECT_GT(f.sched->Now(), TimePoint() + Duration::Millis(2));
}

TEST(SimDriverTest, ParallelRequestsAllComplete) {
  SimFixture f;
  std::vector<Status> statuses(16, Status(ErrorCode::kAborted));
  for (int i = 0; i < 16; ++i) {
    f.sched->Spawn("r", DoRead(f.driver.get(), 1000 + i * 97, &statuses[i]));
  }
  f.sched->Run();
  for (const Status& s : statuses) {
    EXPECT_TRUE(s.ok());
  }
  EXPECT_EQ(f.driver->ops_completed(), 16u);
  // With 16 concurrent requests, the queue must have been observed non-empty.
  EXPECT_GT(f.driver->queue_length_hist().max(), 0.0);
}

TEST(SimDriverTest, MixedReadWriteQueue) {
  SimFixture f;
  std::vector<Status> statuses(8, Status(ErrorCode::kAborted));
  for (int i = 0; i < 8; ++i) {
    if (i % 2 == 0) {
      f.sched->Spawn("r", DoRead(f.driver.get(), 2000 + i * 131, &statuses[i]));
    } else {
      f.sched->Spawn("w", DoWrite(f.driver.get(), 4000 + i * 131, &statuses[i]));
    }
  }
  f.sched->Run();
  for (const Status& s : statuses) {
    EXPECT_TRUE(s.ok());
  }
  EXPECT_EQ(f.disk->reads() + f.disk->writes(), 8u);
}

// Collects dispatch order by observing per-request completion sequence under
// a policy, with requests pre-loaded while the worker is kept busy.
struct OrderProbe {
  std::vector<uint64_t> completion_order;
};

Task<> OrderedRead(BlockDevice* d, uint64_t sector, OrderProbe* probe) {
  const Status s = co_await d->Read(sector, 8, {});
  PFS_CHECK(s.ok());
  probe->completion_order.push_back(sector);
}

TEST(SimDriverTest, ClookServicesAscendingThenWraps) {
  // Use the synthetic disk (constant seek) so ordering is purely the
  // policy's. Load the queue in one scheduler step, then run.
  SimFixture f(QueueSchedPolicy::kClook, DiskParams::SyntheticTest());
  OrderProbe probe;
  // First a far request to move the head to sector 3000; then while it is
  // being serviced, queue out-of-order requests.
  f.sched->Spawn("warm", OrderedRead(f.driver.get(), 3000, &probe));
  f.sched->RunFor(Duration::Micros(150));  // warm request dispatched, not yet done
  for (uint64_t s : {3500ull, 1000ull, 3200ull, 2000ull}) {
    f.sched->Spawn("r", OrderedRead(f.driver.get(), s, &probe));
  }
  f.sched->Run();
  ASSERT_EQ(probe.completion_order.size(), 5u);
  EXPECT_EQ(probe.completion_order[0], 3000u);
  // C-LOOK from head=3000: ascending 3200, 3500, then wrap to 1000, 2000.
  EXPECT_EQ(probe.completion_order[1], 3200u);
  EXPECT_EQ(probe.completion_order[2], 3500u);
  EXPECT_EQ(probe.completion_order[3], 1000u);
  EXPECT_EQ(probe.completion_order[4], 2000u);
}

TEST(SimDriverTest, SstfPicksNearest) {
  SimFixture f(QueueSchedPolicy::kSstf, DiskParams::SyntheticTest());
  OrderProbe probe;
  f.sched->Spawn("warm", OrderedRead(f.driver.get(), 2000, &probe));
  f.sched->RunFor(Duration::Micros(150));
  for (uint64_t s : {100ull, 1900ull, 3900ull}) {
    f.sched->Spawn("r", OrderedRead(f.driver.get(), s, &probe));
  }
  f.sched->Run();
  ASSERT_EQ(probe.completion_order.size(), 4u);
  // From head=2000 SSTF picks 1900 (d=100), then 100 (d=1800) vs 3900
  // (d=2000) -> 100, then 3900.
  EXPECT_EQ(probe.completion_order[1], 1900u);
  EXPECT_EQ(probe.completion_order[2], 100u);
  EXPECT_EQ(probe.completion_order[3], 3900u);
}

Task<> SequentialReads(BlockDevice* d, std::vector<uint64_t> sectors, OrderProbe* probe) {
  for (uint64_t s : sectors) {
    co_await OrderedRead(d, s, probe);
  }
}

TEST(SimDriverTest, FcfsPreservesArrivalOrder) {
  SimFixture f(QueueSchedPolicy::kFcfs, DiskParams::SyntheticTest());
  OrderProbe probe;
  // One issuing thread awaits each read in turn, so arrival order is exactly
  // {3500, 1000, 3200} and FCFS must complete them in that order even though
  // it is not the sector-sorted order.
  f.sched->Spawn("seq", SequentialReads(f.driver.get(), {3500, 1000, 3200}, &probe));
  f.sched->Run();
  EXPECT_EQ(probe.completion_order, (std::vector<uint64_t>{3500, 1000, 3200}));
}

TEST(SimDriverTest, ScanSweepsBothDirections) {
  SimFixture f(QueueSchedPolicy::kLook, DiskParams::SyntheticTest());
  OrderProbe probe;
  f.sched->Spawn("warm", OrderedRead(f.driver.get(), 2000, &probe));
  f.sched->RunFor(Duration::Micros(150));
  for (uint64_t s : {2500ull, 1500ull, 3000ull, 500ull}) {
    f.sched->Spawn("r", OrderedRead(f.driver.get(), s, &probe));
  }
  f.sched->Run();
  ASSERT_EQ(probe.completion_order.size(), 5u);
  // LOOK from head=2000 going up: 2500, 3000; reverse: 1500, 500.
  EXPECT_EQ(probe.completion_order[1], 2500u);
  EXPECT_EQ(probe.completion_order[2], 3000u);
  EXPECT_EQ(probe.completion_order[3], 1500u);
  EXPECT_EQ(probe.completion_order[4], 500u);
}

TEST(SimDriverTest, StatJsonHasPolicy) {
  SimFixture f;
  Status status;
  f.sched->Spawn("r", DoRead(f.driver.get(), 5000, &status));
  f.sched->Run();
  auto json = ParseJson(f.driver->StatJson());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(json->Find("policy")->string_value, "C-LOOK");
}

TEST(QueuePolicyNamesTest, AllNamed) {
  EXPECT_STREQ(QueueSchedPolicyName(QueueSchedPolicy::kFcfs), "FCFS");
  EXPECT_STREQ(QueueSchedPolicyName(QueueSchedPolicy::kSstf), "SSTF");
  EXPECT_STREQ(QueueSchedPolicyName(QueueSchedPolicy::kScan), "SCAN");
  EXPECT_STREQ(QueueSchedPolicyName(QueueSchedPolicy::kCscan), "C-SCAN");
  EXPECT_STREQ(QueueSchedPolicyName(QueueSchedPolicy::kLook), "LOOK");
  EXPECT_STREQ(QueueSchedPolicyName(QueueSchedPolicy::kClook), "C-LOOK");
}

TEST(QueuePolicyNamesTest, NamesRoundTripThroughParse) {
  for (QueueSchedPolicy p :
       {QueueSchedPolicy::kFcfs, QueueSchedPolicy::kSstf, QueueSchedPolicy::kScan,
        QueueSchedPolicy::kCscan, QueueSchedPolicy::kLook, QueueSchedPolicy::kClook}) {
    const QueueSchedPolicy* parsed = QueuePolicyRegistry::Find(QueueSchedPolicyName(p));
    ASSERT_NE(parsed, nullptr) << QueueSchedPolicyName(p);
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_EQ(QueuePolicyRegistry::Find("clook"), nullptr);  // case-sensitive
  EXPECT_EQ(QueuePolicyRegistry::Find(""), nullptr);
  EXPECT_NE(QueuePolicyRegistry::NameList().find("C-SCAN"), std::string::npos);
}

class FileDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/pfs_filedriver_test.img";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

Task<> WriteThenRead(BlockDevice* d, bool* ok) {
  std::vector<std::byte> out(4096);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>(i & 0xff);
  }
  Status ws = co_await d->Write(16, 8, out);
  PFS_CHECK(ws.ok());
  std::vector<std::byte> in(4096);
  Status rs = co_await d->Read(16, 8, in);
  PFS_CHECK(rs.ok());
  *ok = std::equal(out.begin(), out.end(), in.begin());
}

TEST_F(FileDriverTest, RoundTripsBytes) {
  auto sched = Scheduler::CreateVirtual();
  MetricRegistry metrics(1, "pfs");
  IoExecutor executor(2);
  auto driver_or = FileBackedDriver::Create(sched.get(), &metrics, "real0", path_,
                                            1 * kMiB, &executor);
  ASSERT_TRUE(driver_or.ok());
  auto driver = std::move(driver_or).value();
  driver->Start();
  bool ok = false;
  sched->Spawn("wr", WriteThenRead(driver.get(), &ok));
  sched->Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(driver->ops_completed(), 2u);
  EXPECT_EQ(driver->total_sectors(), 1 * kMiB / 512);
}

TEST_F(FileDriverTest, PersistsAcrossReopen) {
  IoExecutor executor(2);
  {
    auto sched = Scheduler::CreateVirtual();
    MetricRegistry metrics(1, "pfs");
    auto driver =
        std::move(FileBackedDriver::Create(sched.get(), &metrics, "real0", path_,
                                           1 * kMiB, &executor))
            .value();
    driver->Start();
    bool ok = false;
    sched->Spawn("w", [](BlockDevice* d, bool* done) -> Task<> {
      std::vector<std::byte> buf(512, std::byte{0x5a});
      Status s = co_await d->Write(3, 1, buf);
      *done = s.ok();
    }(driver.get(), &ok));
    sched->Run();
    ASSERT_TRUE(ok);
  }
  {
    auto sched = Scheduler::CreateVirtual();
    MetricRegistry metrics(1, "pfs");
    auto driver =
        std::move(FileBackedDriver::Create(sched.get(), &metrics, "real0", path_,
                                           1 * kMiB, &executor))
            .value();
    driver->Start();
    bool ok = false;
    sched->Spawn("r", [](BlockDevice* d, bool* done) -> Task<> {
      std::vector<std::byte> buf(512);
      Status s = co_await d->Read(3, 1, buf);
      *done = s.ok() && buf[0] == std::byte{0x5a} && buf[511] == std::byte{0x5a};
    }(driver.get(), &ok));
    sched->Run();
    EXPECT_TRUE(ok);
  }
}

TEST_F(FileDriverTest, DrainsTheQueueIntoBatches) {
  auto sched = Scheduler::CreateVirtual();
  MetricRegistry metrics(1, "pfs");
  IoExecutor executor(2);
  auto driver =
      std::move(FileBackedDriver::Create(sched.get(), &metrics, "real0", path_, 1 * kMiB,
                                         &executor))
          .value();
  driver->Start();

  constexpr int kOps = 16;
  std::vector<Status> statuses(kOps, Status(ErrorCode::kAborted));
  std::vector<std::vector<std::byte>> bufs(kOps, std::vector<std::byte>(4096));
  for (int i = 0; i < kOps; ++i) {
    sched->Spawn("r", [](BlockDevice* d, uint64_t sector, std::span<std::byte> buf,
                         Status* out) -> Task<> {
      *out = co_await d->Read(sector, 8, buf);
    }(driver.get(), static_cast<uint64_t>(i) * 8, bufs[static_cast<size_t>(i)],
      &statuses[static_cast<size_t>(i)]));
  }
  sched->Run();
  for (const Status& s : statuses) {
    EXPECT_TRUE(s.ok());
  }
  EXPECT_EQ(driver->ops_completed(), static_cast<uint64_t>(kOps));
  // While one batch was at the engine the rest of the requests queued up, so
  // at least one later dispatch carried several requests.
  EXPECT_LT(driver->batches(), static_cast<uint64_t>(kOps));
  const HistogramMetric* batch_size =
      metrics.Histogram("disk_batch_size", "", "disk=\"real0\"");
  EXPECT_GE(batch_size->Percentile(1.0), 2u);

  const std::string json = driver->StatJson();
  EXPECT_NE(json.find("\"batches\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"reqs_per_batch\":"), std::string::npos) << json;
}

TEST_F(FileDriverTest, EngineRoundTrips) {
  // One write-then-read byte pattern through the engine directly (no
  // scheduler): the blocking RunBatch contract.
  IoEngine engine;
  const int fd = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 64 * 1024), 0);

  std::vector<std::byte> a(4096), b(4096);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::byte>(i & 0xff);
    b[i] = static_cast<std::byte>((i * 7) & 0xff);
  }
  std::vector<BatchIo> writes(2);
  writes[0].op = IoOp::kWrite;
  writes[0].fd = fd;
  writes[0].offset = 0;
  writes[0].write_buf = a;
  writes[1].op = IoOp::kWrite;
  writes[1].fd = fd;
  writes[1].offset = 4096;  // contiguous with the first: vectored path
  writes[1].write_buf = b;
  engine.RunBatch(writes);
  EXPECT_TRUE(writes[0].result.ok()) << writes[0].result.ToString();
  EXPECT_TRUE(writes[1].result.ok()) << writes[1].result.ToString();

  std::vector<std::byte> back_a(4096), back_b(4096);
  std::vector<BatchIo> reads(2);
  reads[0].fd = fd;
  reads[0].offset = 4096;  // out of order: non-contiguous path
  reads[0].read_buf = back_b;
  reads[1].fd = fd;
  reads[1].offset = 0;
  reads[1].read_buf = back_a;
  engine.RunBatch(reads);
  EXPECT_TRUE(reads[0].result.ok()) << reads[0].result.ToString();
  EXPECT_TRUE(reads[1].result.ok()) << reads[1].result.ToString();
  EXPECT_EQ(back_a, a);
  EXPECT_EQ(back_b, b);
  ::close(fd);
}

TEST_F(FileDriverTest, EngineFailsReadsPastEofInsteadOfShortening) {
  // A read crossing the end of the file gets a real EOF error, not silently
  // partial data — the short-transfer loop turns a 0-byte pread into a
  // Status (and the same loop finishes genuinely short transfers).
  const int fd = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 512), 0);

  std::vector<std::byte> buf(4096);
  BatchIo desc;
  desc.fd = fd;
  desc.offset = 0;
  desc.read_buf = buf;
  IoEngine engine;
  engine.RunBatch({&desc, 1});
  EXPECT_FALSE(desc.result.ok());
  EXPECT_NE(desc.result.ToString().find("EOF"), std::string::npos)
      << desc.result.ToString();
  ::close(fd);
}

TEST_F(FileDriverTest, EngineReportsWriteErrors) {
  // Write through a read-only descriptor: every affected descriptor gets the
  // errno, none is left kAborted or falsely OK.
  const int rw = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(rw, 0);
  ASSERT_EQ(::ftruncate(rw, 4096), 0);
  ::close(rw);
  const int fd = ::open(path_.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  std::vector<std::byte> buf(512, std::byte{0x42});
  std::vector<BatchIo> descs(2);
  for (BatchIo& d : descs) {
    d.op = IoOp::kWrite;
    d.fd = fd;
    d.write_buf = buf;
  }
  descs[1].offset = 512;
  IoEngine engine;
  engine.RunBatch(descs);
  EXPECT_FALSE(descs[0].result.ok());
  EXPECT_FALSE(descs[1].result.ok());
  ::close(fd);
}

TEST_F(FileDriverTest, CreateFailsOnBadPath) {
  auto sched = Scheduler::CreateVirtual();
  MetricRegistry metrics(1, "pfs");
  IoExecutor executor(1);
  auto driver_or = FileBackedDriver::Create(sched.get(), &metrics, "bad",
                                            "/nonexistent-dir/x.img",
                                            1 * kMiB, &executor);
  EXPECT_FALSE(driver_or.ok());
  EXPECT_EQ(driver_or.code(), ErrorCode::kIoError);
}

// The completion the executor tests submit with: sets the flag that the
// job is embedded with.
struct FlaggedJob : IoExecutor::Job {
  std::atomic<bool> done{false};
  static void Done(IoExecutor::Job* job) {
    static_cast<FlaggedJob*>(job)->done.store(true, std::memory_order_release);
  }
};

// A steady stream of batches that two workers split: the one that loses a
// job to the other keeps spinning instead of parking, so submitters almost
// never pay for a wake.
TEST(IoExecutorTest, AWorkerThatLosesAJobKeepsSpinning) {
  const std::string path = testing::TempDir() + "/pfs_executor_test.img";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 4096), 0);
  IoExecutor executor(2);
  std::vector<std::byte> buf(512);
  BatchIo desc;
  desc.fd = fd;
  desc.read_buf = buf;
  FlaggedJob job;
  job.batch = std::span<BatchIo>(&desc, 1);
  job.on_complete = &FlaggedJob::Done;
  constexpr int kJobs = 10'000;
  const uint64_t parks_before = IoExecutorTestPeer::Parks(executor);
  for (int i = 0; i < kJobs; ++i) {
    job.done.store(false, std::memory_order_relaxed);
    executor.SubmitBatch(&job);
    while (!job.done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(desc.result.ok()) << desc.result.ToString();
  }
  const uint64_t parks = IoExecutorTestPeer::Parks(executor) - parks_before;
  EXPECT_LT(parks, static_cast<uint64_t>(kJobs / 100)) << parks << " parks";
  ::close(fd);
  std::remove(path.c_str());
}

// With one worker the intrusive queue is a FIFO: jobs queued behind a
// blocked one run in the order they were submitted.
TEST(IoExecutorTest, RunsJobsInSubmissionOrder) {
  struct OrderedJob : IoExecutor::Job {
    std::atomic<bool>* gate;
    std::vector<int>* order;  // appended to by the one pool thread only
    int index;
    std::atomic<bool> done{false};
  };
  constexpr int kJobs = 8;
  std::atomic<bool> gate{false};
  std::vector<int> order;
  std::vector<OrderedJob> jobs(kJobs);
  IoExecutor executor(1);
  for (int i = 0; i < kJobs; ++i) {
    OrderedJob& job = jobs[static_cast<size_t>(i)];
    job.gate = &gate;
    job.order = &order;
    job.index = i;
    job.on_complete = [](IoExecutor::Job* done) {
      auto* self = static_cast<OrderedJob*>(done);
      // The first job holds the worker until every other job is queued.
      while (!self->gate->load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      self->order->push_back(self->index);
      self->done.store(true, std::memory_order_release);
    };
    executor.SubmitBatch(&job);
  }
  gate.store(true, std::memory_order_release);
  for (const OrderedJob& job : jobs) {
    while (!job.done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  std::vector<int> expected(kJobs);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace pfs
