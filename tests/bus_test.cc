// Unit tests for src/bus: SCSI bus timing, arbitration, contention stats.
#include <gtest/gtest.h>

#include "bus/connection.h"
#include "bus/scsi_bus.h"
#include "core/json.h"
#include "sched/scheduler.h"

namespace pfs {
namespace {

TEST(ScsiBusTest, TransferTimeMatchesBandwidth) {
  auto sched = Scheduler::CreateVirtual();
  ScsiBus bus(sched.get(), "scsi0");
  // 10 MB/s decimal: 10,000 bytes take 1 ms.
  EXPECT_EQ(bus.TransferTime(10000), Duration::Millis(1));
  EXPECT_EQ(bus.TransferTime(0), Duration());
  // 4 KB block: 409.6 us.
  EXPECT_EQ(bus.TransferTime(4096).micros(), 409);
}

Task<> UseBus(Scheduler* s, ScsiBus* bus, uint64_t bytes, int* completed) {
  co_await bus->Acquire();
  co_await bus->Transfer(bytes);
  bus->Release();
  ++(*completed);
  (void)s;
}

TEST(ScsiBusTest, SingleTransferAdvancesClock) {
  auto sched = Scheduler::CreateVirtual();
  ScsiBus::Params params;
  params.arbitration_delay = Duration();
  ScsiBus bus(sched.get(), "scsi0", params);
  int completed = 0;
  sched->Spawn("xfer", UseBus(sched.get(), &bus, 10000, &completed));
  sched->Run();
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(sched->Now(), TimePoint() + Duration::Millis(1));
  EXPECT_EQ(bus.bytes_transferred(), 10000u);
  EXPECT_EQ(bus.acquisitions(), 1u);
}

TEST(ScsiBusTest, ContentionSerializesInitiators) {
  auto sched = Scheduler::CreateVirtual();
  ScsiBus::Params params;
  params.arbitration_delay = Duration();
  ScsiBus bus(sched.get(), "scsi0", params);
  int completed = 0;
  // Four initiators, 10,000 bytes (1 ms) each: the bus serializes them, so
  // total virtual time is exactly 4 ms.
  for (int i = 0; i < 4; ++i) {
    sched->Spawn("xfer", UseBus(sched.get(), &bus, 10000, &completed));
  }
  sched->Run();
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(sched->Now(), TimePoint() + Duration::Millis(4));
}

TEST(ScsiBusTest, ArbitrationDelayCharged) {
  auto sched = Scheduler::CreateVirtual();
  ScsiBus::Params params;
  params.arbitration_delay = Duration::Micros(10);
  ScsiBus bus(sched.get(), "scsi0", params);
  int completed = 0;
  sched->Spawn("xfer", UseBus(sched.get(), &bus, 10000, &completed));
  sched->Run();
  EXPECT_EQ(sched->Now(), TimePoint() + Duration::Millis(1) + Duration::Micros(10));
}

TEST(ScsiBusTest, UtilizationReflectsBusyTime) {
  auto sched = Scheduler::CreateVirtual();
  ScsiBus::Params params;
  params.arbitration_delay = Duration();
  ScsiBus bus(sched.get(), "scsi0", params);
  int completed = 0;
  sched->Spawn("xfer", UseBus(sched.get(), &bus, 10000, &completed));
  sched->Run();
  // Bus was held for the full 1 ms of the run.
  EXPECT_NEAR(bus.Utilization(), 1.0, 0.01);
  EXPECT_EQ(bus.busy_time(), Duration::Millis(1));
}

TEST(ScsiBusTest, StatJsonMentionsTraffic) {
  auto sched = Scheduler::CreateVirtual();
  ScsiBus bus(sched.get(), "scsi0");
  int completed = 0;
  sched->Spawn("xfer", UseBus(sched.get(), &bus, 4096, &completed));
  sched->Run();
  auto json = ParseJson(bus.StatJson());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(json->Find("bytes")->number_value, 4096.0);
  EXPECT_EQ(json->Find("acquisitions")->number_value, 1.0);
  EXPECT_EQ(bus.stat_name(), "bus.scsi0");
}

Task<> HoldBus(Scheduler* s, ScsiBus* bus, Duration hold, std::vector<int>* order, int id) {
  co_await bus->Acquire();
  order->push_back(id);
  co_await s->Sleep(hold);
  bus->Release();
}

TEST(ScsiBusTest, DisconnectReconnectInterleavesPhases) {
  auto sched = Scheduler::CreateVirtual();
  ScsiBus::Params params;
  params.arbitration_delay = Duration();
  ScsiBus bus(sched.get(), "scsi0", params);
  std::vector<int> order;
  // Holder 1 takes the bus at t=0 for 1 ms; holder 2 spawned immediately
  // after queues behind it (FIFO via semaphore + event ordering).
  sched->Spawn("h1", HoldBus(sched.get(), &bus, Duration::Millis(1), &order, 1));
  sched->Spawn("h2", HoldBus(sched.get(), &bus, Duration::Millis(1), &order, 2));
  sched->Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(sched->Now(), TimePoint() + Duration::Millis(2));
}

}  // namespace
}  // namespace pfs
