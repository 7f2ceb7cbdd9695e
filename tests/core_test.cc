// Unit tests for src/core: Status/Result, serialization, RNG, intrusive list,
// failed checks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/intrusive_list.h"
#include "core/random.h"
#include "core/result.h"
#include "core/serializer.h"
#include "core/status.h"
#include "core/units.h"

namespace pfs {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s(ErrorCode::kNotFound, "/a/b missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.ToString(), "not-found: /a/b missing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kAborted); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "unknown");
  }
}

Status FailIfNegative(int v) {
  if (v < 0) {
    return Status(ErrorCode::kInvalidArgument, "negative");
  }
  return OkStatus();
}

Status Passthrough(int v) {
  PFS_RETURN_IF_ERROR(FailIfNegative(v));
  return OkStatus();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Passthrough(1).ok());
  EXPECT_EQ(Passthrough(-1).code(), ErrorCode::kInvalidArgument);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status(ErrorCode::kNoSpace, "full"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kNoSpace);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, ErrorCodeConstructor) {
  Result<int> r(ErrorCode::kBusy);
  EXPECT_EQ(r.status().code(), ErrorCode::kBusy);
}

Result<int> Half(int v) {
  if (v % 2 != 0) {
    return Status(ErrorCode::kInvalidArgument, "odd");
  }
  return v / 2;
}

Result<int> Quarter(int v) {
  PFS_ASSIGN_OR_RETURN(int h, Half(v));
  return Half(h);
}

TEST(ResultTest, AssignOrReturnChains) {
  Result<int> r = Quarter(8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2);
  EXPECT_EQ(Quarter(6).code(), ErrorCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(SerializerTest, RoundTripScalars) {
  std::vector<std::byte> buf;
  Serializer s(&buf);
  s.PutU8(0xab);
  s.PutU16(0xbeef);
  s.PutU32(0xdeadbeef);
  s.PutU64(0x0123456789abcdefULL);
  s.PutI64(-42);

  Deserializer d(buf);
  EXPECT_EQ(d.TakeU8().value(), 0xab);
  EXPECT_EQ(d.TakeU16().value(), 0xbeef);
  EXPECT_EQ(d.TakeU32().value(), 0xdeadbeefu);
  EXPECT_EQ(d.TakeU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(d.TakeI64().value(), -42);
  EXPECT_TRUE(d.exhausted());
}

TEST(SerializerTest, RoundTripString) {
  std::vector<std::byte> buf;
  Serializer s(&buf);
  s.PutString("hello");
  s.PutString("");
  Deserializer d(buf);
  EXPECT_EQ(d.TakeString().value(), "hello");
  EXPECT_EQ(d.TakeString().value(), "");
}

TEST(SerializerTest, ShortBufferIsCorrupt) {
  std::vector<std::byte> buf;
  Serializer s(&buf);
  s.PutU16(7);
  Deserializer d(buf);
  EXPECT_TRUE(d.TakeU32().code() == ErrorCode::kCorrupt);
}

TEST(SerializerTest, TruncatedStringIsCorrupt) {
  std::vector<std::byte> buf;
  Serializer s(&buf);
  s.PutU16(100);  // claims 100 bytes, provides none
  Deserializer d(buf);
  EXPECT_EQ(d.TakeString().code(), ErrorCode::kCorrupt);
}

TEST(SerializerTest, LittleEndianLayout) {
  std::vector<std::byte> buf;
  Serializer s(&buf);
  s.PutU32(0x11223344);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 0x44);
  EXPECT_EQ(static_cast<uint8_t>(buf[3]), 0x11);
}

TEST(SerializerTest, SkipAndBytes) {
  std::vector<std::byte> buf;
  Serializer s(&buf);
  s.PutU32(1);
  s.PutU32(2);
  Deserializer d(buf);
  ASSERT_TRUE(d.Skip(4).ok());
  EXPECT_EQ(d.TakeU32().value(), 2u);
  EXPECT_FALSE(d.Skip(1).ok());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximate) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(RngTest, LogNormalPositive) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.NextLogNormal(2.0, 1.0), 0.0);
  }
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(42);
  Rng child = parent.Fork();
  // Child stream should not simply replay the parent stream.
  Rng parent2(42);
  parent2.Fork();
  EXPECT_EQ(parent.NextU64(), parent2.NextU64());
  EXPECT_NE(child.NextU64(), parent.NextU64());
}

TEST(ZipfTest, SkewsTowardLowRanks) {
  Rng rng(1);
  ZipfDistribution zipf(100, 0.99);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  // Rank 0 must dominate rank 50 heavily.
  EXPECT_GT(counts[0], counts[50] * 5);
  // All samples in range (implicitly by indexing) and rank0 is the mode.
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()) - counts.begin(), 0);
}

TEST(ZipfTest, ThetaZeroIsUniformish) {
  Rng rng(2);
  ZipfDistribution zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02);
  }
}

struct ListItem {
  explicit ListItem(int v) : value(v) {}
  int value;
  IntrusiveListNode node;
};

TEST(IntrusiveListTest, PushPopOrder) {
  ListItem a(1);
  ListItem b(2);
  ListItem c(3);
  IntrusiveList<ListItem, &ListItem::node> list;
  EXPECT_TRUE(list.empty());
  list.PushBack(a);
  list.PushBack(b);
  list.PushFront(c);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.Front()->value, 3);
  EXPECT_EQ(list.Back()->value, 2);
  EXPECT_EQ(list.PopFront()->value, 3);
  EXPECT_EQ(list.PopFront()->value, 1);
  EXPECT_EQ(list.PopFront()->value, 2);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.PopFront(), nullptr);
}

TEST(IntrusiveListTest, RemoveMiddle) {
  ListItem a(1);
  ListItem b(2);
  ListItem c(3);
  IntrusiveList<ListItem, &ListItem::node> list;
  list.PushBack(a);
  list.PushBack(b);
  list.PushBack(c);
  list.Remove(b);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.Front()->value, 1);
  EXPECT_EQ(list.Back()->value, 3);
  EXPECT_FALSE(b.node.linked());
  // Reinsertion after removal is allowed.
  list.PushBack(b);
  EXPECT_EQ(list.Back()->value, 2);
}

TEST(IntrusiveListTest, MoveToBackIsMruOperation) {
  ListItem a(1);
  ListItem b(2);
  ListItem c(3);
  IntrusiveList<ListItem, &ListItem::node> list;
  list.PushBack(a);
  list.PushBack(b);
  list.PushBack(c);
  list.MoveToBack(a);
  EXPECT_EQ(list.Front()->value, 2);
  EXPECT_EQ(list.Back()->value, 1);
}

TEST(IntrusiveListTest, Iteration) {
  ListItem a(1);
  ListItem b(2);
  ListItem c(3);
  IntrusiveList<ListItem, &ListItem::node> list;
  list.PushBack(a);
  list.PushBack(b);
  list.PushBack(c);
  std::vector<int> seen;
  for (ListItem& item : list) {
    seen.push_back(item.value);
  }
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

TEST(UnitsTest, Arithmetic) {
  EXPECT_EQ(kKiB, 1024u);
  EXPECT_EQ(kMiB, 1024u * 1024u);
  EXPECT_EQ(CeilDiv(10, 3), 4u);
  EXPECT_EQ(CeilDiv(9, 3), 3u);
  EXPECT_EQ(RoundUp(10, 4), 12u);
  EXPECT_EQ(RoundUp(8, 4), 8u);
}

TEST(CheckDeathTest, AFailedCheckKeepsWhatStdoutBuffered) {
  // stdout pointed at a file is fully buffered, as when a bench's output is
  // redirected; abort() alone would throw the buffered line away.
  const std::string path = testing::TempDir() + "pfs_check_stdout.txt";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        PFS_CHECK(std::freopen(path.c_str(), "w", stdout) != nullptr);
        std::printf("printed before the check\n");
        PFS_CHECK(path.empty());
      },
      "PFS_CHECK failed at .*: path.empty\\(\\)");
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "printed before the check\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pfs
