#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "util/bitops.h"
#include "util/checksum.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/prng.h"
#include "util/stats_math.h"
#include "util/status.h"

namespace ibfs {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Status FailsThrough() {
  IBFS_RETURN_NOT_OK(Status::Internal("inner"));
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(FailsThrough().code(), StatusCode::kInternal);
}

TEST(PrngTest, DeterministicForSeed) {
  Prng a(123);
  Prng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(PrngTest, KnownAnswers) {
  // Pins the stream itself, not just its determinism: every generator
  // preset, sampled source set and golden depends on these exact values.
  Prng prng(42);
  const uint64_t next[] = {0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL,
                           0xae17533239e499a1ULL, 0xecb8ad4703b360a1ULL};
  for (const uint64_t want : next) EXPECT_EQ(prng.Next(), want);
  const double doubles[] = {0x1.fbcdb8ffc5d8bp-1, 0x1.8a1b4a6202f2ap-1,
                            0x1.7042a90ab4cbbp-1, 0x1.b3344e87d7ccp-1};
  for (const double want : doubles) EXPECT_EQ(prng.NextDouble(), want);
  const uint64_t bounded[] = {958, 85, 649, 893};
  for (const uint64_t want : bounded) EXPECT_EQ(prng.NextBounded(1000), want);
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Prng a(1);
  Prng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(PrngTest, BoundedStaysInRange) {
  Prng prng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(prng.NextBounded(17), 17u);
  }
}

TEST(PrngTest, BoundedCoversRange) {
  Prng prng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(prng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(PrngTest, DoubleInUnitInterval) {
  Prng prng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = prng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(PrngTest, BoolRespectsProbabilityEdges) {
  Prng prng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(prng.NextBool(0.0));
    EXPECT_TRUE(prng.NextBool(1.0));
  }
}

TEST(BitopsTest, PopCountAndLowestSetBit) {
  EXPECT_EQ(PopCount(0), 0);
  EXPECT_EQ(PopCount(~uint64_t{0}), 64);
  EXPECT_EQ(PopCount(0b1011), 3);
  EXPECT_EQ(PopCount(uint64_t{1} << 63), 1);
  EXPECT_EQ(LowestSetBit(0b1000), 3);
  EXPECT_EQ(LowestSetBit(uint64_t{1} << 63), 63);
}

int BitLoopCount(uint64_t word) {
  int count = 0;
  for (int i = 0; i < 64; ++i) count += static_cast<int>((word >> i) & 1);
  return count;
}

TEST(BitOpsTest, PopCountMatchesBitLoop) {
  EXPECT_EQ(PopCount(0), BitLoopCount(0));
  EXPECT_EQ(PopCount(~uint64_t{0}), BitLoopCount(~uint64_t{0}));
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(PopCount(uint64_t{1} << i), 1) << "bit " << i;
  }
  for (const uint64_t word :
       {0x5555555555555555ULL, 0xaaaaaaaaaaaaaaaaULL, 0x3333333333333333ULL,
        0xccccccccccccccccULL, 0x0f0f0f0f0f0f0f0fULL, 0xf0f0f0f0f0f0f0f0ULL}) {
    EXPECT_EQ(PopCount(word), BitLoopCount(word)) << std::hex << word;
  }
  Prng prng(11);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t word = prng.Next();
    EXPECT_EQ(PopCount(word), BitLoopCount(word)) << std::hex << word;
  }
}

// src/CMakeLists.txt sets -mpopcnt on every x86-64 build; without it the
// bitwise kernels' PopCount silently becomes a library call.
TEST(BitOpsTest, HardwarePopCountOnX86) {
#if defined(__x86_64__) && !defined(__POPCNT__)
  FAIL() << "x86-64 build without -mpopcnt: PopCount is not one POPCNT";
#endif
}

TEST(BitopsTest, MasksAndBits) {
  EXPECT_EQ(LowMask(0), 0u);
  EXPECT_EQ(LowMask(3), 0b111u);
  EXPECT_EQ(LowMask(64), ~uint64_t{0});
  EXPECT_EQ(Bit(0), 1u);
  EXPECT_TRUE(TestBit(0b100, 2));
  EXPECT_FALSE(TestBit(0b100, 1));
}

TEST(BitopsTest, RoundingHelpers) {
  EXPECT_EQ(RoundUp(5, 4), 8u);
  EXPECT_EQ(RoundUp(8, 4), 8u);
  EXPECT_EQ(CeilDiv(5, 4), 2u);
  EXPECT_EQ(CeilDiv(8, 4), 2u);
  EXPECT_EQ(CeilDiv(0, 4), 0u);
}

TEST(StatsMathTest, RunningStatsBasics) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  s.Add(2.0);
  s.Add(4.0);
  s.Add(6.0);
  EXPECT_EQ(s.count(), 3);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.sum(), 12.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(8.0 / 3.0), 1e-12);
}

// IntegerMoments must report what RunningStats reports for the same
// integer series: count, sum, min and max exactly, stddev to 1e-12.
void ExpectMomentsMatch(const std::vector<int64_t>& series) {
  IntegerMoments moments;
  RunningStats reference;
  for (int64_t x : series) {
    moments.Add(x);
    reference.Add(static_cast<double>(x));
  }
  EXPECT_EQ(moments.count(), reference.count());
  EXPECT_EQ(static_cast<double>(moments.sum()), reference.sum());
  EXPECT_EQ(static_cast<double>(moments.min()), reference.min());
  EXPECT_EQ(static_cast<double>(moments.max()), reference.max());
  EXPECT_NEAR(moments.stddev(), reference.stddev(),
              1e-12 * reference.stddev());
}

TEST(StatsMathTest, IntegerMomentsMatchRunningStats) {
  ExpectMomentsMatch({});
  ExpectMomentsMatch({37});
  Prng prng(5);
  std::vector<int64_t> series;
  for (int i = 0; i < 10000; ++i) {
    series.push_back(static_cast<int64_t>(prng.NextBounded(4097)));
  }
  ExpectMomentsMatch(series);
}

TEST(StatsMathTest, StdDevMatchesClosedForm) {
  const std::vector<double> vals = {1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(StdDev(vals), 0.0);
  const std::vector<double> vals2 = {0, 10};
  EXPECT_DOUBLE_EQ(StdDev(vals2), 5.0);
}

TEST(StatsMathTest, MeanAndGeoMean) {
  const std::vector<double> vals = {1.0, 4.0, 16.0};
  EXPECT_DOUBLE_EQ(Mean(vals), 7.0);
  EXPECT_NEAR(GeoMean(vals), 4.0, 1e-12);
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(GeoMean({}), 0.0);
}

TEST(CsvTest, PrintsHeaderAndAlignedRows) {
  CsvTable table({"graph", "teps"});
  table.Row().Add("FB").Add(12.345, 2);
  table.Row().Add("KG0").Add(int64_t{7});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("graph"), std::string::npos);
  EXPECT_NE(out.find("12.35"), std::string::npos);
  EXPECT_NE(out.find("KG0"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(EnvTest, DefaultsWhenUnset) {
  ::unsetenv("IBFS_TEST_KNOB");
  EXPECT_EQ(EnvInt64("IBFS_TEST_KNOB", 5), 5);
  EXPECT_EQ(EnvString("IBFS_TEST_KNOB", "dflt"), "dflt");
}

TEST(EnvTest, ParsesInteger) {
  ::setenv("IBFS_TEST_KNOB", "42", 1);
  EXPECT_EQ(EnvInt64("IBFS_TEST_KNOB", 5), 42);
  ::setenv("IBFS_TEST_KNOB", "not-a-number", 1);
  EXPECT_EQ(EnvInt64("IBFS_TEST_KNOB", 5), 5);
  ::unsetenv("IBFS_TEST_KNOB");
}

std::span<const uint8_t> Bytes(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// Published FNV-1a 64-bit test vectors. Every depth checksum in the goldens
// and committed bench JSON is this function, so its values must never move.
TEST(ChecksumTest, Fnv1aKnownAnswers) {
  EXPECT_EQ(Fnv1a(Bytes("")), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a(Bytes("a")), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a(Bytes("foobar")), 0x85944171f73967e8ULL);
}

TEST(ChecksumTest, Fnv1aExtendChainsBuffers) {
  EXPECT_EQ(Fnv1aExtend(Fnv1a(Bytes("foo")), Bytes("bar")),
            Fnv1a(Bytes("foobar")));
  const std::vector<std::vector<uint8_t>> depths = {
      {'f', 'o'}, {}, {'o', 'b', 'a', 'r'}};
  EXPECT_EQ(Fnv1aOfDepths(depths), Fnv1a(Bytes("foobar")));
}

TEST(ChecksumTest, Fnv1aEachMatchesPerVectorFnv1a) {
  Prng prng(17);
  for (size_t group : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 47}) {
    std::vector<std::vector<uint8_t>> vectors(group);
    for (size_t v = 0; v < group; ++v) {
      // Unequal lengths, every third vector empty, 0xff sprinkled in.
      const size_t length = v % 3 == 0 ? 0 : 1 + prng.NextBounded(300);
      for (size_t i = 0; i < length; ++i) {
        vectors[v].push_back(prng.NextBool(0.3)
                                 ? uint8_t{0xff}
                                 : static_cast<uint8_t>(prng.NextBounded(256)));
      }
    }
    std::vector<Fnv1aCounted> out(group);
    Fnv1aEach(vectors, 0xff, out);
    for (size_t v = 0; v < group; ++v) {
      EXPECT_EQ(out[v].checksum, Fnv1a(vectors[v])) << group << " " << v;
      EXPECT_EQ(out[v].counted,
                std::count_if(vectors[v].begin(), vectors[v].end(),
                              [](uint8_t b) { return b != 0xff; }))
          << group << " " << v;
    }
  }
}

TEST(ChecksumTest, Fnv1aWordsCatchesEverySingleByteFlip) {
  // 77 bytes: two four-lane blocks, one leftover word, five tail bytes.
  std::vector<uint8_t> bytes(77);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 37);
  }
  const uint64_t seal = Fnv1aWords(bytes);
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
      bytes[i] ^= mask;
      EXPECT_NE(Fnv1aWords(bytes), seal) << "byte " << i;
      bytes[i] ^= mask;
    }
  }
  EXPECT_EQ(Fnv1aWords(bytes), seal);
}

}  // namespace
}  // namespace ibfs
