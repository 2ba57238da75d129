#include "gtest/gtest.h"
#include "ibfs/bitwise_status_array.h"
#include "ibfs/frontier_queue.h"
#include "ibfs/status_array.h"
#include "ibfs/trace.h"

namespace ibfs {
namespace {

TEST(JointStatusArrayTest, StartsUnvisited) {
  JointStatusArray jsa(16, 4);
  for (int64_t v = 0; v < 16; ++v) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_FALSE(jsa.IsVisited(static_cast<graph::VertexId>(v), j));
      EXPECT_EQ(jsa.Depth(static_cast<graph::VertexId>(v), j),
                kUnvisitedDepth);
    }
  }
}

TEST(JointStatusArrayTest, SetAndReadDepth) {
  JointStatusArray jsa(8, 3);
  jsa.SetDepth(5, 1, 7);
  EXPECT_EQ(jsa.Depth(5, 1), 7);
  EXPECT_TRUE(jsa.IsVisited(5, 1));
  EXPECT_FALSE(jsa.IsVisited(5, 0));
  EXPECT_FALSE(jsa.IsVisited(5, 2));
}

TEST(JointStatusArrayTest, RowIsContiguousPerVertex) {
  JointStatusArray jsa(4, 8);
  // Element index layout: v * N + j, the coalescing-friendly layout of
  // Section 4 (statuses of one vertex side by side).
  EXPECT_EQ(jsa.ElementIndex(0, 0), 0);
  EXPECT_EQ(jsa.ElementIndex(0, 7), 7);
  EXPECT_EQ(jsa.ElementIndex(1, 0), 8);
  EXPECT_EQ(jsa.ElementIndex(3, 5), 29);
  EXPECT_EQ(jsa.Row(2).size(), 8u);
}

TEST(JointStatusArrayTest, StorageBytesIsVertexTimesInstances) {
  JointStatusArray jsa(100, 64);
  EXPECT_EQ(jsa.StorageBytes(), 6400);
}

TEST(BitwiseStatusArrayTest, WordsPerVertex) {
  EXPECT_EQ(BitwiseStatusArray(4, 1).words_per_vertex(), 1);
  EXPECT_EQ(BitwiseStatusArray(4, 64).words_per_vertex(), 1);
  EXPECT_EQ(BitwiseStatusArray(4, 65).words_per_vertex(), 2);
  EXPECT_EQ(BitwiseStatusArray(4, 128).words_per_vertex(), 2);
  EXPECT_EQ(BitwiseStatusArray(4, 129).words_per_vertex(), 3);
}

TEST(BitwiseStatusArrayTest, SetAndTestBits) {
  BitwiseStatusArray bsa(8, 70);
  EXPECT_FALSE(bsa.TestBit(3, 69));
  bsa.SetBit(3, 69);
  EXPECT_TRUE(bsa.TestBit(3, 69));
  EXPECT_FALSE(bsa.TestBit(3, 68));
  EXPECT_FALSE(bsa.TestBit(4, 69));
}

TEST(BitwiseStatusArrayTest, RowAllClear) {
  BitwiseStatusArray bsa(2, 70);
  EXPECT_TRUE(bsa.RowAllClear(0));
  // A bit in the last (partial) word alone makes the row non-clear.
  bsa.SetBit(0, 69);
  EXPECT_FALSE(bsa.RowAllClear(0));
  EXPECT_TRUE(bsa.RowAllClear(1));
}

TEST(BitwiseStatusArrayTest, CopyFrom) {
  BitwiseStatusArray a(4, 32);
  BitwiseStatusArray b(4, 32);
  a.SetBit(2, 5);
  b.CopyFrom(a);
  EXPECT_TRUE(b.TestBit(2, 5));
  EXPECT_FALSE(b.TestBit(2, 4));
}

TEST(BitwiseStatusArrayTest, JsaToBsaMappingShrinksStorage) {
  // Figure 12's point: one bit instead of one byte per (vertex, instance).
  JointStatusArray jsa(1024, 128);
  BitwiseStatusArray bsa(1024, 128);
  EXPECT_EQ(jsa.StorageBytes() / bsa.StorageBytes(), 8);
}

TEST(FrontierQueueTest, PushSizeClearSwap) {
  FrontierQueue q;
  EXPECT_TRUE(q.empty());
  q.Push(3);
  q.Push(7);
  EXPECT_EQ(q.size(), 2);
  EXPECT_EQ(q.vertices()[1], 7u);
  FrontierQueue other;
  other.Push(1);
  q.Swap(other);
  EXPECT_EQ(q.size(), 1);
  EXPECT_EQ(other.size(), 2);
  q.Clear();
  EXPECT_TRUE(q.empty());
}

TEST(TraceTest, SharingDegreeMatchesEquationOne) {
  GroupTrace trace;
  trace.instance_count = 4;
  // Level 1: 4 private frontiers collapse into 1 joint entry (SD 4).
  trace.levels.push_back({1, false, 1, 4, 0, 0});
  // Level 2: 8 private over 4 joint (SD 2).
  trace.levels.push_back({2, false, 4, 8, 0, 0});
  EXPECT_DOUBLE_EQ(trace.SharingDegree(), 12.0 / 5.0);
  EXPECT_DOUBLE_EQ(trace.SharingRatio(), 12.0 / 5.0 / 4.0);
  EXPECT_DOUBLE_EQ(trace.LevelSharingDegree(1), 4.0);
  EXPECT_DOUBLE_EQ(trace.LevelSharingDegree(2), 2.0);
  EXPECT_DOUBLE_EQ(trace.LevelSharingDegree(9), 0.0);
}

TEST(TraceTest, DirectionRestrictedSharing) {
  GroupTrace trace;
  trace.instance_count = 2;
  trace.levels.push_back({1, false, 2, 2, 0, 0});   // top-down, SD 1
  trace.levels.push_back({2, true, 2, 4, 0, 0});    // bottom-up, SD 2
  EXPECT_DOUBLE_EQ(trace.DirectionSharingDegree(false), 1.0);
  EXPECT_DOUBLE_EQ(trace.DirectionSharingDegree(true), 2.0);
  EXPECT_DOUBLE_EQ(trace.DirectionSharingRatio(true), 1.0);
}

TEST(TraceTest, EmptyTraceIsZero) {
  GroupTrace trace;
  EXPECT_EQ(trace.SharingDegree(), 0.0);
  EXPECT_EQ(trace.SharingRatio(), 0.0);
  EXPECT_EQ(trace.TotalInspections(), 0);
}

TEST(TraceTest, TotalInspectionsSumsLevels) {
  GroupTrace trace;
  trace.levels.push_back({1, false, 1, 1, 10, 0});
  trace.levels.push_back({2, true, 1, 1, 32, 0});
  EXPECT_EQ(trace.TotalInspections(), 42);
}

}  // namespace
}  // namespace ibfs
