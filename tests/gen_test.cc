#include <cmath>
#include <iterator>
#include <string>

#include "gen/benchmarks.h"
#include "gen/rmat.h"
#include "gen/uniform.h"
#include "graph/degree_stats.h"
#include "gtest/gtest.h"

namespace ibfs::gen {
namespace {

TEST(RmatTest, DeterministicForSeed) {
  RmatParams params;
  params.scale = 8;
  params.edge_factor = 8;
  auto a = GenerateRmat(params);
  auto b = GenerateRmat(params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().edge_count(), b.value().edge_count());
  for (int64_t v = 0; v < a.value().vertex_count(); ++v) {
    const auto na = a.value().OutNeighbors(static_cast<graph::VertexId>(v));
    const auto nb = b.value().OutNeighbors(static_cast<graph::VertexId>(v));
    ASSERT_EQ(na.size(), nb.size());
    for (size_t i = 0; i < na.size(); ++i) ASSERT_EQ(na[i], nb[i]);
  }
}

TEST(RmatTest, DifferentSeedsProduceDifferentGraphs) {
  RmatParams params;
  params.scale = 8;
  RmatParams params2 = params;
  params2.seed = 99;
  auto a = GenerateRmat(params);
  auto b = GenerateRmat(params2);
  ASSERT_TRUE(a.ok() && b.ok());
  bool any_diff = a.value().edge_count() != b.value().edge_count();
  for (int64_t v = 0; !any_diff && v < a.value().vertex_count(); ++v) {
    any_diff |= a.value().OutDegree(static_cast<graph::VertexId>(v)) !=
                b.value().OutDegree(static_cast<graph::VertexId>(v));
  }
  EXPECT_TRUE(any_diff);
}

TEST(RmatTest, SizeMatchesScaleAndFactor) {
  RmatParams params;
  params.scale = 9;
  params.edge_factor = 4;
  auto g = GenerateRmat(params);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().vertex_count(), 512);
  // Undirected doubling minus dedup losses: between 1x and 2x m.
  EXPECT_GT(g.value().edge_count(), 512 * 4 / 2);
  EXPECT_LE(g.value().edge_count(), 512 * 4 * 2);
}

TEST(RmatTest, PowerLawHasHubs) {
  RmatParams params;
  params.scale = 10;
  params.edge_factor = 16;
  auto g = GenerateRmat(params);
  ASSERT_TRUE(g.ok());
  const auto stats = graph::ComputeDegreeStats(g.value());
  // Skewed distribution: max degree far above average.
  EXPECT_GT(static_cast<double>(stats.max_outdegree),
            8.0 * stats.avg_outdegree);
}

TEST(RmatTest, RejectsBadParameters) {
  RmatParams params;
  params.scale = 0;
  EXPECT_FALSE(GenerateRmat(params).ok());
  params.scale = 8;
  params.edge_factor = 0;
  EXPECT_FALSE(GenerateRmat(params).ok());
  params.edge_factor = 8;
  params.a = 0.9;
  params.b = 0.9;
  EXPECT_FALSE(GenerateRmat(params).ok());
}

TEST(UniformTest, RoughlyUniformDegrees) {
  UniformParams params;
  params.vertex_count = 1024;
  params.outdegree = 8;
  auto g = GenerateUniform(params);
  ASSERT_TRUE(g.ok());
  const auto stats = graph::ComputeDegreeStats(g.value());
  // Each vertex draws 8 out + expects ~8 in (undirected doubling).
  EXPECT_NEAR(stats.avg_outdegree, 16.0, 2.0);
  // No power-law hubs: max degree within a small factor of the average.
  EXPECT_LT(static_cast<double>(stats.max_outdegree),
            4.0 * stats.avg_outdegree);
}

TEST(UniformTest, DeterministicForSeed) {
  UniformParams params;
  params.vertex_count = 128;
  auto a = GenerateUniform(params);
  auto b = GenerateUniform(params);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().edge_count(), b.value().edge_count());
}

TEST(UniformTest, RejectsBadParameters) {
  UniformParams params;
  params.vertex_count = 0;
  EXPECT_FALSE(GenerateUniform(params).ok());
  params.vertex_count = 8;
  params.outdegree = -1;
  EXPECT_FALSE(GenerateUniform(params).ok());
}

TEST(BenchmarksTest, ThirteenPresetsWithPaperNames) {
  const auto& all = AllBenchmarks();
  ASSERT_EQ(all.size(), 13u);
  const char* expected[] = {"FB", "FR", "HW",  "KG0", "KG1", "KG2", "LJ",
                            "OR", "PK", "RD",  "RM",  "TW",  "WK"};
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].name, expected[i]);
  }
}

TEST(BenchmarksTest, LookupByName) {
  auto id = BenchmarkByName("KG0");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, BenchmarkId::kKG0);
  EXPECT_FALSE(BenchmarkByName("nope").has_value());
}

TEST(BenchmarksTest, RdIsUniformOthersSkewed) {
  EXPECT_TRUE(GetBenchmark(BenchmarkId::kRD).uniform);
  EXPECT_FALSE(GetBenchmark(BenchmarkId::kTW).uniform);
}

TEST(BenchmarksTest, GeneratesEveryPreset) {
  for (const auto& spec : AllBenchmarks()) {
    auto g = GenerateBenchmark(spec.id, /*scale_delta=*/-2);
    ASSERT_TRUE(g.ok()) << spec.name << ": " << g.status().ToString();
    EXPECT_EQ(g.value().vertex_count(), int64_t{1}
                                            << (spec.base_scale - 2))
        << spec.name;
    EXPECT_GT(g.value().edge_count(), 0) << spec.name;
  }
}

TEST(BenchmarksTest, PresetFingerprintsMatchGoldens) {
  // Graph identity gated directly: every simulated golden, figure and
  // benchmark workload is built on these exact graphs.
  struct Golden {
    BenchmarkId id;
    int64_t vertices;
    int64_t edges;
    uint64_t fingerprint;
  };
  const Golden goldens[] = {
      {BenchmarkId::kFB, 16384, 330227, 0x5f4a36e4f1985885ULL},
      {BenchmarkId::kFR, 16384, 369122, 0x04d8394377613538ULL},
      {BenchmarkId::kHW, 8192, 362616, 0xd40ccfd19bc0f6ecULL},
      {BenchmarkId::kKG0, 4096, 392462, 0x2ed505f68a7c1803ULL},
      {BenchmarkId::kKG1, 8192, 226207, 0x07f0a007f8d179f0ULL},
      {BenchmarkId::kKG2, 16384, 426414, 0xfad04efe0b42a0b3ULL},
      {BenchmarkId::kLJ, 8192, 182107, 0x08fd811fb7a84dacULL},
      {BenchmarkId::kOR, 8192, 248717, 0x91a802213857e426ULL},
      {BenchmarkId::kPK, 4096, 65067, 0xfacec29c25190a8fULL},
      {BenchmarkId::kRD, 16384, 262014, 0x146bae99da2e8a6eULL},
      {BenchmarkId::kRM, 8192, 496998, 0x2642096098fb250dULL},
      {BenchmarkId::kTW, 16384, 160664, 0xe45e87223a1df5b9ULL},
      {BenchmarkId::kWK, 8192, 81525, 0x0ac82b9c3a0fe114ULL},
  };
  ASSERT_EQ(std::size(goldens), AllBenchmarks().size());
  for (const Golden& golden : goldens) {
    const std::string& name = GetBenchmark(golden.id).name;
    auto g = GenerateBenchmark(golden.id, /*scale_delta=*/0);
    ASSERT_TRUE(g.ok()) << name << ": " << g.status().ToString();
    EXPECT_EQ(g.value().vertex_count(), golden.vertices) << name;
    EXPECT_EQ(g.value().edge_count(), golden.edges) << name;
    EXPECT_EQ(g.value().Fingerprint(), golden.fingerprint) << name;
  }
}

TEST(BenchmarksTest, Kg0HasHighestAverageDegree) {
  // The paper's KG0 is the high-average-outdegree benchmark.
  double kg0_avg = 0.0;
  double max_other = 0.0;
  for (const auto& spec : AllBenchmarks()) {
    auto g = GenerateBenchmark(spec.id, 0);
    ASSERT_TRUE(g.ok());
    const double avg = static_cast<double>(g.value().edge_count()) /
                       static_cast<double>(g.value().vertex_count());
    if (spec.id == BenchmarkId::kKG0) {
      kg0_avg = avg;
    } else {
      max_other = std::max(max_other, avg);
    }
  }
  EXPECT_GT(kg0_avg, max_other);
}

TEST(BenchmarksTest, ScaleDeltaRejectsDegenerate) {
  EXPECT_FALSE(GenerateBenchmark(BenchmarkId::kKG0, -20).ok());
}

}  // namespace
}  // namespace ibfs::gen
