// Self-test of the benchmark harness: the percentile rule, span self-time
// arithmetic, and seed plumbing of the generated inputs.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankOnHandBuiltSamples) {
  const std::vector<double> v = one_to(100);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.9), 90.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(percentile({7.0, 1.0, 4.0}, 0.5), 4.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 10.0, 5.0}), 3.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(highest_supported_percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(20), 0.5);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(99), 0.5);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(100), 0.9);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(108), 0.9);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(999), 0.9);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(1000), 0.99);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(9999), 0.99);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(10000), 0.999);
}

TEST(Percentile, SummarizeFlagsUnsupportedTails) {
  const Tail enough = summarize(one_to(1000), 0.99);
  EXPECT_TRUE(enough.supported);
  EXPECT_DOUBLE_EQ(enough.p50, 500.0);
  EXPECT_DOUBLE_EQ(enough.tail, 990.0);
  EXPECT_EQ(enough.n, 1000u);
  const Tail short_run = summarize(one_to(999), 0.99);
  EXPECT_FALSE(short_run.supported);
}

TEST(Spans, SelfTimeSubtractsChildCoverage) {
  SpanLog log;
  const int64_t root = log.add("root", 1, -1, 0.0, 10.0);
  log.add("a", 1, root, 1.0, 3.0);
  log.add("b", 1, root, 2.0, 5.0);   // overlaps a: covered once
  log.add("c", 1, root, 9.0, 12.0);  // runs past the parent: clipped
  const int64_t d = log.add("d", 1, root, 6.0, 7.0);
  log.add("e", 1, d, 6.25, 6.5);
  const std::vector<double> self = self_times(log.spans());
  ASSERT_EQ(self.size(), 6u);
  // Children cover [1,5] + [6,7] + [9,10] = 6 of the root's 10 s.
  EXPECT_DOUBLE_EQ(self[0], 4.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[4], 0.75);  // d minus its child e
  EXPECT_DOUBLE_EQ(self[5], 0.25);
  const auto by_name = self_time_by_name(log.spans());
  EXPECT_DOUBLE_EQ(by_name.at("root"), 4.0);
  EXPECT_DOUBLE_EQ(by_name.at("c"), 3.0);
}

TEST(Spans, ChildlessSpanIsAllSelf) {
  SpanLog log;
  log.add("only", 7, -1, 2.0, 2.5);
  EXPECT_DOUBLE_EQ(self_times(log.spans())[0], 0.5);
}

TEST(Seeds, SameSeedSameInputs) {
  const std::array<int64_t, 3> grid = {16, 16, 8};
  const auto a = generate_fields(grid, 11, 1);
  const auto b = generate_fields(grid, 11, 1);
  EXPECT_EQ(a, b);
  const auto blocks_a = cut_blocks(a, grid, 8);
  const auto blocks_b = cut_blocks(b, grid, 8);
  ASSERT_EQ(blocks_a.size(), blocks_b.size());
  for (size_t i = 0; i < blocks_a.size(); ++i) {
    EXPECT_EQ(blocks_a[i].crc, blocks_b[i].crc);
  }
}

TEST(Seeds, DifferentSeedDifferentInputs) {
  const std::array<int64_t, 3> grid = {16, 16, 8};
  EXPECT_NE(generate_fields(grid, 11, 1), generate_fields(grid, 12, 1));
  const hia::S3DParams p = sim_params(grid, {1, 1, 1}, 11);
  const hia::S3DParams q = sim_params(grid, {1, 1, 1}, 12);
  EXPECT_NE(p.turbulence.seed, q.turbulence.seed);
  EXPECT_NE(p.chemistry.seed, q.chemistry.seed);
}

TEST(Seeds, BlocksTileTheFields) {
  const std::array<int64_t, 3> grid = {16, 16, 8};
  const auto fields = generate_fields(grid, 3, 1);
  const auto blocks = cut_blocks(fields, grid, 8);
  ASSERT_EQ(blocks.size(), fields.size() * 4);
  // Block 1 of the first field starts at x = 8.
  EXPECT_DOUBLE_EQ(blocks[1].values[0], fields[0][8]);
  EXPECT_EQ(blocks[1].values.size(), 512u);
}

}  // namespace
}  // namespace perfbench
