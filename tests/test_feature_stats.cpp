// Tests for feature-based statistics: the serial reference, and the
// central distributed property — gluing per-rank components through
// boundary links must reproduce the serial feature table exactly
// (geometry, canonical ids, and conditioned moments), for arbitrary
// fields and decompositions.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "analysis/topology/feature_stats.hpp"
#include "analysis/topology/local_tree.hpp"
#include "sim/analytic_fields.hpp"
#include "sim/grid.hpp"

namespace hia {
namespace {

std::vector<double> pack_box(const Field& f, const Box3& box) {
  return f.pack(box);
}

TEST(FeatureStatistics, EmptyFieldHasNoFeatures) {
  GlobalGrid grid{{8, 8, 8}, {1, 1, 1}};
  std::vector<double> field(512, 0.0), measure(512, 1.0);
  EXPECT_TRUE(
      feature_statistics(grid, grid.bounds(), field, measure, 0.5).empty());
}

TEST(FeatureStatistics, SingleFeatureGeometryAndMoments) {
  GlobalGrid grid{{8, 8, 8}, {1, 1, 1}};
  const Box3 box = grid.bounds();
  std::vector<double> field(512, 0.0), measure(512, 0.0);
  // A 2x2x2 cube of "hot" voxels at (2..3)^3; measure = global x index.
  for (int64_t k = 2; k <= 3; ++k)
    for (int64_t j = 2; j <= 3; ++j)
      for (int64_t i = 2; i <= 3; ++i) {
        field[box.offset(i, j, k)] = 1.0 + static_cast<double>(i) * 0.1;
        measure[box.offset(i, j, k)] = static_cast<double>(i);
      }
  const auto features =
      feature_statistics(grid, box, field, measure, 0.5);
  ASSERT_EQ(features.size(), 1u);
  const auto& f = features[0];
  EXPECT_EQ(f.voxels, 8);
  EXPECT_DOUBLE_EQ(f.centroid[0], 2.5);
  EXPECT_DOUBLE_EQ(f.centroid[1], 2.5);
  EXPECT_DOUBLE_EQ(f.centroid[2], 2.5);
  EXPECT_DOUBLE_EQ(f.max_value, 1.3);  // i = 3 column
  EXPECT_EQ(f.measure.count(), 8u);
  EXPECT_DOUBLE_EQ(f.measure.mean(), 2.5);
  // The canonical id is the highest (value, id) voxel: i=3 plane.
  EXPECT_EQ(static_cast<int64_t>(f.id) % grid.dims[0], 3);
}

TEST(FeatureStatistics, SortsByVoxelCount) {
  GlobalGrid grid{{16, 4, 4}, {1, 1, 1}};
  const Box3 box = grid.bounds();
  std::vector<double> field(256, 0.0), measure(256, 1.0);
  // Big blob: x in [0, 5); small blob: x in [8, 10).
  for (int64_t i = 0; i < 5; ++i) field[box.offset(i, 1, 1)] = 1.0;
  for (int64_t i = 8; i < 10; ++i) field[box.offset(i, 1, 1)] = 1.0;
  const auto features =
      feature_statistics(grid, box, field, measure, 0.5);
  ASSERT_EQ(features.size(), 2u);
  EXPECT_EQ(features[0].voxels, 5);
  EXPECT_EQ(features[1].voxels, 2);
}

TEST(FeatureStatistics, AsymmetricFeatureSerialAndAcrossRanks) {
  // An L-shaped feature, asymmetric in j and k, with a measure that
  // varies along both and a flat field (the canonical id comes from the
  // id tie-break). Hand-computed values pin the serial reference and the
  // rank path on layouts that split the feature over two blocks (the top
  // voxel shares its block, so a rank's tie-break matters) and three.
  GlobalGrid grid{{6, 6, 6}, {1, 1, 1}};
  Field field("f", grid.bounds());
  Field measure("m", grid.bounds());
  field.fill(0.0);
  measure.fill(0.0);
  const std::array<std::array<int64_t, 3>, 4> voxels{
      {{2, 2, 2}, {2, 3, 2}, {2, 4, 2}, {2, 2, 3}}};
  for (const auto& [i, j, k] : voxels) {
    field.at(i, j, k) = 1.0;
    measure.at(i, j, k) =
        10.0 * static_cast<double>(j) + 100.0 * static_cast<double>(k);
  }
  // Measures 220, 230, 240, 320: mean 252.5, deviations -32.5, -22.5,
  // -12.5, 67.5.
  const double m2 = 32.5 * 32.5 + 22.5 * 22.5 + 12.5 * 12.5 + 67.5 * 67.5;
  const uint64_t top_id = grid_vertex_id(grid, 2, 2, 3);

  auto check = [&](const std::vector<GlobalFeature>& features,
                   const char* path) {
    ASSERT_EQ(features.size(), 1u) << path;
    const GlobalFeature& f = features[0];
    EXPECT_EQ(f.voxels, 4) << path;
    EXPECT_EQ(f.id, top_id) << path;
    EXPECT_DOUBLE_EQ(f.max_value, 1.0) << path;
    EXPECT_DOUBLE_EQ(f.centroid[0], 2.0) << path;
    EXPECT_DOUBLE_EQ(f.centroid[1], 2.75) << path;
    EXPECT_DOUBLE_EQ(f.centroid[2], 2.25) << path;
    EXPECT_EQ(f.measure.count(), 4u) << path;
    EXPECT_DOUBLE_EQ(f.measure.mean(), 252.5) << path;
    EXPECT_NEAR(f.measure.m2(), m2, 1e-9 * m2) << path;
  };

  check(feature_statistics(grid, grid.bounds(), field.pack_owned(),
                           measure.pack_owned(), 0.5),
        "serial");

  for (const std::array<int, 3> ranks : {std::array<int, 3>{1, 2, 1},
                                          std::array<int, 3>{1, 2, 2}}) {
    Decomposition decomp(grid, ranks);
    std::vector<LocalFeatureData> parts;
    for (int r = 0; r < decomp.num_ranks(); ++r) {
      const Box3 block = decomp.block(r);
      const Box3 ext = extended_block(grid, block);
      parts.push_back(compute_local_features(
          grid, block, ext, field.pack(ext), measure.pack(ext), 0.5));
    }
    check(combine_features(parts),
          ranks[2] == 1 ? "combined {1,2,1}" : "combined {1,2,2}");
  }
}

struct FeatureCase {
  std::array<int64_t, 3> dims;
  std::array<int, 3> ranks;
  int field_kind;  // 0 gaussians, 1 noise
  uint64_t seed;
  double threshold;
};

class DistributedFeatures : public ::testing::TestWithParam<FeatureCase> {};

TEST_P(DistributedFeatures, CombinedEqualsSerial) {
  const auto& [dims, ranks, kind, seed, threshold] = GetParam();
  GlobalGrid grid{dims, {1.0, 1.0, 1.0}};
  Decomposition decomp(grid, ranks);

  Field field("f", grid.bounds());
  Field measure("m", grid.bounds());
  if (kind == 0) {
    fill_gaussian_mixture(field, grid,
                          GaussianMixture::well_separated(5, 0.07, seed));
  } else {
    fill_noise(field, seed);
  }
  fill_noise(measure, seed + 1000);

  const auto serial = feature_statistics(
      grid, grid.bounds(), field.pack_owned(), measure.pack_owned(),
      threshold);

  std::vector<LocalFeatureData> parts;
  for (int r = 0; r < decomp.num_ranks(); ++r) {
    const Box3 block = decomp.block(r);
    const Box3 ext = extended_block(grid, block);
    parts.push_back(compute_local_features(grid, block, ext,
                                           pack_box(field, ext),
                                           pack_box(measure, ext),
                                           threshold));
  }
  const auto combined = combine_features(parts);

  ASSERT_EQ(combined.size(), serial.size());
  for (size_t f = 0; f < serial.size(); ++f) {
    const auto& a = serial[f];
    const auto& b = combined[f];
    EXPECT_EQ(a.id, b.id) << "feature " << f;
    EXPECT_EQ(a.voxels, b.voxels);
    EXPECT_DOUBLE_EQ(a.max_value, b.max_value);
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(a.centroid[c], b.centroid[c], 1e-10);
    }
    EXPECT_EQ(a.measure.count(), b.measure.count());
    EXPECT_NEAR(a.measure.mean(), b.measure.mean(), 1e-10);
    EXPECT_NEAR(a.measure.m2(), b.measure.m2(),
                1e-8 * (1.0 + std::abs(a.measure.m2())));
  }
}

INSTANTIATE_TEST_SUITE_P(
    FieldsAndLayouts, DistributedFeatures,
    ::testing::Values(
        FeatureCase{{16, 16, 16}, {2, 2, 2}, 0, 3, 0.4},
        FeatureCase{{16, 16, 16}, {4, 2, 1}, 0, 9, 0.3},
        FeatureCase{{12, 10, 8}, {3, 2, 2}, 1, 17, 0.7},
        FeatureCase{{12, 10, 8}, {3, 2, 2}, 1, 17, 0.95},  // sparse
        FeatureCase{{8, 8, 8}, {2, 2, 2}, 1, 5, 0.5},
        FeatureCase{{20, 12, 8}, {1, 1, 1}, 0, 11, 0.4},   // trivial glue
        FeatureCase{{24, 6, 6}, {8, 1, 1}, 1, 23, 0.6}));  // deep chain

TEST(LocalFeatureData, SerializeRoundTrip) {
  GlobalGrid grid{{12, 8, 8}, {1, 1, 1}};
  Decomposition decomp(grid, {2, 1, 1});
  Field field("f", grid.bounds());
  Field measure("m", grid.bounds());
  fill_noise(field, 4);
  fill_noise(measure, 5);

  const Box3 block = decomp.block(0);
  const Box3 ext = extended_block(grid, block);
  const auto local = compute_local_features(
      grid, block, ext, pack_box(field, ext), pack_box(measure, ext), 0.5);

  const auto round =
      LocalFeatureData::deserialize(local.serialize());
  EXPECT_EQ(round.comp_max_id, local.comp_max_id);
  EXPECT_EQ(round.comp_max_value, local.comp_max_value);
  EXPECT_EQ(round.comp_voxels, local.comp_voxels);
  EXPECT_EQ(round.comp_centroid_sum, local.comp_centroid_sum);
  EXPECT_EQ(round.comp_moments, local.comp_moments);
  EXPECT_EQ(round.boundary_gid, local.boundary_gid);
  EXPECT_EQ(round.link_gid, local.link_gid);
}

TEST(CombineFeatures, FeatureSpanningManyRanks) {
  // A rod along x crossing all blocks: must glue into one feature with
  // exact total voxels and moments.
  GlobalGrid grid{{32, 4, 4}, {1, 1, 1}};
  Decomposition decomp(grid, {4, 1, 1});
  Field field("f", grid.bounds());
  Field measure("m", grid.bounds());
  field.fill(0.0);
  for (int64_t i = 0; i < 32; ++i) {
    field.at(i, 2, 2) = 1.0;
    measure.at(i, 2, 2) = static_cast<double>(i);
  }

  std::vector<LocalFeatureData> parts;
  for (int r = 0; r < 4; ++r) {
    const Box3 block = decomp.block(r);
    const Box3 ext = extended_block(grid, block);
    parts.push_back(compute_local_features(grid, block, ext,
                                           field.pack(ext),
                                           measure.pack(ext), 0.5));
  }
  const auto combined = combine_features(parts);
  ASSERT_EQ(combined.size(), 1u);
  EXPECT_EQ(combined[0].voxels, 32);
  EXPECT_DOUBLE_EQ(combined[0].centroid[0], 15.5);
  EXPECT_EQ(combined[0].measure.count(), 32u);
  EXPECT_DOUBLE_EQ(combined[0].measure.mean(), 15.5);
}

}  // namespace
}  // namespace hia
