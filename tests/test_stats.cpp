// Tests for the statistics library: single-pass moment accuracy against
// brute force, pairwise-combination equivalence (the property the parallel
// learn stage relies on), the blocked-moments kernel against the serial
// update() oracle, hostile packed counts, the four-stage pattern,
// correlation, and histograms.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "analysis/stats/correlation.hpp"
#include "analysis/stats/descriptive.hpp"
#include "analysis/stats/histogram.hpp"
#include "analysis/stats/moments.hpp"
#include "analysis/viz/downsample.hpp"
#include "core/contingency_pipeline.hpp"
#include "core/correlation_pipeline.hpp"
#include "core/histogram_pipeline.hpp"
#include "core/stats_pipeline.hpp"
#include "core/timeseries_pipeline.hpp"
#include "runtime/comm.hpp"
#include "sim/s3d.hpp"
#include "stress_scale.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hia {
namespace {

std::vector<double> random_data(size_t n, uint64_t seed, double scale = 1.0,
                                double offset = 0.0) {
  Xoshiro256 rng(seed);
  std::vector<double> out(n);
  for (auto& x : out) x = offset + scale * rng.normal();
  return out;
}

/// Brute-force centered moments for verification.
struct Brute {
  double mean = 0, m2 = 0, m3 = 0, m4 = 0;
};
Brute brute_force(const std::vector<double>& xs) {
  Brute b;
  for (const double x : xs) b.mean += x;
  b.mean /= static_cast<double>(xs.size());
  for (const double x : xs) {
    const double d = x - b.mean;
    b.m2 += d * d;
    b.m3 += d * d * d;
    b.m4 += d * d * d * d;
  }
  return b;
}

TEST(Moments, MatchesBruteForce) {
  const auto xs = random_data(5000, 1, 2.5, -1.0);
  const auto acc = stats_learn(xs);
  const auto bf = brute_force(xs);
  EXPECT_EQ(acc.count(), xs.size());
  EXPECT_NEAR(acc.mean(), bf.mean, 1e-10);
  EXPECT_NEAR(acc.m2(), bf.m2, std::abs(bf.m2) * 1e-9);
  EXPECT_NEAR(acc.m3(), bf.m3, std::abs(bf.m2) * 1e-7);
  EXPECT_NEAR(acc.m4(), bf.m4, std::abs(bf.m4) * 1e-9);
  EXPECT_EQ(acc.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_EQ(acc.max(), *std::max_element(xs.begin(), xs.end()));
}

TEST(Moments, EmptyAndSingle) {
  MomentAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  acc.update(5.0);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.m2(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 5.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
}

class MomentsCombine : public ::testing::TestWithParam<int> {};

TEST_P(MomentsCombine, CombineEqualsSequential) {
  const int parts = GetParam();
  const auto xs = random_data(4096, 7, 3.0, 2.0);
  const auto whole = stats_learn(xs);

  // Split into `parts` unequal chunks, learn separately, combine.
  std::vector<MomentAccumulator> partials;
  size_t begin = 0;
  for (int p = 0; p < parts; ++p) {
    const size_t len = p + 1 == parts
                           ? xs.size() - begin
                           : (xs.size() / parts) + (p % 2 == 0 ? 17 : -17);
    partials.push_back(stats_learn(
        std::span(xs.data() + begin, std::min(len, xs.size() - begin))));
    begin += len;
  }
  const auto combined = stats_combine(partials);

  EXPECT_EQ(combined.count(), whole.count());
  EXPECT_NEAR(combined.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(combined.m2(), whole.m2(), std::abs(whole.m2()) * 1e-10);
  EXPECT_NEAR(combined.m3(), whole.m3(), std::abs(whole.m2()) * 1e-8);
  EXPECT_NEAR(combined.m4(), whole.m4(), std::abs(whole.m4()) * 1e-10);
  EXPECT_DOUBLE_EQ(combined.min(), whole.min());
  EXPECT_DOUBLE_EQ(combined.max(), whole.max());
}

INSTANTIATE_TEST_SUITE_P(Partitions, MomentsCombine,
                         ::testing::Values(2, 3, 4, 8, 16, 64));

TEST(Moments, CombineWithEmptySides) {
  const auto xs = random_data(100, 3);
  auto a = stats_learn(xs);
  const MomentAccumulator empty;
  auto b = a;
  b.combine(empty);
  EXPECT_EQ(b, a);
  MomentAccumulator c;
  c.combine(a);
  EXPECT_EQ(c, a);
}

TEST(Moments, PackUnpackRoundTrip) {
  const auto acc = stats_learn(random_data(500, 11));
  double packed[MomentAccumulator::kPackedSize];
  acc.pack(packed);
  EXPECT_EQ(MomentAccumulator::unpack(packed), acc);
}

// ------------------------------------------------ blocked moments (add_block)

/// The oracle: serial update() over every value, in order.
MomentAccumulator serial_moments(std::span<const double> values) {
  MomentAccumulator acc;
  for (const double x : values) acc.update(x);
  return acc;
}

/// Blocked moments over `values` split at the sorted cut points `cuts`.
MomentAccumulator blocked_moments(std::span<const double> values,
                                  const std::vector<size_t>& cuts) {
  MomentAccumulator acc;
  size_t begin = 0;
  for (const size_t end : cuts) {
    acc.add_block(values.subspan(begin, end - begin));
    begin = end;
  }
  acc.add_block(values.subspan(begin));
  return acc;
}

/// Errors of `got` against `want`: mean, M2 and M4 relative, and M3
/// scaled by n·σ³ (the absolute error it puts on the skewness).
std::array<double, 4> moment_errors(const MomentAccumulator& got,
                                    const MomentAccumulator& want) {
  auto rel = [](double g, double w, double scale) {
    return g == w ? 0.0 : std::abs(g - w) / scale;
  };
  const double n = static_cast<double>(want.count());
  return {rel(got.mean(), want.mean(), std::abs(want.mean())),
          rel(got.m2(), want.m2(), want.m2()),
          rel(got.m3(), want.m3(), n * std::pow(want.m2() / n, 1.5)),
          rel(got.m4(), want.m4(), want.m4())};
}

/// Holds `got` to `want` at the blocked kernel's stated tolerance: count,
/// min and max exact; mean and M2 within 1e-12; scaled M3 and M4 within
/// 1e-10.
void expect_moments_near(const MomentAccumulator& got,
                         const MomentAccumulator& want,
                         const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.count(), want.count());
  EXPECT_EQ(got.min(), want.min());
  EXPECT_EQ(got.max(), want.max());
  const auto e = moment_errors(got, want);
  EXPECT_LE(e[0], 1e-12) << "mean " << got.mean() << " vs " << want.mean();
  EXPECT_LE(e[1], 1e-12) << "M2 " << got.m2() << " vs " << want.m2();
  EXPECT_LE(e[2], 1e-10) << "M3 " << got.m3() << " vs " << want.m3();
  EXPECT_LE(e[3], 1e-10) << "M4 " << got.m4() << " vs " << want.m4();
}

/// Compensated two-pass moments in extended precision (x87 long double),
/// rounded to an accumulator: the reference for data whose offset-to-spread
/// ratio is too large for the serial oracle's own roundoff.
MomentAccumulator extended_reference(std::span<const double> xs) {
  long double sum = 0.0L;
  for (const double x : xs) sum += x;
  const long double n = static_cast<long double>(xs.size());
  long double residual = 0.0L;
  for (const double x : xs) residual += x - sum / n;
  const long double mean = sum / n + residual / n;
  long double m2 = 0.0L, m3 = 0.0L, m4 = 0.0L;
  for (const double x : xs) {
    const long double d = x - mean;
    m2 += d * d;
    m3 += d * d * d;
    m4 += d * d * d * d;
  }
  const double packed[MomentAccumulator::kPackedSize] = {
      static_cast<double>(xs.size()), static_cast<double>(mean),
      static_cast<double>(m2), static_cast<double>(m3),
      static_cast<double>(m4), *std::min_element(xs.begin(), xs.end()),
      *std::max_element(xs.begin(), xs.end())};
  return MomentAccumulator::unpack(packed);
}

TEST(BlockMoments, MiniS3DFieldsMatchSerialAcrossLayouts) {
  // Every rank learns its block row by row (learn_field), the ranks'
  // models are combined globally, and the result must match serial
  // update() over the whole grid for all 14 variables under each layout.
  S3DParams p;
  p.grid = GlobalGrid{{48, 36, 24}, {1.0, 0.75, 0.75}};
  constexpr int kSteps = 4;
  std::vector<MomentAccumulator> oracle;
  for (const std::array<int, 3> layout :
       {std::array<int, 3>{1, 1, 1}, std::array<int, 3>{2, 1, 1},
        std::array<int, 3>{2, 2, 1}, std::array<int, 3>{3, 2, 2}}) {
    p.ranks_per_axis = layout;
    const Decomposition d(p.grid, layout);
    std::vector<std::vector<MomentAccumulator>> per_rank(
        static_cast<size_t>(d.num_ranks()));
    World world(d.num_ranks());
    world.run([&](Comm& comm) {
      S3DRank sim(p, comm.rank());
      sim.initialize();
      for (int s = 0; s < kSteps; ++s) sim.advance(comm);
      auto& mine = per_rank[static_cast<size_t>(comm.rank())];
      for (const Variable v : all_variables()) {
        mine.push_back(learn_field(sim.field(v)));
        // MiniS3D fields are bitwise identical across layouts, so the
        // single-rank run supplies the oracle for all of them.
        if (d.num_ranks() == 1) {
          oracle.push_back(serial_moments(sim.field(v).pack_owned()));
        }
      }
    });
    ASSERT_EQ(oracle.size(), static_cast<size_t>(kNumVariables));
    for (size_t v = 0; v < oracle.size(); ++v) {
      MomentAccumulator global;
      for (const auto& rank : per_rank) global.combine(rank[v]);
      expect_moments_near(global, oracle[v],
                          std::string(kVariableNames[v]) + " layout " +
                              std::to_string(layout[0]) + "x" +
                              std::to_string(layout[1]) + "x" +
                              std::to_string(layout[2]));
    }
  }
}

TEST(BlockMoments, ConstantBlockHasExactlyZeroHigherMoments) {
  for (const size_t n : {size_t{1}, size_t{2}, size_t{48}, size_t{1001}}) {
    const std::vector<double> xs(n, 0.1);
    MomentAccumulator acc;
    acc.add_block(xs);
    EXPECT_EQ(acc, serial_moments(xs)) << n;
    EXPECT_EQ(acc.mean(), 0.1);
    EXPECT_EQ(acc.m2(), 0.0);
    EXPECT_EQ(acc.m3(), 0.0);
    EXPECT_EQ(acc.m4(), 0.0);
  }
}

TEST(BlockMoments, OneCellRowsMatchSerial) {
  // An owned box one cell wide: every row learn_field visits is one cell.
  const Box3 domain{{0, 0, 0}, {12, 10, 9}};
  Field f("one-wide", Box3{{5, 2, 3}, {6, 9, 8}}, domain, 1);
  Xoshiro256 rng(5);
  for (double& x : f.data()) x = 3.0 + rng.normal();
  expect_moments_near(learn_field(f), serial_moments(f.pack_owned()),
                      "1-cell rows");
}

TEST(BlockMoments, EmptyBlockIsIdentity) {
  MomentAccumulator empty;
  empty.add_block({});
  EXPECT_EQ(empty, MomentAccumulator{});
  MomentAccumulator acc = serial_moments(random_data(100, 4));
  const MomentAccumulator before = acc;
  acc.add_block({});
  EXPECT_EQ(acc, before);
}

TEST(BlockMoments, LargeOffsetKeepsCompensatedMean) {
  // 1e8 plus unit noise. The rounded block mean is off by up to half an
  // ulp of 1e8 (7.5e-9 σ); without the correction term that error would
  // put ~2e-8 on the scaled M3. At this offset-to-spread ratio the serial
  // oracle itself is off by ~1e-9, so the reference is extended precision.
  const auto xs = random_data(20000, 9, 1.0, 1e8);
  const MomentAccumulator exact = extended_reference(xs);
  expect_moments_near(blocked_moments(xs, {}), exact, "one block");

  // Folding 48-value rows stores each row's mean as a double, the same
  // limit update() has: the rows must be no less accurate than update().
  std::vector<size_t> rows;
  for (size_t c = 48; c < xs.size(); c += 48) rows.push_back(c);
  const auto row_err = moment_errors(blocked_moments(xs, rows), exact);
  const auto serial_err = moment_errors(serial_moments(xs), exact);
  for (size_t m = 0; m < row_err.size(); ++m) {
    EXPECT_LE(row_err[m], 2.0 * serial_err[m] + 1e-15) << "moment " << m;
  }
}

TEST(BlockMoments, SplitsAgreeWithEachOtherAndSerial) {
  const auto xs = random_data(10000, 21, 2.0, -5.0);
  const MomentAccumulator want = serial_moments(xs);
  const MomentAccumulator one = blocked_moments(xs, {});
  expect_moments_near(one, want, "single block");
  for (const size_t width : {size_t{1}, size_t{7}, size_t{48}, size_t{999}}) {
    std::vector<size_t> cuts;
    for (size_t c = width; c < xs.size(); c += width) cuts.push_back(c);
    const MomentAccumulator many = blocked_moments(xs, cuts);
    expect_moments_near(many, want, "blocks of " + std::to_string(width));
    expect_moments_near(many, one, "many vs one, " + std::to_string(width));
  }
}

TEST(BlockMoments, RandomizedBlocksMatchSerial) {
  // Random lengths, scales, distributions and cut points; HIA_STRESS_SCALE
  // multiplies the case count. Offsets stay within 100 spreads: beyond
  // that the serial oracle's own roundoff passes 1e-12 (see LargeOffset).
  const int cases = 40 * stress_scale();
  for (int c = 0; c < cases; ++c) {
    Xoshiro256 rng(1000 + static_cast<uint64_t>(c));
    const size_t n = 2 + rng.below(6000);
    const double scale = std::pow(10.0, rng.uniform(-3.0, 3.0));
    const double offset = scale * rng.uniform(-100.0, 100.0);
    std::vector<double> xs(n);
    for (double& x : xs) {
      // Normal, or a skewed (squared-normal) sample.
      const double z = rng.normal();
      x = offset + scale * (c % 2 == 0 ? z : z * z);
    }
    std::vector<size_t> cuts;
    for (size_t at = 1 + rng.below(200); at < n; at += 1 + rng.below(200)) {
      cuts.push_back(at);
    }
    expect_moments_near(blocked_moments(xs, cuts), serial_moments(xs),
                        "case " + std::to_string(c));
  }
}

// --------------------------------------------------- hostile packed counts

TEST(PackedCount, HostileCountsAreRejected) {
  for (const double count :
       {std::numeric_limits<double>::quiet_NaN(), -1.0, 0.5, 1e300,
        std::numeric_limits<double>::infinity(), 0x1p53 + 2.0}) {
    double m[MomentAccumulator::kPackedSize] = {count, 1, 1, 0, 1, 0, 2};
    EXPECT_THROW((void)MomentAccumulator::unpack(m), Error) << count;
    double c[CovarianceAccumulator::kPackedSize] = {count, 0, 0, 1, 1, 0};
    EXPECT_THROW((void)CovarianceAccumulator::unpack(c), Error) << count;
  }
}

TEST(PackedCount, ValidRoundTripsAreIdentity) {
  const auto xs = random_data(300, 12);
  const auto ys = random_data(300, 13);
  const MomentAccumulator m = stats_learn(xs);
  double mp[MomentAccumulator::kPackedSize];
  m.pack(mp);
  EXPECT_EQ(MomentAccumulator::unpack(mp), m);
  const CovarianceAccumulator c = correlation_learn(xs, ys);
  double cp[CovarianceAccumulator::kPackedSize];
  c.pack(cp);
  const CovarianceAccumulator back = CovarianceAccumulator::unpack(cp);
  double again[CovarianceAccumulator::kPackedSize];
  back.pack(again);
  for (int i = 0; i < CovarianceAccumulator::kPackedSize; ++i) {
    EXPECT_EQ(again[i], cp[i]) << i;
  }
  // A lossy codec may perturb a count within its error bound; it decodes
  // to the integer (a truncating cast would read 1.9999998 as 1).
  mp[0] = 1.9999998;
  EXPECT_EQ(MomentAccumulator::unpack(mp).count(), 2u);
}

// ------------------------------------------- row-iteration consumers

/// True when two double sequences hold the same bytes.
bool same_bytes(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

TEST(RowConsumers, BitwiseIdenticalToPerCellLoops) {
  // Each in-situ consumer moved from a per-cell at() triple loop onto
  // for_each_row keeping its per-cell expression and order; the triple
  // loops below are the replaced code, kept as the oracle. The fields are
  // ghosted, with a non-zero owned origin.
  const Box3 domain{{0, 0, 0}, {20, 14, 12}};
  const Box3 box{{5, 3, 2}, {17, 11, 9}};
  Field x("x", box, domain, 1), y("y", box, domain, 1);
  Xoshiro256 rng(17);
  for (double& v : x.data()) v = 2.0 + rng.normal();
  for (double& v : y.data()) v = rng.uniform(-1.0, 3.0);

  CovarianceAccumulator cov;
  ContingencyTable table(8, 6);
  const Categorizer cx(0.0, 4.0, 8), cy(-0.5, 2.5, 6);
  double lo = x.at(box.lo[0], box.lo[1], box.lo[2]), hi = lo, sum = 0.0;
  Histogram fixed(0.0, 4.0, 16);
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k)
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j)
      for (int64_t i = box.lo[0]; i < box.hi[0]; ++i) {
        cov.update(x.at(i, j, k), y.at(i, j, k));
        table.update(cx.category(x.at(i, j, k)), cy.category(y.at(i, j, k)));
        lo = std::min(lo, x.at(i, j, k));
        hi = std::max(hi, x.at(i, j, k));
        fixed.update(x.at(i, j, k));
        sum += x.at(i, j, k);
      }
  Histogram autorange(lo - 0.5, hi + 0.5, 16);
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k)
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j)
      for (int64_t i = box.lo[0]; i < box.hi[0]; ++i)
        autorange.update(x.at(i, j, k));

  double want[CovarianceAccumulator::kPackedSize];
  double got[CovarianceAccumulator::kPackedSize];
  cov.pack(want);
  correlation_learn_fields(x, y).pack(got);
  EXPECT_TRUE(same_bytes(got, want)) << "correlation";
  EXPECT_TRUE(same_bytes(contingency_learn_fields(x, y, cx, cy).serialize(),
                         table.serialize()))
      << "contingency";
  const auto [range_lo, range_hi] = owned_range(x);
  EXPECT_TRUE(same_bytes(std::array{range_lo, range_hi}, std::array{lo, hi}))
      << "histogram auto-range";
  EXPECT_TRUE(same_bytes(
      serialize_histogram(histogram_learn_field(x, lo - 0.5, hi + 0.5, 16)),
      serialize_histogram(autorange)))
      << "histogram, auto range";
  EXPECT_TRUE(
      same_bytes(serialize_histogram(histogram_learn_field(x, 0.0, 4.0, 16)),
                 serialize_histogram(fixed)))
      << "histogram, fixed range";
  EXPECT_TRUE(same_bytes(std::array{owned_sum(x)}, std::array{sum}))
      << "timeseries";

  // Down-sampling reads every stride-th row of a packed buffer.
  const std::vector<double> packed = x.pack_owned();
  for (const int stride : {1, 2, 3, 5}) {
    std::vector<double> strided;
    for (int64_t k = box.lo[2]; k < box.hi[2]; k += stride)
      for (int64_t j = box.lo[1]; j < box.hi[1]; j += stride)
        for (int64_t i = box.lo[0]; i < box.hi[0]; i += stride)
          strided.push_back(packed[box.offset(i, j, k)]);
    EXPECT_TRUE(same_bytes(downsample_block(box, packed, stride).values,
                           strided))
        << "downsample stride " << stride;
  }
}

TEST(Derive, KnownDistributions) {
  // Standard normal: variance 1, skew 0, excess kurtosis 0.
  const auto normal = derive_descriptive(stats_learn(random_data(200000, 5)));
  EXPECT_NEAR(normal.mean, 0.0, 0.02);
  EXPECT_NEAR(normal.variance, 1.0, 0.03);
  EXPECT_NEAR(normal.skewness, 0.0, 0.05);
  EXPECT_NEAR(normal.kurtosis_excess, 0.0, 0.1);

  // Uniform [0,1): variance 1/12, excess kurtosis -1.2.
  Xoshiro256 rng(8);
  std::vector<double> uni(200000);
  for (auto& x : uni) x = rng.uniform();
  const auto u = derive_descriptive(stats_learn(uni));
  EXPECT_NEAR(u.mean, 0.5, 0.01);
  EXPECT_NEAR(u.variance, 1.0 / 12.0, 0.002);
  EXPECT_NEAR(u.kurtosis_excess, -1.2, 0.05);
}

TEST(Assess, ZScores) {
  const std::vector<double> xs{0.0, 1.0, 2.0, 3.0, 4.0};
  const auto model = derive_descriptive(stats_learn(xs));
  const auto z = stats_assess(xs, model);
  ASSERT_EQ(z.size(), xs.size());
  EXPECT_NEAR(z[2], 0.0, 1e-12);         // the mean
  EXPECT_NEAR(z[0], -z[4], 1e-12);       // symmetric
  EXPECT_LT(z[0], 0.0);
}

TEST(TestStage, NormalityStatistic) {
  // Normal data: small JB statistic / high p. Bimodal data: large JB.
  const auto normal =
      derive_descriptive(stats_learn(random_data(50000, 21)));
  const auto jb_normal = stats_test_normality(normal);
  EXPECT_LT(jb_normal.statistic, 12.0);

  Xoshiro256 rng(22);
  std::vector<double> bimodal(50000);
  for (auto& x : bimodal) x = (rng.uniform() < 0.5 ? -3.0 : 3.0) + rng.normal();
  const auto jb_bimodal =
      stats_test_normality(derive_descriptive(stats_learn(bimodal)));
  EXPECT_GT(jb_bimodal.statistic, 100.0);
  EXPECT_LT(jb_bimodal.p_value, 0.01);
}

TEST(Covariance, PerfectLinearRelation) {
  CovarianceAccumulator acc;
  for (int i = 0; i < 100; ++i) {
    acc.update(i, 2.0 * i + 5.0);
  }
  const auto m = derive_correlation(acc);
  EXPECT_NEAR(m.pearson_r, 1.0, 1e-12);
  EXPECT_NEAR(m.slope, 2.0, 1e-10);
  EXPECT_NEAR(m.intercept, 5.0, 1e-8);
}

TEST(Covariance, IndependentVariablesNearZero) {
  Xoshiro256 rng(31);
  CovarianceAccumulator acc;
  for (int i = 0; i < 100000; ++i) acc.update(rng.normal(), rng.normal());
  EXPECT_NEAR(derive_correlation(acc).pearson_r, 0.0, 0.02);
}

class CovCombine : public ::testing::TestWithParam<int> {};

TEST_P(CovCombine, CombineEqualsSequential) {
  const int parts = GetParam();
  Xoshiro256 rng(41);
  std::vector<double> x(3000), y(3000);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = 0.7 * x[i] + 0.3 * rng.normal();
  }
  const auto whole = correlation_learn(x, y);

  CovarianceAccumulator combined;
  const size_t chunk = x.size() / static_cast<size_t>(parts);
  for (int p = 0; p < parts; ++p) {
    const size_t b = static_cast<size_t>(p) * chunk;
    const size_t e = p + 1 == parts ? x.size() : b + chunk;
    combined.combine(correlation_learn(
        std::span(x.data() + b, e - b), std::span(y.data() + b, e - b)));
  }
  EXPECT_EQ(combined.count(), whole.count());
  EXPECT_NEAR(combined.c2(), whole.c2(), std::abs(whole.c2()) * 1e-10);
  EXPECT_NEAR(derive_correlation(combined).pearson_r,
              derive_correlation(whole).pearson_r, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Partitions, CovCombine, ::testing::Values(2, 5, 30));

TEST(Autocorrelation, PeriodicSignal) {
  std::vector<double> series(1000);
  for (size_t i = 0; i < series.size(); ++i) {
    series[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / 50.0);
  }
  EXPECT_NEAR(autocorrelation(series, 50).pearson_r, 1.0, 1e-6);
  EXPECT_NEAR(autocorrelation(series, 25).pearson_r, -1.0, 1e-6);
}

TEST(Histogram, CountsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.update(i + 0.5);
  h.update(-1.0);
  h.update(11.0);
  h.update(10.0);  // hi is exclusive -> overflow
  for (int b = 0; b < 10; ++b) EXPECT_EQ(h.count(b), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 13u);
}

TEST(Histogram, CombineMatchesUnion) {
  Histogram a(0.0, 1.0, 20), b(0.0, 1.0, 20), whole(0.0, 1.0, 20);
  Xoshiro256 rng(55);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform();
    whole.update(x);
    (i % 2 == 0 ? a : b).update(x);
  }
  a.combine(b);
  for (int bin = 0; bin < 20; ++bin) EXPECT_EQ(a.count(bin), whole.count(bin));
  EXPECT_EQ(a.total(), whole.total());
}

TEST(Histogram, CombineRejectsMismatchedBinning) {
  Histogram a(0.0, 1.0, 10), b(0.0, 2.0, 10);
  EXPECT_THROW(a.combine(b), Error);
}

TEST(Histogram, QuantileOfUniformData) {
  Histogram h(0.0, 1.0, 100);
  Xoshiro256 rng(66);
  for (int i = 0; i < 100000; ++i) h.update(rng.uniform());
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 0.02);
}

}  // namespace
}  // namespace hia
