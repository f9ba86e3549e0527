// Tests for Field storage (at, the checked row accessor, pack/unpack over
// owned, ghost-slab and edge boxes) and the 26-direction halo exchange:
// after an exchange, every ghost cell must equal the value owned by the
// neighbor — verified against analytic fills across several decompositions
// (TEST_P).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "runtime/comm.hpp"
#include "sim/analytic_fields.hpp"
#include "sim/field.hpp"
#include "sim/halo.hpp"

namespace hia {
namespace {

TEST(Field, StorageIncludesGhosts) {
  const Box3 domain{{0, 0, 0}, {10, 10, 10}};
  const Box3 owned{{2, 2, 2}, {5, 5, 5}};
  Field f("t", owned, domain, 1);
  EXPECT_EQ(f.storage(), (Box3{{1, 1, 1}, {6, 6, 6}}));
  EXPECT_EQ(f.owned(), owned);
  // Ghosts clamp at the domain boundary.
  Field g("t", Box3{{0, 0, 0}, {5, 5, 5}}, domain, 2);
  EXPECT_EQ(g.storage(), (Box3{{0, 0, 0}, {7, 7, 7}}));
}

TEST(Field, AtReadsAndWrites) {
  const Box3 owned{{0, 0, 0}, {4, 4, 4}};
  Field f("t", owned);
  f.at(1, 2, 3) = 7.5;
  EXPECT_DOUBLE_EQ(f.at(1, 2, 3), 7.5);
  EXPECT_DOUBLE_EQ(f.at(0, 0, 0), 0.0);
  f.fill(2.0);
  EXPECT_DOUBLE_EQ(f.at(3, 3, 3), 2.0);
}

TEST(Field, PackUnpackRoundTrip) {
  const Box3 owned{{1, 1, 1}, {4, 5, 6}};
  Field f("t", owned);
  int v = 0;
  for (int64_t k = 1; k < 6; ++k)
    for (int64_t j = 1; j < 5; ++j)
      for (int64_t i = 1; i < 4; ++i) f.at(i, j, k) = v++;

  const auto packed = f.pack_owned();
  ASSERT_EQ(packed.size(), static_cast<size_t>(owned.num_cells()));

  Field g("t", owned);
  g.unpack(owned, packed);
  for (int64_t k = 1; k < 6; ++k)
    for (int64_t j = 1; j < 5; ++j)
      for (int64_t i = 1; i < 4; ++i)
        EXPECT_DOUBLE_EQ(g.at(i, j, k), f.at(i, j, k));
}

TEST(Field, PackSubBox) {
  const Box3 owned{{0, 0, 0}, {4, 4, 4}};
  Field f("t", owned);
  for (int64_t k = 0; k < 4; ++k)
    for (int64_t j = 0; j < 4; ++j)
      for (int64_t i = 0; i < 4; ++i) f.at(i, j, k) = 100.0 * i + 10.0 * j + k;
  const Box3 sub{{1, 1, 1}, {3, 3, 3}};
  const auto packed = f.pack(sub);
  ASSERT_EQ(packed.size(), 8u);
  EXPECT_DOUBLE_EQ(packed[0], 111.0);   // (1,1,1)
  EXPECT_DOUBLE_EQ(packed[7], 222.0);   // (2,2,2)
}

TEST(Field, UnpackRejectsWrongSize) {
  Field f("t", Box3{{0, 0, 0}, {2, 2, 2}});
  EXPECT_THROW(f.unpack(f.owned(), std::vector<double>(3)), Error);
}

/// A ghosted field whose every storage cell holds a distinct value.
Field numbered_field() {
  const Box3 domain{{0, 0, 0}, {10, 10, 8}};
  Field f("t", Box3{{2, 3, 1}, {6, 7, 5}}, domain, 1);
  const Box3& st = f.storage();
  for (int64_t k = st.lo[2]; k < st.hi[2]; ++k)
    for (int64_t j = st.lo[1]; j < st.hi[1]; ++j)
      for (int64_t i = st.lo[0]; i < st.hi[0]; ++i)
        f.at(i, j, k) = 10000.0 * k + 100.0 * j + i + 0.5;
  return f;
}

TEST(Field, RowIsUnitStrideFromItsFirstCell) {
  Field f = numbered_field();
  const Box3& st = f.storage();  // [1,7)x[2,8)x[0,6)
  for (int64_t k = st.lo[2]; k < st.hi[2]; ++k) {
    for (int64_t j = st.lo[1]; j < st.hi[1]; ++j) {
      const double* r = std::as_const(f).row(st.lo[0], st.hi[0], j, k);
      EXPECT_EQ(r, &f.at(st.lo[0], j, k));
      for (int64_t i = st.lo[0]; i < st.hi[0]; ++i) {
        EXPECT_EQ(r[i - st.lo[0]], f.at(i, j, k));
      }
    }
  }
  // A 1-cell row, and writes through the mutable row.
  f.row(4, 5, 3, 1)[0] = -1.0;
  EXPECT_EQ(f.at(4, 3, 1), -1.0);
}

TEST(Field, PackUnpackRoundTripOverGhostAndEdgeBoxes) {
  const Field f = numbered_field();
  const Box3& st = f.storage();  // [1,7)x[2,8)x[0,6)
  const Box3& own = f.owned();   // [2,6)x[3,7)x[1,5)
  const std::vector<Box3> boxes{
      own,
      st,
      Box3{{1, 3, 1}, {2, 7, 5}},  // x-low ghost slab, 1 cell thick
      Box3{{6, 3, 1}, {7, 7, 5}},  // x-high ghost slab
      Box3{{2, 2, 1}, {6, 3, 5}},  // y-low ghost slab
      Box3{{2, 7, 1}, {6, 8, 5}},  // y-high ghost slab
      Box3{{2, 3, 0}, {6, 7, 1}},  // z-low ghost slab
      Box3{{2, 3, 5}, {6, 7, 6}},  // z-high ghost slab
      Box3{{1, 2, 1}, {2, 3, 5}},  // x-low/y-low ghost edge
      Box3{{6, 3, 5}, {7, 7, 6}},  // x-high/z-high ghost edge
      Box3{{6, 7, 5}, {7, 8, 6}},  // a ghost corner cell
      Box3{{2, 3, 1}, {3, 7, 5}},  // 1-cell owned slab on x
      Box3{{2, 3, 1}, {6, 4, 5}},  // 1-cell owned slab on y
      Box3{{2, 3, 1}, {6, 7, 2}},  // 1-cell owned slab on z
      Box3{{3, 4, 2}, {3, 5, 4}},  // empty (zero x extent)
  };
  EXPECT_EQ(f.pack_owned(), f.pack(own));
  for (const Box3& box : boxes) {
    SCOPED_TRACE(box.describe());
    std::vector<double> want;
    for (int64_t k = box.lo[2]; k < box.hi[2]; ++k)
      for (int64_t j = box.lo[1]; j < box.hi[1]; ++j)
        for (int64_t i = box.lo[0]; i < box.hi[0]; ++i)
          want.push_back(f.at(i, j, k));
    const std::vector<double> packed = f.pack(box);
    ASSERT_EQ(packed, want);

    // Unpacking into a zeroed twin writes exactly the box.
    Field g("t", own, Box3{{0, 0, 0}, {10, 10, 8}}, 1);
    g.unpack(box, packed);
    for (int64_t k = st.lo[2]; k < st.hi[2]; ++k)
      for (int64_t j = st.lo[1]; j < st.hi[1]; ++j)
        for (int64_t i = st.lo[0]; i < st.hi[0]; ++i)
          ASSERT_EQ(g.at(i, j, k), box.contains(i, j, k) ? f.at(i, j, k) : 0.0)
              << "(" << i << "," << j << "," << k << ")";
  }
}

TEST(Field, PackAndUnpackRejectBoxesOutsideStorage) {
  Field f = numbered_field();  // storage [1,7)x[2,8)x[0,6)
  for (const Box3& box :
       {Box3{{0, 3, 1}, {2, 7, 5}}, Box3{{2, 3, 1}, {8, 7, 5}},
        Box3{{2, 1, 1}, {6, 7, 5}}, Box3{{2, 3, 1}, {6, 9, 5}},
        Box3{{2, 3, 1}, {6, 7, 7}}}) {
    SCOPED_TRACE(box.describe());
    EXPECT_THROW((void)f.pack(box), Error);
    const std::vector<double> values(
        static_cast<size_t>(std::max<int64_t>(box.num_cells(), 0)));
    EXPECT_THROW(f.unpack(box, values), Error);
  }
  const Box3 slab{{1, 3, 1}, {2, 7, 5}};
  EXPECT_THROW(f.unpack(slab, std::vector<double>(15)), Error);
  EXPECT_THROW(f.unpack(slab, std::vector<double>(17)), Error);
}

TEST(FieldDeathTest, RowOutsideStorageAsserts) {
  Field f = numbered_field();  // storage [1,7)x[2,8)x[0,6)
  EXPECT_DEATH((void)f.row(1, 7, 8, 1), "HIA_ASSERT failed");  // j past hi
  EXPECT_DEATH((void)f.row(1, 7, 3, -1), "HIA_ASSERT failed");  // k below lo
  EXPECT_DEATH((void)f.row(0, 7, 3, 1), "HIA_ASSERT failed");  // i0 below lo
  EXPECT_DEATH((void)f.row(1, 8, 3, 1), "HIA_ASSERT failed");  // i1 past hi
  EXPECT_DEATH((void)f.row(4, 4, 3, 1), "HIA_ASSERT failed");  // empty row
}

double analytic(int64_t i, int64_t j, int64_t k) {
  return std::sin(0.3 * static_cast<double>(i)) +
         0.7 * static_cast<double>(j) - 0.1 * static_cast<double>(k * k);
}

struct HaloCase {
  std::array<int64_t, 3> dims;
  std::array<int, 3> ranks;
  int ghost;
};

class HaloExchangeProperty : public ::testing::TestWithParam<HaloCase> {};

TEST_P(HaloExchangeProperty, GhostsMatchNeighborValues) {
  const auto& [dims, ranks, ghost] = GetParam();
  GlobalGrid grid{dims, {1.0, 1.0, 1.0}};
  Decomposition decomp(grid, ranks);
  World world(decomp.num_ranks());

  world.run([&](Comm& comm) {
    const Box3 owned = decomp.block(comm.rank());
    Field f("t", owned, grid.bounds(), ghost);
    // Fill only the owned region with the analytic function; ghosts start
    // poisoned.
    f.fill(-1e30);
    for (int64_t k = owned.lo[2]; k < owned.hi[2]; ++k)
      for (int64_t j = owned.lo[1]; j < owned.hi[1]; ++j)
        for (int64_t i = owned.lo[0]; i < owned.hi[0]; ++i)
          f.at(i, j, k) = analytic(i, j, k);

    exchange_halos(comm, decomp, f, ghost);

    // Every storage cell inside the domain must now hold the analytic
    // value (ghosts included); cells outside the domain don't exist since
    // storage is clamped.
    const Box3& st = f.storage();
    for (int64_t k = st.lo[2]; k < st.hi[2]; ++k)
      for (int64_t j = st.lo[1]; j < st.hi[1]; ++j)
        for (int64_t i = st.lo[0]; i < st.hi[0]; ++i)
          ASSERT_DOUBLE_EQ(f.at(i, j, k), analytic(i, j, k))
              << "at (" << i << "," << j << "," << k << ") rank "
              << comm.rank();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, HaloExchangeProperty,
    ::testing::Values(HaloCase{{8, 8, 8}, {2, 2, 2}, 1},
                      HaloCase{{9, 7, 6}, {3, 2, 1}, 1},
                      HaloCase{{12, 12, 12}, {2, 2, 3}, 2},
                      HaloCase{{6, 6, 6}, {1, 1, 1}, 1},
                      HaloCase{{16, 4, 4}, {4, 1, 1}, 1}));

TEST(HaloExchange, MultipleFieldsExchangeTogether) {
  GlobalGrid grid{{8, 8, 8}, {1.0, 1.0, 1.0}};
  Decomposition decomp(grid, {2, 2, 1});
  World world(decomp.num_ranks());

  world.run([&](Comm& comm) {
    const Box3 owned = decomp.block(comm.rank());
    Field a("a", owned, grid.bounds(), 1);
    Field b("b", owned, grid.bounds(), 1);
    for (int64_t k = owned.lo[2]; k < owned.hi[2]; ++k)
      for (int64_t j = owned.lo[1]; j < owned.hi[1]; ++j)
        for (int64_t i = owned.lo[0]; i < owned.hi[0]; ++i) {
          a.at(i, j, k) = analytic(i, j, k);
          b.at(i, j, k) = 2.0 * analytic(i, j, k) + 1.0;
        }
    std::vector<Field*> fields{&a, &b};
    exchange_halos(comm, decomp, fields, 1);

    const Box3& st = a.storage();
    for (int64_t k = st.lo[2]; k < st.hi[2]; ++k)
      for (int64_t j = st.lo[1]; j < st.hi[1]; ++j)
        for (int64_t i = st.lo[0]; i < st.hi[0]; ++i) {
          ASSERT_DOUBLE_EQ(a.at(i, j, k), analytic(i, j, k));
          ASSERT_DOUBLE_EQ(b.at(i, j, k), 2.0 * analytic(i, j, k) + 1.0);
        }
  });
}

TEST(HaloExchange, RejectsMismatchedGhost) {
  GlobalGrid grid{{8, 8, 8}, {1.0, 1.0, 1.0}};
  Decomposition decomp(grid, {2, 1, 1});
  World world(2);
  EXPECT_THROW(world.run([&](Comm& comm) {
                 Field f("t", decomp.block(comm.rank()), grid.bounds(), 1);
                 exchange_halos(comm, decomp, f, 2);  // wider than storage
               }),
               Error);
}

TEST(AnalyticFields, NoiseIsDecompositionInvariant) {
  GlobalGrid grid{{8, 8, 8}, {1.0, 1.0, 1.0}};
  Field whole("n", grid.bounds());
  fill_noise(whole, 42);
  Field part("n", Box3{{2, 2, 2}, {6, 6, 6}});
  fill_noise(part, 42);
  for (int64_t k = 2; k < 6; ++k)
    for (int64_t j = 2; j < 6; ++j)
      for (int64_t i = 2; i < 6; ++i)
        EXPECT_DOUBLE_EQ(whole.at(i, j, k), part.at(i, j, k));
}

TEST(AnalyticFields, GaussianMixtureHasExpectedPeaks) {
  const auto mix = GaussianMixture::well_separated(8, 0.03);
  EXPECT_EQ(mix.bumps().size(), 8u);
  // Value at a bump center is dominated by that bump.
  for (const auto& b : mix.bumps()) {
    EXPECT_GT(mix.value(b.center), 0.5 * b.amplitude);
  }
}

}  // namespace
}  // namespace hia
