// Tests for the geometric shared-space API (SpaceView), the ADIOS-lite
// method abstraction, and the steering board.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "core/steering.hpp"
#include "io/adios_lite.hpp"
#include "sim/grid.hpp"
#include "staging/space_view.hpp"
#include "util/rng.hpp"

namespace hia {
namespace {

class SpaceViewTest : public ::testing::Test {
 protected:
  NetworkModel net_;
  Dart dart_{net_};
  ObjectStore store_{2};
  int node_ = dart_.register_node("client");
  SpaceView view_{store_, dart_, node_};
};

std::vector<double> indexed_values(const Box3& box) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(box.num_cells()));
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k)
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j)
      for (int64_t i = box.lo[0]; i < box.hi[0]; ++i)
        out.push_back(100.0 * static_cast<double>(i) +
                      10.0 * static_cast<double>(j) +
                      static_cast<double>(k));
  return out;
}

TEST_F(SpaceViewTest, PutGetIdenticalRegion) {
  const Box3 box{{0, 0, 0}, {4, 4, 4}};
  const auto data = indexed_values(box);
  view_.put("T", 1, box, data);
  EXPECT_EQ(view_.get("T", 1, box), data);
}

TEST_F(SpaceViewTest, GetSubRegion) {
  const Box3 box{{0, 0, 0}, {8, 8, 8}};
  view_.put("T", 1, box, indexed_values(box));
  const Box3 sub{{2, 3, 4}, {5, 6, 7}};
  const auto out = view_.get("T", 1, sub);
  EXPECT_EQ(out, indexed_values(sub));
}

TEST_F(SpaceViewTest, AssemblesAcrossBlocks) {
  // Publish a 2x2x1 decomposition of a 8x8x4 grid, then read a region
  // straddling all four blocks.
  GlobalGrid grid{{8, 8, 4}, {1, 1, 1}};
  Decomposition decomp(grid, {2, 2, 1});
  for (int r = 0; r < decomp.num_ranks(); ++r) {
    const Box3 b = decomp.block(r);
    view_.put("T", 2, b, indexed_values(b));
  }
  const Box3 straddle{{2, 2, 1}, {6, 6, 3}};
  TransferStats stats;
  const auto out = view_.get("T", 2, straddle, &stats);
  EXPECT_EQ(out, indexed_values(straddle));
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GT(stats.modeled_seconds, 0.0);

  // Full-domain read also assembles correctly.
  EXPECT_EQ(view_.get("T", 2, grid.bounds()),
            indexed_values(grid.bounds()));
}

TEST_F(SpaceViewTest, IncompleteCoverageThrows) {
  const Box3 box{{0, 0, 0}, {4, 4, 4}};
  view_.put("T", 3, box, indexed_values(box));
  const Box3 too_big{{0, 0, 0}, {5, 4, 4}};
  EXPECT_THROW(view_.get("T", 3, too_big), Error);
  EXPECT_FALSE(view_.covered("T", 3, too_big));
  EXPECT_TRUE(view_.covered("T", 3, box));
  // Wrong step / variable: nothing there.
  EXPECT_THROW(view_.get("T", 4, box), Error);
  EXPECT_THROW(view_.get("P", 3, box), Error);
}

TEST_F(SpaceViewTest, BlockSmallerThanDescriptorBoxThrows) {
  // A descriptor placed straight into the store whose box claims more
  // cells than its staged payload holds: get must reject it, not read
  // past the end of the block.
  DataDescriptor desc;
  desc.variable = "T";
  desc.step = 6;
  desc.box = Box3{{0, 0, 0}, {4, 4, 4}};
  desc.src_node = node_;
  desc.handle = dart_.put_doubles(node_, std::vector<double>(8, 1.0));
  store_.put(desc);
  try {
    (void)view_.get("T", 6, desc.box);
    FAIL() << "expected hia::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("does not match its descriptor box"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SpaceViewTest, EvictReleasesRegions) {
  const Box3 box{{0, 0, 0}, {4, 4, 4}};
  view_.put("T", 5, box, indexed_values(box));
  EXPECT_EQ(dart_.num_published(), 1u);
  view_.evict("T", 5);
  EXPECT_EQ(dart_.num_published(), 0u);
  EXPECT_THROW(view_.get("T", 5, box), Error);
}

TEST_F(SpaceViewTest, VersionsAreIndependent) {
  const Box3 box{{0, 0, 0}, {2, 2, 2}};
  view_.put("T", 1, box, std::vector<double>(8, 1.0));
  view_.put("T", 2, box, std::vector<double>(8, 2.0));
  EXPECT_DOUBLE_EQ(view_.get("T", 1, box)[0], 1.0);
  EXPECT_DOUBLE_EQ(view_.get("T", 2, box)[0], 2.0);
}

// ---------------------------------------------------------- ADIOS-lite --

TEST(AdiosLite, PosixMethodRoundTrip) {
  AdiosGroup group("field3d", /*writer_id=*/7, ::testing::TempDir());
  group.define_variable("T");
  group.define_variable("P");
  EXPECT_EQ(group.method(), AdiosMethod::kPosixMethod);

  const Box3 box{{0, 0, 0}, {4, 3, 2}};
  std::vector<double> t(24), p(24);
  Xoshiro256 rng(3);
  for (auto& x : t) x = rng.normal();
  for (auto& x : p) x = rng.uniform();

  const auto result = group.write(9, box, {t, p}, /*concurrent_writers=*/64);
  EXPECT_EQ(result.bytes, 2u * 24u * sizeof(double));
  EXPECT_GT(result.modeled_seconds, 0.0);
  ASSERT_EQ(result.files.size(), 1u);

  EXPECT_EQ(group.read(9, "T"), t);
  EXPECT_EQ(group.read(9, "P"), p);
  EXPECT_THROW(group.read(9, "missing"), Error);
  for (const auto& f : result.files) std::remove(f.c_str());
}

TEST(AdiosLite, StagingMethodPublishesToSpace) {
  NetworkModel net;
  Dart dart(net);
  ObjectStore store(2);
  const int node = dart.register_node("writer");
  SpaceView space(store, dart, node);

  AdiosGroup group("field3d", 0, space);
  group.define_variable("T");
  EXPECT_EQ(group.method(), AdiosMethod::kStagingMethod);

  const Box3 box{{0, 0, 0}, {3, 3, 3}};
  std::vector<double> t(27, 4.5);
  const auto result = group.write(2, box, {t});
  EXPECT_EQ(result.bytes, 27u * sizeof(double));
  EXPECT_DOUBLE_EQ(result.modeled_seconds, 0.0);  // publish is local

  // A consumer assembles the step through the space.
  EXPECT_EQ(space.get("field3d/T", 2, box), t);
  EXPECT_THROW(group.read(2, "T"), Error);  // read-back is posix-only
}

TEST(AdiosLite, RejectsMalformedWrites) {
  AdiosGroup group("g", 0, ::testing::TempDir());
  group.define_variable("T");
  EXPECT_THROW(group.define_variable("T"), Error);
  const Box3 box{{0, 0, 0}, {2, 2, 2}};
  EXPECT_THROW(group.write(0, box, {}), Error);  // missing payload
  EXPECT_THROW(group.write(0, box, {std::vector<double>(7)}), Error);
}

// ------------------------------------------------------------- Steering --

TEST(Steering, PostReadAndVersion) {
  SteeringBoard board;
  EXPECT_FALSE(board.read("threshold").has_value());
  EXPECT_DOUBLE_EQ(board.read_or("threshold", 2.5), 2.5);
  EXPECT_EQ(board.version(), 0u);

  board.post("threshold", 3.0);
  EXPECT_DOUBLE_EQ(board.read("threshold").value(), 3.0);
  EXPECT_EQ(board.version(), 1u);

  board.post("threshold", 3.5);
  board.post("cadence", 10.0);
  EXPECT_EQ(board.version(), 3u);
  EXPECT_DOUBLE_EQ(board.read_or("threshold", 0.0), 3.5);
  EXPECT_EQ(board.snapshot().size(), 2u);
}

TEST(Steering, ConcurrentPostersAndReaders) {
  SteeringBoard board;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&board, t] {
      for (int i = 0; i < 500; ++i) {
        board.post(std::string("k").append(std::to_string(t)),
                   static_cast<double>(i));
        (void)board.read_or("k0", 0.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(board.version(), 2000u);
  for (int t = 0; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(board.read_or("k" + std::to_string(t), -1.0), 499.0);
  }
}

}  // namespace
}  // namespace hia
