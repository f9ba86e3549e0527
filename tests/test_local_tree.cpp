// Tests for the in-situ local merge-tree builder: known topologies on
// analytic fields, augmentation invariants, subtree extraction,
// serialization, and a bitwise differential check of the fused rank
// subtree kernel against the sort + union-find + extraction it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>

#include "analysis/topology/local_tree.hpp"
#include "runtime/comm.hpp"
#include "sim/analytic_fields.hpp"
#include "sim/s3d.hpp"
#include "stress_scale.hpp"

namespace hia {
namespace {

// ---- Oracle ---------------------------------------------------------------
// The rank-subtree path as it stood before the fused kernel, kept verbatim:
// an indirect std::sort on (value, id), a union-find that merges into the
// freshly swept vertex, a fully augmented MergeTree, and extraction from
// that tree. compute_rank_subtree must reproduce it bit for bit.

/// Union-find over box-local offsets with path compression + union by the
/// component's current arc end ("lowest" vertex).
class ComponentForest {
 public:
  explicit ComponentForest(size_t n) : parent_(n), lowest_(n) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
    std::iota(lowest_.begin(), lowest_.end(), size_t{0});
  }

  size_t find(size_t x) {
    size_t root = x;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[x] != root) {
      const size_t next = parent_[x];
      parent_[x] = root;
      x = next;
    }
    return root;
  }

  /// Merges the set of `a` into the set of `b` (b's root wins).
  void merge_into(size_t a, size_t b) { parent_[find(a)] = find(b); }

  [[nodiscard]] size_t lowest(size_t root) const { return lowest_[root]; }
  void set_lowest(size_t root, size_t v) { lowest_[root] = v; }

 private:
  std::vector<size_t> parent_;
  std::vector<size_t> lowest_;  // valid at roots only
};

MergeTree oracle_local_tree(const GlobalGrid& grid, const Box3& box,
                            std::span<const double> values) {
  const auto n = static_cast<size_t>(box.num_cells());
  HIA_REQUIRE(values.size() == n, "value buffer does not match box");
  HIA_REQUIRE(n > 0, "empty box");

  // Sort box offsets by descending (value, global id).
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  const int64_t nx = box.extent(0), ny = box.extent(1);
  auto global_id = [&](size_t off) {
    int64_t i, j, k;
    box.coords(off, i, j, k);
    return grid_vertex_id(grid, i, j, k);
  };
  std::vector<uint64_t> gids(n);
  for (size_t off = 0; off < n; ++off) gids[off] = global_id(off);

  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return above(values[a], gids[a], values[b], gids[b]);
  });

  std::vector<uint32_t> rank_of(n);  // position in descending order
  for (size_t pos = 0; pos < n; ++pos) rank_of[order[pos]] = static_cast<uint32_t>(pos);

  ComponentForest forest(n);
  std::vector<int64_t> parent(n, MergeTree::kNoParent);  // box offsets

  const std::array<int64_t, 3> steps{1, nx, nx * ny};
  for (size_t pos = 0; pos < n; ++pos) {
    const size_t v = order[pos];
    int64_t i, j, k;
    box.coords(v, i, j, k);
    const std::array<int64_t, 3> coord{i, j, k};

    for (int axis = 0; axis < 3; ++axis) {
      for (int dir = -1; dir <= 1; dir += 2) {
        const int64_t c = coord[static_cast<size_t>(axis)] + dir;
        if (c < box.lo[axis] || c >= box.hi[axis]) continue;
        const size_t u = static_cast<size_t>(
            static_cast<int64_t>(v) + dir * steps[static_cast<size_t>(axis)]);
        if (rank_of[u] > pos) continue;  // u not yet swept (it is lower)
        const size_t ru = forest.find(u);
        const size_t rv = forest.find(v);
        if (ru == rv) continue;
        // The arc end of u's component attaches to v; components merge.
        parent[forest.lowest(ru)] = static_cast<int64_t>(v);
        forest.merge_into(ru, rv);
        forest.set_lowest(forest.find(v), v);
      }
    }
  }

  // Emit nodes in descending order so parents appear after children.
  std::vector<MergeTree::Node> nodes(n);
  std::vector<int64_t> node_index(n);
  for (size_t pos = 0; pos < n; ++pos) {
    node_index[order[pos]] = static_cast<int64_t>(pos);
  }
  for (size_t pos = 0; pos < n; ++pos) {
    const size_t v = order[pos];
    MergeTree::Node& node = nodes[pos];
    node.id = gids[v];
    node.value = values[v];
    node.parent = parent[v] == MergeTree::kNoParent
                      ? MergeTree::kNoParent
                      : node_index[static_cast<size_t>(parent[v])];
  }
  return MergeTree(std::move(nodes));
}

SubtreeData oracle_extract_subtree(const GlobalGrid& grid, const Box3& box,
                                   const MergeTree& local_tree) {
  const auto& nodes = local_tree.nodes();
  const auto counts = local_tree.child_counts();

  // Retained: criticals (leaf / saddle / root) + interior-shared boundary
  // vertices (any box face that is not the domain boundary).
  const Box3 domain = grid.bounds();
  auto on_shared_boundary = [&](uint64_t id) {
    const int64_t nx = grid.dims[0], nyd = grid.dims[1];
    const int64_t i = static_cast<int64_t>(id) % nx;
    const int64_t j = (static_cast<int64_t>(id) / nx) % nyd;
    const int64_t k = static_cast<int64_t>(id) / (nx * nyd);
    const std::array<int64_t, 3> c{i, j, k};
    for (int a = 0; a < 3; ++a) {
      if (c[a] == box.lo[a] && box.lo[a] != domain.lo[a]) return true;
      if (c[a] == box.hi[a] - 1 && box.hi[a] != domain.hi[a]) return true;
    }
    return false;
  };

  std::vector<bool> keep(nodes.size(), false);
  for (size_t idx = 0; idx < nodes.size(); ++idx) {
    keep[idx] = counts[idx] != 1 || nodes[idx].parent == MergeTree::kNoParent ||
                on_shared_boundary(nodes[idx].id);
  }

  SubtreeData out;
  std::vector<int64_t> remap(nodes.size(), -1);
  for (size_t idx = 0; idx < nodes.size(); ++idx) {
    if (!keep[idx]) continue;
    remap[idx] = static_cast<int64_t>(out.vertex_ids.size());
    out.vertex_ids.push_back(nodes[idx].id);
    out.vertex_values.push_back(nodes[idx].value);
    out.interior.push_back(on_shared_boundary(nodes[idx].id) ? 0 : 1);
  }
  for (size_t idx = 0; idx < nodes.size(); ++idx) {
    if (!keep[idx]) continue;
    // Nearest retained ancestor.
    int64_t p = nodes[idx].parent;
    while (p != MergeTree::kNoParent && !keep[static_cast<size_t>(p)]) {
      p = nodes[static_cast<size_t>(p)].parent;
    }
    if (p == MergeTree::kNoParent) continue;
    out.edge_child.push_back(static_cast<uint32_t>(remap[idx]));
    out.edge_parent.push_back(
        static_cast<uint32_t>(remap[static_cast<size_t>(p)]));
  }
  return out;
}


SubtreeData oracle_rank_subtree(const GlobalGrid& grid, const Box3& ext,
                                std::span<const double> values) {
  return oracle_extract_subtree(grid, ext, oracle_local_tree(grid, ext, values));
}

std::vector<double> pack_box(const GlobalGrid& grid,
                             const std::vector<double>& whole,
                             const Box3& box) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(box.num_cells()));
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k)
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j)
      for (int64_t i = box.lo[0]; i < box.hi[0]; ++i)
        out.push_back(whole[grid_vertex_id(grid, i, j, k)]);
  return out;
}

/// Asserts the fused kernel equals the oracle on one rank block of a
/// whole-domain field (x-fastest over grid.bounds()).
void expect_matches_oracle(const GlobalGrid& grid, const Box3& block,
                           const std::vector<double>& whole) {
  const Box3 ext = extended_block(grid, block);
  const std::vector<double> values = pack_box(grid, whole, ext);
  const SubtreeData got = compute_rank_subtree(grid, block, values, ext);
  const SubtreeData want = oracle_rank_subtree(grid, ext, values);
  ASSERT_EQ(got.vertex_ids, want.vertex_ids) << block.describe();
  // Bitwise, so -0.0 and +0.0 are told apart.
  ASSERT_EQ(got.vertex_values.size(), want.vertex_values.size());
  EXPECT_EQ(std::memcmp(got.vertex_values.data(), want.vertex_values.data(),
                        got.vertex_values.size() * sizeof(double)),
            0)
      << block.describe();
  EXPECT_EQ(got.interior, want.interior) << block.describe();
  EXPECT_EQ(got.edge_child, want.edge_child) << block.describe();
  EXPECT_EQ(got.edge_parent, want.edge_parent) << block.describe();
  EXPECT_TRUE(build_local_tree(grid, ext, values)
                  .same_structure(oracle_local_tree(grid, ext, values)))
      << block.describe();
}

void expect_decomposition_matches_oracle(const GlobalGrid& grid,
                                         std::array<int, 3> ranks,
                                         const std::vector<double>& whole) {
  const Decomposition decomp(grid, ranks);
  for (int r = 0; r < decomp.num_ranks(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    expect_matches_oracle(grid, decomp.block(r), whole);
  }
}

std::vector<double> minis3d_temperature(const GlobalGrid& grid, long steps) {
  S3DParams params;
  params.grid = grid;
  params.ranks_per_axis = {1, 1, 1};
  std::vector<double> out;
  World world(1);
  world.run([&](Comm& comm) {
    S3DRank sim(params, 0);
    sim.initialize();
    for (long s = 0; s < steps; ++s) sim.advance(comm);
    out = sim.field(Variable::kTemperature).pack_owned();
  });
  return out;
}

class MiniS3DDifferential
    : public ::testing::TestWithParam<std::array<int, 3>> {};

TEST_P(MiniS3DDifferential, EveryRankBlockMatchesOracleBitwise) {
  const GlobalGrid grid{{30, 24, 18}, {1.0, 0.75, 0.75}};
  const std::vector<double> temperature = minis3d_temperature(grid, 3);
  expect_decomposition_matches_oracle(grid, GetParam(), temperature);
}

INSTANTIATE_TEST_SUITE_P(Decompositions, MiniS3DDifferential,
                         ::testing::Values(std::array<int, 3>{1, 1, 1},
                                           std::array<int, 3>{2, 1, 1},
                                           std::array<int, 3>{2, 2, 1},
                                           std::array<int, 3>{3, 2, 2}));

TEST(LocalTreeDifferential, ThreeLevelFieldBreaksTiesById) {
  // Almost every comparison falls through to the id tie-break.
  const GlobalGrid grid{{13, 11, 9}, {1, 1, 1}};
  const auto n = static_cast<size_t>(grid.bounds().num_cells());
  for (int seed = 0; seed < 4 * stress_scale(); ++seed) {
    std::mt19937 rng(static_cast<uint32_t>(seed));
    std::uniform_int_distribution<int> level(0, 2);
    std::vector<double> whole(n);
    for (double& v : whole) v = static_cast<double>(level(rng));
    expect_decomposition_matches_oracle(grid, {2, 2, 2}, whole);
    expect_decomposition_matches_oracle(grid, {1, 1, 1}, whole);
  }
}

TEST(LocalTreeDifferential, SignedZerosAndNegativesOrderLikeAbove) {
  const GlobalGrid grid{{12, 10, 7}, {1, 1, 1}};
  const auto n = static_cast<size_t>(grid.bounds().num_cells());
  const std::array<double, 8> palette{-0.0, 0.0,     -1.5,   2.0,
                                      -1e-300, 1e-300, -3e8, 0.25};
  for (int seed = 0; seed < 4 * stress_scale(); ++seed) {
    std::mt19937 rng(static_cast<uint32_t>(100 + seed));
    std::uniform_int_distribution<size_t> pick(0, palette.size() - 1);
    std::normal_distribution<double> noise(-1.0, 2.0);
    std::vector<double> whole(n);
    for (size_t c = 0; c < n; ++c) {
      whole[c] = (c % 3 == 0) ? noise(rng) : palette[pick(rng)];
    }
    expect_decomposition_matches_oracle(grid, {3, 2, 1}, whole);
  }
}

TEST(LocalTreeDifferential, SingleCellAndOneCellSlabs) {
  const GlobalGrid grid{{7, 6, 5}, {1, 1, 1}};
  const auto n = static_cast<size_t>(grid.bounds().num_cells());
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> whole(n);
  for (double& v : whole) v = u(rng);

  // A single cell: the block at the far corner does not extend.
  expect_matches_oracle(grid, Box3{{6, 5, 4}, {7, 6, 5}}, whole);
  // 1-cell-thick slabs at the high faces stay 1 thick after extension.
  expect_matches_oracle(grid, Box3{{6, 0, 0}, {7, 6, 5}}, whole);
  expect_matches_oracle(grid, Box3{{0, 5, 0}, {7, 6, 5}}, whole);
  expect_matches_oracle(grid, Box3{{0, 0, 4}, {7, 6, 5}}, whole);
  // A 1-cell rank layer along every axis.
  expect_decomposition_matches_oracle(grid, {7, 1, 1}, whole);
  expect_decomposition_matches_oracle(grid, {1, 6, 1}, whole);
  expect_decomposition_matches_oracle(grid, {1, 1, 5}, whole);
  // A whole domain that is itself one cell, or one line of cells.
  expect_matches_oracle(GlobalGrid{{1, 1, 1}, {1, 1, 1}},
                        Box3{{0, 0, 0}, {1, 1, 1}}, {0.5});
  expect_matches_oracle(GlobalGrid{{1, 1, 6}, {1, 1, 1}},
                        Box3{{0, 0, 0}, {1, 1, 6}},
                        {0.1, -0.3, 0.1, 0.9, -0.0, 0.0});
}

TEST(LocalTreeDifferential, WholeDomainBlockRetainsNoSharedFace) {
  // A block touching the domain boundary on every face shares nothing:
  // only criticals are retained, all of them interior.
  const GlobalGrid grid{{16, 12, 10}, {1, 1, 1}};
  const auto mix = GaussianMixture::well_separated(5, 0.06, 11);
  std::vector<double> whole;
  for (int64_t k = 0; k < grid.dims[2]; ++k)
    for (int64_t j = 0; j < grid.dims[1]; ++j)
      for (int64_t i = 0; i < grid.dims[0]; ++i)
        whole.push_back(mix.value(
            Vec3{grid.coord(0, i), grid.coord(1, j), grid.coord(2, k)}));
  expect_matches_oracle(grid, grid.bounds(), whole);
  const SubtreeData sub = compute_rank_subtree(
      grid, grid.bounds(), whole, extended_block(grid, grid.bounds()));
  EXPECT_TRUE(std::all_of(sub.interior.begin(), sub.interior.end(),
                          [](uint8_t b) { return b == 1; }));
  EXPECT_EQ(sub.num_edges() + 1, sub.num_vertices());  // a single tree
}

std::vector<double> field_values(const GlobalGrid& grid, const Box3& box,
                                 const std::function<double(const Vec3&)>& f) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(box.num_cells()));
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k)
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j)
      for (int64_t i = box.lo[0]; i < box.hi[0]; ++i)
        out.push_back(
            f(Vec3{grid.coord(0, i), grid.coord(1, j), grid.coord(2, k)}));
  return out;
}

TEST(LocalTree, RampHasSingleLeafChain) {
  GlobalGrid grid{{8, 4, 4}, {1.0, 0.5, 0.5}};
  const Box3 box = grid.bounds();
  const auto values =
      field_values(grid, box, [](const Vec3& x) { return x.x; });
  const MergeTree t = build_local_tree(grid, box, values);

  EXPECT_EQ(t.size(), static_cast<size_t>(box.num_cells()));
  EXPECT_TRUE(t.validate().empty()) << t.validate();
  EXPECT_EQ(t.roots().size(), 1u);
  // Monotone field + id tie-breaking: exactly one maximum.
  EXPECT_EQ(t.reduced().leaves().size(), 1u);
}

TEST(LocalTree, TwoBumpsGiveTwoLeavesAndOneSaddle) {
  GlobalGrid grid{{24, 12, 12}, {1.0, 0.5, 0.5}};
  GaussianMixture mix({{Vec3{0.25, 0.25, 0.25}, 0.05, 1.0},
                       {Vec3{0.75, 0.25, 0.25}, 0.05, 0.8}});
  const Box3 box = grid.bounds();
  const auto values = field_values(
      grid, box, [&](const Vec3& x) { return mix.value(x); });
  const MergeTree reduced = build_local_tree(grid, box, values).reduced();

  EXPECT_TRUE(reduced.validate().empty());
  EXPECT_EQ(reduced.leaves().size(), 2u);
  // Leaves + 1 saddle + 1 root = 4 critical nodes.
  EXPECT_EQ(reduced.size(), 4u);

  // The discrete maxima undershoot the analytic peaks (grid sampling), but
  // the taller bump must dominate and both peaks must be prominent.
  const auto pairs = persistence_pairs(reduced);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_GT(pairs[0].max_value, pairs[1].max_value);
  EXPECT_GT(pairs[0].max_value, 0.5);
  EXPECT_GT(pairs[1].max_value, 0.4);
  EXPECT_NEAR(pairs[0].max_value / pairs[1].max_value, 1.0 / 0.8, 0.1);
}

class LeafCountProperty : public ::testing::TestWithParam<int> {};

TEST_P(LeafCountProperty, WellSeparatedBumpsYieldExactLeafCount) {
  const int bumps = GetParam();
  GlobalGrid grid{{32, 32, 32}, {1.0, 1.0, 1.0}};
  const auto mix = GaussianMixture::well_separated(bumps, 0.04, 23);
  const Box3 box = grid.bounds();
  const auto values = field_values(
      grid, box, [&](const Vec3& x) { return mix.value(x); });
  const MergeTree reduced = build_local_tree(grid, box, values).reduced();
  EXPECT_EQ(reduced.leaves().size(), static_cast<size_t>(bumps));
  EXPECT_TRUE(reduced.validate().empty());
}

INSTANTIATE_TEST_SUITE_P(BumpCounts, LeafCountProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 12));

TEST(LocalTree, ConstantFieldIsSingleComponent) {
  GlobalGrid grid{{6, 6, 6}, {1.0, 1.0, 1.0}};
  const Box3 box = grid.bounds();
  std::vector<double> values(static_cast<size_t>(box.num_cells()), 1.0);
  const MergeTree t = build_local_tree(grid, box, values);
  // Ties broken by id: still a valid tree with a single root and one leaf.
  EXPECT_TRUE(t.validate().empty());
  EXPECT_EQ(t.roots().size(), 1u);
  EXPECT_EQ(t.reduced().leaves().size(), 1u);
}

TEST(LocalTree, SubBoxUsesGlobalIds) {
  GlobalGrid grid{{16, 8, 8}, {1.0, 0.5, 0.5}};
  const Box3 box{{4, 2, 2}, {10, 6, 6}};
  const auto values =
      field_values(grid, box, [](const Vec3& x) { return x.x + x.y; });
  const MergeTree t = build_local_tree(grid, box, values);
  ASSERT_EQ(t.size(), static_cast<size_t>(box.num_cells()));
  // All ids must decode to coordinates inside the box.
  for (const auto& n : t.nodes()) {
    const int64_t i = static_cast<int64_t>(n.id) % grid.dims[0];
    const int64_t j =
        (static_cast<int64_t>(n.id) / grid.dims[0]) % grid.dims[1];
    const int64_t k =
        static_cast<int64_t>(n.id) / (grid.dims[0] * grid.dims[1]);
    EXPECT_TRUE(box.contains(i, j, k));
  }
}

TEST(ExtendedBlock, GrowsPositiveDirectionsOnly) {
  GlobalGrid grid{{10, 10, 10}, {1.0, 1.0, 1.0}};
  const Box3 interior{{2, 2, 2}, {5, 5, 5}};
  EXPECT_EQ(extended_block(grid, interior), (Box3{{2, 2, 2}, {6, 6, 6}}));
  const Box3 at_edge{{5, 5, 5}, {10, 10, 10}};
  EXPECT_EQ(extended_block(grid, at_edge), at_edge);  // clamped
}

TEST(ExtractSubtree, RetainsCriticalsAndBoundary) {
  GlobalGrid grid{{16, 16, 16}, {1.0, 1.0, 1.0}};
  const Box3 box{{0, 0, 0}, {9, 16, 16}};  // right face interior-shared
  const auto mix = GaussianMixture::well_separated(4, 0.05, 3);
  const auto values = field_values(
      grid, box, [&](const Vec3& x) { return mix.value(x); });
  const SubtreeData sub =
      compute_rank_subtree(grid, Box3{{0, 0, 0}, {8, 16, 16}}, values, box);

  // Much smaller than the full augmented tree…
  EXPECT_LT(sub.num_vertices(), static_cast<size_t>(box.num_cells()) / 2);
  // …but at least the shared face (i = 8) must be present in full.
  const size_t face = 16 * 16;
  EXPECT_GE(sub.num_vertices(), face);
  // Every vertex on the shared face is retained.
  size_t on_face = 0;
  for (const uint64_t id : sub.vertex_ids) {
    if (static_cast<int64_t>(id) % grid.dims[0] == 8) ++on_face;
  }
  EXPECT_EQ(on_face, face);

  // Edges orient child strictly above parent.
  for (size_t e = 0; e < sub.num_edges(); ++e) {
    const auto c = sub.edge_child[e];
    const auto p = sub.edge_parent[e];
    EXPECT_TRUE(above(sub.vertex_values[c], sub.vertex_ids[c],
                      sub.vertex_values[p], sub.vertex_ids[p]));
  }
}

TEST(SubtreeData, SerializeRoundTrip) {
  SubtreeData s;
  s.vertex_ids = {10, 20, 30};
  s.vertex_values = {3.0, 2.0, 1.0};
  s.edge_child = {0, 1};
  s.edge_parent = {1, 2};
  const auto flat = s.serialize();
  const SubtreeData r = SubtreeData::deserialize(flat);
  EXPECT_EQ(r.vertex_ids, s.vertex_ids);
  EXPECT_EQ(r.vertex_values, s.vertex_values);
  EXPECT_EQ(r.edge_child, s.edge_child);
  EXPECT_EQ(r.edge_parent, s.edge_parent);
  EXPECT_GT(s.byte_size(), 0u);
}

TEST(SubtreeData, DeserializeRejectsMalformed) {
  EXPECT_THROW(SubtreeData::deserialize(std::vector<double>{5.0}), Error);
  EXPECT_THROW(SubtreeData::deserialize(std::vector<double>{1.0, 1.0, 2.0}),
               Error);
}

}  // namespace
}  // namespace hia
