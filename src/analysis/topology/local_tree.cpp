#include "analysis/topology/local_tree.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/error.hpp"
#include "util/numeric.hpp"

namespace hia {

std::vector<double> SubtreeData::serialize() const {
  std::vector<double> out;
  out.reserve(2 + vertex_ids.size() * 3 + edge_child.size() * 2);
  out.push_back(static_cast<double>(vertex_ids.size()));
  out.push_back(static_cast<double>(edge_child.size()));
  for (size_t i = 0; i < vertex_ids.size(); ++i) {
    out.push_back(static_cast<double>(vertex_ids[i]));
    out.push_back(vertex_values[i]);
    out.push_back(i < interior.size() ? interior[i] : 0.0);
  }
  for (size_t e = 0; e < edge_child.size(); ++e) {
    out.push_back(static_cast<double>(edge_child[e]));
    out.push_back(static_cast<double>(edge_parent[e]));
  }
  return out;
}

SubtreeData SubtreeData::deserialize(std::span<const double> data) {
  HIA_REQUIRE(data.size() >= 2, "subtree payload too short");
  SubtreeData s;
  const auto nv = round_to<size_t>(data[0]);
  const auto ne = round_to<size_t>(data[1]);
  HIA_REQUIRE(data.size() == 2 + nv * 3 + ne * 2,
              "subtree payload size mismatch");
  s.vertex_ids.reserve(nv);
  s.vertex_values.reserve(nv);
  s.interior.reserve(nv);
  size_t off = 2;
  for (size_t i = 0; i < nv; ++i) {
    s.vertex_ids.push_back(round_to<uint64_t>(data[off++]));
    s.vertex_values.push_back(data[off++]);
    s.interior.push_back(round_to<uint8_t>(data[off++]));
  }
  s.edge_child.reserve(ne);
  s.edge_parent.reserve(ne);
  for (size_t e = 0; e < ne; ++e) {
    s.edge_child.push_back(round_to<uint32_t>(data[off++]));
    s.edge_parent.push_back(round_to<uint32_t>(data[off++]));
  }
  return s;
}

namespace {

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

// Per-vertex flags derived from box coordinates: which of the six
// neighbors lie inside the box, and whether the vertex sits on a face
// shared with another rank (a box face that is not the domain boundary).
enum : uint8_t {
  kHasXm = 1 << 0,
  kHasXp = 1 << 1,
  kHasYm = 1 << 2,
  kHasYp = 1 << 3,
  kHasZm = 1 << 4,
  kHasZp = 1 << 5,
  kShared = 1 << 6,
};

/// Order-preserving 64-bit key whose *ascending* order is the descending
/// order of the value. -0.0 maps to +0.0 so the two tie, as in above().
uint64_t descending_key(double v) {
  const auto bits = std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v);
  const uint64_t ascending =
      (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
  return ~ascending;
}

struct Keyed {
  uint64_t key;
  uint32_t off;
};

/// Stable LSD radix sort on `key`, 11-bit digits; one read pass builds
/// every digit's histogram. A digit on which every key agrees would move
/// nothing and is skipped.
void radix_sort(std::vector<Keyed>& items) {
  constexpr int kBits = 11;
  constexpr int kPasses = (64 + kBits - 1) / kBits;
  constexpr size_t kBuckets = size_t{1} << kBits;
  constexpr uint64_t kMask = kBuckets - 1;
  const size_t n = items.size();

  std::vector<uint32_t> hist(kPasses * kBuckets, 0);
  for (const Keyed& e : items) {
    for (int p = 0; p < kPasses; ++p) {
      const uint64_t digit = (e.key >> (p * kBits)) & kMask;
      ++hist[static_cast<size_t>(p) * kBuckets + digit];
    }
  }

  std::vector<Keyed> spare(n);
  for (int p = 0; p < kPasses; ++p) {
    uint32_t* h = hist.data() + static_cast<size_t>(p) * kBuckets;
    const uint64_t first_digit = (items[0].key >> (p * kBits)) & kMask;
    if (h[first_digit] == n) continue;
    uint32_t sum = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint32_t c = h[b];
      h[b] = sum;
      sum += c;
    }
    for (const Keyed& e : items) {
      spare[h[(e.key >> (p * kBits)) & kMask]++] = e;
    }
    items.swap(spare);
  }
}

/// The augmented join tree of one box as box-offset arrays.
struct Sweep {
  std::vector<uint32_t> order;    // box offsets, descending (value, id)
  std::vector<uint32_t> parent;   // next-lower tree node, or kNone (root)
  std::vector<uint8_t> children;  // tree children of each offset
  std::vector<uint8_t> flags;     // kHas* | kShared per offset
};

Sweep sweep_box(const GlobalGrid& grid, const Box3& box,
                std::span<const double> values) {
  const auto n = static_cast<size_t>(box.num_cells());
  HIA_REQUIRE(values.size() == n, "value buffer does not match box");
  HIA_REQUIRE(n > 0, "empty box");
  HIA_REQUIRE(n < kNone, "box too large for 32-bit offsets");

  Sweep s;
  const Box3 domain = grid.bounds();
  const int64_t nx = box.extent(0), ny = box.extent(1), nz = box.extent(2);
  // One flag byte per axis position; a vertex's flags OR its three.
  auto axis_flags = [&](int a, int64_t c, uint8_t minus, uint8_t plus) {
    uint8_t f = 0;
    if (c > 0) f |= minus;
    if (c < box.extent(a) - 1) f |= plus;
    if ((c == 0 && box.lo[a] != domain.lo[a]) ||
        (c == box.extent(a) - 1 && box.hi[a] != domain.hi[a])) {
      f |= kShared;
    }
    return f;
  };
  s.flags.resize(n);
  size_t off = 0;
  for (int64_t k = 0; k < nz; ++k) {
    const uint8_t fk = axis_flags(2, k, kHasZm, kHasZp);
    for (int64_t j = 0; j < ny; ++j) {
      const uint8_t fjk = fk | axis_flags(1, j, kHasYm, kHasYp);
      for (int64_t i = 0; i < nx; ++i) {
        s.flags[off++] = fjk | axis_flags(0, i, kHasXm, kHasXp);
      }
    }
  }

  // Descending (value, id) order. Within a box, offset order is global-id
  // order (both x-fastest), so feeding offsets in descending order to a
  // stable sort breaks value ties by descending id.
  {
    std::vector<Keyed> keyed(n);
    for (size_t pos = 0; pos < n; ++pos) {
      const auto o = static_cast<uint32_t>(n - 1 - pos);
      keyed[pos] = {descending_key(values[o]), o};
    }
    radix_sort(keyed);
    s.order.resize(n);
    for (size_t pos = 0; pos < n; ++pos) s.order[pos] = keyed[pos].off;
  }

  // Union-find over swept vertices: union by size with path halving.
  // kNone in `uf` marks a vertex not yet swept; `lowest` holds each
  // root's arc end, the vertex the next merge attaches below.
  std::vector<uint32_t> uf(n, kNone);
  std::vector<uint32_t> size(n);
  std::vector<uint32_t> lowest(n);
  s.parent.assign(n, kNone);
  s.children.assign(n, 0);
  auto find = [&](uint32_t x) {
    while (uf[x] != x) {
      uf[x] = uf[uf[x]];
      x = uf[x];
    }
    return x;
  };
  const auto sx = static_cast<uint32_t>(nx);
  const auto sxy = static_cast<uint32_t>(nx * ny);
  for (const uint32_t v : s.order) {
    uf[v] = v;
    size[v] = 1;
    lowest[v] = v;
    uint32_t rv = v;
    auto join = [&](uint32_t u) {
      if (uf[u] == kNone) return;  // u is lower: not yet swept
      uint32_t ru = find(u);
      if (ru == rv) return;
      // u's component ends at its arc end, which now attaches to v.
      s.parent[lowest[ru]] = v;
      ++s.children[v];
      if (size[ru] > size[rv]) std::swap(ru, rv);
      uf[ru] = rv;
      size[rv] += size[ru];
      lowest[rv] = v;
    };
    const uint8_t f = s.flags[v];
    if (f & kHasXm) join(v - 1);
    if (f & kHasXp) join(v + 1);
    if (f & kHasYm) join(v - sx);
    if (f & kHasYp) join(v + sx);
    if (f & kHasZm) join(v - sxy);
    if (f & kHasZp) join(v + sxy);
  }
  return s;
}

uint64_t offset_vertex_id(const GlobalGrid& grid, const Box3& box,
                          uint32_t off) {
  int64_t i, j, k;
  box.coords(off, i, j, k);
  return grid_vertex_id(grid, i, j, k);
}

}  // namespace

Box3 extended_block(const GlobalGrid& grid, const Box3& block) {
  Box3 ext = block;
  for (int a = 0; a < 3; ++a) {
    ext.hi[a] = std::min(ext.hi[a] + 1, grid.dims[a]);
  }
  return ext;
}

MergeTree build_local_tree(const GlobalGrid& grid, const Box3& box,
                           std::span<const double> values) {
  const Sweep s = sweep_box(grid, box, values);
  const size_t n = s.order.size();
  // Emit nodes in descending order so parents appear after children.
  std::vector<uint32_t> node_index(n);
  for (size_t pos = 0; pos < n; ++pos) {
    node_index[s.order[pos]] = static_cast<uint32_t>(pos);
  }
  std::vector<MergeTree::Node> nodes(n);
  for (size_t pos = 0; pos < n; ++pos) {
    const uint32_t v = s.order[pos];
    MergeTree::Node& node = nodes[pos];
    node.id = offset_vertex_id(grid, box, v);
    node.value = values[v];
    node.parent = s.parent[v] == kNone ? MergeTree::kNoParent
                                       : node_index[s.parent[v]];
  }
  return MergeTree(std::move(nodes));
}

SubtreeData compute_rank_subtree(const GlobalGrid& grid, const Box3& block,
                                 std::span<const double> extended_values,
                                 const Box3& extended_box) {
  HIA_REQUIRE(extended_box == extended_block(grid, block),
              "extended box does not match the rank's block");
  const Sweep s = sweep_box(grid, extended_box, extended_values);

  // Retained: criticals (leaf / saddle / root) plus every vertex on a
  // shared face, in descending (value, id) order.
  auto keep = [&](uint32_t v) {
    return s.children[v] != 1 || s.parent[v] == kNone ||
           (s.flags[v] & kShared) != 0;
  };
  SubtreeData out;
  std::vector<uint32_t> kept;
  std::vector<uint32_t> remap(s.order.size(), kNone);
  for (const uint32_t v : s.order) {
    if (!keep(v)) continue;
    remap[v] = static_cast<uint32_t>(kept.size());
    kept.push_back(v);
    out.vertex_ids.push_back(offset_vertex_id(grid, extended_box, v));
    out.vertex_values.push_back(extended_values[v]);
    out.interior.push_back((s.flags[v] & kShared) != 0 ? 0 : 1);
  }
  // Edges to the nearest retained ancestor. Dropped vertices have exactly
  // one child, so each is walked over once.
  for (const uint32_t v : kept) {
    uint32_t p = s.parent[v];
    while (p != kNone && remap[p] == kNone) p = s.parent[p];
    if (p == kNone) continue;
    out.edge_child.push_back(remap[v]);
    out.edge_parent.push_back(remap[p]);
  }
  return out;
}

}  // namespace hia
