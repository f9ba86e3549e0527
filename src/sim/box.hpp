// Index-space boxes: the unit of domain decomposition, staging-object
// bounding volumes, and down-sampled brick extents.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace hia {

/// Half-open axis-aligned index box: cells [lo, hi) in each axis.
struct Box3 {
  std::array<int64_t, 3> lo{0, 0, 0};
  std::array<int64_t, 3> hi{0, 0, 0};

  [[nodiscard]] int64_t extent(int axis) const { return hi[axis] - lo[axis]; }
  [[nodiscard]] int64_t num_cells() const {
    return extent(0) * extent(1) * extent(2);
  }
  [[nodiscard]] bool empty() const {
    return extent(0) <= 0 || extent(1) <= 0 || extent(2) <= 0;
  }

  [[nodiscard]] bool contains(int64_t i, int64_t j, int64_t k) const {
    return i >= lo[0] && i < hi[0] && j >= lo[1] && j < hi[1] && k >= lo[2] &&
           k < hi[2];
  }

  [[nodiscard]] bool contains(const Box3& other) const {
    return other.lo[0] >= lo[0] && other.hi[0] <= hi[0] &&
           other.lo[1] >= lo[1] && other.hi[1] <= hi[1] &&
           other.lo[2] >= lo[2] && other.hi[2] <= hi[2];
  }

  [[nodiscard]] Box3 intersect(const Box3& other) const {
    Box3 out;
    for (int a = 0; a < 3; ++a) {
      out.lo[a] = std::max(lo[a], other.lo[a]);
      out.hi[a] = std::min(hi[a], other.hi[a]);
      if (out.hi[a] < out.lo[a]) out.hi[a] = out.lo[a];
    }
    return out;
  }

  [[nodiscard]] bool overlaps(const Box3& other) const {
    return !intersect(other).empty();
  }

  /// Grows by `g` cells on every face, clamped to `bounds`.
  [[nodiscard]] Box3 grown(int64_t g, const Box3& bounds) const {
    Box3 out;
    for (int a = 0; a < 3; ++a) {
      out.lo[a] = std::max(lo[a] - g, bounds.lo[a]);
      out.hi[a] = std::min(hi[a] + g, bounds.hi[a]);
    }
    return out;
  }

  /// Linear offset of (i, j, k) within this box, x-fastest ordering.
  [[nodiscard]] size_t offset(int64_t i, int64_t j, int64_t k) const {
    HIA_ASSERT(contains(i, j, k));
    return static_cast<size_t>((k - lo[2]) * extent(1) * extent(0) +
                               (j - lo[1]) * extent(0) + (i - lo[0]));
  }

  /// Inverse of offset().
  void coords(size_t off, int64_t& i, int64_t& j, int64_t& k) const {
    const int64_t nx = extent(0), ny = extent(1);
    k = lo[2] + static_cast<int64_t>(off) / (nx * ny);
    const int64_t rem = static_cast<int64_t>(off) % (nx * ny);
    j = lo[1] + rem / nx;
    i = lo[0] + rem % nx;
  }

  bool operator==(const Box3&) const = default;

  [[nodiscard]] std::string describe() const {
    return "[" + std::to_string(lo[0]) + "," + std::to_string(hi[0]) + ")x[" +
           std::to_string(lo[1]) + "," + std::to_string(hi[1]) + ")x[" +
           std::to_string(lo[2]) + "," + std::to_string(hi[2]) + ")";
  }
};

/// One unit-stride x-row of a box: cells [i0, i0 + n) at (j, k).
struct BoxRow { int64_t i0, n, j, k; };

/// The loop idiom for per-cell work: calls fn(row) for each x-row of `box`
/// in x-fastest order. The callee takes its data pointers once per row,
/// from Field::row(row) or box_row(), each bounds-checked once.
template <typename Fn>
void for_each_row(const Box3& box, Fn&& fn) {
  if (box.empty()) return;
  BoxRow row{box.lo[0], box.extent(0), 0, 0};
  for (row.k = box.lo[2]; row.k < box.hi[2]; ++row.k)
    for (row.j = box.lo[1]; row.j < box.hi[1]; ++row.j) fn(std::as_const(row));
}

/// Row `row` of a packed x-fastest buffer (vector or span) over `box`,
/// checked once: the buffer covers `box` and both row ends lie in it.
template <typename Buffer>
[[nodiscard]] auto* box_row(Buffer&& values, const Box3& box,
                            const BoxRow& row) {
  HIA_ASSERT(values.size() == static_cast<size_t>(box.num_cells()));
  HIA_ASSERT(row.n > 0 && row.i0 + row.n <= box.hi[0]);
  return values.data() + box.offset(row.i0, row.j, row.k);
}

}  // namespace hia
