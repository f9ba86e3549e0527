// A scalar field on a local block, optionally with ghost layers.
//
// Storage covers the block grown by `ghost` cells (clamped to the domain);
// interior indexing uses *global* coordinates so analysis code never
// translates indices by hand.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/box.hpp"

namespace hia {

class Field {
 public:
  /// A field over `owned`, with `ghost` extra layers clamped to `domain`.
  Field(std::string name, const Box3& owned, const Box3& domain,
        int ghost = 0)
      : name_(std::move(name)),
        owned_(owned),
        storage_(owned.grown(ghost, domain)),
        data_(static_cast<size_t>(storage_.num_cells()), 0.0) {}

  /// Ghost-free field over `owned`.
  Field(std::string name, const Box3& owned)
      : Field(std::move(name), owned, owned, 0) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Box3& owned() const { return owned_; }
  /// The storage box (owned + ghosts).
  [[nodiscard]] const Box3& storage() const { return storage_; }

  [[nodiscard]] double& at(int64_t i, int64_t j, int64_t k) {
    return data_[storage_.offset(i, j, k)];
  }
  [[nodiscard]] double at(int64_t i, int64_t j, int64_t k) const {
    return data_[storage_.offset(i, j, k)];
  }

  /// The unit-stride x-row [i0, i1) at (j, k): a pointer to cell
  /// (i0, j, k), checked once (both row ends lie in storage) instead of
  /// once per cell as at() does. Hot loops index it as row[i - i0].
  [[nodiscard]] double* row(int64_t i0, int64_t i1, int64_t j, int64_t k) {
    return data_.data() + row_offset(i0, i1, j, k);
  }
  [[nodiscard]] const double* row(int64_t i0, int64_t i1, int64_t j,
                                  int64_t k) const {
    return data_.data() + row_offset(i0, i1, j, k);
  }

  /// The row `r` of a for_each_row() visit (see row() above).
  [[nodiscard]] double* row(const BoxRow& r) {
    return row(r.i0, r.i0 + r.n, r.j, r.k);
  }
  [[nodiscard]] const double* row(const BoxRow& r) const {
    return row(r.i0, r.i0 + r.n, r.j, r.k);
  }

  [[nodiscard]] std::span<double> data() { return data_; }
  [[nodiscard]] std::span<const double> data() const { return data_; }

  /// Copies the owned region (no ghosts) into a packed x-fastest buffer.
  [[nodiscard]] std::vector<double> pack_owned() const { return pack(owned_); }

  /// Copies an arbitrary sub-box (must lie in storage) into a packed buffer.
  [[nodiscard]] std::vector<double> pack(const Box3& box) const {
    HIA_REQUIRE(storage_.contains(box), "pack box outside field storage");
    if (box.empty()) return {};
    std::vector<double> out(static_cast<size_t>(box.num_cells()));
    double* dst = out.data();
    for_each_row(box, [&](const BoxRow& r) {
      dst = std::copy_n(row(r), r.n, dst);
    });
    return out;
  }

  /// Fills a sub-box (must lie in storage) from a packed buffer.
  void unpack(const Box3& box, std::span<const double> values) {
    HIA_REQUIRE(storage_.contains(box), "unpack box outside field storage");
    HIA_REQUIRE(static_cast<int64_t>(values.size()) == box.num_cells(),
                "unpack buffer size mismatch");
    const double* src = values.data();
    for_each_row(box, [&](const BoxRow& r) {
      std::copy_n(src, r.n, row(r));
      src += r.n;
    });
  }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

 private:
  [[nodiscard]] size_t row_offset(int64_t i0, int64_t i1, int64_t j,
                                  int64_t k) const {
    HIA_ASSERT(i0 < i1 && i1 <= storage_.hi[0]);
    return storage_.offset(i0, j, k);  // asserts (i0, j, k) is in storage
  }

  std::string name_;
  Box3 owned_;
  Box3 storage_;
  std::vector<double> data_;
};

}  // namespace hia
