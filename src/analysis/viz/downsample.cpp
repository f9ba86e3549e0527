#include "analysis/viz/downsample.hpp"

#include "util/error.hpp"
#include "util/numeric.hpp"

namespace hia {

std::vector<double> DownsampledBlock::serialize() const {
  std::vector<double> out;
  out.reserve(10 + values.size());
  for (int a = 0; a < 3; ++a) out.push_back(static_cast<double>(bounds.lo[a]));
  for (int a = 0; a < 3; ++a) out.push_back(static_cast<double>(bounds.hi[a]));
  out.push_back(static_cast<double>(stride));
  for (int a = 0; a < 3; ++a) out.push_back(static_cast<double>(samples[a]));
  out.insert(out.end(), values.begin(), values.end());
  return out;
}

DownsampledBlock DownsampledBlock::deserialize(std::span<const double> data) {
  HIA_REQUIRE(data.size() >= 10, "downsampled block payload too short");
  DownsampledBlock b;
  size_t off = 0;
  for (int a = 0; a < 3; ++a) b.bounds.lo[a] = round_to<int64_t>(data[off++]);
  for (int a = 0; a < 3; ++a) b.bounds.hi[a] = round_to<int64_t>(data[off++]);
  b.stride = round_to<int>(data[off++]);
  for (int a = 0; a < 3; ++a) b.samples[a] = round_to<int64_t>(data[off++]);
  const size_t expected = static_cast<size_t>(b.samples[0]) *
                          static_cast<size_t>(b.samples[1]) *
                          static_cast<size_t>(b.samples[2]);
  HIA_REQUIRE(data.size() == 10 + expected,
              "downsampled block payload size mismatch");
  b.values.assign(data.begin() + 10, data.end());
  return b;
}

DownsampledBlock downsample_block(const Box3& box,
                                  std::span<const double> values, int stride) {
  HIA_REQUIRE(stride >= 1, "stride must be >= 1");
  HIA_REQUIRE(values.size() == static_cast<size_t>(box.num_cells()),
              "value buffer does not match box");

  DownsampledBlock b;
  b.bounds = box;
  b.stride = stride;
  for (int a = 0; a < 3; ++a) {
    b.samples[a] = (box.extent(a) - 1) / stride + 1;
  }
  b.values.reserve(static_cast<size_t>(b.samples[0] * b.samples[1] *
                                       b.samples[2]));
  for (int64_t mk = 0; mk < b.samples[2]; ++mk) {
    for (int64_t mj = 0; mj < b.samples[1]; ++mj) {
      const double* row = box_row(
          values, box,
          {box.lo[0], box.extent(0), box.lo[1] + mj * stride,
           box.lo[2] + mk * stride});
      for (int64_t mi = 0; mi < b.samples[0]; ++mi) {
        b.values.push_back(row[mi * stride]);
      }
    }
  }
  return b;
}

double downsample_ratio(const DownsampledBlock& block) {
  const double original = static_cast<double>(block.bounds.num_cells());
  const double retained = static_cast<double>(block.values.size());
  return retained == 0.0 ? 0.0 : original / retained;
}

}  // namespace hia
