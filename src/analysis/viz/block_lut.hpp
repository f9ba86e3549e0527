// The in-transit half of the hybrid visualization pipeline.
//
// "A single, serial in-transit node receives all blocks of down-sampled
// data and generates a look-up table that records the upper and lower
// bounds of each block to encode their spatial relationship. We use this
// small look-up table to identify voxel positions during the ray casting
// process, avoiding expensive visibility sorting or volume reconstruction
// steps." (paper §III, Visualization)
//
// BlockLut implements VolumeSampler: each sample locates the containing
// block through the bounds table (with a last-block cache, since ray
// marching has strong spatial coherence) and interpolates trilinearly on
// that block's coarse lattice.
#pragma once

#include <vector>

#include "analysis/viz/downsample.hpp"
#include "analysis/viz/raycast.hpp"
#include "sim/grid.hpp"

namespace hia {

class BlockLut final : public VolumeSampler {
 public:
  explicit BlockLut(const GlobalGrid& grid) : grid_(grid) {}

  /// Registers a down-sampled block (takes ownership).
  void add_block(DownsampledBlock block);

  [[nodiscard]] size_t num_blocks() const { return blocks_.size(); }
  [[nodiscard]] size_t total_samples() const;

  bool sample(const Vec3& pos, double& value) const override;

 private:
  [[nodiscard]] const DownsampledBlock* locate(const double idx[3]) const;

  const GlobalGrid& grid_;
  std::vector<DownsampledBlock> blocks_;
  mutable const DownsampledBlock* cache_ = nullptr;
};

}  // namespace hia
