// Seeded inputs: every workload derives its simulation parameters and its
// staged blocks from the --seed value alone, so the program only ever sees
// generated data and the same seed reproduces the same inputs.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/box.hpp"
#include "sim/s3d.hpp"

namespace perfbench {

/// MiniS3D parameters for `grid` split over `ranks`; the turbulence and
/// chemistry seeds come from `seed`. The physical extent keeps cells cubic,
/// as hia_campaign does.
hia::S3DParams sim_params(const std::array<int64_t, 3>& grid,
                          const std::array<int, 3>& ranks, uint64_t seed);

/// The 14 solution variables of a single-rank MiniS3D run after `steps`
/// solver steps (owned cells, x-fastest), one vector per variable.
std::vector<std::vector<double>> generate_fields(
    const std::array<int64_t, 3>& grid, uint64_t seed, int steps);

/// A block cut from a generated field, with its checksum.
struct Block {
  hia::Box3 box;
  std::vector<double> values;
  uint32_t crc = 0;  // CRC-32 of the values' bytes
};

/// Cuts every field into edge^3 blocks (grid dims must be multiples of
/// `edge`), variable-major.
std::vector<Block> cut_blocks(const std::vector<std::vector<double>>& fields,
                              const std::array<int64_t, 3>& grid, int edge);

/// Wraps whole fields as blocks spanning the grid.
std::vector<Block> whole_field_blocks(
    std::vector<std::vector<double>> fields,
    const std::array<int64_t, 3>& grid);

}  // namespace perfbench
