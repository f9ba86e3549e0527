#include "inputs.hpp"

#include "harness.hpp"
#include "runtime/comm.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace perfbench {

hia::S3DParams sim_params(const std::array<int64_t, 3>& grid,
                          const std::array<int, 3>& ranks, uint64_t seed) {
  hia::S3DParams p;
  const double x = static_cast<double>(grid[0]);
  p.grid = hia::GlobalGrid{grid,
                           {1.0, static_cast<double>(grid[1]) / x,
                            static_cast<double>(grid[2]) / x}};
  p.ranks_per_axis = ranks;
  p.turbulence.seed = mix_seed(seed, 1);
  p.chemistry.seed = mix_seed(seed, 2);
  return p;
}

std::vector<std::vector<double>> generate_fields(
    const std::array<int64_t, 3>& grid, uint64_t seed, int steps) {
  std::vector<std::vector<double>> fields;
  hia::World world(1);
  world.run([&](hia::Comm& comm) {
    hia::S3DRank sim(sim_params(grid, {1, 1, 1}, seed), 0);
    sim.initialize();
    for (int s = 0; s < steps; ++s) sim.advance(comm);
    for (int v = 0; v < hia::kNumVariables; ++v) {
      fields.push_back(sim.field(static_cast<hia::Variable>(v)).pack_owned());
    }
  });
  return fields;
}

namespace {
uint32_t checksum(const std::vector<double>& values) {
  return hia::crc32(values.data(), values.size() * sizeof(double));
}
}  // namespace

std::vector<Block> cut_blocks(const std::vector<std::vector<double>>& fields,
                              const std::array<int64_t, 3>& grid, int edge) {
  for (int a = 0; a < 3; ++a) {
    HIA_REQUIRE(grid[a] % edge == 0, "grid is not a multiple of the block edge");
  }
  std::vector<Block> blocks;
  for (const std::vector<double>& field : fields) {
    for (int64_t bk = 0; bk < grid[2]; bk += edge)
      for (int64_t bj = 0; bj < grid[1]; bj += edge)
        for (int64_t bi = 0; bi < grid[0]; bi += edge) {
          Block b;
          b.box = hia::Box3{{bi, bj, bk}, {bi + edge, bj + edge, bk + edge}};
          b.values.reserve(static_cast<size_t>(edge) * edge * edge);
          for (int64_t k = bk; k < bk + edge; ++k)
            for (int64_t j = bj; j < bj + edge; ++j)
              for (int64_t i = bi; i < bi + edge; ++i)
                b.values.push_back(
                    field[static_cast<size_t>((k * grid[1] + j) * grid[0] + i)]);
          b.crc = checksum(b.values);
          blocks.push_back(std::move(b));
        }
  }
  return blocks;
}

std::vector<Block> whole_field_blocks(std::vector<std::vector<double>> fields,
                                      const std::array<int64_t, 3>& grid) {
  std::vector<Block> blocks;
  for (std::vector<double>& field : fields) {
    Block b;
    b.box = hia::Box3{{0, 0, 0}, grid};
    b.values = std::move(field);
    b.crc = checksum(b.values);
    blocks.push_back(std::move(b));
  }
  return blocks;
}

}  // namespace perfbench
