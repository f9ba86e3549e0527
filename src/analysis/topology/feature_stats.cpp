#include "analysis/topology/feature_stats.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "analysis/topology/local_tree.hpp"  // grid_vertex_id
#include "analysis/topology/merge_tree.hpp"  // above()
#include "analysis/topology/segmentation.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"

namespace hia {

namespace {

/// Accumulates one voxel into a feature record.
void accumulate(GlobalFeature& f, const GlobalGrid& grid, int64_t i,
                int64_t j, int64_t k, double field_value,
                double measure_value) {
  const uint64_t gid = grid_vertex_id(grid, i, j, k);
  if (f.voxels == 0 || above(field_value, gid, f.max_value, f.id)) {
    f.max_value = field_value;
    f.id = gid;
  }
  ++f.voxels;
  f.centroid[0] += static_cast<double>(i);
  f.centroid[1] += static_cast<double>(j);
  f.centroid[2] += static_cast<double>(k);
  f.measure.update(measure_value);
}

/// The rank path's accumulation: one record per labelled component of
/// `box`, centroids still summed. `field` is packed over `box`, `measure`
/// over `measure_box` (which contains `box`).
std::vector<GlobalFeature> accumulate_components(
    const GlobalGrid& grid, const Box3& box, const Segmentation& seg,
    std::span<const double> field, std::span<const double> measure,
    const Box3& measure_box) {
  std::vector<GlobalFeature> comps(seg.features.size());
  size_t off = 0;
  for_each_row(box, [&](const BoxRow& r) {
    const double* measure_row = box_row(measure, measure_box, r);
    for (int64_t x = 0; x < r.n; ++x, ++off) {
      if (seg.labels[off] < 0) continue;
      GlobalFeature& f = comps[static_cast<size_t>(seg.labels[off])];
      const int64_t i = r.i0 + x;
      const uint64_t gid = grid_vertex_id(grid, i, r.j, r.k);
      if (f.voxels == 0 || above(field[off], gid, f.max_value, f.id)) {
        f.max_value = field[off];
        f.id = gid;
      }
      ++f.voxels;
      f.centroid[0] += static_cast<double>(i);
      f.centroid[1] += static_cast<double>(r.j);
      f.centroid[2] += static_cast<double>(r.k);
      f.measure.update(measure_row[x]);
    }
  });
  return comps;
}

void sort_features(std::vector<GlobalFeature>& features) {
  std::sort(features.begin(), features.end(),
            [](const GlobalFeature& a, const GlobalFeature& b) {
              if (a.voxels != b.voxels) return a.voxels > b.voxels;
              return a.id < b.id;
            });
}

}  // namespace

std::vector<GlobalFeature> feature_statistics(
    const GlobalGrid& grid, const Box3& box, std::span<const double> field,
    std::span<const double> measure, double threshold) {
  HIA_REQUIRE(field.size() == measure.size(),
              "field and measure must be co-located");
  const Segmentation seg = segment_superlevel(box, field, threshold);

  // The serial reference keeps its own per-voxel accumulation, apart from
  // the rank path's accumulate_components, so that comparing the two
  // checks both.
  std::vector<GlobalFeature> features(seg.features.size());
  size_t off = 0;
  for_each_row(box, [&](const BoxRow& r) {
    for (int64_t i = r.i0; i < r.i0 + r.n; ++i, ++off) {
      const int32_t label = seg.labels[off];
      if (label < 0) continue;
      accumulate(features[static_cast<size_t>(label)], grid, i, r.j, r.k,
                 field[off], measure[off]);
    }
  });
  for (GlobalFeature& f : features) {
    for (double& c : f.centroid) c /= static_cast<double>(f.voxels);
  }
  sort_features(features);
  return features;
}

// ------------------------------------------------------ LocalFeatureData --

std::vector<double> LocalFeatureData::serialize() const {
  const size_t n = num_components();
  std::vector<double> out;
  out.reserve(3 + n * (6 + MomentAccumulator::kPackedSize) +
              boundary_gid.size() * 2 + link_comp.size() * 2);
  out.push_back(static_cast<double>(n));
  out.push_back(static_cast<double>(boundary_gid.size()));
  out.push_back(static_cast<double>(link_comp.size()));
  for (size_t c = 0; c < n; ++c) {
    out.push_back(static_cast<double>(comp_max_id[c]));
    out.push_back(comp_max_value[c]);
    out.push_back(static_cast<double>(comp_voxels[c]));
    for (int a = 0; a < 3; ++a) out.push_back(comp_centroid_sum[c * 3 + static_cast<size_t>(a)]);
    for (int m = 0; m < MomentAccumulator::kPackedSize; ++m) {
      out.push_back(
          comp_moments[c * MomentAccumulator::kPackedSize + static_cast<size_t>(m)]);
    }
  }
  for (size_t b = 0; b < boundary_gid.size(); ++b) {
    out.push_back(static_cast<double>(boundary_gid[b]));
    out.push_back(static_cast<double>(boundary_comp[b]));
  }
  for (size_t l = 0; l < link_comp.size(); ++l) {
    out.push_back(static_cast<double>(link_comp[l]));
    out.push_back(static_cast<double>(link_gid[l]));
  }
  return out;
}

LocalFeatureData LocalFeatureData::deserialize(std::span<const double> data) {
  HIA_REQUIRE(data.size() >= 3, "feature payload too short");
  LocalFeatureData d;
  const auto n = round_to<size_t>(data[0]);
  const auto nb = round_to<size_t>(data[1]);
  const auto nl = round_to<size_t>(data[2]);
  const size_t per_comp = 6 + MomentAccumulator::kPackedSize;
  HIA_REQUIRE(data.size() == 3 + n * per_comp + nb * 2 + nl * 2,
              "feature payload size mismatch");
  size_t off = 3;
  for (size_t c = 0; c < n; ++c) {
    d.comp_max_id.push_back(round_to<uint64_t>(data[off++]));
    d.comp_max_value.push_back(data[off++]);
    d.comp_voxels.push_back(round_to<int64_t>(data[off++]));
    for (int a = 0; a < 3; ++a) d.comp_centroid_sum.push_back(data[off++]);
    for (int m = 0; m < MomentAccumulator::kPackedSize; ++m) {
      d.comp_moments.push_back(data[off++]);
    }
  }
  for (size_t b = 0; b < nb; ++b) {
    d.boundary_gid.push_back(round_to<uint64_t>(data[off++]));
    d.boundary_comp.push_back(round_to<uint32_t>(data[off++]));
  }
  for (size_t l = 0; l < nl; ++l) {
    d.link_comp.push_back(round_to<uint32_t>(data[off++]));
    d.link_gid.push_back(round_to<uint64_t>(data[off++]));
  }
  return d;
}

LocalFeatureData compute_local_features(const GlobalGrid& grid,
                                        const Box3& block,
                                        const Box3& extended,
                                        std::span<const double> field,
                                        std::span<const double> measure,
                                        double threshold) {
  HIA_REQUIRE(field.size() == static_cast<size_t>(extended.num_cells()) &&
                  measure.size() == field.size(),
              "value buffers must cover the extended box");
  HIA_REQUIRE(extended.contains(block), "extended box must contain block");

  // Label the components of the *owned* block only.
  std::vector<double> block_field;
  block_field.reserve(static_cast<size_t>(block.num_cells()));
  for_each_row(block, [&](const BoxRow& r) {
    const double* src = box_row(field, extended, r);
    block_field.insert(block_field.end(), src, src + r.n);
  });
  const Segmentation seg =
      segment_superlevel(block, block_field, threshold);

  const std::vector<GlobalFeature> comps = accumulate_components(
      grid, block, seg, block_field, measure, extended);
  LocalFeatureData out;
  constexpr size_t kM = MomentAccumulator::kPackedSize;
  out.comp_moments.resize(comps.size() * kM);
  for (size_t c = 0; c < comps.size(); ++c) {
    out.comp_max_id.push_back(comps[c].id);
    out.comp_max_value.push_back(comps[c].max_value);
    out.comp_voxels.push_back(comps[c].voxels);
    out.comp_centroid_sum.insert(out.comp_centroid_sum.end(),
                                 comps[c].centroid, comps[c].centroid + 3);
    comps[c].measure.pack(&out.comp_moments[c * kM]);
  }

  const Box3 domain = grid.bounds();

  // Boundary exports on faces adjacent to a lower-coordinate neighbor.
  for (int axis = 0; axis < 3; ++axis) {
    if (block.lo[axis] == domain.lo[axis]) continue;
    Box3 face = block;
    face.hi[axis] = face.lo[axis] + 1;
    for_each_row(face, [&](const BoxRow& r) {
      const int32_t* labels = box_row(seg.labels, block, r);
      for (int64_t x = 0; x < r.n; ++x) {
        if (labels[x] < 0) continue;
        out.boundary_gid.push_back(grid_vertex_id(grid, r.i0 + x, r.j, r.k));
        out.boundary_comp.push_back(static_cast<uint32_t>(labels[x]));
      }
    });
  }

  // Links across +direction faces (each inter-rank face handled once, by
  // the lower-coordinate rank).
  for (int axis = 0; axis < 3; ++axis) {
    if (block.hi[axis] == domain.hi[axis]) continue;
    Box3 face = block;
    face.lo[axis] = face.hi[axis] - 1;
    for_each_row(face, [&](const BoxRow& r) {
      BoxRow next = r;  // the neighbouring row across the face
      (axis == 0 ? next.i0 : axis == 1 ? next.j : next.k) += 1;
      const int32_t* labels = box_row(seg.labels, block, r);
      const double* next_field = box_row(field, extended, next);
      for (int64_t x = 0; x < r.n; ++x) {
        if (labels[x] < 0) continue;
        if (next_field[x] < threshold) continue;
        out.link_comp.push_back(static_cast<uint32_t>(labels[x]));
        out.link_gid.push_back(
            grid_vertex_id(grid, next.i0 + x, next.j, next.k));
      }
    });
  }
  return out;
}

std::vector<GlobalFeature> combine_features(
    const std::vector<LocalFeatureData>& parts) {
  // Union-find over (part, component) pairs encoded as part * 2^32 + comp.
  auto key = [](size_t part, uint32_t comp) {
    return (static_cast<uint64_t>(part) << 32) | comp;
  };
  std::unordered_map<uint64_t, uint64_t> parent;
  std::function<uint64_t(uint64_t)> find = [&](uint64_t x) {
    auto it = parent.find(x);
    HIA_ASSERT(it != parent.end());
    if (it->second == x) return x;
    const uint64_t root = find(it->second);
    it->second = root;
    return root;
  };

  // Boundary voxel gid -> owning (part, comp).
  std::unordered_map<uint64_t, uint64_t> owner_of_gid;
  for (size_t p = 0; p < parts.size(); ++p) {
    for (size_t c = 0; c < parts[p].num_components(); ++c) {
      parent[key(p, static_cast<uint32_t>(c))] =
          key(p, static_cast<uint32_t>(c));
    }
    for (size_t b = 0; b < parts[p].boundary_gid.size(); ++b) {
      owner_of_gid[parts[p].boundary_gid[b]] =
          key(p, parts[p].boundary_comp[b]);
    }
  }

  for (size_t p = 0; p < parts.size(); ++p) {
    for (size_t l = 0; l < parts[p].link_comp.size(); ++l) {
      const auto it = owner_of_gid.find(parts[p].link_gid[l]);
      HIA_REQUIRE(it != owner_of_gid.end(),
                  "link target voxel missing from boundary exports");
      const uint64_t a = find(key(p, parts[p].link_comp[l]));
      const uint64_t b = find(it->second);
      if (a != b) parent[a] = b;
    }
  }

  // Aggregate per root.
  std::unordered_map<uint64_t, GlobalFeature> merged;
  for (size_t p = 0; p < parts.size(); ++p) {
    const LocalFeatureData& part = parts[p];
    for (size_t c = 0; c < part.num_components(); ++c) {
      const uint64_t root = find(key(p, static_cast<uint32_t>(c)));
      GlobalFeature& f = merged[root];
      if (f.voxels == 0 ||
          above(part.comp_max_value[c], part.comp_max_id[c], f.max_value,
                f.id)) {
        f.max_value = part.comp_max_value[c];
        f.id = part.comp_max_id[c];
      }
      f.voxels += part.comp_voxels[c];
      for (int a = 0; a < 3; ++a) {
        f.centroid[a] += part.comp_centroid_sum[c * 3 + static_cast<size_t>(a)];
      }
      f.measure.combine(MomentAccumulator::unpack(
          &part.comp_moments[c * MomentAccumulator::kPackedSize]));
    }
  }

  std::vector<GlobalFeature> out;
  out.reserve(merged.size());
  for (auto& [root, f] : merged) {
    for (double& c : f.centroid) c /= static_cast<double>(f.voxels);
    out.push_back(std::move(f));
  }
  sort_features(out);
  return out;
}

}  // namespace hia
