// The layer pass: each layer's public functions timed on a workload's grid,
// decomposition, blocks and seed, for layers the workload's own run does
// not measure from outside.
#include <algorithm>
#include <cmath>
#include <memory>

#include "analysis/stats/moments.hpp"
#include "analysis/topology/local_tree.hpp"
#include "analysis/topology/stream_combine.hpp"
#include "analysis/viz/block_lut.hpp"
#include "analysis/viz/downsample.hpp"
#include "analysis/viz/raycast.hpp"
#include "compress/codec.hpp"
#include "core/viz_pipeline.hpp"
#include "inputs.hpp"
#include "obs/events.hpp"
#include "runtime/comm.hpp"
#include "sim/halo.hpp"
#include "sim/turbulence.hpp"
#include "transport/dart.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Minimum wall seconds a repeated kernel is timed for.
constexpr double kMinKernelS = 0.2;
constexpr int kAllreduces = 2000;
constexpr int kHaloReps = 5;
constexpr int kBurstTasks = 20000;
constexpr int kBurstReps = 3;
constexpr double kProbeS = 0.5;
constexpr long kMiniCampaignSteps = 3;

/// Runs `fn` until kMinKernelS has passed (at least twice); returns the
/// median seconds per call.
template <typename Fn>
double time_kernel(Fn&& fn) {
  std::vector<double> samples;
  const double start = now_s();
  while (samples.size() < 2 || now_s() - start < kMinKernelS) {
    const double t0 = now_s();
    fn();
    samples.push_back(now_s() - t0);
  }
  return median(samples);
}

volatile double g_sink = 0.0;  // keeps timed results observable

struct SimLayers {
  double rate_1rank = 0.0;  // cells/s of a single-rank advance
  double rate_2rank = 0.0;
  double step_s = 0.0;      // max over ranks per 2-rank step (median)
  double halo_s = 0.0;
  double allreduce_us = 0.0;
  double subtree_cells_per_s = 0.0;
  double combine_s = 0.0;
  double render_rays_per_s = 0.0;
  double turbulence_points_per_s = 0.0;
  double moments_values_per_s = 0.0;
  std::vector<std::vector<double>> fields;  // single-rank state
};

SimLayers sim_layers(const Shape& shape) {
  SimLayers out;
  const hia::S3DParams p1 = sim_params(shape.grid, {1, 1, 1}, shape.seed);
  const hia::GlobalGrid& grid = p1.grid;
  const auto cells = static_cast<double>(grid.num_points());

  // Single rank: the plain baseline, the turbulence and moment kernels.
  double advance_1 = 0.0;
  {
    hia::World world(1);
    world.run([&](hia::Comm& comm) {
      hia::S3DRank sim(p1, 0);
      sim.initialize();
      sim.advance(comm);  // warm-up
      advance_1 = time_kernel([&] { sim.advance(comm); });
      for (int v = 0; v < hia::kNumVariables; ++v) {
        out.fields.push_back(
            sim.field(static_cast<hia::Variable>(v)).pack_owned());
      }
    });
  }
  out.rate_1rank = cells / advance_1;

  const hia::SyntheticTurbulence turbulence(p1.turbulence);
  const double turb_s = time_kernel([&] {
    double acc = 0.0;
    for (int64_t k = 0; k < grid.dims[2]; ++k)
      for (int64_t j = 0; j < grid.dims[1]; ++j)
        for (int64_t i = 0; i < grid.dims[0]; ++i) {
          const hia::Vec3 v = turbulence.velocity(
              {grid.coord(0, i), grid.coord(1, j), grid.coord(2, k)}, 0.1);
          acc += v.x;
        }
    g_sink = acc;
  });
  out.turbulence_points_per_s = cells / turb_s;

  const double moments_s = time_kernel([&] {
    double acc = 0.0;
    for (const std::vector<double>& field : out.fields) {
      hia::MomentAccumulator m;
      for (const double x : field) m.update(x);
      acc += m.mean();
    }
    g_sink = acc;
  });
  out.moments_values_per_s =
      cells * static_cast<double>(out.fields.size()) / moments_s;

  // The workload's decomposition: advance, halos, collectives, and the
  // in-situ topology and viz stages on each rank's block.
  const hia::S3DParams p2 = sim_params(shape.grid, shape.ranks, shape.seed);
  const int nranks = shape.ranks[0] * shape.ranks[1] * shape.ranks[2];
  const int reps = std::clamp(
      static_cast<int>(std::ceil(kMinKernelS * nranks / advance_1)), 2, 50);
  std::vector<hia::SubtreeData> subtrees(static_cast<size_t>(nranks));
  std::vector<hia::DownsampledBlock> downsampled(static_cast<size_t>(nranks));
  std::vector<double> step_s;
  double advance_wall = 0.0, halo = 0.0, allreduce = 0.0, subtree_s = 0.0;
  int64_t subtree_cells = 0;
  hia::World world(nranks);
  world.run([&](hia::Comm& comm) {
    const int r = comm.rank();
    hia::S3DRank sim(p2, r);
    sim.initialize();
    sim.advance(comm);  // warm-up
    comm.barrier();
    const double t0 = now_s();
    for (int s = 0; s < reps; ++s) {
      sim.advance(comm);
      const double slowest = comm.allreduce_max(sim.last_step_seconds());
      if (r == 0) step_s.push_back(slowest);
    }
    comm.barrier();
    if (r == 0) advance_wall = now_s() - t0;

    std::vector<hia::Field*> fields;
    for (int v = 0; v < hia::kNumVariables; ++v) {
      fields.push_back(&sim.field(static_cast<hia::Variable>(v)));
    }
    std::vector<double> halo_samples;
    for (int h = 0; h < kHaloReps; ++h) {
      comm.barrier();
      const double h0 = now_s();
      hia::exchange_halos(comm, sim.decomp(), fields, 1);
      halo_samples.push_back(now_s() - h0);
    }
    if (r == 0) halo = median(halo_samples);

    comm.barrier();
    const double a0 = now_s();
    double acc = 0.0;
    for (int i = 0; i < kAllreduces; ++i) acc += comm.allreduce_max(acc + i);
    if (r == 0) allreduce = (now_s() - a0) / kAllreduces;
    g_sink = acc;

    const hia::Field& temperature = sim.field(hia::Variable::kTemperature);
    const hia::Box3 block = temperature.owned();
    const hia::Box3 ext = hia::extended_block(p2.grid, block);
    const std::vector<double> values = temperature.pack(ext);
    const double s0 = now_s();
    subtrees[static_cast<size_t>(r)] =
        hia::compute_rank_subtree(p2.grid, block, values, ext);
    if (r == 0) {
      subtree_s = now_s() - s0;
      subtree_cells = block.num_cells();
    }
    downsampled[static_cast<size_t>(r)] =
        hia::downsample_block(block, temperature.pack_owned(), 4);
  });
  out.rate_2rank = cells * reps / advance_wall;
  out.step_s = median(step_s);
  out.halo_s = halo;
  out.allreduce_us = allreduce * 1e6;
  out.subtree_cells_per_s = static_cast<double>(subtree_cells) / subtree_s;

  out.combine_s = time_kernel([&] {
    hia::StreamingCombiner combiner;
    for (const hia::SubtreeData& st : subtrees) {
      combiner.insert_subtree_streaming(st);
    }
    g_sink = static_cast<double>(combiner.finish().size());
  });

  hia::VizConfig viz_cfg;
  viz_cfg.image_size = 128;
  viz_cfg.downsample_stride = 4;
  const hia::RenderSetup setup = hia::RenderSetup::make(p2.grid, viz_cfg);
  hia::BlockLut lut(p2.grid);
  for (hia::DownsampledBlock& b : downsampled) lut.add_block(std::move(b));
  const double render_s = time_kernel([&] {
    hia::Image image(viz_cfg.image_size, viz_cfg.image_size);
    hia::render_volume(setup.camera, lut,
                       hia::physical_bounds(p2.grid, p2.grid.bounds()),
                       setup.tf, setup.params, image);
    g_sink = image.pixels()[0].a;
  });
  out.render_rays_per_s =
      static_cast<double>(viz_cfg.image_size * viz_cfg.image_size) / render_s;
  return out;
}

void codec_layers(const std::vector<std::vector<double>>& blocks,
                  Sheet& layers) {
  const auto codec = hia::make_codec("quantize:1e-6");
  double raw = 0.0, wire = 0.0, max_err = 0.0;
  std::vector<std::vector<std::byte>> frames;
  for (const std::vector<double>& b : blocks) {
    raw += static_cast<double>(b.size() * sizeof(double));
  }
  const double encode_s = time_kernel([&] {
    frames.clear();
    for (const std::vector<double>& b : blocks) {
      frames.push_back(codec->encode(b));
    }
  });
  for (const auto& f : frames) wire += static_cast<double>(f.size());
  const double decode_s = time_kernel([&] {
    for (size_t i = 0; i < frames.size(); ++i) {
      const std::vector<double> back = hia::decode_frame(frames[i]);
      g_sink = back.empty() ? 0.0 : back[0];
    }
  });
  for (size_t i = 0; i < frames.size(); ++i) {
    const std::vector<double> back = hia::decode_frame(frames[i]);
    for (size_t k = 0; k < back.size() && k < blocks[i].size(); ++k) {
      max_err = std::max(max_err, std::fabs(back[k] - blocks[i][k]));
    }
  }
  put_default(layers, "compress.encode_mb_per_s", raw / 1e6 / encode_s,
              "MB/s");
  put_default(layers, "compress.decode_mb_per_s", raw / 1e6 / decode_s,
              "MB/s");
  put_default(layers, "compress.ratio", raw / wire, "ratio");
  put_default(layers, "compress.max_abs_err", max_err, "abs");
}

void transport_layers(const std::vector<std::vector<double>>& blocks,
                      Sheet& layers) {
  hia::NetworkModel net;
  hia::Dart dart(net);
  const int owner = dart.register_node("owner");
  const int puller = dart.register_node("puller");
  double bytes = 0.0;
  for (const std::vector<double>& b : blocks) {
    bytes += static_cast<double>(b.size() * sizeof(double));
  }
  std::vector<hia::DartHandle> handles;
  const double put_s = time_kernel([&] {
    for (const hia::DartHandle& h : handles) dart.release(h);
    handles.clear();
    for (const std::vector<double>& b : blocks) {
      handles.push_back(dart.put_doubles(owner, b));
    }
  });
  std::vector<double> pull_us;
  double pull_total = 0.0;
  for (const hia::DartHandle& h : handles) {
    const double t0 = now_s();
    const std::vector<std::byte> data = dart.get(puller, h);
    const double dt = now_s() - t0;
    pull_us.push_back(dt * 1e6);
    pull_total += dt;
    g_sink = static_cast<double>(data.size());
  }
  for (const hia::DartHandle& h : handles) dart.release(h);
  put_default(layers, "transport.put_mb_per_s", bytes / 1e6 / put_s, "MB/s");
  put_default(layers, "transport.pull_us_p50", median(pull_us), "us");
  put_default(layers, "transport.pull_mb_per_s", bytes / 1e6 / pull_total,
              "MB/s");
}

/// Flight-recorder cost per task: zero-work bursts with events on and off,
/// alternated, medians compared.
double recorder_ns_per_task() {
  std::vector<double> on, off;
  for (int rep = 0; rep < kBurstReps; ++rep) {
    hia::obs::enable_events();
    on.push_back(zero_work_burst(kBurstTasks));
    hia::obs::disable_events();
    off.push_back(zero_work_burst(kBurstTasks));
  }
  hia::obs::enable_events();  // the program's default
  return (median(on) - median(off)) / kBurstTasks * 1e9;
}

}  // namespace

void layer_pass(const Shape& shape, bool with_campaign, Result& result) {
  Sheet& layers = result.layers;
  const SimLayers sim = sim_layers(shape);
  put_default(layers, "sim.step_s", sim.step_s, "s");
  put_default(layers, "sim.turbulence_mpoints_per_s",
              sim.turbulence_points_per_s / 1e6, "Mpoints/s");
  put_default(layers, "sim.advance_mcells_per_s", sim.rate_1rank / 1e6,
              "Mcells/s");
  const int nranks = shape.ranks[0] * shape.ranks[1] * shape.ranks[2];
  put_default(layers, "sim.scaling_eff",
              sim.rate_2rank / (nranks * sim.rate_1rank), "ratio");
  put_default(layers, "sim.halo_s", sim.halo_s, "s");
  put_default(layers, "runtime.allreduce_us", sim.allreduce_us, "us");
  put_default(layers, "analysis.topology.subtree_mcells_per_s",
              sim.subtree_cells_per_s / 1e6, "Mcells/s");
  put_default(layers, "analysis.topology.combine_s", sim.combine_s, "s");
  put_default(layers, "analysis.stats.moments_mvalues_per_s",
              sim.moments_values_per_s / 1e6, "Mvalues/s");
  put_default(layers, "analysis.viz.render_mrays_per_s",
              sim.render_rays_per_s / 1e6, "Mrays/s");

  const std::vector<std::vector<double>>& blocks =
      shape.blocks.empty() ? sim.fields : shape.blocks;
  codec_layers(blocks, layers);
  transport_layers(blocks, layers);

  put_default(layers, "obs.recorder_ns_per_task", recorder_ns_per_task(),
              "ns");
  open_loop_probe(kProbeS, result);
  if (with_campaign) {
    campaign_layer_metrics(shape.grid, shape.seed, kMiniCampaignSteps, result);
  }
}

}  // namespace perfbench
