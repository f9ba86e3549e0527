// Ignition-kernel tracking: the paper's Fig. 1 / §V science case.
//
// "Ignition kernels form intermittently at the base of a lifted flame and
// are advected into the oncoming turbulent flow field … Deeper insight into
// the flame stabilization mechanism requires tracking the inception,
// advection, and dissipation of the ignition kernels … at a much higher
// temporal frequency than was hitherto done."
//
// This example runs the hybrid topology pipeline every step: merge subtrees
// in-situ, global tree in-transit, persistence-filtered maxima as kernel
// candidates — then tracks superlevel-set features across steps and prints
// each kernel's life story (born / advected / merged / dissipated).
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "analysis/topology/segmentation.hpp"
#include "core/framework.hpp"
#include "core/topology_pipeline.hpp"
#include "service/campaign_service.hpp"

int main() {
  using namespace hia;

  RunConfig config;
  config.sim.grid = GlobalGrid{{48, 32, 32}, {1.0, 0.7, 0.7}};
  config.sim.ranks_per_axis = {2, 2, 1};
  config.sim.dt = 4.0e-3;
  config.sim.diffusivity = 6.0e-3;
  config.sim.jet_velocity = 2.5;
  config.sim.chemistry.kernel_rate = 1.5;
  config.steps = 16;
  const double threshold = 2.8;

  // Hybrid topology every step: the merge tree of the temperature field,
  // run as the only tenant of a default staging service.
  TopologyConfig topo;
  topo.variable = Variable::kTemperature;
  topo.simplify_threshold = 0.3;  // ignore low-persistence noise
  auto analysis = std::make_shared<HybridTopology>(topo);
  CampaignService service(CampaignService::Options{});
  CampaignService::TenantSpec campaign;
  campaign.name = "ignition";
  campaign.config = config;
  campaign.setup = [&analysis](HybridRunner& runner) {
    runner.add_analysis(analysis, /*frequency=*/1);
  };
  service.add_tenant(std::move(campaign));
  const RunReport report = service.run().tenants.at(0).report;

  const TreeSummary summary = analysis->latest_summary();
  std::printf("hybrid topology at step %ld: %zu critical nodes, %zu maxima "
              "after persistence simplification\n",
              summary.step, summary.tree_nodes, summary.tree_leaves);
  std::printf("streaming combiner: peak %zu live vertices, %zu evicted to "
              "the output sink\n\n",
              summary.peak_live_nodes, summary.evicted);

  std::printf("top persistence pairs (kernel candidates):\n");
  for (size_t i = 0; i < std::min<size_t>(summary.top_pairs.size(), 6); ++i) {
    const auto& p = summary.top_pairs[i];
    std::printf("  max T=%.3f at vertex %llu, merges at %.3f "
                "(persistence %.3f)\n",
                p.max_value, static_cast<unsigned long long>(p.max_id),
                p.saddle_value, p.persistence());
  }

  // Re-run the same (deterministic) simulation single-rank to narrate the
  // kernels' temporal evolution via overlap tracking.
  S3DParams solo = config.sim;
  solo.ranks_per_axis = {1, 1, 1};
  std::vector<Segmentation> frames;
  {
    World world(1);
    world.run([&](Comm& comm) {
      S3DRank sim(solo, 0);
      sim.initialize();
      for (long s = 0; s < config.steps; ++s) {
        sim.advance(comm);
        frames.push_back(segment_superlevel(
            solo.grid.bounds(),
            sim.field(Variable::kTemperature).pack_owned(), threshold));
      }
    });
  }

  std::printf("\nkernel life stories (T >= %.1f, >= 4 voxels):\n", threshold);
  // Assign persistent track ids by following the largest overlap.
  std::map<int32_t, int> track_of_prev;
  int next_track = 0;
  for (size_t t = 0; t < frames.size(); ++t) {
    std::map<int32_t, int> track_of_cur;
    std::vector<int32_t> born;
    if (t > 0) {
      for (const auto& e : overlap_track(frames[t - 1], frames[t])) {
        if (track_of_cur.count(e.label_b) == 0 &&
            track_of_prev.count(e.label_a) > 0) {
          track_of_cur[e.label_b] = track_of_prev[e.label_a];
        }
      }
    }
    for (const auto& f : frames[t].features) {
      if (f.voxels < 4) continue;
      if (track_of_cur.count(f.label) == 0) {
        track_of_cur[f.label] = next_track++;
        born.push_back(f.label);
      }
    }
    std::printf("  step %2zu: %2zu kernels alive", t + 1,
                track_of_cur.size());
    for (const int32_t label : born) {
      const auto& f = frames[t].features[static_cast<size_t>(label)];
      std::printf("  [K%d born at (%.0f,%.0f,%.0f), %lld vox]",
                  track_of_cur[label], f.centroid[0], f.centroid[1],
                  f.centroid[2], static_cast<long long>(f.voxels));
    }
    // Deaths: tracks present before but not now (deduplicated — two labels
    // can map to one track when a feature splits).
    std::set<int> dead;
    for (const auto& [label, track] : track_of_prev) {
      bool survives = false;
      for (const auto& [l2, t2] : track_of_cur) {
        if (t2 == track) survives = true;
      }
      if (!survives) dead.insert(track);
    }
    for (const int track : dead) std::printf("  [K%d dissipated]", track);
    std::printf("\n");
    track_of_prev = std::move(track_of_cur);
  }

  std::printf("\n%d kernel tracks observed over %ld steps; per-step analysis "
              "cost on the simulation: %.4f s in-situ + %.4f s movement\n",
              next_track, config.steps,
              report.mean_in_situ_seconds("topo-hybrid"),
              report.mean_movement_seconds("topo-hybrid"));
  std::printf("with output every ~400th step (conventional post-processing) "
              "these short-lived kernels would never reach disk.\n");
  return 0;
}
