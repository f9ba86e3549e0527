// Quickstart: the smallest complete use of the hybrid in-situ/in-transit
// framework.
//
//   1. Configure the staging area (a CampaignService) and a MiniS3D run.
//   2. Register the run as the service's one tenant campaign and attach
//      one hybrid analysis (descriptive statistics: learn in-situ, derive
//      in-transit).
//   3. Run, then read the global statistical models and the timing report.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/framework.hpp"
#include "core/report.hpp"
#include "core/stats_pipeline.hpp"
#include "service/campaign_service.hpp"

int main() {
  using namespace hia;

  // 1. 2 DataSpaces servers and 4 staging buckets as the secondary
  //    resources, and a small lifted-jet simulation on 8 virtual ranks.
  CampaignService::Options staging;
  staging.staging_servers = 2;
  staging.staging_buckets = 4;
  CampaignService service(staging);

  CampaignService::TenantSpec campaign;
  campaign.name = "quickstart";
  campaign.config.sim.grid = GlobalGrid{{48, 32, 24}, {1.0, 0.75, 0.5}};
  campaign.config.sim.ranks_per_axis = {2, 2, 2};
  campaign.config.steps = 5;

  // 2. Hybrid descriptive statistics over all 14 solution variables.
  auto stats = std::make_shared<HybridStatistics>();
  campaign.setup = [&stats](HybridRunner& runner) {
    runner.add_analysis(stats, /*frequency=*/1);
  };
  service.add_tenant(std::move(campaign));

  // 3. Run the campaign: the simulation advances while completed per-rank
  //    models stream to the staging area and are combined there.
  const RunReport report = service.run().tenants.at(0).report;

  std::printf("ran %ld steps on %d simulation ranks\n", report.steps,
              report.sim_ranks);
  std::printf("mean simulation step: %.4f s; stats in-situ stage: %.4f s; "
              "intermediate data: %.0f bytes/step\n\n",
              report.mean_sim_step_seconds(),
              report.mean_in_situ_seconds("stats-hybrid"),
              report.mean_movement_bytes("stats-hybrid"));

  std::printf("global descriptive statistics (last analyzed step):\n");
  std::printf("%-8s %12s %12s %12s %12s\n", "var", "mean", "stddev", "min",
              "max");
  const auto models = stats->latest_models();
  for (size_t v = 0; v < models.size(); ++v) {
    std::printf("%-8s %12.5f %12.5f %12.5f %12.5f\n",
                std::string(kVariableNames[v]).c_str(), models[v].mean,
                models[v].stddev, models[v].min, models[v].max);
  }
  std::printf("\n%s\n", format_table2(report, {"stats-hybrid"}).c_str());
  return 0;
}
