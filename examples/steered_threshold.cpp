// Closed-loop steering: the in-transit histogram stage adapts the feature
// threshold that the in-situ feature-statistics stage uses on subsequent
// steps — computational steering, one of the concurrent-analysis
// advantages the paper names in §V.
//
// Loop:
//   1. HybridHistogram builds the global temperature histogram in-transit;
//   2. a steering hook picks the 98th percentile and posts it as
//      "feature.threshold";
//   3. HybridFeatureStatistics (threshold_steering_key set) reads the
//      posted value at its next invocation, so "a feature" always means
//      "the hottest ~2% of the domain", however the flame evolves.
#include <cstdio>

#include "core/feature_stats_pipeline.hpp"
#include "core/framework.hpp"
#include "core/histogram_pipeline.hpp"
#include "service/campaign_service.hpp"

namespace hia {
namespace {

/// Wraps HybridHistogram to post a quantile to the steering board after
/// each in-transit combination.
class QuantileSteering final : public HybridAnalysis {
 public:
  QuantileSteering(HistogramConfig config, SteeringBoard& board, double q,
                   std::string key)
      : inner_(std::make_shared<HybridHistogram>(config)),
        board_(board),
        q_(q),
        key_(std::move(key)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<std::string> staged_variables() const override {
    return inner_->staged_variables();
  }
  void in_situ(InSituContext& ctx) override { inner_->in_situ(ctx); }
  void in_transit(TaskContext& ctx) override {
    inner_->in_transit(ctx);
    if (const auto hist = inner_->latest(); hist.has_value()) {
      board_.post(key_, hist->quantile(q_));
    }
  }

 private:
  std::shared_ptr<HybridHistogram> inner_;
  SteeringBoard& board_;
  double q_;
  std::string key_;
};

}  // namespace
}  // namespace hia

int main() {
  using namespace hia;

  RunConfig config;
  config.sim.grid = GlobalGrid{{48, 32, 32}, {1.0, 0.7, 0.7}};
  config.sim.ranks_per_axis = {2, 2, 1};
  config.sim.chemistry.kernel_rate = 2.0;
  config.steps = 10;

  // The run is the only tenant of a default staging service (2 servers,
  // 4 buckets); its runner carries the steering board the loop posts to.
  CampaignService service(CampaignService::Options{});
  CampaignService::TenantSpec campaign;
  campaign.name = "steered";
  campaign.config = config;
  HybridRunner& runner =
      service.runner(service.add_tenant(std::move(campaign)));

  HistogramConfig hist;
  hist.variable = Variable::kTemperature;
  hist.bins = 96;
  runner.add_analysis(std::make_shared<QuantileSteering>(
      hist, runner.steering(), 0.98, "feature.threshold"));

  FeatureStatsConfig fstats;
  fstats.field = Variable::kTemperature;
  fstats.measure = Variable::kYOH;
  fstats.threshold = 2.0;  // fallback until the first post arrives
  fstats.threshold_steering_key = "feature.threshold";
  auto features = std::make_shared<HybridFeatureStatistics>(fstats);
  runner.add_analysis(features);

  const RunReport report = service.run().tenants.at(0).report;

  std::printf("steered feature extraction over %ld steps\n", report.steps);
  std::printf("final adaptive threshold (98th percentile of T): %.4f\n",
              runner.steering().read_or("feature.threshold", -1.0));
  std::printf("steering board version (posts observed): %llu\n\n",
              static_cast<unsigned long long>(runner.steering().version()));

  const auto table = features->latest_features();
  std::printf("features at the final step (threshold adapted live):\n");
  std::printf("%-6s %-8s %-10s %-24s %-12s\n", "rank", "voxels", "max T",
              "centroid (i,j,k)", "mean Y_OH");
  for (size_t f = 0; f < std::min<size_t>(table.size(), 8); ++f) {
    const auto& feat = table[f];
    const auto model = derive_descriptive(feat.measure);
    std::printf("%-6zu %-8lld %-10.3f (%6.1f, %6.1f, %6.1f)   %-12.3e\n", f,
                static_cast<long long>(feat.voxels), feat.max_value,
                feat.centroid[0], feat.centroid[1], feat.centroid[2],
                model.mean);
  }
  std::printf("\n%zu features total; thresholds tracked the evolving flame "
              "without any human in the loop.\n",
              table.size());
  return 0;
}
