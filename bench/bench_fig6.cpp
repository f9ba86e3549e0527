// Reproduces Fig. 6: the timing breakdown for in-situ, in-transit, and data
// movement relative to the simulation, per timestep. The paper highlights
// that in-situ visualization costs ~4.33% and in-situ statistics ~9.73% of
// simulation time, while the hybrid variants' synchronous cost (in-situ
// stage + movement) is far smaller, with the heavy lifting running
// asynchronously on secondary resources.
//
// The campaign runs 8 rank threads, so on a machine with fewer cores the
// wall-clock shares follow the OS scheduler. The bench therefore repeats
// the campaign kRepeats times in-process, reports each share's median and
// interquartile range, and judges the shape checks on the medians. Next to
// wall time it reports per-rank thread-CPU seconds
// (CLOCK_THREAD_CPUTIME_ID), which waiting for a core does not inflate.
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/stats_pipeline.hpp"
#include "core/topology_pipeline.hpp"
#include "core/viz_pipeline.hpp"
#include "util/table.hpp"

namespace {

using namespace hia;

constexpr int kRepeats = 5;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Linear-interpolated quantile q of `v` (copied, sorted).
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// "median [q1, q3]" of `v` with `precision` decimals.
std::string median_iqr(const std::vector<double>& v, int precision) {
  return fmt_fixed(quantile(v, 0.5), precision) + " [" +
         fmt_fixed(quantile(v, 0.25), precision) + ", " +
         fmt_fixed(quantile(v, 0.75), precision) + "]";
}

/// Per-rank thread-CPU seconds of one campaign. Each slot is written only
/// by its rank's thread.
struct CpuLedger {
  explicit CpuLedger(int ranks)
      : sim(static_cast<size_t>(ranks), 0.0),
        viz(static_cast<size_t>(ranks), 0.0),
        stats(static_cast<size_t>(ranks), 0.0),
        last_stage_end(static_cast<size_t>(ranks), -1.0),
        sim_steps(static_cast<size_t>(ranks), 0) {}
  std::vector<double> sim, viz, stats;
  std::vector<double> last_stage_end;  // CPU clock after the step's stages
  std::vector<long> sim_steps;         // solver steps charged to `sim`
};

/// Forwards to `inner`, charging the rank thread's CPU seconds in the
/// in-situ stage to (*cpu)[rank].
class CpuTimed final : public HybridAnalysis {
 public:
  CpuTimed(std::shared_ptr<HybridAnalysis> inner, std::vector<double>* cpu)
      : inner_(std::move(inner)), cpu_(cpu) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<std::string> staged_variables() const override {
    return inner_->staged_variables();
  }
  void in_situ(InSituContext& ctx) override {
    const double start = thread_cpu_seconds();
    inner_->in_situ(ctx);
    (*cpu_)[static_cast<size_t>(ctx.comm().rank())] +=
        thread_cpu_seconds() - start;
  }
  void in_transit(TaskContext& ctx) override { inner_->in_transit(ctx); }

 private:
  std::shared_ptr<HybridAnalysis> inner_;
  std::vector<double>* cpu_;
};

/// Registered first and last in each step: the rank's CPU seconds between
/// the last stage of step s-1 and the first stage of step s are its solver
/// step (with the collectives around it).
class StepMark final : public HybridAnalysis {
 public:
  StepMark(CpuLedger* ledger, bool opens_step)
      : ledger_(ledger), opens_step_(opens_step) {}
  [[nodiscard]] std::string name() const override {
    return opens_step_ ? "cpu-mark-open" : "cpu-mark-close";
  }
  void in_situ(InSituContext& ctx) override {
    const double now = thread_cpu_seconds();
    const auto r = static_cast<size_t>(ctx.comm().rank());
    if (!opens_step_) {
      ledger_->last_stage_end[r] = now;
    } else if (ledger_->last_stage_end[r] >= 0.0) {
      ledger_->sim[r] += now - ledger_->last_stage_end[r];
      ++ledger_->sim_steps[r];
    }
  }

 private:
  CpuLedger* ledger_;
  bool opens_step_;
};

}  // namespace

int main(int argc, char** argv) {
  hia::bench::ObsCli obs_cli =
      hia::bench::ObsCli::parse(argc, argv, "fig6");
  using namespace hia::bench;

  CampaignService::Options opts = laptop_service();
  obs_cli.apply_faults(opts);
  VizConfig viz;
  viz.image_size = 96;
  viz.downsample_stride = 4;
  const RunConfig cfg = laptop_config(3);
  const int ranks = cfg.sim.ranks_per_axis[0] * cfg.sim.ranks_per_axis[1] *
                    cfg.sim.ranks_per_axis[2];

  const std::vector<std::string> names{"viz-insitu", "stats-insitu",
                                       "viz-hybrid", "topo-hybrid",
                                       "stats-hybrid"};
  // Per repeat: every Fig. 6 share (% of simulation), the check inputs,
  // and the per-rank CPU seconds per step.
  // Shares are keyed by label (a movement row exists only in a repeat
  // that moved data); `share_names` keeps first-seen order for printing.
  std::vector<std::string> share_names;
  std::map<std::string, std::vector<double>> shares;
  std::vector<double> sim_wall, viz_wall, stats_wall, viz_pct, stats_pct,
      hybrid_sync_pct, topo_transit;
  std::vector<std::vector<double>> rank_sim_cpu(static_cast<size_t>(ranks)),
      rank_viz_cpu(static_cast<size_t>(ranks)),
      rank_stats_cpu(static_cast<size_t>(ranks));
  CampaignService::ServiceReport last;

  for (int rep = 0; rep < kRepeats; ++rep) {
    CpuLedger cpu(ranks);
    last = run_campaign(
        cfg,
        [&](HybridRunner& runner) {
          runner.add_analysis(std::make_shared<StepMark>(&cpu, true));
          runner.add_analysis(std::make_shared<CpuTimed>(
              std::make_shared<InSituVisualization>(viz), &cpu.viz));
          runner.add_analysis(std::make_shared<CpuTimed>(
              std::make_shared<InSituStatistics>(), &cpu.stats));
          runner.add_analysis(std::make_shared<HybridVisualization>(viz));
          runner.add_analysis(
              std::make_shared<HybridTopology>(TopologyConfig{}));
          runner.add_analysis(std::make_shared<HybridStatistics>());
          runner.add_analysis(std::make_shared<StepMark>(&cpu, false));
        },
        opts);
    const RunReport& report = last.tenants.at(0).report;
    const double sim = report.mean_sim_step_seconds();
    auto pct = [&](double s) { return 100.0 * s / sim; };

    std::vector<std::pair<std::string, double>> row;
    for (const std::string& a : names) {
      row.emplace_back(a + " (in-situ)", pct(report.mean_in_situ_seconds(a)));
      if (report.mean_movement_seconds(a) > 0.0) {
        row.emplace_back(a + " (data movement)",
                         pct(report.mean_movement_seconds(a)));
        row.emplace_back(a + " (in-transit, async)",
                         pct(report.mean_in_transit_seconds(a)));
      }
    }
    for (const auto& [label, v] : row) {
      std::vector<double>& samples = shares[label];
      if (samples.empty()) share_names.push_back(label);
      samples.push_back(v);
    }

    sim_wall.push_back(sim);
    viz_wall.push_back(report.mean_in_situ_seconds("viz-insitu"));
    stats_wall.push_back(report.mean_in_situ_seconds("stats-insitu"));
    viz_pct.push_back(pct(report.mean_in_situ_seconds("viz-insitu")));
    stats_pct.push_back(pct(report.mean_in_situ_seconds("stats-insitu")));
    hybrid_sync_pct.push_back(pct(report.mean_in_situ_seconds("viz-hybrid") +
                                  report.mean_movement_seconds("viz-hybrid")));
    topo_transit.push_back(report.mean_in_transit_seconds("topo-hybrid"));
    const auto steps = static_cast<double>(report.steps);
    for (size_t r = 0; r < static_cast<size_t>(ranks); ++r) {
      rank_sim_cpu[r].push_back(
          cpu.sim[r] / static_cast<double>(std::max(1L, cpu.sim_steps[r])));
      rank_viz_cpu[r].push_back(cpu.viz[r] / steps);
      rank_stats_cpu[r].push_back(cpu.stats[r] / steps);
    }
  }

  print_header("Fig. 6 timing breakdown, last repeat (this machine)");
  std::printf("%s\n",
              format_fig6(last.tenants.at(0).report, names).c_str());
  if (last.resilience.any()) {
    print_header("Resilience (fault injection active, last repeat)");
    std::printf("%s\n", format_resilience(last.resilience).c_str());
  }

  print_header("Fig. 6 shares over " + std::to_string(kRepeats) +
               " repeats: median [q1, q3]");
  Table share_table({"component", "% of simulation"});
  share_table.add_row({"simulation (s/step, wall)", median_iqr(sim_wall, 4)});
  for (const std::string& label : share_names) {
    const std::vector<double>& samples = shares.at(label);
    std::string cell = median_iqr(samples, 2);
    if (samples.size() != static_cast<size_t>(kRepeats)) {
      cell += " (" + std::to_string(samples.size()) + " of " +
              std::to_string(kRepeats) + " repeats)";
    }
    share_table.add_row({label, cell});
  }
  std::printf("%s\n", share_table.render().c_str());

  print_header("Per-rank thread-CPU seconds per step, median over repeats");
  Table cpu_table({"rank", "simulation", "viz-insitu", "stats-insitu"});
  std::vector<double> sim_cpu, viz_cpu, stats_cpu;
  for (size_t r = 0; r < static_cast<size_t>(ranks); ++r) {
    sim_cpu.push_back(quantile(rank_sim_cpu[r], 0.5));
    viz_cpu.push_back(quantile(rank_viz_cpu[r], 0.5));
    stats_cpu.push_back(quantile(rank_stats_cpu[r], 0.5));
    cpu_table.add_row({std::to_string(r), fmt_fixed(sim_cpu.back(), 4),
                       fmt_fixed(viz_cpu.back(), 4),
                       fmt_fixed(stats_cpu.back(), 4)});
  }
  cpu_table.add_row({"wall (max over ranks)",
                     fmt_fixed(quantile(sim_wall, 0.5), 4),
                     fmt_fixed(quantile(viz_wall, 0.5), 4),
                     fmt_fixed(quantile(stats_wall, 0.5), 4)});
  std::printf("%s\n", cpu_table.render().c_str());
  const double sim_cpu_med = quantile(sim_cpu, 0.5);
  std::printf("  CPU shares (median rank): in-situ visualization %.2f%%, "
              "in-situ statistics %.2f%% of the solver step\n\n",
              100.0 * quantile(viz_cpu, 0.5) / sim_cpu_med,
              100.0 * quantile(stats_cpu, 0.5) / sim_cpu_med);

  print_header("Fig. 6 reference points (paper, 4896 cores)");
  std::printf("  in-situ visualization: %.2f%% of simulation time\n",
              kPaperVizInSituPercent);
  std::printf("  in-situ statistics:    %.2f%% of simulation time\n\n",
              kPaperStatsInSituPercent);
  std::printf("  measured in-situ visualization: %s%% of simulation\n",
              median_iqr(viz_pct, 2).c_str());
  std::printf("  measured in-situ statistics:    %s%% of simulation\n\n",
              median_iqr(stats_pct, 2).c_str());

  const double viz_med = quantile(viz_pct, 0.5);
  shape_check("in-situ analyses are a minor fraction of simulation time "
              "(paper: 4.33% / 9.73%; median of repeats)",
              viz_med < 60.0 && quantile(stats_pct, 0.5) < 60.0);
  shape_check(
      "hybrid viz synchronous cost (down-sample + movement) ~1% class "
      "(paper: about one percent of simulation time; median of repeats)",
      quantile(hybrid_sync_pct, 0.5) < viz_med);
  shape_check(
      "hybrid topology in-transit stage exceeds a simulation step yet "
      "runs asynchronously (paper: 119.81 s vs 16.85 s; median of repeats)",
      quantile(topo_transit, 0.5) > 0.0);
  obs_cli.finish();
  return 0;
}
