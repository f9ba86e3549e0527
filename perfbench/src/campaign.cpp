// campaign_sim: a one-tenant CampaignService campaign (MiniS3D plus the
// hybrid stats, viz and topo analyses every step), timed from outside by
// forwarding HybridAnalysis wrappers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "core/stats_pipeline.hpp"
#include "core/topology_pipeline.hpp"
#include "core/viz_pipeline.hpp"
#include "inputs.hpp"
#include "service/campaign_service.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kAnalyses = 3;  // in the order the campaign adds them
constexpr std::array<const char*, kAnalyses> kShortName = {"stats", "viz",
                                                           "topo"};
constexpr std::array<int64_t, 3> kGrid = {96, 64, 48};
constexpr std::array<int, 3> kRanks = {2, 1, 1};
constexpr int kBuckets = 2;
constexpr int kServers = 2;
constexpr int kReplicas = 2;
/// 3 analyses x 36 steps = 108 (analysis, step) samples, enough for p90.
constexpr long kTimedSteps = 36;
constexpr int kSetupProbes = 4;
/// The final-step statistics must match the reference within this
/// relative tolerance (absolute floor kModelAbsTol).
constexpr double kModelRelTol = 1e-9;
constexpr double kModelAbsTol = 1e-12;

struct CampaignConfig {
  std::array<int64_t, 3> grid = kGrid;
  long steps = kTimedSteps;
  uint64_t seed = 1;
};

struct Interval {
  double enter = -1.0;
  double exit = -1.0;
};

/// Timestamps the forwarding wrappers take. Every slot is written by one
/// thread (a rank or a bucket) and read after CampaignService::run joined
/// them all. Steps are 1-based, as InSituContext::step reports them.
class StepLedger {
 public:
  StepLedger(long steps, int ranks)
      : steps_(steps),
        ranks_(ranks),
        insitu_(static_cast<size_t>(steps * kAnalyses * ranks)),
        intransit_(static_cast<size_t>(steps * kAnalyses)),
        reference_(static_cast<size_t>(ranks)) {}

  [[nodiscard]] long steps() const { return steps_; }
  [[nodiscard]] int ranks() const { return ranks_; }

  Interval& insitu(long step, int analysis, int rank) {
    return insitu_.at(slot(step, analysis) * static_cast<size_t>(ranks_) +
                      static_cast<size_t>(rank));
  }
  [[nodiscard]] const Interval& insitu(long step, int analysis,
                                       int rank) const {
    return insitu_.at(slot(step, analysis) * static_cast<size_t>(ranks_) +
                      static_cast<size_t>(rank));
  }
  Interval& intransit(long step, int analysis) {
    return intransit_.at(slot(step, analysis));
  }
  [[nodiscard]] const Interval& intransit(long step, int analysis) const {
    return intransit_.at(slot(step, analysis));
  }
  /// Rank-local moments of the final step, built outside the timed spans.
  std::vector<hia::MomentAccumulator>& reference(int rank) {
    return reference_.at(static_cast<size_t>(rank));
  }
  [[nodiscard]] const std::vector<hia::MomentAccumulator>& reference(
      int rank) const {
    return reference_.at(static_cast<size_t>(rank));
  }

 private:
  [[nodiscard]] size_t slot(long step, int analysis) const {
    HIA_REQUIRE(step >= 1 && step <= steps_, "step outside the campaign");
    return static_cast<size_t>((step - 1) * kAnalyses + analysis);
  }

  long steps_;
  int ranks_;
  std::vector<Interval> insitu_;
  std::vector<Interval> intransit_;
  std::vector<std::vector<hia::MomentAccumulator>> reference_;
};

/// Forwards every call to the wrapped analysis and stamps entry and exit.
/// The wrapper flagged `builds_reference` also computes the final step's
/// rank-local moments after its exit stamp (the last analysis of a step,
/// so nothing timed waits on it).
class Timed final : public hia::HybridAnalysis {
 public:
  Timed(std::shared_ptr<hia::HybridAnalysis> inner, int index,
        StepLedger& ledger, bool builds_reference)
      : inner_(std::move(inner)),
        index_(index),
        ledger_(ledger),
        builds_reference_(builds_reference) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<std::string> staged_variables() const override {
    return inner_->staged_variables();
  }

  void in_situ(hia::InSituContext& ctx) override {
    const double enter = now_s();
    inner_->in_situ(ctx);
    const double exit = now_s();
    const int rank = ctx.comm().rank();
    ledger_.insitu(ctx.step(), index_, rank) = {enter, exit};
    if (builds_reference_ && ctx.step() == ledger_.steps()) {
      std::vector<hia::MomentAccumulator>& ref = ledger_.reference(rank);
      for (int v = 0; v < hia::kNumVariables; ++v) {
        hia::MomentAccumulator acc;
        for (const double x :
             ctx.sim().field(static_cast<hia::Variable>(v)).pack_owned()) {
          acc.update(x);
        }
        ref.push_back(acc);
      }
    }
  }

  void in_transit(hia::TaskContext& ctx) override {
    const double enter = now_s();
    inner_->in_transit(ctx);
    ledger_.intransit(ctx.task().step, index_) = {enter, now_s()};
  }

 private:
  std::shared_ptr<hia::HybridAnalysis> inner_;
  int index_;
  StepLedger& ledger_;
  bool builds_reference_;
};

/// One campaign's measurements and output checks.
struct CampaignRun {
  explicit CampaignRun(const CampaignConfig& cfg)
      : config(cfg), ledger(cfg.steps, kRanks[0] * kRanks[1] * kRanks[2]) {}

  CampaignConfig config;
  StepLedger ledger;
  hia::RunReport report;
  double clock_offset = 0.0;  // now_s() - StagingService::now()
  double t_construct = 0.0;   // before CampaignService construction
  double t_run_start = 0.0;   // after add_tenant, entering run()
  double t_run_end = 0.0;     // run() returned
  std::vector<uint64_t> rpc_counts;
  size_t get_retries = 0;
  uint64_t failed_ops = 0;
  std::vector<std::string> check_failures;
};

bool models_match(const hia::DescriptiveModel& a,
                  const hia::DescriptiveModel& b) {
  auto close = [](double x, double y) {
    return std::fabs(x - y) <=
           kModelRelTol * std::max(std::fabs(x), std::fabs(y)) + kModelAbsTol;
  };
  return a.count == b.count && close(a.mean, b.mean) && close(a.min, b.min) &&
         close(a.max, b.max) && close(a.variance, b.variance) &&
         close(a.skewness, b.skewness) &&
         close(a.kurtosis_excess, b.kurtosis_excess);
}

bool all_models_match(const std::vector<hia::DescriptiveModel>& a,
                      const std::vector<hia::DescriptiveModel>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!models_match(a[i], b[i])) return false;
  }
  return true;
}

CampaignRun run_campaign(const CampaignConfig& cfg) {
  CampaignRun run(cfg);
  auto stats = std::make_shared<hia::HybridStatistics>();
  hia::VizConfig viz_cfg;  // the hia_campaign defaults
  viz_cfg.image_size = 128;
  viz_cfg.downsample_stride = 4;
  auto viz = std::make_shared<hia::HybridVisualization>(viz_cfg);
  auto topo = std::make_shared<hia::HybridTopology>(hia::TopologyConfig{});
  const std::array<std::shared_ptr<hia::HybridAnalysis>, kAnalyses> inner = {
      stats, viz, topo};

  run.t_construct = now_s();
  hia::CampaignService::Options so;
  so.staging_servers = kServers;
  so.staging_buckets = kBuckets;
  so.staging_replicas = kReplicas;
  auto service = std::make_unique<hia::CampaignService>(so);
  run.clock_offset = now_s() - service->staging().now();

  hia::CampaignService::TenantSpec spec;
  spec.name = "campaign";
  spec.config.sim = sim_params(cfg.grid, kRanks, cfg.seed);
  spec.config.steps = cfg.steps;
  spec.config.staging_servers = kServers;
  spec.config.staging_buckets = kBuckets;
  spec.config.staging_replicas = kReplicas;
  spec.setup = [&](hia::HybridRunner& runner) {
    for (int a = 0; a < kAnalyses; ++a) {
      runner.add_analysis(std::make_shared<Timed>(inner[static_cast<size_t>(a)],
                                                  a, run.ledger,
                                                  a == kAnalyses - 1));
    }
  };
  service->add_tenant(std::move(spec));

  run.t_run_start = now_s();
  hia::CampaignService::ServiceReport sreport = service->run();
  run.t_run_end = now_s();
  HIA_REQUIRE(sreport.tenants.size() == 1, "expected one tenant report");
  run.report = std::move(sreport.tenants[0].report);
  run.rpc_counts = service->staging().store().rpc_counts();
  run.get_retries = service->dart().counters().get_retries;

  // ---- Output checks ----
  auto fail = [&run](const std::string& what) {
    ++run.failed_ops;
    if (run.check_failures.size() < 8) run.check_failures.push_back(what);
  };
  std::map<std::pair<std::string, long>, std::vector<const hia::TaskRecord*>>
      by_op;
  for (const hia::TaskRecord& rec : run.report.in_transit) {
    by_op[{rec.analysis, rec.step}].push_back(&rec);
  }
  for (int a = 0; a < kAnalyses; ++a) {
    const std::string name = inner[static_cast<size_t>(a)]->name();
    for (long s = 1; s <= cfg.steps; ++s) {
      const auto it = by_op.find({name, s});
      const bool one_completed =
          it != by_op.end() && it->second.size() == 1 &&
          it->second[0]->outcome == hia::TaskOutcome::kCompleted;
      bool stamped = run.ledger.intransit(s, a).exit >= 0.0;
      for (int r = 0; r < run.ledger.ranks(); ++r) {
        stamped = stamped && run.ledger.insitu(s, a, r).exit >= 0.0;
      }
      if (!one_completed || !stamped) {
        fail(name + " step " + std::to_string(s) +
             ": not exactly one completed in-transit task");
      }
    }
  }

  // Final-step statistics against the rank-local reference.
  std::vector<hia::MomentAccumulator> combined;
  for (int r = 0; r < run.ledger.ranks(); ++r) {
    const auto& ref = run.ledger.reference(r);
    if (combined.empty()) {
      combined = ref;
    } else if (ref.size() == combined.size()) {
      for (size_t v = 0; v < ref.size(); ++v) combined[v].combine(ref[v]);
    }
  }
  std::vector<hia::DescriptiveModel> expected;
  for (const hia::MomentAccumulator& acc : combined) {
    expected.push_back(hia::derive_descriptive(acc));
  }
  const auto final_stats = by_op.find({stats->name(), cfg.steps});
  if (final_stats == by_op.end() || final_stats->second.size() != 1) {
    fail("stats: no final-step task");
  } else {
    const hia::TaskRecord& rec = *final_stats->second[0];
    const auto blob = service->staging().take_result(rec.task_id);
    const std::vector<hia::DescriptiveModel> got =
        blob ? hia::deserialize_models(*blob)
             : std::vector<hia::DescriptiveModel>{};
    if (expected.size() != static_cast<size_t>(hia::kNumVariables) ||
        !all_models_match(got, expected)) {
      fail("stats: final-step models differ from the reference");
    }
    // latest_models() holds the last stats task to finish; when that is the
    // final step it must agree with the final-step result.
    bool final_is_latest = true;
    for (const hia::TaskRecord& other : run.report.in_transit) {
      if (other.analysis == rec.analysis &&
          other.complete_time > rec.complete_time) {
        final_is_latest = false;
      }
    }
    if (final_is_latest && !all_models_match(stats->latest_models(), got)) {
      fail("stats: latest_models() differs from the final-step result");
    }
  }
  const std::optional<hia::Image> image = viz->latest_image();
  const bool image_lit =
      image && std::any_of(image->pixels().begin(), image->pixels().end(),
                           [](const hia::Rgba& p) { return p.a > 0.0f; });
  if (!image_lit) fail("viz: empty image");
  if (topo->latest_summary().tree_nodes == 0) fail("topo: empty tree summary");
  return run;
}

/// Measurements pooled over the campaigns of one pass.
struct CampaignPool {
  std::vector<double> setup, construct, tti, step_wall, sim_step, sync,
      drain_tail, queue_wait;
  std::array<std::vector<double>, kAnalyses> insitu, intransit;
  double run_wall = 0.0, ops = 0.0, cell_steps = 0.0, bucket_busy = 0.0;
  uint64_t tasks = 0, rpcs = 0, not_completed = 0, retries = 0,
           get_retries = 0;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> check_failures;

  /// Adds a campaign. Set-up probes (`timed` false) contribute set-up time
  /// and their checks only.
  void add(const CampaignRun& run, bool timed, SpanLog* spans);
  void to_layers(Sheet& layers) const;
};

void CampaignPool::add(const CampaignRun& run, bool timed, SpanLog* spans) {
  const StepLedger& ledger = run.ledger;
  const long steps = ledger.steps();
  const int ranks = ledger.ranks();
  attempted += static_cast<uint64_t>(steps * kAnalyses);
  failed += run.failed_ops;
  for (const std::string& f : run.check_failures) check_failures.push_back(f);
  if (run.failed_ops > 0) return;

  auto step_start = [&](long s) { return ledger.insitu(s, 0, 0).enter; };
  const std::vector<double>& solver = run.report.sim_step_seconds;
  setup.push_back(step_start(1) - run.t_construct - solver.at(0));
  construct.push_back(run.t_run_start - run.t_construct);
  if (!timed) return;

  const std::array<int64_t, 3>& grid = run.config.grid;
  const double wall = run.t_run_end - run.t_run_start;
  run_wall += wall;
  ops += static_cast<double>(steps * kAnalyses);
  cell_steps += static_cast<double>(steps) *
                static_cast<double>(grid[0] * grid[1] * grid[2]);
  for (const double s : solver) sim_step.push_back(s);

  // Span tree. Per (analysis, step): a root from step start to in-transit
  // exit with every rank's in-situ span, the queue wait and the in-transit
  // span as children. Per step: a root from step start to the next step
  // start with every rank's in-situ spans as children, so its self time is
  // the solver plus synchronization.
  SpanLog local;
  SpanLog& log = spans != nullptr ? *spans : local;
  auto request = [](long s, int a) {
    return static_cast<uint64_t>(s * kAnalyses + a);
  };
  std::map<uint64_t, int64_t> insight_root;
  for (long s = 1; s <= steps; ++s) {
    for (int a = 0; a < kAnalyses; ++a) {
      const Interval& it = ledger.intransit(s, a);
      const int64_t root =
          log.add(std::string("insight.") + kShortName[a], request(s, a), -1,
                  step_start(s), it.exit);
      insight_root[request(s, a)] = root;
      tti.push_back(it.exit - step_start(s));
      double max_rank = 0.0;
      for (int r = 0; r < ranks; ++r) {
        const Interval& in = ledger.insitu(s, a, r);
        log.add(std::string("core.insitu.") + kShortName[a], request(s, a),
                root, in.enter, in.exit);
        max_rank = std::max(max_rank, in.exit - in.enter);
      }
      log.add(std::string("core.intransit.") + kShortName[a], request(s, a),
              root, it.enter, it.exit);
      insitu[static_cast<size_t>(a)].push_back(max_rank);
      intransit[static_cast<size_t>(a)].push_back(it.exit - it.enter);
    }
  }
  for (const hia::TaskRecord& rec : run.report.in_transit) {
    int a = 0;
    while (a < kAnalyses && rec.analysis.rfind(kShortName[a], 0) != 0) ++a;
    if (a == kAnalyses) continue;
    const auto root = insight_root.find(request(rec.step, a));
    log.add(std::string("staging.queue.") + kShortName[a],
            request(rec.step, a),
            root == insight_root.end() ? -1 : root->second,
            rec.enqueue_time + run.clock_offset,
            rec.assign_time + run.clock_offset);
    queue_wait.push_back(rec.assign_time - rec.enqueue_time);
    bucket_busy += rec.complete_time - rec.assign_time;
    ++tasks;
    if (rec.outcome != hia::TaskOutcome::kCompleted) ++not_completed;
    retries += static_cast<uint64_t>(rec.attempts - 1);
  }

  // core.sync_s_per_step: a step root's self time minus its solver seconds.
  // The interval starting at step s holds the solver of step s + 1, which
  // is index s of sim_step_seconds.
  SpanLog step_log;
  for (long s = 1; s < steps; ++s) {
    const int64_t root = step_log.add("step", static_cast<uint64_t>(s), -1,
                                      step_start(s), step_start(s + 1));
    step_wall.push_back(step_start(s + 1) - step_start(s));
    for (int a = 0; a < kAnalyses; ++a) {
      for (int r = 0; r < ranks; ++r) {
        const Interval& in = ledger.insitu(s, a, r);
        step_log.add("step.insitu", static_cast<uint64_t>(s), root, in.enter,
                     in.exit);
      }
    }
  }
  const std::vector<double> self = self_times(step_log.spans());
  for (size_t i = 0; i < step_log.spans().size(); ++i) {
    const Span& sp = step_log.spans()[i];
    if (sp.parent < 0) sync.push_back(self[i] - solver.at(sp.request));
  }
  drain_tail.push_back(run.t_run_end -
                       ledger.insitu(steps, kAnalyses - 1, 0).exit);
  for (const uint64_t c : run.rpc_counts) rpcs += c;
  get_retries += run.get_retries;
}

void CampaignPool::to_layers(Sheet& layers) const {
  put_default(layers, "sim.step_s", median(sim_step), "s");
  for (int a = 0; a < kAnalyses; ++a) {
    put_default(layers, std::string("core.insitu_s.") + kShortName[a],
                median(insitu[static_cast<size_t>(a)]), "s");
    put_default(layers, std::string("core.intransit_s.") + kShortName[a],
                median(intransit[static_cast<size_t>(a)]), "s");
  }
  put_default(layers, "core.sync_s_per_step", median(sync), "s");
  put_default(layers, "core.drain_tail_s", median(drain_tail), "s");
  put_default(layers, "service.construct_s", median(construct), "s");
  put_default(layers, "staging.queue_wait_s_p50", percentile(queue_wait, 0.5),
              "s");
  put_default(layers, "staging.queue_wait_s_p99",
              percentile(queue_wait, 0.99), "s");
  put_default(layers, "staging.bucket_busy_frac",
              run_wall > 0.0 ? bucket_busy / (kBuckets * run_wall) : 0.0,
              "ratio");
  put_default(layers, "staging.store_rpcs_per_task",
              tasks > 0 ? static_cast<double>(rpcs) / static_cast<double>(tasks)
                        : 0.0,
              "count");
  put_default(layers, "staging.not_completed",
              static_cast<double>(not_completed), "count");
  put_default(layers, "staging.retries", static_cast<double>(retries),
              "count");
  put_default(layers, "transport.get_retries",
              static_cast<double>(get_retries), "count");
}

/// Runs campaigns of kTimedSteps until `seconds` have passed (at least one).
CampaignPool timed_pass(const CampaignConfig& base, double seconds,
                        SpanLog* spans) {
  CampaignPool pool;
  const double start = now_s();
  do {
    pool.add(run_campaign(base), true, spans);
  } while (now_s() - start < seconds);
  return pool;
}

}  // namespace

ThreadBudget campaign_budget() {
  return ThreadBudget{kRanks[0] * kRanks[1] * kRanks[2], kBuckets, 0};
}

Result run_campaign_sim(const Options& options) {
  Result result;
  CampaignConfig cfg;
  cfg.seed = options.seed;

  // Warm-up (discarded): first-touch page faults, lazy registries, caches.
  {
    CampaignConfig warm = cfg;
    warm.steps = 2;
    (void)run_campaign(warm);
  }

  RssSampler rss;
  CampaignPool probes;
  for (int i = 0; i < kSetupProbes; ++i) {
    CampaignConfig probe = cfg;
    probe.steps = 1;
    probes.add(run_campaign(probe), false, nullptr);
  }
  CampaignPool pool = timed_pass(cfg, options.seconds, nullptr);
  const double peak_rss_mb = rss.peak_mb();

  std::vector<double> setup = probes.setup;
  setup.insert(setup.end(), pool.setup.begin(), pool.setup.end());
  const Tail tti = summarize(pool.tti, 0.9);
  const Tail wall = summarize(pool.step_wall, 0.9);
  const double ops_per_s = pool.run_wall > 0.0 ? pool.ops / pool.run_wall : 0.0;

  result.attempted = probes.attempted + pool.attempted;
  result.failed = probes.failed + pool.failed;
  for (const auto* p : {&probes, &pool}) {
    for (const std::string& f : p->check_failures) {
      result.check_failures.push_back(f);
    }
  }
  if (!tti.supported) {
    result.check_failures.push_back("tti: fewer than 100 samples for p90");
  }

  put(result.e2e, "setup_s", median(setup), "s");
  put(result.e2e, "latency_s_p50", tti.p50, "s");
  put(result.e2e, "latency_s_p90", tti.tail, "s");
  put(result.e2e, "throughput_ops_per_s", ops_per_s, "1/s");
  put(result.e2e, "peak_rss_mb", peak_rss_mb, "MB");

  put(result.report, "setup_s", median(setup), "s");
  put(result.report, "step_wall_s_p50", wall.p50, "s");
  put(result.report, "step_wall_s_p90", wall.tail, "s");
  put(result.report, "step_wall_samples", static_cast<double>(wall.n),
      "count");
  put(result.report, "tti_s_p50", tti.p50, "s");
  put(result.report, "tti_s_p90", tti.tail, "s");
  put(result.report, "tti_samples", static_cast<double>(tti.n), "count");
  put(result.report, "cell_steps_per_s",
      pool.run_wall > 0.0 ? pool.cell_steps / pool.run_wall : 0.0,
      "cell_steps/s");
  put(result.report, "peak_rss_mb", peak_rss_mb, "MB");
  if (!wall.supported) {
    result.flags.push_back(
        "step_wall_s_p90 has fewer than 100 samples; the percentile rule "
        "supports only p50 (printed for reference)");
  }

  if (options.trace) {
    SpanLog spans;
    CampaignPool traced = timed_pass(cfg, options.seconds, &spans);
    result.attempted += traced.attempted;
    result.failed += traced.failed;
    traced.to_layers(result.layers);
    const double traced_ops =
        traced.run_wall > 0.0 ? traced.ops / traced.run_wall : 0.0;
    put(result.layers, "obs.trace_overhead_frac",
        traced_ops > 0.0 ? ops_per_s / traced_ops - 1.0 : 0.0, "ratio");
    if (!options.span_path.empty()) spans.write_csv(options.span_path);
    put_self_times(spans.spans(), result.report);
    Shape shape;
    shape.grid = cfg.grid;
    shape.ranks = kRanks;
    shape.seed = cfg.seed;
    layer_pass(shape, /*with_campaign=*/false, result);
  }
  return result;
}

void campaign_layer_metrics(const std::array<int64_t, 3>& grid, uint64_t seed,
                            long steps, Result& result) {
  CampaignConfig cfg;
  cfg.grid = grid;
  cfg.steps = steps;
  cfg.seed = seed;
  CampaignPool pool;
  pool.add(run_campaign(cfg), true, nullptr);
  result.attempted += pool.attempted;
  result.failed += pool.failed;
  for (const std::string& f : pool.check_failures) {
    result.check_failures.push_back(f);
  }
  pool.to_layers(result.layers);
}

}  // namespace perfbench
