#include "core/framework.hpp"

#include <cstdio>
#include <mutex>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace hia {

HybridRunner::HybridRunner(RunConfig config, const SharedStagingEnv& env)
    : config_(std::move(config)),
      overload_(env.overload),
      dart_(env.dart),
      staging_(env.staging),
      steer_(parse_steer_policy(config_.steer)),
      tenant_(env.tenant),
      ns_prefix_(env.ns_prefix) {
  HIA_REQUIRE(dart_ != nullptr && staging_ != nullptr,
              "runner needs a Dart and a StagingService");
  if (!config_.staging_codec.empty()) {
    codec_ = make_codec(config_.staging_codec);
  }
}

void HybridRunner::add_analysis(std::shared_ptr<HybridAnalysis> analysis,
                                int frequency) {
  HIA_REQUIRE(analysis != nullptr, "null analysis");
  HIA_REQUIRE(frequency >= 1, "frequency must be >= 1");
  HIA_REQUIRE(!ran_, "cannot add analyses after run()");

  // Register the in-transit handler if the analysis stages data. The
  // handler key carries the tenant's namespace prefix, so two tenants
  // running the same analysis never collide.
  if (!analysis->staged_variables().empty()) {
    std::shared_ptr<HybridAnalysis> a = analysis;
    staging_->register_handler(
        ns_prefix_ + a->name(), [a](TaskContext& ctx) { a->in_transit(ctx); });
  }
  analyses_.push_back(Scheduled{std::move(analysis), frequency});
}

RunReport HybridRunner::run() {
  HIA_REQUIRE(!ran_, "run() may be called once");
  ran_ = true;

  const int nranks = config_.sim.ranks_per_axis[0] *
                     config_.sim.ranks_per_axis[1] *
                     config_.sim.ranks_per_axis[2];

  RunReport report;
  report.steps = config_.steps;
  report.sim_ranks = nranks;
  report.staging_codec = config_.staging_codec;
  report.solution_bytes_per_step =
      static_cast<size_t>(config_.sim.grid.num_points()) * kNumVariables *
      sizeof(double);

  std::mutex report_mutex;  // only rank 0 writes, but keep it safe

  // ---- Steering state (touched only by the rank-0 thread inside the
  // world, then read by this thread after the join) ----
  struct Parked {
    std::string analysis;
    long step = 0;  // original step: the staged inputs live under this key
    std::vector<std::string> staged;
    int defers = 0;  // step boundaries already crossed
  };
  std::vector<Parked> parked;
  ResilienceSummary& res = report.resilience;
  const int max_defers =
      overload_ != nullptr ? overload_->config().max_defers : 1;

  // Routes one in-transit submission through the steering table. Deferring
  // writes a terminal kDeferred record and parks the payload (the staged
  // inputs stay in the store) for re-decision at the next step boundary.
  auto steer_submit = [&](const std::string& analysis, long step,
                          const std::vector<std::string>& staged,
                          int defers) {
    static obs::Counter& c_transit = obs::counter("steer_in_transit");
    static obs::Counter& c_insitu = obs::counter("steer_in_situ");
    static obs::Counter& c_defer = obs::counter("steer_deferred");
    static obs::Counter& c_shed = obs::counter("steer_shed");
    // Labeled variant: per-tenant steering mix for the campaign console.
    auto labeled = [this](const char* name) -> obs::Counter& {
      return obs::counter(name, {.tenant = tenant_});
    };
    const PressureSignal pressure = staging_->pressure();
    switch (steer_decide(steer_, pressure, defers, max_defers)) {
      case SteerDecision::kInTransit:
        ++res.steer_in_transit;
        c_transit.add(1);
        labeled("steer_in_transit").add(1);
        staging_->submit_for(analysis, step, staged, SubmitRoute::kQueue,
                             tenant_);
        break;
      case SteerDecision::kInSitu:
        ++res.steer_in_situ;
        c_insitu.add(1);
        labeled("steer_in_situ").add(1);
        obs::instant("overload", "steer_in_situ", {.step = step});
        staging_->submit_for(analysis, step, staged, SubmitRoute::kFallback,
                             tenant_);
        break;
      case SteerDecision::kShed:
        ++res.steer_shed;
        c_shed.add(1);
        labeled("steer_shed").add(1);
        obs::instant("overload", "steer_shed", {.step = step});
        staging_->submit_for(analysis, step, staged, SubmitRoute::kShed,
                             tenant_);
        break;
      case SteerDecision::kDefer:
        ++res.steer_deferred;
        c_defer.add(1);
        labeled("steer_deferred").add(1);
        staging_->record_deferred(analysis, step, tenant_);
        parked.push_back(Parked{analysis, step, staged, defers + 1});
        break;
    }
  };

  World world(nranks);
  world.run([&](Comm& comm) {
    const int r = comm.rank();
    obs::set_thread_track(obs::rank_track(r));
    const int dart_node =
        dart_->register_node(ns_prefix_ + "sim-" + std::to_string(r));

    S3DRank sim(config_.sim, r);
    sim.initialize();

    for (long step = 0; step < config_.steps; ++step) {
      // 1. Advance the simulation (collective: halo exchanges inside).
      sim.advance(comm);
      const double sim_max = comm.allreduce_max(sim.last_step_seconds());
      if (r == 0) {
        std::lock_guard lock(report_mutex);
        report.sim_step_seconds.push_back(sim_max);
      }

      // Step boundary: deferred tasks from earlier steps get a fresh
      // steering verdict against the current pressure (rank 0 only).
      if (r == 0 && !parked.empty()) {
        std::vector<Parked> due;
        due.swap(parked);
        for (const Parked& p : due) {
          steer_submit(p.analysis, p.step, p.staged, p.defers);
        }
      }

      // 2. In-situ stages, in registration order on every rank.
      for (const Scheduled& sched : analyses_) {
        if (sim.step() % sched.frequency != 0) continue;

        InSituContext ctx(sim, comm, *staging_, steering_, dart_node,
                          sim.step(), codec_.get(), tenant_, ns_prefix_);
        Stopwatch watch;
        {
          char span_name[obs::Event::kNameCapacity];
          std::snprintf(span_name, sizeof(span_name), "insitu:%s",
                        sched.analysis->name().c_str());
          obs::Span insitu_span("insitu", span_name,
                                {.rank = r,
                                 .step = sim.step(),
                                 .vtime = sim.time()});
          sched.analysis->in_situ(ctx);
        }
        const double seconds = watch.seconds();

        const double max_s = comm.allreduce_max(seconds);
        const double sum_s = comm.allreduce_sum(seconds);
        const double bytes = comm.allreduce_sum(
            static_cast<double>(ctx.published_bytes()));
        const double wire_bytes = comm.allreduce_sum(
            static_cast<double>(ctx.published_wire_bytes()));

        // 3. Data-ready: rank 0 creates the in-transit task. Names travel
        // prefixed: the blocks were published under ns_prefix_ and the
        // handler was registered under the prefixed analysis name.
        auto staged = sched.analysis->staged_variables();
        for (std::string& v : staged) v = ns_prefix_ + v;
        if (r == 0) {
          if (!staged.empty()) {
            steer_submit(ns_prefix_ + sched.analysis->name(), sim.step(),
                         staged, 0);
          }
          std::lock_guard lock(report_mutex);
          report.in_situ.push_back(InSituMetric{
              sched.analysis->name(), sim.step(), max_s,
              sum_s / static_cast<double>(comm.size()),
              static_cast<size_t>(bytes), static_cast<size_t>(wire_bytes)});
        }
        // Publishing must complete on all ranks before the task pulls; the
        // allreduce above already provides that synchronization.
      }
    }
    comm.barrier();
    dart_->unregister_node(dart_node);
  });

  // The campaign is over: anything still parked is past every deadline and
  // must execute now. Forcing defers to max_defers makes kDefer impossible
  // in the steering table, so this loop cannot re-park.
  if (!parked.empty()) {
    std::vector<Parked> due;
    due.swap(parked);
    for (const Parked& p : due) {
      steer_submit(p.analysis, p.step, p.staged, max_defers);
    }
    HIA_ASSERT(parked.empty());
  }

  // Wait for this tenant's outstanding analyses; the service and any other
  // tenants keep going.
  staging_->drain_tenant(tenant_);
  for (TaskRecord rec : staging_->records()) {
    if (rec.tenant != tenant_) continue;
    if (rec.analysis.compare(0, ns_prefix_.size(), ns_prefix_) == 0) {
      rec.analysis.erase(0, ns_prefix_.size());
    }
    report.in_transit.push_back(std::move(rec));
  }

  // The reaction side of the resilience ledger, from this tenant's records
  // and admission slice. Transport counters and the injection side are
  // service-global: CampaignService reports them.
  for (const TaskRecord& rec : report.in_transit) {
    switch (rec.outcome) {
      case TaskOutcome::kCompleted: ++res.tasks_completed; break;
      case TaskOutcome::kDegraded: ++res.tasks_degraded; break;
      case TaskOutcome::kShed: ++res.tasks_shed; break;
      case TaskOutcome::kDeferred: ++res.tasks_deferred; break;
    }
    res.task_retries += static_cast<uint64_t>(rec.attempts - 1);
    res.backoff_seconds += rec.backoff_seconds;
  }
  if (overload_ != nullptr) {
    const OverloadControl::TenantStats tstats =
        overload_->tenant_stats(tenant_);
    res.admission_overdrafts = tstats.overdrafts;
    res.admission_wait_s = tstats.wait_s;
  }

  HIA_LOG_INFO("framework",
               "run complete: %ld steps, %d ranks, %zu in-transit tasks",
               report.steps, report.sim_ranks, report.in_transit.size());
  return report;
}

}  // namespace hia
