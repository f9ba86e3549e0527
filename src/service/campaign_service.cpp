#include "service/campaign_service.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "obs/histogram.hpp"
#include "runtime/fault.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace hia {

CampaignService::CampaignService(Options options)
    : options_(std::move(options)), network_(options_.network) {
  HIA_REQUIRE(options_.staging_buckets >= 1, "service needs >= 1 bucket");
  if (!options_.faults.empty()) {
    faults_ =
        std::make_unique<FaultPlan>(FaultPlan::parse_spec(options_.faults));
    install_worker_faults(faults_.get());
  }
  if (!options_.overload.empty()) {
    OverloadConfig ocfg = OverloadConfig::parse_spec(options_.overload);
    HIA_REQUIRE(ocfg.enabled(),
                "service overload spec sets no budget and no credits: " +
                    options_.overload);
    overload_ = std::make_unique<OverloadControl>(ocfg);
  }
  Dart::Options dopts = options_.dart;
  dopts.faults = faults_.get();
  dopts.overload = overload_.get();
  dart_ = std::make_unique<Dart>(network_, dopts);
  staging_ = std::make_unique<StagingService>(
      *dart_, StagingService::Options{options_.staging_servers,
                                      options_.staging_buckets, faults_.get(),
                                      overload_.get(),
                                      options_.staging_replicas});
  if (options_.pool_max > 0) {
    ElasticBucketPool::Options popts;
    popts.min_buckets = options_.pool_min >= 1 ? options_.pool_min : 1;
    popts.max_buckets = options_.pool_max;
    popts.cooldown_s = options_.pool_cooldown_s;
    HIA_REQUIRE(popts.max_buckets >= options_.staging_buckets,
                "pool_max below the initial bucket count");
    pool_ = std::make_unique<ElasticBucketPool>(*staging_, overload_.get(),
                                                popts);
  }
}

CampaignService::~CampaignService() {
  // Buckets may still touch the plan until the service is down; tear down
  // in reverse dependency order before releasing it.
  staging_.reset();
  dart_.reset();
  if (faults_ != nullptr) install_worker_faults(nullptr);
}

int CampaignService::add_tenant(TenantSpec spec) {
  HIA_REQUIRE(!ran_, "cannot add tenants after run()");
  HIA_REQUIRE(spec.credit_cap <= 0 || overload_ != nullptr,
              "tenant '" + spec.name +
                  "': credit_cap needs a service overload spec");
  const int id = registry_.add(spec.name, spec.weight);
  staging_->set_tenant_policy(id, spec.weight, spec.queue_bytes_cap,
                              spec.queue_depth_cap);
  if (spec.credit_cap > 0) {
    overload_->set_tenant_credit_cap(id, spec.credit_cap);
  }
  slo_targets_.push_back(spec.slo_target_s);
  runners_.push_back(std::make_unique<HybridRunner>(
      std::move(spec.config),
      SharedStagingEnv{dart_.get(), staging_.get(), overload_.get(), id,
                       TenantRegistry::ns_prefix(id)}));
  if (spec.setup) spec.setup(*runners_.back());
  return id;
}

HybridRunner& CampaignService::runner(int tenant) {
  HIA_REQUIRE(tenant >= 1 && tenant <= static_cast<int>(runners_.size()),
              "no such tenant: " + std::to_string(tenant));
  return *runners_[static_cast<size_t>(tenant - 1)];
}

CampaignService::Status CampaignService::poll_status() {
  Status st;
  const PressureSignal sig = staging_->pressure();
  st.pressure = sig.state;
  st.queue_depth = sig.queue_depth;
  st.queue_bytes = sig.queue_bytes;
  st.store_bytes = sig.store_bytes;
  st.credits_free = sig.credits_free;
  st.live_buckets = staging_->live_bucket_count();
  st.virtual_time_s = staging_->now();
  if (pool_ != nullptr) st.pool = pool_->stats();

  const std::vector<StagingService::TenantShare> shares =
      staging_->tenant_shares();
  double settled_bucket_s = 0.0;
  for (const StagingService::TenantShare& s : shares) {
    settled_bucket_s += s.bucket_seconds;
  }
  const double total_weight = registry_.total_weight();

  std::lock_guard<std::mutex> status_lock(status_mutex_);
  for (int id = 1; id <= registry_.count(); ++id) {
    TenantStatus ts;
    ts.tenant = id;
    ts.name = registry_.name(id);
    ts.weight = registry_.weight(id);
    ts.target_share = total_weight > 0.0 ? ts.weight / total_weight : 0.0;
    for (const StagingService::TenantShare& s : shares) {
      if (s.tenant != id) continue;
      ts.observed_share =
          settled_bucket_s > 0.0 ? s.bucket_seconds / settled_bucket_s : 0.0;
      ts.queue_depth = s.queue_depth;
      ts.queue_bytes = s.queue_bytes;
      ts.outstanding = s.outstanding;
      ts.completed = static_cast<int64_t>(s.completed);
      ts.degraded = static_cast<int64_t>(s.degraded);
      ts.shed = static_cast<int64_t>(s.shed);
      ts.deferred = static_cast<int64_t>(s.deferred);
      break;
    }
    if (overload_ != nullptr) {
      const OverloadControl::TenantStats os = overload_->tenant_stats(id);
      ts.credits_outstanding = os.credits_outstanding;
      ts.credit_cap = os.credit_cap;
    }
    obs::Labels labels;
    labels.tenant = id;
    ts.slo_target_s = slo_targets_[static_cast<size_t>(id - 1)];
    const obs::HistogramSnapshot turnaround =
        obs::histogram("staging_turnaround_s", labels).snapshot();
    ts.p99_turnaround_s = turnaround.quantile(0.99);
    ts.slo_samples = turnaround.count;
    const int target_bucket = obs::histogram_bucket_index(ts.slo_target_s);
    for (int b = target_bucket + 1;
         b < static_cast<int>(turnaround.buckets.size()); ++b) {
      ts.slo_over += turnaround.buckets[static_cast<size_t>(b)];
    }
    std::pair<uint64_t, uint64_t>& prev = slo_prev_[id];
    const uint64_t new_samples =
        ts.slo_samples >= prev.first ? ts.slo_samples - prev.first : 0;
    const uint64_t new_over =
        ts.slo_over >= prev.second ? ts.slo_over - prev.second : 0;
    ts.slo_burn = new_samples > 0
                      ? static_cast<double>(new_over) /
                            static_cast<double>(new_samples)
                      : 0.0;
    prev = {ts.slo_samples, ts.slo_over};
    st.tenants.push_back(std::move(ts));
  }
  return st;
}

CampaignService::ServiceReport CampaignService::run() {
  HIA_REQUIRE(!ran_, "run() may be called once");
  HIA_REQUIRE(!runners_.empty(), "no tenants registered");
  ran_ = true;

  const int n = registry_.count();
  HIA_LOG_INFO("service", "starting %d tenant campaigns on %d buckets", n,
               staging_->live_bucket_count());

  std::vector<RunReport> reports(static_cast<size_t>(n));
  std::vector<std::exception_ptr> errors(static_cast<size_t>(n));
  std::atomic<int> running{n};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int id = 1; id <= n; ++id) {
    threads.emplace_back([this, id, &reports, &errors, &running] {
      const size_t i = static_cast<size_t>(id - 1);
      try {
        reports[i] = runners_[i]->run();
      } catch (...) {
        errors[i] = std::current_exception();
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }

  // Supervision loop: while tenants run, drive the elastic pool policy.
  while (running.load(std::memory_order_acquire) > 0) {
    if (pool_ != nullptr) pool_->step();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  ServiceReport out;
  const std::vector<TaskRecord> all_records = staging_->records();
  for (int id = 1; id <= n; ++id) {
    const size_t i = static_cast<size_t>(id - 1);
    out.tenants.push_back(
        TenantReport{id, registry_.name(id), std::move(reports[i])});
    out.rows.push_back(
        registry_.row(id, *staging_, overload_.get(), all_records));
  }
  if (pool_ != nullptr) out.pool = pool_->stats();
  out.final_buckets = staging_->live_bucket_count();

  // Injection-side ledger (service-global: the plan and the shared gate).
  if (faults_ != nullptr) {
    const FaultStats stats = faults_->stats();
    out.resilience.frames_dropped = stats.frames_dropped;
    out.resilience.frames_corrupted = stats.frames_corrupted;
    out.resilience.frames_delayed = stats.frames_delayed;
    out.resilience.injected_delay_s = stats.injected_delay_s;
    out.resilience.tasks_failed = stats.tasks_failed;
    out.resilience.worker_stalls = stats.worker_stalls;
    out.resilience.buckets_killed = stats.buckets_killed;
    out.resilience.buckets_crashed = stats.buckets_crashed;
    out.resilience.servers_crashed = stats.servers_crashed;
    out.resilience.overload_bytes_injected = stats.overload_bytes_injected;
    out.resilience.credits_starved = stats.credits_starved;
    out.resilience.tenant_hog_bytes = stats.tenant_hog_bytes;
  }
  // Crash-recovery ledger: exactly-once accounting under ungraceful loss.
  out.resilience.leases_expired = staging_->leases_expired();
  out.resilience.tasks_reexecuted = staging_->tasks_reexecuted();
  out.resilience.zombies_fenced = staging_->zombies_fenced();
  out.resilience.replicas_repaired = staging_->store().replicas_repaired();
  out.resilience.objects_lost = staging_->store().objects_lost();
  if (overload_ != nullptr) {
    const OverloadControl::Stats ostats = overload_->stats();
    out.resilience.admission_overdrafts = ostats.admission_overdrafts;
    out.resilience.admission_wait_s = ostats.admission_wait_s;
    out.resilience.peak_queue_bytes = ostats.peak_queue_bytes;
    out.resilience.overload_diversions = staging_->overload_diversions();
  }
  // Transport counters: every tenant's traffic crosses the one Dart.
  const DartCounters dart_counters = dart_->counters();
  out.resilience.frame_retransmits = dart_counters.get_retries;
  out.resilience.crc_failures = dart_counters.crc_failures;
  out.resilience.recovered_bytes = dart_counters.recovered_bytes;
  // Reaction-side totals across every tenant's report.
  for (const TenantReport& t : out.tenants) {
    const ResilienceSummary& r = t.report.resilience;
    out.resilience.tasks_completed += r.tasks_completed;
    out.resilience.tasks_degraded += r.tasks_degraded;
    out.resilience.tasks_deferred += r.tasks_deferred;
    out.resilience.tasks_shed += r.tasks_shed;
    out.resilience.task_retries += r.task_retries;
    out.resilience.backoff_seconds += r.backoff_seconds;
    out.resilience.steer_in_transit += r.steer_in_transit;
    out.resilience.steer_in_situ += r.steer_in_situ;
    out.resilience.steer_deferred += r.steer_deferred;
    out.resilience.steer_shed += r.steer_shed;
  }

  HIA_LOG_INFO("service",
               "campaigns done: %d tenants, %zu records, pool %llu grows / "
               "%llu shrinks, %d buckets at drain",
               n, all_records.size(),
               static_cast<unsigned long long>(out.pool.grows),
               static_cast<unsigned long long>(out.pool.shrinks),
               out.final_buckets);
  return out;
}

}  // namespace hia
