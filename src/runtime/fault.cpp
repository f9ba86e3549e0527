#include "runtime/fault.hpp"

#include <algorithm>

#include "util/rng.hpp"
#include "util/spec.hpp"

namespace hia {

const char* to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kFrameDrop: return "frame-drop";
    case FaultSite::kFrameDelay: return "frame-delay";
    case FaultSite::kFrameCorrupt: return "frame-corrupt";
    case FaultSite::kFrameCorruptByte: return "frame-corrupt-byte";
    case FaultSite::kTaskFail: return "task-fail";
    case FaultSite::kWorkerStall: return "worker-stall";
    case FaultSite::kBackoff: return "backoff";
    case FaultSite::kOverload: return "overload";
    case FaultSite::kCreditStarve: return "credit-starve";
    case FaultSite::kTenantHog: return "tenant-hog";
    case FaultSite::kBucketCrash: return "crash-bucket";
    case FaultSite::kServerCrash: return "crash-server";
  }
  return "?";
}

namespace {

/// One decorrelated draw: SplitMix64 over the (seed, site, key) triple.
/// Three rounds of the SplitMix64 finalizer decorrelate adjacent keys.
double keyed_uniform(uint64_t seed, FaultSite site, uint64_t key) {
  SplitMix64 sm(seed ^ (static_cast<uint64_t>(site) * 0x9e3779b97f4a7c15ULL) ^
                (key * 0xbf58476d1ce4e5b9ULL));
  sm.next();
  sm.next();
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

/// Mixes a (major, minor) pair into one key (id + attempt, bucket + step).
uint64_t pair_key(uint64_t major, uint64_t minor) {
  return major * 0x100000001b3ULL + minor;
}

}  // namespace

FaultPlanConfig FaultPlan::parse_spec(const std::string& text) {
  FaultPlanConfig cfg;
  spec::for_each("--faults", text, [&cfg](const spec::Item& it) {
    const std::string& w = it.what;
    const std::string_view v = it.value;
    // P[:S] directives: a probability and optional seconds.
    const spec::Pair ps = spec::split(v, ':');
    auto seconds = [&](double fallback) {
      return ps.has_second ? spec::real(w, ps.second, 0.0) : fallback;
    };
    // B@N directives: unit B (bucket, server) at step N.
    auto unit_at_step = [&](const char* form) {
      const spec::Pair bn = spec::pair(w, v, '@', form);
      return std::pair(spec::integer<int>(w, bn.first, 0),
                       spec::integer<long>(w, bn.second));
    };
    if (it.key == "drop") {
      cfg.frame_drop_prob = spec::probability(w, v);
    } else if (it.key == "corrupt") {
      cfg.frame_corrupt_prob = spec::probability(w, v);
    } else if (it.key == "delay") {
      cfg.frame_delay_prob = spec::probability(w, ps.first);
      cfg.frame_delay_s = seconds(cfg.frame_delay_s);
    } else if (it.key == "task-fail") {
      cfg.task_fail_prob = spec::probability(w, ps.first);
      cfg.retry.task_timeout_s = seconds(cfg.retry.task_timeout_s);
    } else if (it.key == "stall") {
      cfg.worker_stall_prob = spec::probability(w, ps.first);
      cfg.worker_stall_s = seconds(cfg.worker_stall_s);
    } else if (it.key == "kill-bucket") {
      const auto [bucket, step] = unit_at_step("B@N (bucket@step)");
      cfg.bucket_kills.push_back({bucket, step});
    } else if (it.key == "crash-bucket") {
      const auto [bucket, step] = unit_at_step("B@N (bucket@step)");
      cfg.bucket_crashes.push_back({bucket, step});
    } else if (it.key == "crash-server") {
      const auto [server, step] = unit_at_step("S@N (server@step)");
      cfg.server_crashes.push_back({server, step});
    } else if (it.key == "slow-bucket") {
      const spec::Pair bf = spec::pair(w, v, ':', "B:F (bucket:factor)");
      cfg.bucket_slowdowns.push_back(
          {spec::integer<int>(w, bf.first, 0), spec::real(w, bf.second, 1.0)});
    } else if (it.key == "overload") {
      const spec::Pair bn = spec::pair(w, v, '@', "B@N (bytes@step)");
      cfg.overload_injects.push_back({spec::integer<size_t>(w, bn.first, 1),
                                      spec::integer<long>(w, bn.second)});
    } else if (it.key == "credit-starve") {
      const spec::Pair cn = spec::pair(w, v, '@', "C@N (credits@step)");
      cfg.credit_starves.push_back({spec::integer<int>(w, cn.first, 1),
                                    spec::integer<long>(w, cn.second)});
    } else if (it.key == "tenant-hog") {
      const char* form = "T:B@N (tenant:bytes@step)";
      const spec::Pair tb = spec::pair(w, v, ':', form);
      const spec::Pair bn = spec::pair(w, tb.second, '@', form);
      cfg.tenant_hogs.push_back({spec::integer<int>(w, tb.first, 0),
                                 spec::integer<size_t>(w, bn.first, 1),
                                 spec::integer<long>(w, bn.second)});
    } else if (it.key == "attempts") {
      cfg.retry.max_task_attempts = spec::integer<int>(w, v, 1);
    } else if (it.key == "backoff") {
      const spec::Pair bc = spec::pair(w, v, ':', "BASE:CAP seconds");
      cfg.retry.backoff_base_s = spec::positive(w, bc.first);
      cfg.retry.backoff_cap_s =
          spec::real(w, bc.second, cfg.retry.backoff_base_s);
    } else if (it.key == "shed") {
      if (it.has_value) spec::fail(w, "takes no value");
      cfg.retry.degrade_to_insitu = false;
    } else if (it.key == "seed") {
      cfg.seed = spec::integer<uint64_t>(w, v);
    } else {
      spec::fail(w, "unknown directive");
    }
  });
  return cfg;
}

FaultPlan::FaultPlan(FaultPlanConfig config) : config_(std::move(config)) {}

double FaultPlan::roll(FaultSite site, uint64_t key) const {
  return keyed_uniform(config_.seed, site, key);
}

FaultPlan::FrameFault FaultPlan::frame_fault(uint64_t handle_id,
                                             int attempt) const {
  FrameFault fault;
  const uint64_t key = pair_key(handle_id, static_cast<uint64_t>(attempt));
  if (config_.frame_drop_prob > 0.0 &&
      roll(FaultSite::kFrameDrop, key) < config_.frame_drop_prob) {
    fault.drop = true;
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return fault;  // a dropped frame can be neither corrupted nor delayed
  }
  if (config_.frame_corrupt_prob > 0.0 &&
      roll(FaultSite::kFrameCorrupt, key) < config_.frame_corrupt_prob) {
    fault.corrupt = true;
    fault.corrupt_byte = static_cast<size_t>(
        roll(FaultSite::kFrameCorruptByte, key) * 1e9);
    frames_corrupted_.fetch_add(1, std::memory_order_relaxed);
  }
  if (config_.frame_delay_prob > 0.0 &&
      roll(FaultSite::kFrameDelay, key) < config_.frame_delay_prob) {
    fault.delay_s = config_.frame_delay_s;
    frames_delayed_.fetch_add(1, std::memory_order_relaxed);
    injected_delay_ns_.fetch_add(
        static_cast<uint64_t>(fault.delay_s * 1e9),
        std::memory_order_relaxed);
  }
  return fault;
}

bool FaultPlan::task_fails(uint64_t task_id, int attempt) const {
  if (config_.task_fail_prob <= 0.0) return false;
  const uint64_t key = pair_key(task_id, static_cast<uint64_t>(attempt));
  const bool fails = roll(FaultSite::kTaskFail, key) < config_.task_fail_prob;
  if (fails) tasks_failed_.fetch_add(1, std::memory_order_relaxed);
  return fails;
}

double FaultPlan::backoff_seconds(uint64_t task_id, int attempt) const {
  const RetryPolicy& r = config_.retry;
  // Decorrelated jitter, replayed from attempt 1 so the value is a pure
  // function of (seed, task_id, attempt) with no per-task mutable state.
  double sleep = r.backoff_base_s;
  for (int a = 1; a <= attempt; ++a) {
    const double u =
        roll(FaultSite::kBackoff, pair_key(task_id, static_cast<uint64_t>(a)));
    const double hi = std::max(r.backoff_base_s, 3.0 * sleep);
    sleep = std::min(r.backoff_cap_s,
                     r.backoff_base_s + u * (hi - r.backoff_base_s));
  }
  return std::clamp(sleep, r.backoff_base_s, r.backoff_cap_s);
}

bool FaultPlan::bucket_killed(int bucket, long step) const {
  for (const auto& kill : config_.bucket_kills) {
    if (kill.bucket == bucket && step >= kill.step) return true;
  }
  return false;
}

void FaultPlan::count_bucket_kill() const {
  buckets_killed_.fetch_add(1, std::memory_order_relaxed);
}

bool FaultPlan::bucket_crashed(int bucket, long step) const {
  for (const auto& crash : config_.bucket_crashes) {
    if (crash.bucket == bucket && step >= crash.step) return true;
  }
  return false;
}

void FaultPlan::count_bucket_crash() const {
  buckets_crashed_.fetch_add(1, std::memory_order_relaxed);
}

bool FaultPlan::server_crashed(int server, long step) const {
  for (const auto& crash : config_.server_crashes) {
    if (crash.server == server && step >= crash.step) return true;
  }
  return false;
}

void FaultPlan::count_server_crash() const {
  servers_crashed_.fetch_add(1, std::memory_order_relaxed);
}

void FaultPlan::count_overload_inject(size_t bytes) const {
  overload_bytes_injected_.fetch_add(bytes, std::memory_order_relaxed);
}

void FaultPlan::count_credit_starve(int credits) const {
  credits_starved_.fetch_add(static_cast<uint64_t>(credits),
                             std::memory_order_relaxed);
}

void FaultPlan::count_tenant_hog(size_t bytes) const {
  tenant_hog_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

double FaultPlan::bucket_slow_factor(int bucket) const {
  double factor = 1.0;
  for (const auto& slow : config_.bucket_slowdowns) {
    if (slow.bucket == bucket) factor = std::max(factor, slow.factor);
  }
  return factor;
}

double FaultPlan::worker_stall_seconds(uint64_t seq) const {
  if (config_.worker_stall_prob <= 0.0) return 0.0;
  if (roll(FaultSite::kWorkerStall, seq) >= config_.worker_stall_prob) {
    return 0.0;
  }
  worker_stalls_.fetch_add(1, std::memory_order_relaxed);
  return config_.worker_stall_s;
}

FaultStats FaultPlan::stats() const {
  FaultStats s;
  s.frames_dropped = frames_dropped_.load(std::memory_order_relaxed);
  s.frames_corrupted = frames_corrupted_.load(std::memory_order_relaxed);
  s.frames_delayed = frames_delayed_.load(std::memory_order_relaxed);
  s.injected_delay_s =
      static_cast<double>(injected_delay_ns_.load(std::memory_order_relaxed)) *
      1e-9;
  s.tasks_failed = tasks_failed_.load(std::memory_order_relaxed);
  s.worker_stalls = worker_stalls_.load(std::memory_order_relaxed);
  s.buckets_killed = buckets_killed_.load(std::memory_order_relaxed);
  s.buckets_crashed = buckets_crashed_.load(std::memory_order_relaxed);
  s.servers_crashed = servers_crashed_.load(std::memory_order_relaxed);
  s.overload_bytes_injected =
      overload_bytes_injected_.load(std::memory_order_relaxed);
  s.credits_starved = credits_starved_.load(std::memory_order_relaxed);
  s.tenant_hog_bytes = tenant_hog_bytes_.load(std::memory_order_relaxed);
  return s;
}

namespace {
std::atomic<const FaultPlan*> g_worker_faults{nullptr};
}  // namespace

void install_worker_faults(const FaultPlan* plan) {
  g_worker_faults.store(plan, std::memory_order_release);
}

const FaultPlan* worker_faults() {
  return g_worker_faults.load(std::memory_order_acquire);
}

}  // namespace hia
