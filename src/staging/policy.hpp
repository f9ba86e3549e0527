// The staging matcher's decision rule, shared by the live scheduler
// (StagingService) and the planner's discrete-event replay. Pure and
// clock-agnostic: callers own the queue, the ledgers, the locking and the
// clock, and pass `now` in the clock of their enqueue stamps.
#pragma once

#include <cstddef>
#include <iterator>
#include <utility>

namespace hia {

/// Matcher discipline for the staging queue.
enum class QueuePolicy { kFcfs, kFair };

/// A task older than this is matched regardless of its tenant's deficit
/// (starvation guard: weights shape throughput, never deny service).
inline constexpr double kStarvationWaitS = 0.5;

/// One tenant's scheduling ledger.
struct TenantLedger {
  double weight = 1.0;
  size_t queue_bytes_cap = 0;   // 0 = uncapped
  size_t queue_depth_cap = 0;   // 0 = uncapped
  double bucket_seconds = 0.0;  // settled bucket occupancy (service)
  double inflight_s = 0.0;      // provisional charges outstanding
  double ewma_task_s = 0.0;     // smoothed per-attempt bucket seconds
  size_t queue_bytes = 0;       // input wire bytes of the queued tasks
  size_t queue_depth = 0;       // tasks of this tenant waiting now

  /// True when queueing `bytes` more would put the tenant over a cap.
  [[nodiscard]] bool capped(size_t bytes) const;
  /// Queue accounting: a task of `bytes` input bytes entered / left.
  void enqueue(size_t bytes);
  void dequeue(size_t bytes);
  /// Provisional charge held while an attempt is assigned: the EWMA
  /// per-attempt time (1 ms before the first settle). Returns the amount.
  double charge();
  /// Ends an attempt: releases (and zeroes) the held `charge_s` and adds
  /// `busy_s` of real bucket occupancy to the settled service and EWMA.
  void settle(double& charge_s, double busy_s);
  [[nodiscard]] double normalized() const {
    return (bucket_seconds + inflight_s) / weight;
  }
};

/// The task to serve next from [first, last), a queue in arrival order;
/// `last` when none is `eligible` (backoff, bucket avoidance). `entry(*it)`
/// is {tenant, enqueue time}; `ledger(tenant)` its ledger. FCFS: the first
/// eligible task. Fair: the least normalized-service tenant's oldest
/// eligible task (ties to the lowest id), or the oldest eligible task once
/// it has waited past kStarvationWaitS. One tenant queued: both are FCFS.
template <class It, class Entry, class Ledger, class Eligible>
It pick_task(It first, It last, double now, QueuePolicy rule, Entry entry,
             Ledger ledger, Eligible eligible) {
  It oldest = first;
  while (oldest != last && !eligible(*oldest)) ++oldest;
  if (oldest == last || rule == QueuePolicy::kFcfs) return oldest;
  const auto [head_tenant, head_enqueued] = entry(*oldest);
  if (now - head_enqueued > kStarvationWaitS) return oldest;
  // The first entry of each tenant met in arrival order is its oldest.
  It best = oldest;
  int best_tenant = head_tenant;
  double best_norm = ledger(best_tenant).normalized();
  for (It it = std::next(oldest); it != last; ++it) {
    const int tenant = entry(*it).first;
    if (tenant == best_tenant || !eligible(*it)) continue;
    const double norm = ledger(tenant).normalized();
    if (norm < best_norm || (norm == best_norm && tenant < best_tenant)) {
      best = it;
      best_tenant = tenant;
      best_norm = norm;
    }
  }
  return best;
}

}  // namespace hia
