#include "staging/policy.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hia {

bool TenantLedger::capped(size_t bytes) const {
  return (queue_bytes_cap > 0 && queue_bytes + bytes > queue_bytes_cap) ||
         (queue_depth_cap > 0 && queue_depth >= queue_depth_cap);
}

void TenantLedger::enqueue(size_t bytes) {
  queue_bytes += bytes;
  ++queue_depth;
}

void TenantLedger::dequeue(size_t bytes) {
  HIA_ASSERT(queue_bytes >= bytes && queue_depth > 0);
  queue_bytes -= bytes;
  --queue_depth;
}

double TenantLedger::charge() {
  const double charge_s = ewma_task_s > 0.0 ? ewma_task_s : 1e-3;
  inflight_s += charge_s;
  return charge_s;
}

void TenantLedger::settle(double& charge_s, double busy_s) {
  inflight_s -= std::min(inflight_s, charge_s);
  charge_s = 0.0;
  if (busy_s > 0.0) {
    bucket_seconds += busy_s;
    ewma_task_s = ewma_task_s <= 0.0 ? busy_s : 0.8 * ewma_task_s + 0.2 * busy_s;
  }
}

}  // namespace hia
