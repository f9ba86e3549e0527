// Ablation: weighted fair share and per-tenant isolation in the staging
// matcher (DESIGN.md section 10). Two claims, each gated:
//
//   1. Shares track weights under backlog: with every tenant offered work
//      proportional to its weight (so all stay backlogged to the end),
//      each tenant's observed share of bucket-seconds lands within 0.15
//      of weight_t / sum(weights) — across tenant counts and weight skews.
//      Conservation stays exact per tenant: every submitted task ends in
//      exactly one record, all completed (no caps or faults here).
//   2. Isolation before sharing: a hog tenant flooding the queue behind a
//      per-tenant depth cap has its overflow diverted to the inline
//      fallback (charged to the hog), and the small tenants' p99
//      turnaround stays within 2x of their solo run.
//
// Gated against bench/baselines/BENCH_ablate_tenants.json by
// tools/bench_diff. The same machinery is driven end-to-end through
// `hia_campaign --tenants N --weights ...` (see ci/soak.sh).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "staging/scheduler.hpp"
#include "util/table.hpp"

#include "bench_common.hpp"

namespace {

constexpr int kBuckets = 2;
constexpr int kUnitTasks = 24;  // tasks per unit of weight (backlog regime)
constexpr auto kTaskDuration = std::chrono::milliseconds(1);
constexpr double kShareTolerance = 0.15;

struct Point {
  int tenants = 0;
  double skew = 1.0;  // tenant 1's weight; every other tenant has 1.0
  uint64_t submitted = 0;
  uint64_t completed = 0;
  double makespan_s = 0.0;
  double share_err_max = 0.0;
  bool conserved = true;
};

double p99_turnaround(std::vector<double>& turnarounds) {
  if (turnarounds.empty()) return 0.0;
  std::sort(turnarounds.begin(), turnarounds.end());
  const size_t idx = std::min(
      turnarounds.size() - 1,
      static_cast<size_t>(0.99 * static_cast<double>(turnarounds.size())));
  return turnarounds[idx];
}

// One backlog run: `tenants` tenants, tenant 1 carrying weight `skew`,
// everyone else weight 1, offered work proportional to weight.
Point run_point(int tenants, double skew) {
  using namespace hia;
  Point point;
  point.tenants = tenants;
  point.skew = skew;

  NetworkModel net;
  Dart dart(net);
  StagingService service(dart, {1, kBuckets});

  double total_weight = 0.0;
  std::map<int, uint64_t> submitted;
  for (int t = 1; t <= tenants; ++t) {
    const double weight = (t == 1) ? skew : 1.0;
    total_weight += weight;
    service.set_tenant_policy(t, weight);
    service.register_handler("work-t" + std::to_string(t), [](TaskContext&) {
      std::this_thread::sleep_for(kTaskDuration);
    });
    const int count = static_cast<int>(std::lround(kUnitTasks * weight));
    for (int i = 0; i < count; ++i) {
      InTransitTask task;
      task.analysis = "work-t" + std::to_string(t);
      task.step = i;
      task.tenant = t;
      service.submit(std::move(task));
    }
    submitted[t] = static_cast<uint64_t>(count);
    point.submitted += static_cast<uint64_t>(count);
  }
  service.drain();

  std::map<int, uint64_t> done;
  for (const TaskRecord& r : service.records()) {
    point.makespan_s = std::max(point.makespan_s, r.complete_time);
    if (r.outcome == TaskOutcome::kCompleted) {
      ++point.completed;
      ++done[r.tenant];
    }
  }
  for (const auto& [tenant, count] : submitted) {
    point.conserved = point.conserved && done[tenant] == count;
  }

  double total_service = 0.0;
  for (const auto& share : service.tenant_shares()) {
    total_service += share.bucket_seconds;
  }
  for (const auto& share : service.tenant_shares()) {
    const double target = share.weight / total_weight;
    const double observed =
        total_service > 0.0 ? share.bucket_seconds / total_service : 0.0;
    point.share_err_max =
        std::max(point.share_err_max, std::abs(observed - target));
  }
  return point;
}

struct IsoResult {
  double small_p99_s = 0.0;
  uint64_t small_completed = 0;
  uint64_t hog_diversions = 0;
  uint64_t hog_terminal = 0;  // completed + degraded + shed for the hog
  uint64_t hog_submitted = 0;
  bool conserved = true;
};

constexpr int kIsoBuckets = 4;
constexpr int kSmallTenants = 4;
constexpr int kSmallTasks = 25;
constexpr int kHogTenant = 9;
constexpr int kHogTasks = 300;
constexpr size_t kHogDepthCap = 16;

// Four small tenants, optionally contended by a hog whose queue depth is
// capped; the hog floods from its own thread (overflow degrades inline on
// that thread, so the hog pays for its own diverted work).
IsoResult run_iso(bool with_hog) {
  using namespace hia;
  IsoResult result;

  NetworkModel net;
  Dart dart(net);
  StagingService service(dart, {1, kIsoBuckets});

  for (int t = 1; t <= kSmallTenants; ++t) {
    service.set_tenant_policy(t, 1.0);
    service.register_handler("small-t" + std::to_string(t), [](TaskContext&) {
      std::this_thread::sleep_for(kTaskDuration);
    });
  }
  std::thread hog;
  if (with_hog) {
    service.set_tenant_policy(kHogTenant, 1.0, /*queue_bytes_cap=*/0,
                              kHogDepthCap);
    service.register_handler("hog", [](TaskContext&) {
      std::this_thread::sleep_for(kTaskDuration);
    });
    result.hog_submitted = kHogTasks;
    hog = std::thread([&service] {
      for (int i = 0; i < kHogTasks; ++i) {
        InTransitTask task;
        task.analysis = "hog";
        task.step = i;
        task.tenant = kHogTenant;
        service.submit(std::move(task));
      }
    });
  }
  for (int i = 0; i < kSmallTasks; ++i) {
    for (int t = 1; t <= kSmallTenants; ++t) {
      InTransitTask task;
      task.analysis = "small-t" + std::to_string(t);
      task.step = i;
      task.tenant = t;
      service.submit(std::move(task));
    }
  }
  if (hog.joinable()) hog.join();
  service.drain();

  std::map<int, uint64_t> terminal;
  std::vector<double> small_turnarounds;
  for (const TaskRecord& r : service.records()) {
    ++terminal[r.tenant];
    if (r.tenant == kHogTenant) {
      ++result.hog_terminal;
    } else if (r.outcome == TaskOutcome::kCompleted) {
      ++result.small_completed;
      small_turnarounds.push_back(r.complete_time - r.enqueue_time);
    }
  }
  result.small_p99_s = p99_turnaround(small_turnarounds);
  for (int t = 1; t <= kSmallTenants; ++t) {
    result.conserved =
        result.conserved && terminal[t] == static_cast<uint64_t>(kSmallTasks);
  }
  if (with_hog) {
    result.conserved =
        result.conserved && result.hog_terminal == result.hog_submitted;
    for (const auto& share : service.tenant_shares()) {
      if (share.tenant == kHogTenant) {
        result.hog_diversions = share.cap_diversions;
      }
    }
  }
  return result;
}

std::string point_tag(const Point& p) {
  return std::string("t")
      .append(std::to_string(p.tenants))
      .append("_s")
      .append(std::to_string(static_cast<int>(p.skew)));
}

}  // namespace

int main(int argc, char** argv) {
  // Writes straight to the bench_diff-gated filename (like fig5).
  hia::bench::ObsCli obs_cli = hia::bench::ObsCli::parse(
      argc, argv, "ablate_tenants", "BENCH_ablate_tenants.json");
  using namespace hia;
  using namespace hia::bench;

  const double task_s = std::chrono::duration<double>(kTaskDuration).count();
  std::printf("\n==== weighted fair share sweep (%d tasks per unit weight, "
              "%.0f ms each, %d buckets) ====\n\n",
              kUnitTasks, task_s * 1e3, kBuckets);

  Table table({"tenants", "skew", "submitted", "completed", "share err",
               "makespan (s)"});
  std::vector<Point> sweep;
  sweep.push_back(run_point(3, 1.0));
  sweep.push_back(run_point(3, 4.0));
  sweep.push_back(run_point(9, 4.0));
  for (const Point& p : sweep) {
    table.add_row({std::to_string(p.tenants), fmt_fixed(p.skew, 0),
                   std::to_string(p.submitted), std::to_string(p.completed),
                   fmt_fixed(p.share_err_max, 3),
                   fmt_fixed(p.makespan_s, 3)});
  }
  std::printf("%s\n", table.render().c_str());

  bool conserved = true;
  bool shares_ok = true;
  double share_err_worst = 0.0;
  for (const Point& p : sweep) {
    conserved = conserved && p.conserved && p.completed == p.submitted;
    shares_ok = shares_ok && p.share_err_max <= kShareTolerance;
    share_err_worst = std::max(share_err_worst, p.share_err_max);
  }
  shape_check("per-tenant conservation is exact at every point "
              "(every submitted task completed, counted per tenant)",
              conserved);
  shape_check("observed shares track weight/sum(weights) within 0.15 "
              "across tenant counts and skews",
              shares_ok);

  // ---- Scenario: hog isolation behind a per-tenant depth cap ----
  std::printf("==== hog isolation (%d small tenants x %d tasks on %d "
              "buckets; hog floods %d tasks behind depth cap %zu) ====\n\n",
              kSmallTenants, kSmallTasks, kIsoBuckets, kHogTasks,
              kHogDepthCap);
  const IsoResult solo = run_iso(false);
  const IsoResult contended = run_iso(true);
  const double p99_ratio =
      solo.small_p99_s > 0.0 ? contended.small_p99_s / solo.small_p99_s : 0.0;
  std::printf("  small p99 solo %.4f s -> contended %.4f s (%.2fx), "
              "hog cap diversions %llu of %llu submitted\n\n",
              solo.small_p99_s, contended.small_p99_s, p99_ratio,
              static_cast<unsigned long long>(contended.hog_diversions),
              static_cast<unsigned long long>(contended.hog_submitted));
  shape_check("hog overflow is diverted by its own cap, not absorbed "
              "into the shared queue",
              contended.hog_diversions > 0);
  shape_check("small tenants' p99 under the hog stays within 2x of solo "
              "(plus 20 ms of scheduler noise)",
              contended.small_p99_s <= 2.0 * solo.small_p99_s + 0.020);
  shape_check("isolation run loses no task on either side of the cap",
              solo.conserved && contended.conserved);

  for (const Point& p : sweep) {
    obs_cli.add_metric("completed_" + point_tag(p),
                       static_cast<double>(p.completed));
  }
  obs_cli.add_metric("conservation_ok",
                     conserved && solo.conserved && contended.conserved
                         ? 1.0 : 0.0);
  obs_cli.add_metric("share_ok_all", shares_ok ? 1.0 : 0.0);
  obs_cli.add_metric("share_err_worst", share_err_worst);
  obs_cli.add_metric("makespan_t9_s4_s", sweep.back().makespan_s);
  obs_cli.add_metric("hog_capped_ok",
                     contended.hog_diversions > 0 ? 1.0 : 0.0);
  obs_cli.add_metric("p99_iso_ratio", p99_ratio);
  obs_cli.finish();
  return 0;
}
