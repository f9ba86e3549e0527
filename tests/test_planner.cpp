// Tests for the replay-driven capacity planner (planner/replay.hpp):
// hand-built event logs whose replayed makespans are known by
// construction — single-task identity, bucket serialization, queue-cap
// shed/degrade diversion, fair-share vs FCFS ordering, modeled
// transfers against the NetworkModel — plus the sweep grammar, the
// fail-closed contract on spills with dropped records, and a differential
// check that a live StagingService recording replays in its live dispatch
// order.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/attrib.hpp"
#include "obs/events.hpp"
#include "planner/replay.hpp"
#include "runtime/network_model.hpp"
#include "staging/scheduler.hpp"
#include "stress_scale.hpp"
#include "transport/dart.hpp"

namespace hia {
namespace {

using planner::Calibration;
using planner::DivertMode;
using planner::Prediction;
using planner::QueuePolicy;
using planner::Scenario;
using planner::SweepSpec;
using planner::Workload;

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset_events();
    obs::enable_events();
    obs::set_events_capacity(16384);
  }
  void TearDown() override {
    obs::reset_events();
    obs::enable_events();
    obs::set_events_capacity(16384);
  }

  static std::string temp_path(const char* name) {
    return ::testing::TempDir() + name;
  }
};

/// Builds one record with a strictly increasing wall stamp (the spill
/// sorts by t_us; attribution orders by vt_s with t_us as tiebreak).
obs::EventRecord ev(obs::EventKind kind, int tenant, int bucket, int64_t a,
                    int64_t b, double vt) {
  static double wall_us = 0.0;
  obs::EventRecord r;
  r.t_us = (wall_us += 1.0);
  r.vt_s = vt;
  r.a = a;
  r.b = b;
  r.kind = static_cast<int32_t>(kind);
  r.tenant = tenant;
  r.bucket = bucket;
  return r;
}

int idx(obs::TaskPhase p) { return static_cast<int>(p); }

/// One complete task: submit at `at`, assign at `assign`, xfer/work
/// seconds inside the occupancy, complete at `done`. No credit record,
/// so the replayed admission wait is zero by construction.
void add_task(std::vector<obs::EventRecord>* log, int tenant, int bucket,
              int64_t id, int64_t bytes, double at, double assign,
              double xfer_s, double work_s, double done) {
  using K = obs::EventKind;
  log->push_back(ev(K::kTaskSubmit, tenant, 0, id, bytes, at));
  log->push_back(ev(K::kTaskAssign, tenant, bucket, id, 1, assign));
  log->push_back(ev(K::kTaskXfer, tenant, bucket, id,
                    static_cast<int64_t>(xfer_s * 1e6), done));
  log->push_back(ev(K::kTaskWork, tenant, bucket, id,
                    static_cast<int64_t>(work_s * 1e6), done));
  log->push_back(ev(K::kTaskComplete, tenant, bucket, id, 1, done));
}

Workload workload_from(const std::vector<obs::EventRecord>& log) {
  return planner::extract_workload(obs::attribute_events(log, 0));
}

// ----------------------------------------------------- exact replays

TEST_F(PlannerTest, SingleTaskReplaysItsRecordedMakespanExactly) {
  // xfer 0.1 + work 0.2 + drain 0.1 inside the occupancy [0.0, 0.4]:
  // the replayed service is 0.4 s, so with no contention the predicted
  // makespan equals the measured one exactly.
  std::vector<obs::EventRecord> log;
  add_task(&log, /*tenant=*/0, /*bucket=*/0, /*id=*/1, /*bytes=*/4096,
           /*at=*/0.0, /*assign=*/0.0, /*xfer_s=*/0.1, /*work_s=*/0.2,
           /*done=*/0.4);
  const Workload w = workload_from(log);
  ASSERT_TRUE(w.ok) << w.error;
  ASSERT_EQ(w.tasks.size(), 1u);
  EXPECT_EQ(w.recorded_buckets, 1);
  EXPECT_NEAR(w.measured_makespan_s, 0.4, 1e-9);
  EXPECT_EQ(w.tasks[0].input_bytes, 4096);
  EXPECT_NEAR(w.tasks[0].drain_s, 0.1, 1e-9);

  const Prediction p = planner::replay(w, Scenario{});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_NEAR(p.makespan_s, 0.4, 1e-9);
  EXPECT_EQ(p.completed, 1u);
  EXPECT_NEAR(p.phase_totals[idx(obs::TaskPhase::kTransfer)], 0.1, 1e-9);
  EXPECT_NEAR(p.phase_totals[idx(obs::TaskPhase::kCompute)], 0.2, 1e-9);
  EXPECT_NEAR(p.phase_totals[idx(obs::TaskPhase::kDrain)], 0.1, 1e-9);

  const Calibration c = planner::calibrate(w);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_TRUE(c.calibrated);
  EXPECT_NEAR(c.rel_error, 0.0, 1e-9);
}

TEST_F(PlannerTest, BucketSerializationMakespanKnownByConstruction) {
  // Two 0.3 s tasks arriving together on one recorded bucket: the
  // recorded run serialized them (makespan 0.6), and so must the
  // replay. Doubling the buckets halves the predicted makespan.
  std::vector<obs::EventRecord> log;
  add_task(&log, 0, 0, 1, 64, 0.0, 0.0, 0.1, 0.1, 0.3);
  add_task(&log, 0, 0, 2, 64, 0.0, 0.3, 0.1, 0.1, 0.6);
  const Workload w = workload_from(log);
  ASSERT_TRUE(w.ok) << w.error;
  EXPECT_EQ(w.recorded_buckets, 1);
  EXPECT_NEAR(w.measured_makespan_s, 0.6, 1e-9);

  const Prediction one = planner::replay(w, Scenario{});
  ASSERT_TRUE(one.ok) << one.error;
  EXPECT_NEAR(one.makespan_s, 0.6, 1e-9);
  // The second task waits exactly the first task's service time.
  EXPECT_NEAR(one.phase_totals[idx(obs::TaskPhase::kQueue)], 0.3, 1e-9);
  EXPECT_NEAR(one.utilization, 1.0, 1e-9);

  Scenario two;
  two.buckets = 2;
  const Prediction par = planner::replay(w, two);
  ASSERT_TRUE(par.ok) << par.error;
  EXPECT_NEAR(par.makespan_s, 0.3, 1e-9);
  EXPECT_NEAR(par.phase_totals[idx(obs::TaskPhase::kQueue)], 0.0, 1e-9);

  const Calibration c = planner::calibrate(w);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_TRUE(c.calibrated);
  EXPECT_NEAR(c.rel_error, 0.0, 1e-9);
}

TEST_F(PlannerTest, QueueCapShedsOrDegradesDeterministically) {
  // Three simultaneous 0.2 s tasks, one bucket, queue capped at one
  // waiter. The matcher is work-conserving, so task 1 dispatches onto
  // the idle bucket at arrival, task 2 takes the single queue slot, and
  // task 3 hits the wall and diverts.
  std::vector<obs::EventRecord> log;
  add_task(&log, 0, 0, 1, 64, 0.0, 0.0, 0.0, 0.2, 0.2);
  add_task(&log, 0, 0, 2, 64, 0.0, 0.2, 0.0, 0.2, 0.4);
  add_task(&log, 0, 0, 3, 64, 0.0, 0.4, 0.0, 0.2, 0.6);
  const Workload w = workload_from(log);
  ASSERT_TRUE(w.ok) << w.error;

  Scenario shed;
  shed.queue_depth = 1;
  shed.divert = DivertMode::kShed;
  const Prediction ps = planner::replay(w, shed);
  ASSERT_TRUE(ps.ok) << ps.error;
  EXPECT_EQ(ps.completed, 2u);
  EXPECT_EQ(ps.shed, 1u);
  EXPECT_EQ(ps.peak_queue_depth, 1);
  // Tasks 1 and 2 serialize on the bucket; the shed task costs nothing.
  EXPECT_NEAR(ps.makespan_s, 0.4, 1e-9);

  Scenario degrade = shed;
  degrade.divert = DivertMode::kDegrade;
  const Prediction pd = planner::replay(w, degrade);
  ASSERT_TRUE(pd.ok) << pd.error;
  EXPECT_EQ(pd.completed, 2u);
  EXPECT_EQ(pd.degraded, 1u);
  // The diverted task runs at in-situ (compute-only) cost from t=0 and
  // finishes at 0.2, inside the bucket tasks' 0.4 s makespan.
  EXPECT_NEAR(pd.makespan_s, 0.4, 1e-9);
}

TEST_F(PlannerTest, FairShareBreaksTiesByTenantAndDivergesFromFcfs) {
  // Tenant 2's short tasks are admitted first, tenant 1's long task
  // last. Under both policies tenant 2's first task grabs the idle
  // bucket at arrival; at its completion FCFS keeps admission order,
  // while fair-share picks the least-served tenant — tenant 1 — so the
  // 1.0 s task jumps ahead of tenant 2's second and the turnarounds
  // shift.
  std::vector<obs::EventRecord> log;
  add_task(&log, 2, 0, 1, 64, 0.0, 0.0, 0.0, 0.1, 0.1);
  add_task(&log, 2, 0, 2, 64, 0.0, 0.1, 0.0, 0.1, 0.2);
  add_task(&log, 1, 0, 3, 64, 0.0, 0.2, 0.0, 1.0, 1.2);
  const Workload w = workload_from(log);
  ASSERT_TRUE(w.ok) << w.error;
  ASSERT_EQ(w.tenants.size(), 2u);

  const Prediction fcfs = planner::replay(w, Scenario{});
  ASSERT_TRUE(fcfs.ok) << fcfs.error;
  EXPECT_NEAR(fcfs.makespan_s, 1.2, 1e-9);
  EXPECT_NEAR(fcfs.total_turnaround_s, 0.1 + 0.2 + 1.2, 1e-9);

  Scenario fair;
  fair.policy = QueuePolicy::kFair;
  const Prediction pf = planner::replay(w, fair);
  ASSERT_TRUE(pf.ok) << pf.error;
  EXPECT_NEAR(pf.makespan_s, 1.2, 1e-9);
  // Order: t2a [0,0.1], t1 [0.1,1.1], t2b [1.1,1.2].
  EXPECT_NEAR(pf.total_turnaround_s, 0.1 + 1.1 + 1.2, 1e-9);
}

TEST_F(PlannerTest, ModeledTransfersUseTheNetworkModel) {
  // Re-modeling replaces the recorded 0.1 s transfer with the Gemini
  // model's cost for the task's input bytes on an idle link.
  std::vector<obs::EventRecord> log;
  add_task(&log, 0, 0, 1, 1 << 20, 0.0, 0.0, 0.1, 0.2, 0.4);
  const Workload w = workload_from(log);
  ASSERT_TRUE(w.ok) << w.error;

  Scenario modeled;
  modeled.model_network = true;
  const Prediction p = planner::replay(w, modeled);
  ASSERT_TRUE(p.ok) << p.error;
  const double expected =
      NetworkModel(modeled.net).transfer_seconds(1 << 20, 1);
  EXPECT_NEAR(p.phase_totals[idx(obs::TaskPhase::kTransfer)], expected,
              1e-12);
  // compute + drain still replay at recorded cost.
  EXPECT_NEAR(p.makespan_s, expected + 0.2 + 0.1, 1e-9);

  // A codec ratio shrinks the modeled wire bytes.
  Scenario quant = modeled;
  quant.codec_ratio = 0.25;
  const Prediction pq = planner::replay(w, quant);
  ASSERT_TRUE(pq.ok) << pq.error;
  EXPECT_NEAR(pq.phase_totals[idx(obs::TaskPhase::kTransfer)],
              NetworkModel(quant.net).transfer_seconds((1 << 20) / 4, 1),
              1e-12);
}

TEST_F(PlannerTest, PredictedPartitionTelescopesExactly) {
  // The same conservation property attribution enforces on recordings
  // holds for predictions by construction: phase totals sum to the
  // total turnaround.
  std::vector<obs::EventRecord> log;
  add_task(&log, 0, 0, 1, 64, 0.0, 0.0, 0.1, 0.1, 0.3);
  add_task(&log, 1, 0, 2, 64, 0.05, 0.3, 0.1, 0.1, 0.6);
  add_task(&log, 2, 0, 3, 64, 0.10, 0.6, 0.1, 0.1, 0.9);
  const Workload w = workload_from(log);
  ASSERT_TRUE(w.ok) << w.error;
  Scenario sc;
  sc.credits = 1;  // force admission waits too
  const Prediction p = planner::replay(w, sc);
  ASSERT_TRUE(p.ok) << p.error;
  double sum = 0.0;
  for (int i = 0; i < obs::kPhaseCount; ++i) sum += p.phase_totals[i];
  EXPECT_NEAR(sum, p.total_turnaround_s, 1e-9);
  EXPECT_GT(p.phase_totals[idx(obs::TaskPhase::kAdmit)], 0.0);
}

// ------------------------------------------------------- fail closed

TEST_F(PlannerTest, DroppedRecordsFailClosed) {
  std::vector<obs::EventRecord> log;
  add_task(&log, 0, 0, 1, 64, 0.0, 0.0, 0.0, 0.1, 0.1);
  const Workload w =
      planner::extract_workload(obs::attribute_events(log, /*dropped=*/3));
  EXPECT_FALSE(w.ok);
  EXPECT_NE(w.error.find("dropped"), std::string::npos) << w.error;
  // Replay and calibration inherit the refusal.
  EXPECT_FALSE(planner::replay(w, Scenario{}).ok);
  EXPECT_FALSE(planner::calibrate(w).ok);
}

TEST_F(PlannerTest, DroppedSpillFileFailsClosed) {
  // A real ring overflow: capacity 8, more lifecycle records than fit.
  obs::set_events_capacity(8);
  obs::reset_events();
  for (int64_t id = 1; id <= 16; ++id) {
    obs::record_event(obs::EventKind::kTaskSubmit, 0, 0, id, 64, 0.1);
    obs::record_event(obs::EventKind::kTaskComplete, 0, 0, id, 1, 0.2);
  }
  ASSERT_GT(obs::dropped_event_records(), 0u);
  const std::string path = temp_path("planner_dropped.bin");
  ASSERT_TRUE(obs::write_events_file(path));
  const Workload w = planner::extract_workload_file(path);
  EXPECT_FALSE(w.ok);
  EXPECT_NE(w.error.find("dropped"), std::string::npos) << w.error;
  std::remove(path.c_str());
}

// ------------------------------------ live vs. replay dispatch order
//
// A live StagingService run is recorded with its run_config, extracted,
// and replayed under that config: the replay's dispatch order must equal
// the spill's kTaskAssign order exactly. The live order is decided by
// the fair-share ledger (settled service, provisional in-flight charges,
// the starvation guard); timing only decides it where two decision
// instants nearly coincide, so the handlers keep them apart:
//   * the first `buckets` tasks are blockers, each submitted once the
//     previous one runs; every other task is queued while they run, and
//     the blockers hold until the grid origin is set after the last
//     submit, so every pick sees the whole remaining queue;
//   * each task ends on its bucket's grid, origin + (k + 1/2) periods on
//     bucket 0 and origin + k periods on bucket 1, `units` periods after
//     the grid point it started on: completions on the two buckets stay
//     half a period apart, and a task queued at the origin crosses the
//     starvation wait (25 periods) half a period from any bucket-0 pick.
// The replay runs ahead of the live clock only by the matcher's dispatch
// gaps (microseconds), far inside those margins.

constexpr double kGridS = 0.02;

struct LiveTask {
  int tenant = 1;
  int units = 1;  // grid periods of bucket time
};

struct LiveCase {
  int buckets = 1;
  std::vector<double> weights;  // index = tenant id - 1
  std::vector<LiveTask> tasks;  // submit order; the first `buckets` block
};

std::string ids(const std::vector<uint64_t>& order) {
  std::ostringstream out;
  for (const uint64_t id : order) out << id << ' ';
  return out.str();
}

/// Runs `c` live with the recorder on and returns the spill's kTaskAssign
/// task ids in order; the spill is left at `path`.
std::vector<uint64_t> record_live(const LiveCase& c, const std::string& path) {
  obs::reset_events();
  obs::EventsRunConfig cfg;
  cfg.buckets = c.buckets;
  cfg.servers = 1;
  cfg.tenant_weights = c.weights;
  obs::set_events_run_config(cfg);
  // A fresh thread submits: its event ring has the current capacity, where
  // this thread's may be one a capacity test shrank.
  std::thread driver([&c] {
    NetworkModel net;
    Dart dart(net);
    StagingService service(dart, {1, c.buckets});
    for (size_t t = 0; t < c.weights.size(); ++t) {
      service.set_tenant_policy(static_cast<int>(t) + 1, c.weights[t]);
    }
    std::atomic<int> started{0};
    std::atomic<double> origin{-1.0};
    service.register_handler("work", [&](TaskContext& ctx) {
      started.fetch_add(1);
      double o = origin.load();
      while (o < 0.0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        o = origin.load();
      }
      const double offset = ctx.bucket() == 0 ? 0.5 * kGridS : 0.0;
      const int units = c.tasks[static_cast<size_t>(ctx.task().step)].units;
      const double k = std::ceil((service.now() - o - offset) / kGridS +
                                 units - 0.5);
      const double end = o + offset + k * kGridS;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(end - service.now()));
    });
    for (size_t i = 0; i < c.tasks.size(); ++i) {
      InTransitTask task;
      task.analysis = "work";
      task.step = static_cast<long>(i);
      task.tenant = c.tasks[i].tenant;
      service.submit(std::move(task));
      if (i < static_cast<size_t>(c.buckets)) {
        while (started.load() <= static_cast<int>(i)) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
    }
    origin.store(service.now());
    service.drain();
  });
  driver.join();
  EXPECT_TRUE(obs::write_events_file(path));
  std::vector<obs::EventRecord> records;
  uint64_t dropped = 0;
  std::map<int32_t, uint64_t> dropped_by_kind;
  std::string error;
  EXPECT_TRUE(obs::read_events_file(path, &records, &dropped,
                                    &dropped_by_kind, &error))
      << error;
  std::vector<uint64_t> order;
  for (const obs::EventRecord& r : records) {
    if (r.kind == static_cast<int32_t>(obs::EventKind::kTaskAssign)) {
      order.push_back(static_cast<uint64_t>(r.a));
    }
  }
  return order;
}

/// Records `c` live, replays the spill under its recorded config, and
/// checks the two dispatch orders are identical. Returns the live order.
std::vector<uint64_t> expect_replay_matches_live(const LiveCase& c,
                                                 const std::string& label) {
  const std::string path =
      ::testing::TempDir() + "planner_live_" + label + ".bin";
  const std::vector<uint64_t> live = record_live(c, path);
  EXPECT_EQ(live.size(), c.tasks.size()) << label;
  const Workload w = planner::extract_workload_file(path);
  std::remove(path.c_str());
  EXPECT_TRUE(w.ok) << label << ": " << w.error;
  EXPECT_TRUE(w.run_config.present) << label;
  const Calibration cal = planner::calibrate(w);
  EXPECT_TRUE(cal.ok) << label << ": " << cal.error;
  EXPECT_EQ(cal.prediction.dispatched, live)
      << label << "\n  live:   " << ids(live)
      << "\n  replay: " << ids(cal.prediction.dispatched);
  return live;
}

/// A blocker per bucket, then `n` tasks of random tenant (1 or 2) and
/// random length (1 or 2 periods) from `seed`.
LiveCase random_case(int buckets, std::vector<double> weights, int n,
                     unsigned seed) {
  std::mt19937 rng(seed);
  LiveCase c;
  c.buckets = buckets;
  c.weights = std::move(weights);
  for (int b = 0; b < buckets; ++b) c.tasks.push_back({b % 2 + 1, 2});
  for (int i = 0; i < n; ++i) {
    c.tasks.push_back({static_cast<int>(rng() % 2) + 1,
                       static_cast<int>(rng() % 2) + 1});
  }
  return c;
}

TEST_F(PlannerTest, ReplayMatchesLiveDispatchOrderOnOneBucket) {
  // Unequal weights on one bucket: every pick compares settled service.
  const int seeds = 2 * stress_scale();
  for (int seed = 1; seed <= seeds; ++seed) {
    expect_replay_matches_live(
        random_case(1, {3.0, 1.0}, 10, static_cast<unsigned>(seed)),
        "one_bucket_seed" + std::to_string(seed));
  }
}

TEST_F(PlannerTest, ReplayMatchesLiveDispatchOrderOnTwoBuckets) {
  // Two buckets: each pick also weighs the other bucket's in-flight task
  // by its tenant's provisional (EWMA) charge, not its final cost. At
  // most 28 periods of work over two buckets end by ~16 periods, before
  // any task nears the starvation wait (which lands on bucket 1's grid).
  const int seeds = 2 * stress_scale();
  for (int seed = 1; seed <= seeds; ++seed) {
    expect_replay_matches_live(
        random_case(2, {2.0, 1.0}, 12, static_cast<unsigned>(seed)),
        "two_buckets_seed" + std::to_string(seed));
  }
}

TEST_F(PlannerTest, ReplayMatchesLiveStarvationGuard) {
  // Tenant 2's weight is so small that after its first task it never
  // wins on normalized service while tenant 1 has work queued; its second
  // task (id 3) is served only because it waited past kStarvationWaitS.
  LiveCase c;
  c.buckets = 1;
  c.weights = {1.0, 1e-3};
  c.tasks.push_back({1, 1});
  c.tasks.push_back({2, 1});
  c.tasks.push_back({2, 1});
  for (int i = 0; i < 26; ++i) c.tasks.push_back({1, 1});
  for (int rep = 1; rep <= stress_scale(); ++rep) {
    const std::vector<uint64_t> live =
        expect_replay_matches_live(c, "starvation_rep" + std::to_string(rep));
    ASSERT_EQ(live.size(), c.tasks.size());
    const auto guarded = std::find(live.begin(), live.end(), 3u);
    EXPECT_LT(guarded - live.begin(),
              static_cast<std::ptrdiff_t>(live.size()) - 1)
        << "the starvation guard never fired: " << ids(live);
  }
}

// ------------------------------------------- scenario + sweep grammar

TEST_F(PlannerTest, ScenarioSpecParsesKeysSuffixesAndDomains) {
  Scenario sc;
  std::string error;
  ASSERT_TRUE(planner::parse_scenario(
      "buckets=4,credits=8,queue-depth=16,divert=degrade,policy=fair",
      &sc, &error))
      << error;
  EXPECT_EQ(sc.buckets, 4);
  EXPECT_EQ(sc.credits, 8);
  EXPECT_EQ(sc.queue_depth, 16);
  EXPECT_EQ(sc.divert, DivertMode::kDegrade);
  EXPECT_EQ(sc.policy, QueuePolicy::kFair);
  EXPECT_FALSE(sc.model_network);

  // Network keys accept binary k/m/g suffixes (the overload-spec
  // convention) and imply xfer=modeled.
  ASSERT_TRUE(planner::parse_scenario("bte-bw=6g,smsg-max=4k", &sc, &error))
      << error;
  EXPECT_TRUE(sc.model_network);
  EXPECT_NEAR(sc.net.bte_bandwidth_Bps, 6.0 * 1024 * 1024 * 1024, 1e-3);
  EXPECT_EQ(sc.net.smsg_max_bytes, 4096u);

  // Named codecs map to their nominal ratios.
  ASSERT_TRUE(planner::parse_scenario("codec=quantize", &sc, &error));
  EXPECT_NEAR(sc.codec_ratio, planner::nominal_codec_ratio("quantize"),
              1e-12);

  Scenario bad;
  EXPECT_FALSE(planner::parse_scenario("buckets=0", &bad, &error));
  EXPECT_FALSE(planner::parse_scenario("bogus=1", &bad, &error));
  EXPECT_FALSE(planner::parse_scenario("divert=nowhere", &bad, &error));
  EXPECT_FALSE(planner::parse_scenario("buckets", &bad, &error));
  EXPECT_FALSE(planner::parse_scenario("codec=zstd", &bad, &error));
}

TEST_F(PlannerTest, SweepGrammarListsRangesAndSteps) {
  SweepSpec s;
  std::string error;
  ASSERT_TRUE(planner::parse_sweep("buckets=1..4", &s, &error)) << error;
  EXPECT_EQ(s.key, "buckets");
  EXPECT_EQ(s.values, (std::vector<std::string>{"1", "2", "3", "4"}));

  ASSERT_TRUE(planner::parse_sweep("arrival-scale=1..2:0.5", &s, &error))
      << error;
  EXPECT_EQ(s.values, (std::vector<std::string>{"1", "1.5", "2"}));

  ASSERT_TRUE(planner::parse_sweep("codec=raw,delta,quantize", &s, &error))
      << error;
  EXPECT_EQ(s.values,
            (std::vector<std::string>{"raw", "delta", "quantize"}));

  EXPECT_FALSE(planner::parse_sweep("buckets", &s, &error));
  EXPECT_FALSE(planner::parse_sweep("buckets=", &s, &error));
  EXPECT_FALSE(planner::parse_sweep("buckets=4..1", &s, &error));
  EXPECT_FALSE(planner::parse_sweep("buckets=1..4:0", &s, &error));
}

TEST_F(PlannerTest, SweepExpansionCrossesAxesRowMajor) {
  Scenario base;
  std::vector<SweepSpec> axes(2);
  std::string error;
  ASSERT_TRUE(planner::parse_sweep("buckets=1..2", &axes[0], &error));
  ASSERT_TRUE(planner::parse_sweep("credits=4,8", &axes[1], &error));
  std::vector<Scenario> grid;
  ASSERT_TRUE(planner::expand_sweeps(base, axes, &grid, &error)) << error;
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].label, "buckets=1;credits=4");
  EXPECT_EQ(grid[1].label, "buckets=1;credits=8");
  EXPECT_EQ(grid[2].label, "buckets=2;credits=4");
  EXPECT_EQ(grid[3].label, "buckets=2;credits=8");
  EXPECT_EQ(grid[3].buckets, 2);
  EXPECT_EQ(grid[3].credits, 8);

  // Swept values still pass scenario domain checks.
  ASSERT_TRUE(planner::parse_sweep("buckets=0..1", &axes[0], &error));
  EXPECT_FALSE(planner::expand_sweeps(base, {axes[0]}, &grid, &error));
}

TEST_F(PlannerTest, SweepAxesAndGridsAreCapped) {
  const size_t cap = planner::kMaxSweepScenarios;
  SweepSpec s;
  std::string error;
  // An axis holds at most `cap` points...
  ASSERT_TRUE(planner::parse_sweep(
      "buckets=1.." + std::to_string(cap), &s, &error))
      << error;
  EXPECT_EQ(s.values.size(), cap);
  EXPECT_EQ(s.values.back(), std::to_string(cap));
  EXPECT_FALSE(planner::parse_sweep(
      "buckets=1.." + std::to_string(cap + 1), &s, &error));
  EXPECT_FALSE(planner::parse_sweep("buckets=1..1e12", &s, &error));
  EXPECT_FALSE(planner::parse_sweep("arrival-scale=1..2:1e-300", &s, &error));
  // ...and endpoints and steps are finite (1..inf never terminated).
  EXPECT_FALSE(planner::parse_sweep("buckets=1..inf", &s, &error));
  EXPECT_FALSE(planner::parse_sweep("buckets=nan..4", &s, &error));
  EXPECT_FALSE(planner::parse_sweep("buckets=1..4:inf", &s, &error));
  std::string many = "credits=0";
  for (size_t i = 1; i <= cap; ++i) many.append(",").append(std::to_string(i));
  EXPECT_FALSE(planner::parse_sweep(many, &s, &error));

  // The cross product is capped too: 64 x 64 fits, 64 x 65 does not.
  Scenario base;
  std::vector<SweepSpec> axes(2);
  ASSERT_TRUE(planner::parse_sweep("buckets=1..64", &axes[0], &error));
  ASSERT_TRUE(planner::parse_sweep("credits=1..64", &axes[1], &error));
  std::vector<Scenario> grid;
  ASSERT_TRUE(planner::expand_sweeps(base, axes, &grid, &error)) << error;
  EXPECT_EQ(grid.size(), cap);
  ASSERT_TRUE(planner::parse_sweep("credits=0..64", &axes[1], &error));
  EXPECT_FALSE(planner::expand_sweeps(base, axes, &grid, &error));
  EXPECT_NE(error.find(std::to_string(cap)), std::string::npos) << error;
  // A hand-built empty axis is an error, not an out-of-bounds read.
  axes[1].values.clear();
  EXPECT_FALSE(planner::expand_sweeps(base, axes, &grid, &error));
}

}  // namespace
}  // namespace hia
