// Tests for the flight recorder (obs/events.hpp): ring capacity and drop
// accounting, enable/disable, the hia-events-v1 spill round trip,
// corrupted-file rejection, the in-memory validator's conservation and
// monotonicity checks, and the end-to-end invariant the events gate in CI
// enforces: a concurrent multi-tenant campaign's recorded per-tenant
// partition exactly matches the ServiceReport, and the span tracer's B/E
// pairs stay well-nested under tenant-thread interleaving.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.hpp"
#include "core/stats_pipeline.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "service/campaign_service.hpp"

namespace hia {
namespace {

class EventsTest : public ::testing::Test {
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

/// A minimal conserved lifecycle: submit then one terminal transition.
void record_task(int tenant, int64_t id, obs::EventKind terminal) {
  obs::record_event(obs::EventKind::kTaskSubmit, tenant, -1, id, 100);
  obs::record_event(obs::EventKind::kTaskAssign, tenant, 0, id, 1);
  obs::record_event(terminal, tenant, 0, id, 1);
}

// ------------------------------------------------------------- recording

TEST_F(EventsTest, RecordsAreSnapshotSortedByWallTime) {
  record_task(1, 10, obs::EventKind::kTaskComplete);
  record_task(2, 11, obs::EventKind::kTaskDegrade);
  const std::vector<obs::EventRecord> events = obs::events_snapshot();
  ASSERT_EQ(events.size(), 6u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].t_us, events[i - 1].t_us);
  }
  EXPECT_EQ(obs::dropped_event_records(), 0u);
}

TEST_F(EventsTest, DisabledRecordsNothing) {
  obs::disable_events();
  EXPECT_FALSE(obs::events_enabled());
  record_task(1, 1, obs::EventKind::kTaskComplete);
  EXPECT_TRUE(obs::events_snapshot().empty());
  obs::enable_events();
  EXPECT_TRUE(obs::events_enabled());
  record_task(1, 2, obs::EventKind::kTaskComplete);
  EXPECT_EQ(obs::events_snapshot().size(), 3u);
}

TEST_F(EventsTest, RingOverflowDropsOldestAndCounts) {
  obs::reset_events();
  obs::set_events_capacity(8);
  // A fresh thread gets an empty capacity-8 ring (new, or an idle one that
  // reset_events emptied); the main thread's ring was sized at first touch
  // and may be larger.
  std::thread recorder([] {
    for (int i = 0; i < 20; ++i) {
      obs::record_event(obs::EventKind::kPut, 1, -1, i, 64);
    }
  });
  recorder.join();
  const std::vector<obs::EventRecord> events = obs::events_snapshot();
  EXPECT_EQ(events.size(), 8u);
  EXPECT_EQ(obs::dropped_event_records(), 12u);
  // Drop-oldest: the survivors are the 8 most recent records.
  EXPECT_EQ(events.front().a, 12);
  EXPECT_EQ(events.back().a, 19);
}

TEST_F(EventsTest, ExitedThreadRingsAreRecycled) {
  // Rings outlive their threads and are adopted by the next new thread, so
  // the ring count is bounded by peak concurrency, not by threads created.
  constexpr int kSequential = 12;
  constexpr int kRounds = 4;
  constexpr int kConcurrent = 3;
  constexpr int kPerThread = 100;
  obs::set_events_capacity(4096);  // holds every record below
  const size_t rings_before = obs::registered_event_rings();
  auto record_burst = [](int64_t first_id) {
    for (int i = 0; i < kPerThread; ++i) {
      obs::record_event(obs::EventKind::kPut, 1, -1, first_id + i, 64);
    }
  };

  int64_t next_id = 0;
  for (int t = 0; t < kSequential; ++t, next_id += kPerThread) {
    std::thread(record_burst, next_id).join();
  }
  EXPECT_LE(obs::registered_event_rings() - rings_before, 1u);

  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kConcurrent; ++t, next_id += kPerThread) {
      threads.emplace_back(record_burst, next_id);
    }
    for (std::thread& th : threads) th.join();
  }
  EXPECT_LE(obs::registered_event_rings() - rings_before,
            static_cast<size_t>(kConcurrent));

  // Every record of every exited thread is still in the snapshot.
  std::vector<obs::EventRecord> events = obs::events_snapshot();
  ASSERT_EQ(events.size(), static_cast<size_t>(next_id));
  std::vector<int64_t> ids;
  for (const obs::EventRecord& r : events) ids.push_back(r.a);
  std::sort(ids.begin(), ids.end());
  for (int64_t id = 0; id < next_id; ++id) ASSERT_EQ(ids[id], id);
  EXPECT_EQ(obs::dropped_event_records(), 0u);

  // A capacity change never reuses a ring of the old size: the next thread
  // gets a 2048-record ring (at most one new registration) and overflows
  // exactly that, though emptier 4096-record rings sit idle.
  obs::set_events_capacity(2048);
  const size_t rings_mid = obs::registered_event_rings();
  std::thread([] {
    for (int i = 0; i < 3000; ++i) {
      obs::record_event(obs::EventKind::kGet, 1, -1, i, 64);
    }
  }).join();
  EXPECT_LE(obs::registered_event_rings(), rings_mid + 1);
  EXPECT_EQ(obs::dropped_event_records(), 3000u - 2048u);
  events = obs::events_snapshot();
  EXPECT_EQ(events.size(), static_cast<size_t>(next_id) + 2048u);
}

TEST_F(EventsTest, VirtualTimestampPassesThrough) {
  obs::record_event(obs::EventKind::kTaskSubmit, 1, -1, 1, 10, 2.5);
  obs::record_event(obs::EventKind::kTaskComplete, 1, 0, 1, 1);
  const std::vector<obs::EventRecord> events = obs::events_snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].vt_s, 2.5);
  EXPECT_DOUBLE_EQ(events[1].vt_s, -1.0);
}

// ------------------------------------------------------------ validation

TEST_F(EventsTest, ValidatorEnforcesPerTenantConservation) {
  record_task(1, 1, obs::EventKind::kTaskComplete);
  record_task(1, 2, obs::EventKind::kTaskShed);
  record_task(2, 3, obs::EventKind::kTaskDegrade);
  obs::record_event(obs::EventKind::kTaskSubmit, 2, -1, 4, 50);
  obs::record_event(obs::EventKind::kTaskDefer, 2, -1, 4, 0);
  const obs::EventsValidation v =
      obs::validate_events(obs::events_snapshot(), 0);
  ASSERT_TRUE(v.ok) << v.error;
  ASSERT_EQ(v.tenants.size(), 2u);
  EXPECT_EQ(v.tenants[0].tenant, 1);
  EXPECT_EQ(v.tenants[0].submitted, 2u);
  EXPECT_EQ(v.tenants[0].completed, 1u);
  EXPECT_EQ(v.tenants[0].shed, 1u);
  EXPECT_EQ(v.tenants[1].submitted, 2u);
  EXPECT_EQ(v.tenants[1].degraded, 1u);
  EXPECT_EQ(v.tenants[1].deferred, 1u);

  // One more submit without a terminal transition breaks the partition.
  obs::record_event(obs::EventKind::kTaskSubmit, 1, -1, 9, 10);
  const obs::EventsValidation broken =
      obs::validate_events(obs::events_snapshot(), 0);
  EXPECT_FALSE(broken.ok);
  EXPECT_NE(broken.error.find("conservation"), std::string::npos);

  // ...unless the ring dropped records, when exact conservation is
  // unknowable and only reported.
  const obs::EventsValidation dropped =
      obs::validate_events(obs::events_snapshot(), 1);
  EXPECT_TRUE(dropped.ok) << dropped.error;
}

TEST_F(EventsTest, ValidatorRejectsMalformedStreams) {
  std::vector<obs::EventRecord> bad(1);
  bad[0].kind = 99;
  EXPECT_FALSE(obs::validate_events(bad, 0).ok);

  std::vector<obs::EventRecord> unordered(2);
  unordered[0].kind = static_cast<int32_t>(obs::EventKind::kPressure);
  unordered[0].t_us = 10.0;
  unordered[1].kind = static_cast<int32_t>(obs::EventKind::kPressure);
  unordered[1].t_us = 5.0;
  EXPECT_FALSE(obs::validate_events(unordered, 0).ok);

  std::vector<obs::EventRecord> orphan(1);
  orphan[0].kind = static_cast<int32_t>(obs::EventKind::kTaskSubmit);
  orphan[0].tenant = -1;  // task events must be tenant-attributed
  EXPECT_FALSE(obs::validate_events(orphan, 0).ok);
}

// ------------------------------------------------------------ spill file

TEST_F(EventsTest, SpillRoundTripValidates) {
  record_task(1, 1, obs::EventKind::kTaskComplete);
  record_task(3, 2, obs::EventKind::kTaskComplete);
  const std::string path = temp_path("events_roundtrip.bin");
  ASSERT_TRUE(obs::write_events_file(path));
  const obs::EventsValidation v = obs::validate_events_file(path);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.records, 6u);
  EXPECT_EQ(v.dropped, 0u);
  ASSERT_EQ(v.tenants.size(), 2u);
  EXPECT_EQ(v.tenants[0].tenant, 1);
  EXPECT_EQ(v.tenants[1].tenant, 3);
  std::remove(path.c_str());
}

TEST_F(EventsTest, RunConfigRoundTripsThroughSpillHeader) {
  record_task(1, 1, obs::EventKind::kTaskComplete);

  obs::EventsRunConfig cfg;
  cfg.buckets = 3;
  cfg.servers = 4;
  cfg.replicas = 2;
  cfg.faults = "crash-server=1@5,attempts=3";
  cfg.overload = "credits=8,queue=16,divert=degrade";
  cfg.tenant_weights = {1.0, 2.0, 4.0};
  obs::set_events_run_config(cfg);

  const std::string path = temp_path("events_run_config.bin");
  ASSERT_TRUE(obs::write_events_file(path));
  EXPECT_TRUE(obs::validate_events_file(path).ok);

  obs::EventsRunConfig got;
  std::string error;
  ASSERT_TRUE(obs::read_events_run_config(path, &got, &error)) << error;
  ASSERT_TRUE(got.present);
  EXPECT_EQ(got.buckets, 3);
  EXPECT_EQ(got.servers, 4);
  EXPECT_EQ(got.replicas, 2);
  EXPECT_EQ(got.faults, cfg.faults);
  EXPECT_EQ(got.overload, cfg.overload);
  ASSERT_EQ(got.tenant_weights.size(), 3u);
  EXPECT_DOUBLE_EQ(got.tenant_weights[0], 1.0);
  EXPECT_DOUBLE_EQ(got.tenant_weights[1], 2.0);
  EXPECT_DOUBLE_EQ(got.tenant_weights[2], 4.0);

  // reset_events clears the registration: the next spill has no block, and
  // reading it succeeds with present == false (the pre-PR10 spill shape).
  obs::reset_events();
  record_task(1, 1, obs::EventKind::kTaskComplete);
  ASSERT_TRUE(obs::write_events_file(path));
  got = obs::EventsRunConfig{};
  ASSERT_TRUE(obs::read_events_run_config(path, &got, &error)) << error;
  EXPECT_FALSE(got.present);
  std::remove(path.c_str());
}

TEST_F(EventsTest, CorruptedFilesAreRejected) {
  record_task(1, 1, obs::EventKind::kTaskComplete);
  const std::string path = temp_path("events_corrupt.bin");
  ASSERT_TRUE(obs::write_events_file(path));

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }

  auto write_variant = [&](const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };

  // Truncated mid-record.
  write_variant(bytes.substr(0, bytes.size() - 17));
  EXPECT_FALSE(obs::validate_events_file(path).ok);
  // Trailing garbage.
  write_variant(bytes + "xx");
  EXPECT_FALSE(obs::validate_events_file(path).ok);
  // Wrong magic.
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  write_variant(wrong_magic);
  EXPECT_FALSE(obs::validate_events_file(path).ok);
  // Intact bytes still validate (the harness itself is not the problem).
  write_variant(bytes);
  EXPECT_TRUE(obs::validate_events_file(path).ok);
  std::remove(path.c_str());
  EXPECT_FALSE(obs::validate_events_file(path).ok);
}

/// Writes an hia-events-v1 file with `header_json` and `records` zeroed
/// records after it (the header is whatever the test says it is).
void write_raw_spill(const std::string& path, const std::string& header_json,
                     size_t records) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const uint32_t version = 1;
  const auto header_bytes = static_cast<uint32_t>(header_json.size());
  out.write("hiaevts1", 8);
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&header_bytes),
            sizeof(header_bytes));
  out.write(header_json.data(), static_cast<std::streamsize>(header_bytes));
  const std::string body(records * sizeof(obs::EventRecord), '\0');
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
}

std::string spill_header(const std::string& count, const std::string& dropped,
                         const std::string& by_kind) {
  return "{\"schema\":\"hia-events-v1\",\"record_bytes\":48,\"count\":" +
         count + ",\"dropped\":" + dropped + ",\"dropped_by_kind\":{" +
         by_kind + "}}";
}

TEST_F(EventsTest, HostileSpillHeadersFailWithAnErrorNotAnException) {
  const std::string path = temp_path("events_hostile.bin");
  // The well-formed shape passes, so each rejection below is the field's.
  write_raw_spill(path, spill_header("1", "0", "\"3\":2"), 1);
  std::vector<obs::EventRecord> records;
  uint64_t dropped = 0;
  std::map<int32_t, uint64_t> by_kind;
  std::string error;
  ASSERT_TRUE(
      obs::read_events_file(path, &records, &dropped, &by_kind, &error))
      << error;
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(by_kind.at(3), 2u);

  const struct {
    const char* what;
    std::string header;
  } hostile[] = {
      // Each of these threw from the reader before it validated them:
      // bad_alloc, length_error, and invalid_argument from the key parse.
      {"count 1e13", spill_header("1e13", "0", "")},
      {"count -1", spill_header("-1", "0", "")},
      {"dropped -1", spill_header("1", "-1", "")},
      {"kind key x", spill_header("1", "0", "\"x\":1")},
      // And the neighbours of those shapes.
      {"count 2.5", spill_header("2.5", "0", "")},
      {"count 1e300", spill_header("1e300", "0", "")},
      {"count 2 for 1 record", spill_header("2", "0", "")},
      {"count 0 for 1 record", spill_header("0", "0", "")},
      {"dropped 1e30", spill_header("1", "1e30", "")},
      {"kind key -3", spill_header("1", "0", "\"-3\":1")},
      {"kind key 4294967296", spill_header("1", "0", "\"4294967296\":1")},
      {"kind value -1", spill_header("1", "0", "\"3\":-1")},
      {"kind value 0.5", spill_header("1", "0", "\"3\":0.5")},
  };
  for (const auto& h : hostile) {
    write_raw_spill(path, h.header, 1);
    error.clear();
    bool ok = true;
    EXPECT_NO_THROW(ok = obs::read_events_file(path, &records, &dropped,
                                                &by_kind, &error))
        << h.what;
    EXPECT_FALSE(ok) << h.what;
    EXPECT_FALSE(error.empty()) << h.what;
    EXPECT_FALSE(obs::validate_events_file(path).ok) << h.what;
  }

  // run_config counts are cast to int only after the same check.
  write_raw_spill(path,
                  "{\"schema\":\"hia-events-v1\",\"run_config\":"
                  "{\"buckets\":1e30}}",
                  0);
  obs::EventsRunConfig cfg;
  EXPECT_FALSE(obs::read_events_run_config(path, &cfg, &error));
  std::remove(path.c_str());
}

// --------------------------------------- end-to-end: campaign partition

TEST_F(EventsTest, CampaignEventsMatchServiceReportPartition) {
  // Trace alongside the recorder so the same interleaving exercises span
  // pairing (the tsan leg runs this test for the data-race surface).
  obs::reset();
  obs::enable();

  CampaignService::Options sopts;
  sopts.staging_servers = 1;
  sopts.staging_buckets = 2;
  sopts.overload = "queue-depth=16,credits=8";
  CampaignService service(sopts);

  RunConfig cfg;
  cfg.sim.grid = GlobalGrid{{16, 12, 8}, {1.0, 1.0, 1.0}};
  cfg.sim.ranks_per_axis = {1, 1, 1};
  cfg.steps = 3;
  for (int t = 0; t < 3; ++t) {
    CampaignService::TenantSpec spec;
    spec.name = "tenant-" + std::to_string(t + 1);
    spec.weight = t == 0 ? 2.0 : 1.0;
    spec.config = cfg;
    spec.setup = [](HybridRunner& runner) {
      runner.add_analysis(std::make_shared<HybridStatistics>());
    };
    service.add_tenant(std::move(spec));
  }
  const CampaignService::ServiceReport report = service.run();
  obs::disable();

  const std::string path = temp_path("events_campaign.bin");
  ASSERT_TRUE(obs::write_events_file(path));
  const obs::EventsValidation v = obs::validate_events_file(path);
  ASSERT_TRUE(v.ok) << v.error;
  ASSERT_EQ(v.dropped, 0u)
      << "ring overflowed; the partition check below would be vacuous";

  // The recorder counted every lifecycle transition the scheduler saw;
  // the service report re-derives the same partition from task records.
  // They must agree exactly, per tenant.
  ASSERT_EQ(report.rows.size(), 3u);
  for (const TenantRunRow& row : report.rows) {
    const obs::EventsValidation::TenantCounts* counts = nullptr;
    for (const obs::EventsValidation::TenantCounts& t : v.tenants) {
      if (t.tenant == row.tenant) counts = &t;
    }
    ASSERT_NE(counts, nullptr) << "tenant " << row.tenant << " unrecorded";
    EXPECT_EQ(counts->submitted, row.submitted) << "tenant " << row.tenant;
    EXPECT_EQ(counts->completed, row.completed) << "tenant " << row.tenant;
    EXPECT_EQ(counts->degraded, row.degraded) << "tenant " << row.tenant;
    EXPECT_EQ(counts->shed, row.shed) << "tenant " << row.tenant;
    EXPECT_EQ(counts->deferred, row.deferred) << "tenant " << row.tenant;
  }
  std::remove(path.c_str());

  // Span pairing under tenant-thread interleaving: every B has a
  // correctly nested E on its track.
  const std::string trace = obs::chrome_trace_json();
  const obs::TraceValidation tv = obs::validate_chrome_trace_json(trace);
  EXPECT_TRUE(tv.ok) << tv.error;
  EXPECT_GT(tv.spans, 0u);

  // poll_status() after the drain reflects the same terminal counts.
  CampaignService::Status status = service.poll_status();
  ASSERT_EQ(status.tenants.size(), 3u);
  for (const CampaignService::TenantStatus& ts : status.tenants) {
    const TenantRunRow& row = report.rows[static_cast<size_t>(ts.tenant - 1)];
    EXPECT_EQ(static_cast<uint64_t>(ts.completed), row.completed);
    EXPECT_EQ(ts.outstanding, 0u);
    EXPECT_EQ(ts.queue_depth, 0u);
  }
}

}  // namespace
}  // namespace hia
