#include "planner/replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <queue>
#include <set>

#include "util/error.hpp"
#include "util/spec.hpp"

namespace hia::planner {

// ------------------------------------------------ workload extraction ----

Workload extract_workload(const obs::Attribution& attrib) {
  Workload w;
  if (!attrib.ok || !attrib.conserved) {
    // Fail closed, same contract as attribution: a spill with drops or a
    // partition that does not telescope cannot seed a trustworthy replay.
    w.error = attrib.error.empty() ? "attribution is not conserved"
                                   : attrib.error;
    return w;
  }
  std::set<int> buckets;
  std::set<int> tenants;
  for (const obs::TaskTimeline& tl : attrib.tasks) {
    ReplayTask t;
    t.task_id = tl.task_id;
    t.tenant = tl.tenant;
    t.step = tl.step;
    t.admit_wait_s = tl.phases[static_cast<int>(obs::TaskPhase::kAdmit)];
    t.arrival_vt = tl.submit_vt - t.admit_wait_s;
    t.input_bytes = tl.input_bytes;
    t.transfer_s = tl.phases[static_cast<int>(obs::TaskPhase::kTransfer)];
    t.compute_s = tl.phases[static_cast<int>(obs::TaskPhase::kCompute)];
    t.drain_s = tl.phases[static_cast<int>(obs::TaskPhase::kDrain)];
    t.terminal_kind = tl.terminal_kind;
    w.tasks.push_back(t);
    tenants.insert(tl.tenant);
    for (const obs::TaskTimeline::Segment& s : tl.segments) {
      if (s.bucket >= 0) buckets.insert(s.bucket);
    }
  }
  std::sort(w.tasks.begin(), w.tasks.end(),
            [](const ReplayTask& x, const ReplayTask& y) {
              if (x.arrival_vt != y.arrival_vt) {
                return x.arrival_vt < y.arrival_vt;
              }
              return x.task_id < y.task_id;
            });
  w.recorded_buckets = std::max<int>(1, static_cast<int>(buckets.size()));
  w.tenants.assign(tenants.begin(), tenants.end());
  w.measured_makespan_s = attrib.makespan_s;
  w.ok = true;
  return w;
}

Workload extract_workload_file(const std::string& path) {
  Workload w = extract_workload(obs::attribute_events_file(path));
  // The run-config header block is optional (pre-PR10 spills lack it) and
  // advisory: a missing or unreadable block leaves present == false and
  // the replay falls back to inferred configuration.
  std::string ignored;
  (void)obs::read_events_run_config(path, &w.run_config, &ignored);
  return w;
}

// ------------------------------------------------------ scenario spec ----

double nominal_codec_ratio(const std::string& codec) {
  // Nominal wire/raw ratios for the S3D field payloads the staging path
  // carries (docs/PLANNER.md documents the provenance; codec-ratio=R
  // overrides when you have a measured ratio for your own data).
  if (codec == "raw") return 1.0;
  if (codec == "rle") return 0.95;
  if (codec == "delta") return 0.45;
  if (codec == "quantize") return 0.20;
  return -1.0;
}

bool parse_scenario(const std::string& text, Scenario* io,
                    std::string* error) {
  try {
    spec::for_each("scenario", text, [io](const spec::Item& it) {
      const std::string& w = it.what;
      const std::string_view v = it.value;
      // Network and codec keys re-model transfers (xfer=modeled).
      auto remodel = [io](auto* field, auto value) {
        *field = value;
        io->model_network = true;
      };
      if (it.key == "buckets") {
        io->buckets = spec::integer<int>(w, v, 1);
      } else if (it.key == "nodes") {
        io->nodes = spec::positive(w, v);
      } else if (it.key == "base-nodes") {
        io->base_nodes = spec::positive(w, v);
      } else if (it.key == "arrival-scale") {
        io->arrival_scale = spec::positive(w, v);
      } else if (it.key == "credits") {
        io->credits = spec::integer<int>(w, v, 0);
      } else if (it.key == "queue-depth") {
        io->queue_depth = spec::integer<long>(w, v, 0);
      } else if (it.key == "divert") {
        io->divert = spec::choice<DivertMode>(
            w, v, {{"shed", DivertMode::kShed},
                   {"degrade", DivertMode::kDegrade}});
      } else if (it.key == "policy") {
        io->policy = spec::choice<QueuePolicy>(
            w, v, {{"fcfs", QueuePolicy::kFcfs},
                   {"fair", QueuePolicy::kFair}});
      } else if (it.key == "xfer") {
        io->model_network =
            spec::choice<bool>(w, v, {{"recorded", false}, {"modeled", true}});
      } else if (it.key == "codec") {
        const double ratio = nominal_codec_ratio(std::string(v));
        if (ratio <= 0.0) {
          spec::fail(w, "unknown codec '" + std::string(v) +
                            "' (raw, rle, delta, quantize)");
        }
        remodel(&io->codec_ratio, ratio);
      } else if (it.key == "codec-ratio") {
        remodel(&io->codec_ratio, spec::positive(w, v));
      } else if (it.key == "smsg-lat") {
        remodel(&io->net.smsg_latency_s, spec::real(w, v, 0.0));
      } else if (it.key == "smsg-bw") {
        remodel(&io->net.smsg_bandwidth_Bps, spec::positive(w, v));
      } else if (it.key == "smsg-max") {
        remodel(&io->net.smsg_max_bytes, spec::integer<size_t>(w, v));
      } else if (it.key == "bte-lat") {
        remodel(&io->net.bte_latency_s, spec::real(w, v, 0.0));
      } else if (it.key == "bte-bw") {
        remodel(&io->net.bte_bandwidth_Bps, spec::positive(w, v));
      } else if (it.key == "congestion") {
        remodel(&io->net.congestion_exponent, spec::real(w, v, 0.0));
      } else {
        spec::fail(w, "unknown scenario key");
      }
    });
  } catch (const Error& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  return true;
}

// ------------------------------------------------------------- replay ----

Prediction replay(const Workload& workload, const Scenario& scenario) {
  Prediction p;
  if (!workload.ok) {
    p.error = workload.error;
    return p;
  }
  const int buckets =
      scenario.buckets > 0 ? scenario.buckets : workload.recorded_buckets;
  double scale = scenario.arrival_scale;
  if (scenario.nodes > 0.0) scale *= scenario.base_nodes / scenario.nodes;
  if (!(scale > 0.0) || !std::isfinite(scale)) {
    p.error = "arrival scale must be positive and finite";
    return p;
  }
  if (workload.tasks.empty()) {
    p.ok = true;
    return p;
  }

  const size_t n = workload.tasks.size();
  const double t0 = workload.tasks.front().arrival_vt;
  struct Sim {
    const ReplayTask* task = nullptr;
    double arrival = 0.0;
    double admit_at = 0.0;
    double busy = 0.0;      // bucket occupancy of the dispatched attempt
    double charge_s = 0.0;  // provisional fair-share charge while in service
  };
  std::vector<Sim> sims(n);
  for (size_t i = 0; i < n; ++i) {
    sims[i].task = &workload.tasks[i];
    sims[i].arrival = t0 + (workload.tasks[i].arrival_vt - t0) * scale;
  }

  // Event kinds order same-instant processing: a completion releases its
  // bucket and credit before the next arrival or dispatch sees the state.
  enum EvKind { kBucketDone = 0, kDegradeDone = 1, kArrival = 2 };
  struct Ev {
    double t;
    int kind;
    uint64_t seq;
    size_t idx;
  };
  auto later = [](const Ev& x, const Ev& y) {
    if (x.t != y.t) return x.t > y.t;
    if (x.kind != y.kind) return x.kind > y.kind;
    return x.seq > y.seq;
  };
  std::priority_queue<Ev, std::vector<Ev>, decltype(later)> events(later);
  uint64_t seq = 0;
  for (size_t i = 0; i < n; ++i) {
    events.push({sims[i].arrival, kArrival, seq++, i});
  }

  const NetworkModel net(scenario.net);
  // The live matcher's ledgers and pick rule (staging/policy.hpp). Tenants
  // without a recorded weight (or pre-PR10 spills) replay at weight 1.0.
  std::map<int, TenantLedger> ledgers;
  for (size_t i = 0; i < scenario.tenant_weights.size(); ++i) {
    if (scenario.tenant_weights[i] > 0.0) {
      ledgers[static_cast<int>(i) + 1].weight = scenario.tenant_weights[i];
    }
  }
  auto entry = [&sims](size_t idx) {
    return std::pair{sims[idx].task->tenant, sims[idx].admit_at};
  };
  auto ledger = [&ledgers](int tenant) -> const TenantLedger& {
    return ledgers[tenant];
  };
  auto any = [](size_t) { return true; };
  std::deque<size_t> admit_fifo;  // arrived, waiting for a credit
  std::deque<size_t> ready;       // admitted, waiting for a bucket (arrival
                                  //   order, like the live queue)
  int free_buckets = buckets;
  int credits_in_use = 0;

  double& admit_total = p.phase_totals[static_cast<int>(obs::TaskPhase::kAdmit)];
  double& queue_total = p.phase_totals[static_cast<int>(obs::TaskPhase::kQueue)];
  double& xfer_total =
      p.phase_totals[static_cast<int>(obs::TaskPhase::kTransfer)];
  double& compute_total =
      p.phase_totals[static_cast<int>(obs::TaskPhase::kCompute)];
  double& drain_total =
      p.phase_totals[static_cast<int>(obs::TaskPhase::kDrain)];

  double max_terminal = sims.front().arrival;
  auto terminal = [&](size_t idx, double now) {
    p.turnarounds_s.push_back(now - sims[idx].arrival);
    p.terminals_vt.push_back(now);
    max_terminal = std::max(max_terminal, now);
  };

  auto transfer_seconds = [&](const ReplayTask& t) {
    if (!scenario.model_network) return t.transfer_s;
    const double scaled =
        static_cast<double>(std::max<int64_t>(0, t.input_bytes)) *
        scenario.codec_ratio;
    if (scaled < 1.0) return 0.0;
    // Congestion sampled at dispatch: this flow plus every busy bucket's
    // (each bucket pulls at attempt start). A coarse but honest stand-in
    // for continuous flow tracking — see docs/PLANNER.md.
    return net.transfer_seconds(static_cast<size_t>(scaled + 0.5),
                                buckets - free_buckets + 1);
  };

  auto dispatch = [&](double now) {
    while (free_buckets > 0) {
      const auto it = pick_task(ready.begin(), ready.end(), now,
                                scenario.policy, entry, ledger, any);
      if (it == ready.end()) break;
      const size_t idx = *it;
      ready.erase(it);
      const ReplayTask& t = *sims[idx].task;
      sims[idx].charge_s = ledgers[t.tenant].charge();
      p.dispatched.push_back(t.task_id);
      queue_total += now - sims[idx].admit_at;
      const double xfer = transfer_seconds(t);
      const double busy = xfer + t.compute_s + t.drain_s;
      xfer_total += xfer;
      compute_total += t.compute_s;
      drain_total += t.drain_s;
      p.busy_bucket_seconds += busy;
      sims[idx].busy = busy;
      --free_buckets;
      events.push({now + busy, kBucketDone, seq++, idx});
    }
  };

  auto try_admit = [&](double now) {
    while (!admit_fifo.empty() &&
           (scenario.credits == 0 || credits_in_use < scenario.credits)) {
      const size_t idx = admit_fifo.front();
      admit_fifo.pop_front();
      ++credits_in_use;
      admit_total += now - sims[idx].arrival;
      sims[idx].admit_at = now;
      const ReplayTask& t = *sims[idx].task;
      if (scenario.queue_depth > 0 &&
          static_cast<long>(ready.size()) >= scenario.queue_depth) {
        // The hard queue wall: divert before the queue, like submit().
        if (scenario.divert == DivertMode::kShed) {
          ++p.shed;
          terminal(idx, now);
          --credits_in_use;
        } else {
          // Degrade-to-in-situ: compute-only cost, no staging bucket.
          ++p.degraded;
          compute_total += t.compute_s;
          events.push({now + t.compute_s, kDegradeDone, seq++, idx});
        }
        continue;
      }
      ready.push_back(idx);
      p.peak_queue_depth =
          std::max(p.peak_queue_depth, static_cast<long>(ready.size()));
    }
  };

  while (!events.empty()) {
    const Ev e = events.top();
    events.pop();
    const double now = e.t;
    switch (e.kind) {
      case kBucketDone:
        ledgers[sims[e.idx].task->tenant].settle(sims[e.idx].charge_s,
                                                 sims[e.idx].busy);
        ++free_buckets;
        --credits_in_use;
        ++p.completed;
        terminal(e.idx, now);
        break;
      case kDegradeDone:
        --credits_in_use;
        terminal(e.idx, now);
        break;
      case kArrival:
        admit_fifo.push_back(e.idx);
        break;
    }
    try_admit(now);
    dispatch(now);
  }

  p.makespan_s = max_terminal - sims.front().arrival;
  for (const double turnaround : p.turnarounds_s) {
    p.total_turnaround_s += turnaround;
  }
  if (p.makespan_s > 0.0) {
    p.utilization =
        p.busy_bucket_seconds / (static_cast<double>(buckets) * p.makespan_s);
  }
  std::sort(p.terminals_vt.begin(), p.terminals_vt.end());
  p.ok = true;
  return p;
}

// -------------------------------------------------------- calibration ----

Calibration calibrate(const Workload& workload, double tolerance) {
  Calibration c;
  c.tolerance = tolerance;
  if (!workload.ok) {
    c.error = workload.error;
    return c;
  }
  Scenario recorded;
  recorded.label = "recorded";
  // The live scheduler has one matcher, fair share (FCFS for a single
  // tenant). A spill whose header carries a run_config block replays the
  // *configured* truth — tenant weights and bucket count — instead of
  // inferring it from the event stream (idle buckets never appear in
  // occupancies, and weights are invisible to the recorder's task
  // lifecycle events).
  recorded.policy = QueuePolicy::kFair;
  if (workload.run_config.present) {
    if (workload.run_config.buckets > 0) {
      recorded.buckets = workload.run_config.buckets;
    }
    recorded.tenant_weights = workload.run_config.tenant_weights;
  }
  c.prediction = replay(workload, recorded);
  if (!c.prediction.ok) {
    c.error = c.prediction.error;
    return c;
  }
  c.ok = true;
  c.measured_makespan_s = workload.measured_makespan_s;
  c.predicted_makespan_s = c.prediction.makespan_s;
  if (c.measured_makespan_s > 0.0) {
    c.rel_error = std::fabs(c.predicted_makespan_s - c.measured_makespan_s) /
                  c.measured_makespan_s;
  } else {
    c.rel_error = c.predicted_makespan_s > 0.0 ? 1.0 : 0.0;
  }
  c.calibrated = c.rel_error <= tolerance;
  return c;
}

// -------------------------------------------------------------- sweep ----

bool parse_sweep(const std::string& text, SweepSpec* out,
                 std::string* error) {
  try {
    const spec::Pair kv = spec::pair("sweep", text, '=', "KEY=VALUES");
    const std::string what = "sweep " + std::string(kv.first);
    out->key = kv.first;
    out->values.clear();
    const size_t dots = kv.second.find("..");
    if (dots == std::string_view::npos) {
      for (const std::string_view v : spec::list(kv.second)) {
        out->values.emplace_back(v);
      }
    } else {
      // LO..HI[:STEP], endpoints inclusive.
      const spec::Pair hi_step = spec::split(kv.second.substr(dots + 2), ':');
      const double lo = spec::real(what, kv.second.substr(0, dots));
      const double hi = spec::real(what, hi_step.first, lo);
      const double step =
          hi_step.has_second ? spec::positive(what, hi_step.second) : 1.0;
      const double points =
          std::floor((hi - lo + 1e-9 * std::max(1.0, std::fabs(hi))) / step) +
          1.0;
      if (!(points <= static_cast<double>(kMaxSweepScenarios))) {
        spec::fail(what, "range has more than " +
                             std::to_string(kMaxSweepScenarios) + " points");
      }
      for (size_t i = 0; i < static_cast<size_t>(points); ++i) {
        const double v = lo + static_cast<double>(i) * step;
        char buf[64];
        if (std::fabs(v) < 1e15 && std::fabs(v - std::round(v)) < 1e-9) {
          std::snprintf(buf, sizeof(buf), "%lld",
                        static_cast<long long>(std::llround(v)));
        } else {
          std::snprintf(buf, sizeof(buf), "%g", v);
        }
        out->values.push_back(buf);
      }
    }
    if (out->values.empty() || out->values.size() > kMaxSweepScenarios) {
      spec::fail(what, "needs 1 to " + std::to_string(kMaxSweepScenarios) +
                           " values");
    }
  } catch (const Error& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  return true;
}

bool expand_sweeps(const Scenario& base,
                   const std::vector<SweepSpec>& sweeps,
                   std::vector<Scenario>* out, std::string* error) {
  out->clear();
  size_t total = 1;
  for (const SweepSpec& axis : sweeps) {
    if (axis.values.empty() ||
        axis.values.size() > kMaxSweepScenarios / total) {
      if (error != nullptr) {
        *error = "sweep grid is empty or exceeds " +
                 std::to_string(kMaxSweepScenarios) + " scenarios";
      }
      return false;
    }
    total *= axis.values.size();
  }
  if (sweeps.empty()) {
    out->push_back(base);
    return true;
  }
  std::vector<size_t> index(sweeps.size(), 0);
  while (true) {
    Scenario s = base;
    std::string label;
    for (size_t axis = 0; axis < sweeps.size(); ++axis) {
      const std::string& value = sweeps[axis].values[index[axis]];
      if (!parse_scenario(sweeps[axis].key + "=" + value, &s, error)) {
        return false;
      }
      if (!label.empty()) label += ';';
      label += sweeps[axis].key + "=" + value;
    }
    s.label = label;
    out->push_back(std::move(s));
    // Row-major odometer: last axis fastest.
    size_t axis = sweeps.size();
    while (axis > 0) {
      --axis;
      if (++index[axis] < sweeps[axis].values.size()) break;
      index[axis] = 0;
      if (axis == 0) return true;
    }
  }
}

}  // namespace hia::planner
