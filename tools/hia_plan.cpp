// hia_plan — replay-driven what-if capacity planner for hia-events-v1
// spills (planner/replay.hpp):
//
//   hia_plan <events.bin> [--set K=V,...] [--sweep KEY=SPEC]...
//            [--calibrate] [--tolerance F] [--summary out.json]
//
// Reconstructs the recorded task workload (arrival order, admission
// waits, per-task transfer/compute/drain costs, tenants, input bytes)
// and re-executes it against the staging-scheduler + NetworkModel
// discrete-event replay under hypothetical configurations:
//
//   --set K=V,...      scenario overrides (buckets, credits,
//                      queue-depth, divert, policy, nodes, base-nodes,
//                      arrival-scale, xfer, codec, codec-ratio,
//                      smsg-lat, smsg-bw, smsg-max, bte-lat, bte-bw,
//                      congestion); repeatable, later keys win
//   --sweep KEY=SPEC   sweep axis: V1,V2,... | LO..HI | LO..HI:STEP;
//                      repeatable, axes cross-multiply into a grid
//   --calibrate        replay the recorded configuration and require
//                      the predicted makespan to match the measured one
//   --tolerance F      relative calibration tolerance (default 0.15)
//   --summary FILE     schema-valid RunSummary (hia-run-summary-v1) with
//                      replay_calibrated_ok / replay_sweep_ok booleans
//                      and a plan_makespan_s[label] metric per scenario
//
// A spill with dropped records FAILS CLOSED (exit 1): lost records mean
// the replayed workload is unverifiable.
//
// Exit status: 0 on success, 1 when extraction/replay/calibration fails,
// 2 on usage/I-O errors.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/attrib.hpp"
#include "obs/histogram.hpp"
#include "obs/run_summary.hpp"
#include "obs/timeseries.hpp"
#include "planner/replay.hpp"
#include "util/error.hpp"
#include "util/spec.hpp"

namespace {

using hia::obs::kPhaseCount;
using hia::obs::TaskPhase;
using hia::obs::phase_name;
using hia::planner::Calibration;
using hia::planner::Prediction;
using hia::planner::Scenario;
using hia::planner::SweepSpec;
using hia::planner::Workload;

int usage() {
  std::fprintf(
      stderr,
      "usage: hia_plan <events.bin> [--set K=V,...] [--sweep KEY=SPEC]...\n"
      "                [--calibrate] [--tolerance F] [--summary out.json]\n"
      "  --set K=V,...    scenario overrides (buckets, credits,\n"
      "                   queue-depth, divert, policy, nodes, base-nodes,\n"
      "                   arrival-scale, xfer, codec, codec-ratio,\n"
      "                   smsg-lat, smsg-bw, smsg-max, bte-lat, bte-bw,\n"
      "                   congestion); repeatable, later keys win\n"
      "  --sweep KEY=SPEC sweep axis: V1,V2,... | LO..HI | LO..HI:STEP;\n"
      "                   repeatable, axes cross-multiply\n"
      "  --calibrate      require predicted makespan to reproduce the\n"
      "                   measured one under the recorded configuration\n"
      "  --tolerance F    relative calibration tolerance (default %.2f)\n"
      "  --summary FILE   write an hia-run-summary-v1 RunSummary\n",
      hia::planner::kDefaultCalibrationTolerance);
  return 2;
}

void print_prediction(const Prediction& p) {
  std::printf(
      "  predicted makespan %.6f s, %llu completed, %llu degraded, "
      "%llu shed\n",
      p.makespan_s, static_cast<unsigned long long>(p.completed),
      static_cast<unsigned long long>(p.degraded),
      static_cast<unsigned long long>(p.shed));
  std::printf("  peak queue depth %ld, bucket utilization %.1f%%\n",
              p.peak_queue_depth, 100.0 * p.utilization);
  std::printf("  %-10s  %14s  %7s\n", "phase", "task-seconds", "share");
  for (int i = 0; i < kPhaseCount; ++i) {
    std::printf("  %-10s  %14.6f  %6.1f%%\n",
                phase_name(static_cast<TaskPhase>(i)), p.phase_totals[i],
                p.total_turnaround_s > 0.0
                    ? 100.0 * p.phase_totals[i] / p.total_turnaround_s
                    : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* events_path = nullptr;
  const char* summary_path = nullptr;
  std::vector<std::string> set_specs;
  std::vector<std::string> sweep_specs;
  bool do_calibrate = false;
  double tolerance = hia::planner::kDefaultCalibrationTolerance;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) return usage();
    if (std::strcmp(argv[i], "--set") == 0 && i + 1 < argc) {
      set_specs.push_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--sweep") == 0 && i + 1 < argc) {
      sweep_specs.push_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--calibrate") == 0) {
      do_calibrate = true;
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      try {
        tolerance = hia::spec::positive("--tolerance", argv[++i]);
      } catch (const hia::Error& e) {
        std::fprintf(stderr, "hia_plan: %s\n", e.what());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--summary") == 0 && i + 1 < argc) {
      summary_path = argv[++i];
    } else if (argv[i][0] != '-' && events_path == nullptr) {
      events_path = argv[i];
    } else {
      return usage();
    }
  }
  if (events_path == nullptr) return usage();

  // Validate the scenario and sweep specs before touching the spill, so
  // usage errors fail fast and print nothing but the diagnostic.
  Scenario base;
  std::string error;
  for (const std::string& spec : set_specs) {
    if (!hia::planner::parse_scenario(spec, &base, &error)) {
      std::fprintf(stderr, "hia_plan: --set %s: %s\n", spec.c_str(),
                   error.c_str());
      return 2;
    }
    if (!base.label.empty()) base.label += ';';
    base.label += spec;
  }
  if (base.label.empty()) base.label = "recorded";

  std::vector<SweepSpec> sweeps;
  for (const std::string& spec : sweep_specs) {
    SweepSpec axis;
    if (!hia::planner::parse_sweep(spec, &axis, &error)) {
      std::fprintf(stderr, "hia_plan: --sweep %s: %s\n", spec.c_str(),
                   error.c_str());
      return 2;
    }
    sweeps.push_back(std::move(axis));
  }
  std::vector<Scenario> scenarios;
  if (!hia::planner::expand_sweeps(base, sweeps, &scenarios, &error)) {
    std::fprintf(stderr, "hia_plan: sweep expansion FAILED: %s\n",
                 error.c_str());
    return 2;
  }

  const hia::obs::Attribution attrib =
      hia::obs::attribute_events_file(events_path);
  if (!attrib.ok && attrib.tasks.empty() && attrib.dropped == 0) {
    // Framing failure before any timeline was rebuilt: an I/O-level error.
    std::fprintf(stderr, "hia_plan: %s: %s\n", events_path,
                 attrib.error.c_str());
    return 2;
  }
  Workload workload = hia::planner::extract_workload(attrib);
  if (!workload.ok) {
    std::fprintf(stderr, "hia_plan: workload extraction FAILED: %s\n",
                 workload.error.c_str());
    return 1;
  }
  (void)hia::obs::read_events_run_config(events_path, &workload.run_config,
                                         &error);
  std::printf(
      "hia_plan: %s: %zu tasks, %zu tenants, %d recorded buckets, "
      "measured makespan %.6f s\n",
      events_path, workload.tasks.size(), workload.tenants.size(),
      workload.recorded_buckets, workload.measured_makespan_s);
  if (workload.run_config.present) {
    // A PR10+ spill carries the run's true configuration in its header;
    // replay it instead of inferring from the event stream. Scenario
    // overrides still win (parse order: header first, --set on top).
    std::string weights;
    for (const double w : workload.run_config.tenant_weights) {
      if (!weights.empty()) weights += ',';
      weights += std::to_string(w);
    }
    std::printf(
        "  recorded config: %d buckets, %d servers, %d replicas, "
        "weights [%s], faults \"%s\", overload \"%s\"\n",
        workload.run_config.buckets, workload.run_config.servers,
        workload.run_config.replicas,
        weights.empty() ? "equal" : weights.c_str(),
        workload.run_config.faults.c_str(),
        workload.run_config.overload.c_str());
    // Every scenario (base and sweeps) replays with the recorded weights;
    // capacity what-ifs change the machine, not the workload's policy.
    for (hia::planner::Scenario& sc : scenarios) {
      sc.tenant_weights = workload.run_config.tenant_weights;
    }
  }

  bool failed = false;

  Calibration cal;
  if (do_calibrate) {
    cal = hia::planner::calibrate(workload, tolerance);
    if (!cal.ok) {
      std::fprintf(stderr, "hia_plan: calibration replay FAILED: %s\n",
                   cal.error.c_str());
      return 1;
    }
    std::printf(
        "  calibration: measured %.6f s, predicted %.6f s, rel error "
        "%.4f (tolerance %.2f) -> %s\n",
        cal.measured_makespan_s, cal.predicted_makespan_s, cal.rel_error,
        cal.tolerance, cal.calibrated ? "CALIBRATED" : "NOT CALIBRATED");
    if (!cal.calibrated) {
      std::fprintf(stderr,
                   "hia_plan: calibration FAILED: rel error %.4f exceeds "
                   "tolerance %.2f\n",
                   cal.rel_error, cal.tolerance);
      failed = true;
    }
  }

  std::vector<Prediction> predictions;
  predictions.reserve(scenarios.size());
  bool sweep_ok = true;
  for (const Scenario& sc : scenarios) {
    predictions.push_back(hia::planner::replay(workload, sc));
    if (!predictions.back().ok) {
      std::fprintf(stderr, "hia_plan: scenario %s FAILED: %s\n",
                   sc.label.c_str(), predictions.back().error.c_str());
      sweep_ok = false;
      failed = true;
    }
  }

  if (scenarios.size() == 1 && sweeps.empty()) {
    if (predictions[0].ok) {
      std::printf("  scenario %s:\n", scenarios[0].label.c_str());
      print_prediction(predictions[0]);
    }
  } else {
    // Sweep grid: one row per scenario.
    std::printf("  %-28s  %12s  %6s  %5s  %5s  %6s  %6s\n", "scenario",
                "makespan (s)", "done", "degr", "shed", "peakq", "util");
    for (size_t i = 0; i < scenarios.size(); ++i) {
      const Prediction& p = predictions[i];
      if (!p.ok) {
        std::printf("  %-28s  FAILED: %s\n", scenarios[i].label.c_str(),
                    p.error.c_str());
        continue;
      }
      std::printf("  %-28s  %12.6f  %6llu  %5llu  %5llu  %6ld  %5.1f%%\n",
                  scenarios[i].label.c_str(), p.makespan_s,
                  static_cast<unsigned long long>(p.completed),
                  static_cast<unsigned long long>(p.degraded),
                  static_cast<unsigned long long>(p.shed),
                  p.peak_queue_depth, 100.0 * p.utilization);
    }
  }

  if (summary_path != nullptr) {
    // Publish the primary prediction through real instruments (the
    // trace_lint --summary harness check): the predicted turnaround
    // distribution and the predicted completion trajectory.
    const Prediction& primary =
        do_calibrate ? cal.prediction : predictions[0];
    hia::obs::Histogram& turnaround =
        hia::obs::histogram("plan_turnaround_s");
    for (const double t : primary.turnarounds_s) turnaround.record(t);
    size_t done = 0;
    double replay_vt = 0.0;
    hia::obs::set_virtual_clock([&replay_vt] { return replay_vt; },
                                &replay_vt);
    hia::obs::register_gauge("plan_tasks_done",
                             [&done] { return static_cast<double>(done); });
    for (const double vt : primary.terminals_vt) {
      replay_vt = vt;
      ++done;
      hia::obs::sample_now();
    }
    hia::obs::clear_virtual_clock(&replay_vt);

    hia::obs::RunSummary summary;
    summary.bench = "hia_plan";
    summary.metrics["tasks"] = static_cast<double>(workload.tasks.size());
    summary.metrics["tenants"] =
        static_cast<double>(workload.tenants.size());
    summary.metrics["recorded_buckets"] =
        static_cast<double>(workload.recorded_buckets);
    summary.metrics["measured_makespan_s"] = workload.measured_makespan_s;
    summary.metrics["replay_sweep_ok"] = sweep_ok ? 1 : 0;
    summary.metrics["scenarios"] = static_cast<double>(scenarios.size());
    if (do_calibrate) {
      summary.metrics["replay_calibrated_ok"] = cal.calibrated ? 1 : 0;
      summary.metrics["predicted_makespan_s"] = cal.predicted_makespan_s;
      summary.metrics["calibration_rel_error"] = cal.rel_error;
    }
    for (size_t i = 0; i < scenarios.size(); ++i) {
      if (!predictions[i].ok) continue;
      summary.metrics["plan_makespan_s[" + scenarios[i].label + "]"] =
          predictions[i].makespan_s;
    }
    if (!hia::obs::write_run_summary(summary_path, summary)) {
      std::fprintf(stderr, "hia_plan: cannot write %s\n", summary_path);
      return 2;
    }
    std::printf("  plan summary: %s\n", summary_path);
  }

  return failed ? 1 : 0;
}
