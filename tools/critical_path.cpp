// critical_path — causal makespan attribution for an hia-events-v1 spill
// (obs/attrib.hpp):
//
//   critical_path <events.bin> [--summary out.json] [--trace out.json]
//                 [--top K]
//
// Rebuilds every task's timeline from the flight-recorder file, checks the
// exact additive phase partition (admit + queue + backoff + transfer +
// compute + drain == turnaround, per task), reconstructs the campaign DAG
// (intra-task chains, bucket-occupancy serialization, step barriers,
// credit dependencies), and extracts the critical path. Prints the
// makespan-decomposition table and the top-K longest chains; optionally
// emits a Chrome-trace waterfall (--trace) and a schema-valid RunSummary
// of the attribution metrics (--summary).
//
// Structural invariants are enforced, not just reported: the critical path
// must not exceed the measured makespan and must cover at least the
// longest single-task chain.
//
// Exit status: 0 on success, 1 when attribution fails (dropped records,
// unconserved partition, violated path invariant), 2 on usage/I/O errors.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/attrib.hpp"
#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/run_summary.hpp"
#include "obs/timeseries.hpp"
#include "util/error.hpp"
#include "util/spec.hpp"

namespace {

using hia::obs::Attribution;
using hia::obs::CriticalPath;
using hia::obs::kPhaseCount;
using hia::obs::TaskPhase;
using hia::obs::phase_name;

int usage() {
  std::fprintf(stderr,
               "usage: critical_path <events.bin> [--summary out.json] "
               "[--trace out.json] [--top K]\n");
  return 2;
}

/// Chrome-trace waterfall: one 'X' slice per timeline segment, tasks as
/// threads of a "campaign" process, the critical path replayed on its own
/// process so it reads as a single lane in Perfetto.
std::string waterfall_json(const Attribution& attrib,
                           const CriticalPath& cp) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,"
         "\"name\":\"process_name\","
         "\"args\":{\"name\":\"attribution waterfall\"}}";
  out << ",{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"ts\":0,"
         "\"name\":\"process_name\","
         "\"args\":{\"name\":\"critical path\"}}";
  char buf[256];
  for (const hia::obs::TaskTimeline& tl : attrib.tasks) {
    for (const hia::obs::TaskTimeline::Segment& s : tl.segments) {
      std::snprintf(buf, sizeof(buf),
                    ",{\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"cat\":\"attrib\",\"name\":\"%s\","
                    "\"args\":{\"bucket\":%d,\"attempt\":%d}}",
                    static_cast<unsigned long long>(tl.task_id),
                    s.begin_vt * 1e6, (s.end_vt - s.begin_vt) * 1e6,
                    phase_name(s.phase), s.bucket, s.attempt);
      out << buf;
    }
  }
  for (const CriticalPath::Node& n : cp.path) {
    std::snprintf(buf, sizeof(buf),
                  ",{\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"cat\":\"critical\",\"name\":\"%s\","
                  "\"args\":{\"task\":%llu,\"bucket\":%d}}",
                  n.begin_vt * 1e6, (n.end_vt - n.begin_vt) * 1e6,
                  phase_name(n.phase),
                  static_cast<unsigned long long>(n.task_id), n.bucket);
    out << buf;
  }
  out << "]}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const char* events_path = nullptr;
  const char* summary_path = nullptr;
  const char* trace_path = nullptr;
  int top_k = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) return usage();
    if (std::strcmp(argv[i], "--summary") == 0 && i + 1 < argc) {
      summary_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      try {
        top_k = hia::spec::integer<int>("--top", argv[++i], 1);
      } catch (const hia::Error& e) {
        std::fprintf(stderr, "critical_path: %s\n", e.what());
        return 2;
      }
    } else if (argv[i][0] != '-' && events_path == nullptr) {
      events_path = argv[i];
    } else {
      return usage();
    }
  }
  if (events_path == nullptr) return usage();

  const Attribution attrib = hia::obs::attribute_events_file(events_path);
  if (!attrib.ok && attrib.tasks.empty() && attrib.dropped == 0) {
    // Framing failure before any timeline was rebuilt: an I/O-level error.
    std::fprintf(stderr, "critical_path: %s: %s\n", events_path,
                 attrib.error.c_str());
    return 2;
  }
  std::printf("critical_path: %s: %zu tasks, %llu dropped records\n",
              events_path, attrib.tasks.size(),
              static_cast<unsigned long long>(attrib.dropped));
  if (!attrib.ok || !attrib.conserved) {
    std::fprintf(stderr, "critical_path: attribution FAILED: %s\n",
                 attrib.error.c_str());
    return 1;
  }

  const CriticalPath cp = hia::obs::extract_critical_path(attrib, top_k);
  if (!cp.ok) {
    std::fprintf(stderr, "critical_path: extraction FAILED: %s\n",
                 cp.error.c_str());
    return 1;
  }

  // Makespan decomposition: where the campaign's task-seconds went, and
  // which phases the critical path itself is made of.
  std::printf("  makespan %.6f s, total turnaround %.6f s across %zu "
              "tasks (all partitions exact)\n",
              attrib.makespan_s, attrib.total_turnaround_s,
              attrib.tasks.size());
  std::printf("  %-10s  %14s  %7s  %14s  %7s\n", "phase", "task-seconds",
              "share", "on-path (s)", "share");
  for (int p = 0; p < kPhaseCount; ++p) {
    const double total = attrib.phase_totals[p];
    const double on_path = cp.phase_on_path[p];
    std::printf("  %-10s  %14.6f  %6.1f%%  %14.6f  %6.1f%%\n",
                phase_name(static_cast<TaskPhase>(p)), total,
                attrib.total_turnaround_s > 0.0
                    ? 100.0 * total / attrib.total_turnaround_s
                    : 0.0,
                on_path,
                cp.length_s > 0.0 ? 100.0 * on_path / cp.length_s : 0.0);
  }
  std::printf("  critical path %.6f s (%.1f%% of makespan), longest "
              "single-task chain %.6f s\n",
              cp.length_s,
              attrib.makespan_s > 0.0
                  ? 100.0 * cp.length_s / attrib.makespan_s
                  : 0.0,
              cp.longest_task_chain_s);
  for (size_t c = 0; c < cp.top_chains.size(); ++c) {
    double len = 0.0;
    for (const CriticalPath::Node& n : cp.top_chains[c]) {
      len += n.end_vt - n.begin_vt;
    }
    std::printf("  chain %zu: %.6f s, %zu segments\n", c + 1, len,
                cp.top_chains[c].size());
    for (const CriticalPath::Node& n : cp.top_chains[c]) {
      std::printf("    task %-6llu %-10s %10.6f s  [%0.6f .. %0.6f]%s%d\n",
                  static_cast<unsigned long long>(n.task_id),
                  phase_name(n.phase), n.end_vt - n.begin_vt, n.begin_vt,
                  n.end_vt, n.bucket >= 0 ? "  bucket " : "  bucket ",
                  n.bucket);
    }
  }

  // The structural guarantees the DAG construction promises. A violation
  // is an attribution bug, so it fails the run like a broken partition.
  const double eps = 1e-6 * std::max(1.0, attrib.makespan_s);
  bool invariants_ok = true;
  if (cp.length_s > attrib.makespan_s + eps) {
    std::fprintf(stderr,
                 "critical_path: INVARIANT VIOLATED: path %.9f s exceeds "
                 "makespan %.9f s\n",
                 cp.length_s, attrib.makespan_s);
    invariants_ok = false;
  }
  if (cp.length_s + eps < cp.longest_task_chain_s) {
    std::fprintf(stderr,
                 "critical_path: INVARIANT VIOLATED: path %.9f s shorter "
                 "than longest task chain %.9f s\n",
                 cp.length_s, cp.longest_task_chain_s);
    invariants_ok = false;
  }

  if (trace_path != nullptr) {
    const std::string trace = waterfall_json(attrib, cp);
    const hia::obs::TraceValidation tv =
        hia::obs::validate_chrome_trace_json(trace);
    if (!tv.ok) {
      std::fprintf(stderr, "critical_path: waterfall trace invalid: %s\n",
                   tv.error.c_str());
      return 1;
    }
    std::ofstream out(trace_path, std::ios::binary);
    out << trace;
    if (!out.good()) {
      std::fprintf(stderr, "critical_path: cannot write %s\n", trace_path);
      return 2;
    }
    std::printf("  waterfall trace: %s (%zu events)\n", trace_path,
                tv.events);
  }

  if (summary_path != nullptr) {
    // The RunSummary harness renders the registry, and trace_lint treats
    // a summary with no distribution or series as a bypassed harness —
    // so publish the attribution itself as real instruments: the
    // turnaround distribution and the completion trajectory on the
    // campaign's virtual timeline.
    hia::obs::Histogram& turnaround =
        hia::obs::histogram("attrib_task_turnaround_s");
    std::vector<double> terminals;
    terminals.reserve(attrib.tasks.size());
    for (const hia::obs::TaskTimeline& tl : attrib.tasks) {
      turnaround.record(tl.turnaround_s);
      terminals.push_back(tl.terminal_vt);
    }
    std::sort(terminals.begin(), terminals.end());
    size_t done = 0;
    double replay_vt = 0.0;
    hia::obs::set_virtual_clock([&replay_vt] { return replay_vt; },
                                &replay_vt);
    hia::obs::register_gauge("attrib_tasks_done",
                             [&done] { return static_cast<double>(done); });
    for (const double vt : terminals) {
      replay_vt = vt;
      ++done;
      hia::obs::sample_now();
    }
    hia::obs::clear_virtual_clock(&replay_vt);

    hia::obs::RunSummary summary;
    summary.bench = "critical_path";
    summary.metrics["attribution_conserved_ok"] = attrib.conserved ? 1 : 0;
    summary.metrics["tasks"] = static_cast<double>(attrib.tasks.size());
    summary.metrics["dropped_records"] =
        static_cast<double>(attrib.dropped);
    summary.metrics["makespan_s"] = attrib.makespan_s;
    summary.metrics["total_turnaround_s"] = attrib.total_turnaround_s;
    summary.metrics["critical_path_s"] = cp.length_s;
    summary.metrics["longest_task_chain_s"] = cp.longest_task_chain_s;
    for (int p = 0; p < kPhaseCount; ++p) {
      const std::string name = phase_name(static_cast<TaskPhase>(p));
      summary.metrics["phase_total_" + name + "_s"] =
          attrib.phase_totals[p];
      summary.metrics["phase_on_path_" + name + "_s"] =
          cp.phase_on_path[p];
    }
    if (!hia::obs::write_run_summary(summary_path, summary)) {
      std::fprintf(stderr, "critical_path: cannot write %s\n",
                   summary_path);
      return 2;
    }
    std::printf("  attribution summary: %s\n", summary_path);
  }

  return invariants_ok ? 0 : 1;
}
