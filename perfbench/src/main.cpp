// perfbench_run: runs one benchmark workload and prints its metrics.
//
//   perfbench_run --workload campaign_sim|staging_small|staging_bulk
//                 --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Lines starting with '#' describe the environment, the per-workload
// report and any flags; the last line is the JSON result: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "obs/events.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload "
               "campaign_sim|staging_small|staging_bulk --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n");
  return 2;
}

void print_sheet(const char* section, const Sheet& sheet) {
  for (const auto& [name, m] : sheet) {
    std::printf("# %s %-40s %.6g %s\n", section, name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int a = 1; a < argc; ++a) {
    const auto next = [&]() -> const char* {
      return a + 1 < argc ? argv[++a] : nullptr;
    };
    const char* value = nullptr;
    if (std::strcmp(argv[a], "--workload") == 0 && (value = next())) {
      workload = value;
    } else if (std::strcmp(argv[a], "--seed") == 0 && (value = next())) {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(argv[a], "--seconds") == 0 && (value = next())) {
      options.seconds = std::atof(value);
      have_seconds = options.seconds > 0.0;
    } else if (std::strcmp(argv[a], "--trace") == 0 && (value = next())) {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = options.trace || std::strcmp(value, "0") == 0;
    } else if (std::strcmp(argv[a], "--spans") == 0 && (value = next())) {
      options.span_path = value;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();

  Result (*run)(const Options&) = nullptr;
  ThreadBudget budget;
  if (workload == "campaign_sim") {
    run = run_campaign_sim;
    budget = campaign_budget();
  } else if (workload == "staging_small") {
    run = run_staging_small;
    budget = staging_budget();
  } else if (workload == "staging_bulk") {
    run = run_staging_bulk;
    budget = staging_budget();
  } else {
    return usage();
  }

  const int cpus = available_cpus();
  std::printf("# env nproc=%d cpu=\"%s\" build=%s threads: sim_ranks=%d "
              "buckets=%d generators=%d total=%d\n",
              cpus, cpu_model().c_str(), PERFBENCH_BUILD_TYPE,
              budget.sim_ranks, budget.buckets, budget.generators,
              budget.total());
  if (budget.total() > cpus) {
    std::fprintf(stderr,
                 "refusing to run %s: %d busy threads exceed nproc=%d, and "
                 "oversubscribed numbers are not comparable\n",
                 workload.c_str(), budget.total(), cpus);
    return 3;
  }
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::fflush(stdout);

  Result result;
  try {
    result = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  if (options.trace) {
    put(result.layers, "obs.events_dropped",
        static_cast<double>(hia::obs::dropped_event_records()), "count");
  }

  const double failed_frac =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  put(result.report, "failed_frac", failed_frac, "ratio");
  print_sheet("report", result.report);
  if (options.trace) print_sheet("layer", result.layers);
  for (const std::string& f : result.flags) std::printf("# FLAG %s\n", f.c_str());
  for (const std::string& f : result.check_failures) {
    std::printf("# CHECK FAILED %s\n", f.c_str());
  }

  const Sheet& metrics = options.trace ? result.layers : result.e2e;
  bool finite = true;
  for (const auto& [name, m] : metrics) finite = finite && std::isfinite(m.value);
  if (!finite) std::printf("# CHECK FAILED a metric is not finite\n");
  const bool correct = result.check_failures.empty() && result.failed == 0 &&
                       result.attempted > 0 && finite;

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                json_escape(name).c_str(),
                std::isfinite(m.value) ? m.value : 0.0,
                json_escape(m.unit).c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
