// The benchmark's workloads and its layer pass, all driven through the
// program's public APIs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// What one workload run reports. `e2e` carries the gated end-to-end
/// metrics, `report` the same measurements under their per-workload names
/// (printed for people, not gated), `layers` the per-layer metrics of a
/// traced run.
struct Result {
  Sheet e2e;
  Sheet report;
  Sheet layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<std::string> flags;  // warnings that do not fail the run
};

struct Options {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_path;  // where a traced run writes its spans
};

/// Threads a workload keeps busy: simulation ranks, staging buckets and
/// the benchmark's generator threads.
struct ThreadBudget {
  int sim_ranks = 0;
  int buckets = 0;
  int generators = 0;
  [[nodiscard]] int total() const { return sim_ranks + buckets + generators; }
};

ThreadBudget campaign_budget();
ThreadBudget staging_budget();

Result run_campaign_sim(const Options& options);
Result run_staging_small(const Options& options);
Result run_staging_bulk(const Options& options);

/// The grid, decomposition and blocks a layer pass runs on.
struct Shape {
  std::array<int64_t, 3> grid{0, 0, 0};
  std::array<int, 3> ranks{2, 1, 1};
  /// Codec and transport inputs; empty = the pass's own generated fields.
  std::vector<std::vector<double>> blocks;
  uint64_t seed = 1;
};

/// Per-layer metrics from the public layer functions on `shape`. Fills only
/// names `result.layers` does not hold yet, so a workload's own run takes
/// precedence. `with_campaign` adds a short campaign on the shape's grid
/// for the core and service layers of workloads that run none themselves.
void layer_pass(const Shape& shape, bool with_campaign, Result& result);

// ---- Pieces the layer pass borrows from the workloads ----

/// A short campaign on `grid`: adds its core, service, sim-step and
/// staging-ledger metrics to result.layers (names not yet present) and its
/// output checks to `result`.
void campaign_layer_metrics(const std::array<int64_t, 3>& grid, uint64_t seed,
                            long steps, Result& result);

/// Zero-work staging burst: publishes and submits `tasks` tiny tasks as
/// fast as one thread can, then drains. Returns the wall seconds.
double zero_work_burst(int tasks);

/// Zero-work open-loop burst at the benchmark's fixed rate; adds the
/// publish/submit span medians and the generator lateness to
/// result.layers (names not yet present).
void open_loop_probe(double seconds, Result& result);

}  // namespace perfbench
