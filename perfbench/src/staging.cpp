// staging_small and staging_bulk: one generator thread publishes blocks
// through StagingService::publish and submits one task per block with
// submit_for; two buckets pull and check them.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "compress/codec.hpp"
#include "inputs.hpp"
#include "staging/scheduler.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kBuckets = 2;
constexpr int kServers = 2;
/// staging_small phase 1 rate, fixed: 20000 tasks/s is 30-40% of the
/// closed-loop capacity measured on a 4-core Xeon VM (55-75k tasks/s). At
/// 35000 (half) a stall-built backlog of ~1000 tasks could tip the
/// fair-share matcher, whose pick scans the whole queue, into a collapse
/// that lasted seconds; the lower rate keeps the open loop stable.
constexpr double kOpenRate = 20000.0;
/// A send this much later than its due time counts as late.
constexpr double kLateS = 1e-3;
/// A run whose generator sent more than this share of tasks late is
/// flagged: its open-loop latency then partly measures the generator.
constexpr double kBehindFrac = 0.05;
constexpr int kSmallWindow = 32;
constexpr int kBulkWindow = 4;
/// p99 needs at least 1000 samples under the percentile rule.
constexpr size_t kMinTailTasks = 1000;
constexpr int kSetupProbes = 100;
/// staging_small splits --seconds into passes of about this length, each
/// on a fresh service, which bounds the task records a service holds.
constexpr double kSmallPassS = 10.0;
/// Spans are written for at most this many tasks per phase.
constexpr uint64_t kSpanTasks = 20000;

constexpr std::array<int64_t, 3> kSmallGrid = {32, 32, 16};
constexpr int kSmallEdge = 8;  // 8^3 doubles = 4 KB blocks
constexpr std::array<int64_t, 3> kBulkGrid = {64, 64, 64};  // 2 MB fields
constexpr const char* kBulkCodec = "quantize:1e-6";

/// Per-task timestamps. The generator fills a slot before submitting the
/// task; the bucket that runs it writes the rest; both are read after drain.
/// Left uninitialized on allocation (Rig::send sets every field), so a new
/// chunk costs the generator no memset.
struct TaskSlot {
  double due;
  double send;
  double published;
  double submitted;
  double pull_start;
  double pull_end;
  double check_end;
  double max_err;
  bool ok;
};

/// Slots in fixed chunks, so a bucket never reads a slot that a growing
/// vector is moving. Only the generator allocates chunks.
class SlotTable {
 public:
  static constexpr size_t kChunk = size_t{1} << 14;
  static constexpr size_t kMaxChunks = 4096;

  TaskSlot& ensure(uint64_t i) {
    auto& chunk = chunks_.at(i / kChunk);
    if (!chunk) chunk = std::make_unique_for_overwrite<Chunk>();
    return (*chunk)[i % kChunk];
  }
  /// Allocates the chunks for slots [0, n) ahead of a timed phase.
  void reserve(uint64_t n) {
    for (uint64_t i = 0; i < n; i += kChunk) (void)ensure(i);
  }
  TaskSlot& at(uint64_t i) { return (*chunks_.at(i / kChunk))[i % kChunk]; }

 private:
  using Chunk = std::array<TaskSlot, kChunk>;
  std::array<std::unique_ptr<Chunk>, kMaxChunks> chunks_;
};

struct RigConfig {
  const std::vector<Block>* blocks = nullptr;
  int replicas = 1;
  /// Two tenants weighted 2:1 through set_tenant_policy (fair share);
  /// otherwise one default tenant matched FCFS.
  bool two_tenants = false;
  std::string codec;  // empty = publish raw
  bool trace = false;
};

/// A StagingService with the benchmark's handlers and its generator node.
/// Constructing one is the set-up the workloads time.
class Rig {
 public:
  explicit Rig(const RigConfig& cfg)
      : cfg_(cfg),
        dart_(std::make_unique<hia::Dart>(net_)),
        service_(std::make_unique<hia::StagingService>(
            *dart_, hia::StagingService::Options{kServers, kBuckets, nullptr,
                                                 nullptr, cfg.replicas})) {
    clock_offset_ = now_s() - service_->now();
    if (!cfg_.codec.empty()) codec_ = hia::make_codec(cfg_.codec);
    for (int t : tenants()) {
      char prefix[16] = "";
      if (t > 0) std::snprintf(prefix, sizeof(prefix), "t%d/", t);
      handler_[static_cast<size_t>(t)] = std::string(prefix) + "check";
      variables_[static_cast<size_t>(t)] = {std::string(prefix) + "block"};
      service_->register_handler(handler_[static_cast<size_t>(t)],
                                 [this](hia::TaskContext& ctx) { handle(ctx); });
      if (t > 0) service_->set_tenant_policy(t, t == 1 ? 2.0 : 1.0);
    }
    node_ = dart_->register_node("generator");
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] std::vector<int> tenants() const {
    return cfg_.two_tenants ? std::vector<int>{1, 2} : std::vector<int>{0};
  }
  [[nodiscard]] int tenant_of(uint64_t i) const {
    return cfg_.two_tenants ? (i % 3 == 2 ? 2 : 1) : 0;
  }

  /// Publishes and submits task `i` from the generator thread.
  void send(uint64_t i, double due) {
    TaskSlot& slot = slots_.ensure(i);
    slot = TaskSlot{};
    slot.due = due;
    slot.send = now_s();
    const Block& block = block_of(i);
    const int t = tenant_of(i);
    const auto step = static_cast<long>(i);
    const std::vector<std::string>& vars = variables_[static_cast<size_t>(t)];
    service_->publish(node_, vars[0], step, block.box, block.values,
                      codec_.get(), t);
    slot.published = now_s();  // also the first submit's time for set-up
    service_->submit_for(handler_[static_cast<size_t>(t)], step, vars,
                         hia::SubmitRoute::kQueue, t);
    if (cfg_.trace) slot.submitted = now_s();
    ++submitted_[static_cast<size_t>(t)];
  }

  [[nodiscard]] uint64_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] uint64_t submitted(int tenant) const {
    return submitted_[static_cast<size_t>(tenant)];
  }
  TaskSlot& slot(uint64_t i) { return slots_.at(i); }
  void reserve(uint64_t n) { slots_.reserve(n); }
  [[nodiscard]] const Block& block_of(uint64_t i) const {
    return (*cfg_.blocks)[i % cfg_.blocks->size()];
  }
  hia::StagingService& service() { return *service_; }
  hia::Dart& dart() { return *dart_; }
  /// now_s() minus the service's task clock.
  [[nodiscard]] double clock_offset() const { return clock_offset_; }

 private:
  void handle(hia::TaskContext& ctx) {
    const auto i = static_cast<uint64_t>(ctx.task().step);
    TaskSlot& slot = slots_.at(i);
    const Block& block = block_of(i);
    bool ok = ctx.task().inputs.size() == 1;
    const double start = cfg_.trace ? now_s() : 0.0;
    double end = 0.0;
    double max_err = 0.0;
    if (ok && codec_) {
      const std::vector<double> values =
          ctx.pull_doubles(ctx.task().inputs[0]);
      if (cfg_.trace) end = now_s();
      ok = values.size() == block.values.size();
      for (size_t k = 0; ok && k < values.size(); ++k) {
        max_err = std::max(max_err, std::fabs(values[k] - block.values[k]));
      }
      ok = ok && max_err <= codec_->error_bound();
    } else if (ok) {
      const std::vector<std::byte> bytes = ctx.pull(ctx.task().inputs[0]);
      if (cfg_.trace) end = now_s();
      ok = bytes.size() == block.values.size() * sizeof(double) &&
           hia::crc32(bytes.data(), bytes.size()) == block.crc;
    }
    slot.pull_start = start;
    slot.pull_end = end;
    slot.check_end = cfg_.trace ? now_s() : 0.0;
    slot.max_err = max_err;
    slot.ok = ok;
    completed_.fetch_add(1, std::memory_order_release);
  }

  RigConfig cfg_;
  SlotTable slots_;
  std::array<std::string, 3> handler_;
  std::array<std::vector<std::string>, 3> variables_;
  std::array<uint64_t, 3> submitted_{};
  std::atomic<uint64_t> completed_{0};
  std::shared_ptr<const hia::Codec> codec_;
  double clock_offset_ = 0.0;
  int node_ = -1;
  // Declared last: the service's buckets call handle() until it is gone.
  hia::NetworkModel net_;
  std::unique_ptr<hia::Dart> dart_;
  std::unique_ptr<hia::StagingService> service_;
};

void wait_until(double t) {
  for (;;) {
    const double left = t - now_s();
    if (left <= 0.0) return;
    if (left > 3e-4) {
      std::this_thread::sleep_for(std::chrono::duration<double>(left - 2e-4));
    } else {
      std::this_thread::yield();
    }
  }
}

struct PassPlan {
  double open_rate = 0.0;  // tasks/s of the open-loop phase (0 = none)
  double open_s = 0.0;
  int window = 1;          // outstanding tasks in the closed-loop phase
  double closed_s = 0.0;
  size_t closed_min_tasks = 0;
};

/// One pass over a fresh Rig: set-up, an optional open-loop phase and a
/// closed-loop phase, then output checks and ledgers.
struct Pass {
  std::vector<double> open_turnaround, closed_turnaround, late;
  uint64_t closed_tasks = 0;
  double closed_span_s = 0.0;  // closed-loop start to its last completion
  double closed_bytes = 0.0;   // logical bytes published and pulled
  // Per layer.
  std::vector<double> publish_us, submit_us, pull_us, queue_wait;
  double pull_bytes = 0.0, pull_s = 0.0, busy_s = 0.0, wall_s = 0.0;
  uint64_t tasks = 0, rpcs = 0, not_completed = 0, retries = 0;
  size_t get_retries = 0;
  double max_err = 0.0;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
};

double tasks_per_s(const Pass& pass) {
  return pass.closed_span_s > 0.0
             ? static_cast<double>(pass.closed_tasks) / pass.closed_span_s
             : 0.0;
}

/// Adds another pass's end-to-end samples and outcome to `pass`.
void absorb(Pass& pass, const Pass& other) {
  auto append = [](auto& to, const auto& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(pass.open_turnaround, other.open_turnaround);
  append(pass.closed_turnaround, other.closed_turnaround);
  append(pass.late, other.late);
  append(pass.failures, other.failures);
  pass.closed_tasks += other.closed_tasks;
  pass.closed_span_s += other.closed_span_s;
  pass.closed_bytes += other.closed_bytes;
  pass.attempted += other.attempted;
  pass.failed += other.failed;
}

Pass run_pass(const RigConfig& cfg, const PassPlan& plan, SpanLog* spans) {
  Pass pass;
  Rig rig(cfg);
  uint64_t next = 0;

  // Open loop: task k is due at start + k / rate whatever happened before.
  const auto open_n =
      static_cast<uint64_t>(std::llround(plan.open_rate * plan.open_s));
  rig.reserve(open_n);
  const double open_start = now_s() + 1e-3;
  for (uint64_t k = 0; k < open_n; ++k) {
    const double due = open_start + static_cast<double>(k) / plan.open_rate;
    wait_until(due);
    rig.send(next++, due);
  }
  rig.service().drain();
  const double open_end = now_s();

  // Closed loop: at most `window` tasks outstanding.
  const uint64_t closed_first = next;
  const uint64_t done_before = rig.completed();
  const double closed_start = now_s();
  while (now_s() - closed_start < plan.closed_s ||
         next - closed_first < plan.closed_min_tasks) {
    while (next - closed_first - (rig.completed() - done_before) >=
           static_cast<uint64_t>(plan.window)) {
      std::this_thread::yield();
    }
    rig.send(next, now_s());
    ++next;
  }
  rig.service().drain();
  const double closed_end = now_s();
  pass.wall_s = (open_end - open_start) + (closed_end - closed_start);

  // ---- Ledgers and output checks ----
  const std::vector<hia::TaskRecord> records = rig.service().records();
  std::vector<const hia::TaskRecord*> by_task(next, nullptr);
  std::vector<int> record_count(next, 0);
  std::array<uint64_t, 3> completed_by_tenant{};
  for (const hia::TaskRecord& rec : records) {
    const auto i = static_cast<uint64_t>(rec.step);
    if (i >= next) continue;
    by_task[i] = &rec;
    ++record_count[i];
    if (rec.outcome == hia::TaskOutcome::kCompleted) {
      ++completed_by_tenant[static_cast<size_t>(rec.tenant)];
    } else {
      ++pass.not_completed;
    }
    pass.retries += static_cast<uint64_t>(rec.attempts - 1);
    pass.queue_wait.push_back(rec.assign_time - rec.enqueue_time);
    pass.busy_s += rec.complete_time - rec.assign_time;
  }
  double closed_last_done = closed_start;
  for (uint64_t i = 0; i < next; ++i) {
    ++pass.attempted;
    TaskSlot& slot = rig.slot(i);
    const hia::TaskRecord* rec = by_task[i];
    if (rec == nullptr || record_count[i] != 1 ||
        rec->outcome != hia::TaskOutcome::kCompleted || !slot.ok) {
      ++pass.failed;
      if (pass.failures.size() < 8) {
        pass.failures.push_back("task " + std::to_string(i) +
                                (slot.ok ? ": not exactly one completed record"
                                         : ": output check failed"));
      }
      continue;
    }
    const double done = rec->complete_time + rig.clock_offset();
    const bool open = i < closed_first;
    if (open) {
      pass.open_turnaround.push_back(done - slot.due);
      pass.late.push_back(slot.send - slot.due);
    } else {
      pass.closed_turnaround.push_back(done - slot.send);
      closed_last_done = std::max(closed_last_done, done);
      pass.closed_bytes += static_cast<double>(
          rig.block_of(i).values.size() * sizeof(double));
    }
    pass.max_err = std::max(pass.max_err, slot.max_err);
    if (cfg.trace) {
      pass.publish_us.push_back((slot.published - slot.send) * 1e6);
      pass.submit_us.push_back((slot.submitted - slot.published) * 1e6);
      pass.pull_us.push_back((slot.pull_end - slot.pull_start) * 1e6);
      pass.pull_s += slot.pull_end - slot.pull_start;
      pass.pull_bytes += static_cast<double>(rig.block_of(i).values.size() *
                                             sizeof(double));
      const uint64_t phase_index = open ? i : i - closed_first;
      if (spans != nullptr && phase_index < kSpanTasks) {
        const int64_t root = spans->add("task", i, -1,
                                        open ? slot.due : slot.send, done);
        spans->add("staging.publish", i, root, slot.send, slot.published);
        spans->add("staging.submit", i, root, slot.published, slot.submitted);
        spans->add("staging.queue", i, root,
                   rec->enqueue_time + rig.clock_offset(),
                   rec->assign_time + rig.clock_offset());
        spans->add("transport.pull", i, root, slot.pull_start, slot.pull_end);
        spans->add("check", i, root, slot.pull_end, slot.check_end);
      }
    }
  }
  for (const int t : rig.tenants()) {
    if (completed_by_tenant[static_cast<size_t>(t)] != rig.submitted(t)) {
      ++pass.failed;
      pass.failures.push_back("tenant " + std::to_string(t) +
                              ": completed != submitted");
    }
  }
  for (const hia::StagingService::TenantShare& share :
       rig.service().tenant_shares()) {
    if (share.outstanding != 0 || share.queue_depth != 0) {
      ++pass.failed;
      pass.failures.push_back("tenant " + std::to_string(share.tenant) +
                              ": work left outstanding after drain");
    }
  }
  pass.closed_tasks = next - closed_first;
  pass.closed_span_s = closed_last_done - closed_start;
  pass.tasks = next;
  for (const uint64_t c : rig.service().store().rpc_counts()) pass.rpcs += c;
  pass.get_retries = rig.dart().counters().get_retries;
  return pass;
}

/// Set-up time of `probes` fresh Rigs: from constructing the service to
/// the first submit (after the first block is published, encode included).
std::vector<double> setup_probes(const RigConfig& cfg, int probes) {
  std::vector<double> samples;
  for (int p = 0; p < probes; ++p) {
    const double t0 = now_s();
    Rig rig(cfg);
    rig.send(0, now_s());
    samples.push_back(rig.slot(0).published - t0);
    rig.service().drain();
  }
  return samples;
}

/// Share of open-loop sends more than kLateS behind their due time.
double late_frac(const Pass& pass) {
  if (pass.late.empty()) return 0.0;
  const auto late_n = std::count_if(pass.late.begin(), pass.late.end(),
                                    [](double l) { return l > kLateS; });
  return static_cast<double>(late_n) / static_cast<double>(pass.late.size());
}

double late_max(const Pass& pass) {
  return pass.late.empty()
             ? 0.0
             : *std::max_element(pass.late.begin(), pass.late.end());
}

void pass_layers(const Pass& pass, bool open_loop, Sheet& layers) {
  put(layers, "staging.publish_us_p50", median(pass.publish_us), "us");
  put(layers, "staging.submit_us_p50", median(pass.submit_us), "us");
  put(layers, "staging.queue_wait_s_p50", percentile(pass.queue_wait, 0.5),
      "s");
  put(layers, "staging.queue_wait_s_p99", percentile(pass.queue_wait, 0.99),
      "s");
  put(layers, "staging.bucket_busy_frac",
      pass.busy_s / (kBuckets * pass.wall_s), "ratio");
  put(layers, "staging.store_rpcs_per_task",
      static_cast<double>(pass.rpcs) / static_cast<double>(pass.tasks),
      "count");
  put(layers, "staging.not_completed", static_cast<double>(pass.not_completed),
      "count");
  put(layers, "staging.retries", static_cast<double>(pass.retries), "count");
  put(layers, "transport.pull_us_p50", median(pass.pull_us), "us");
  put(layers, "transport.pull_mb_per_s",
      pass.pull_s > 0.0 ? pass.pull_bytes / 1e6 / pass.pull_s : 0.0, "MB/s");
  put(layers, "transport.get_retries", static_cast<double>(pass.get_retries),
      "count");
  if (open_loop) {
    put(layers, "gen.late_s_max", late_max(pass), "s");
    put(layers, "gen.late_frac", late_frac(pass), "ratio");
  }
}

void add_outcome(const Pass& pass, Result& result) {
  result.attempted += pass.attempted;
  result.failed += pass.failed;
  for (const std::string& f : pass.failures) {
    result.check_failures.push_back(f);
  }
}

void flag_late_generator(const Pass& pass, Result& result) {
  const double frac = late_frac(pass);
  if (frac > kBehindFrac) {
    char msg[200];
    std::snprintf(msg, sizeof(msg),
                  "generator fell behind: %.1f%% of sends more than 1 ms late "
                  "(max %.4f s); open-loop latency includes generator delay",
                  100.0 * frac, late_max(pass));
    result.flags.push_back(msg);
  }
}

/// The shared body of both staging workloads: `passes` measured passes of
/// `plan`, each on a fresh service.
Result run_staging(const Options& options, const RigConfig& base,
                   const PassPlan& plan, int passes,
                   const std::vector<Block>& blocks,
                   const std::array<int64_t, 3>& grid, bool small) {
  Result result;
  // Warm-up (discarded): first-touch page faults, lazy registries, caches.
  {
    PassPlan warm;
    warm.window = plan.window;
    warm.closed_s = 0.3;
    (void)run_pass(base, warm, nullptr);
  }

  std::optional<RssSampler> rss(std::in_place);
  const std::vector<double> setup = setup_probes(base, kSetupProbes);
  Pass pass = run_pass(base, plan, nullptr);
  const double first_pass_tasks_per_s = tasks_per_s(pass);
  for (int p = 1; p < passes; ++p) {
    const Pass more = run_pass(base, plan, nullptr);
    absorb(pass, more);
  }
  const double peak_rss_mb = rss->peak_mb();
  rss.reset();
  add_outcome(pass, result);
  flag_late_generator(pass, result);

  // The gated tail is p90: the rule's highest percentile (p99 here) moves
  // with delays that hit under 1% of tasks, and is reported beside it.
  const std::vector<double>& latency =
      small ? pass.open_turnaround : pass.closed_turnaround;
  const Tail t = summarize(latency, 0.99);
  if (!t.supported) {
    result.check_failures.push_back("fewer than 1000 tasks for p99");
  }
  const double p90 = percentile(latency, 0.9);
  put(result.e2e, "setup_s", median(setup), "s");
  put(result.e2e, "latency_s_p50", t.p50, "s");
  put(result.e2e, "latency_s_p90", p90, "s");
  put(result.e2e, "throughput_ops_per_s", tasks_per_s(pass), "1/s");
  put(result.e2e, "peak_rss_mb", peak_rss_mb, "MB");

  put(result.report, "setup_s", median(setup), "s");
  put(result.report, "turnaround_s_p50", t.p50, "s");
  put(result.report, "turnaround_s_p90", p90, "s");
  put(result.report, "turnaround_s_p99", t.tail, "s");
  put(result.report, "turnaround_samples", static_cast<double>(t.n), "count");
  if (small) {
    put(result.report, "capacity_tasks_per_s", tasks_per_s(pass), "tasks/s");
    put(result.report, "open_loop_rate", plan.open_rate, "tasks/s");
  } else {
    put(result.report, "staged_mb_per_s",
        pass.closed_span_s > 0.0 ? pass.closed_bytes / 1e6 / pass.closed_span_s
                                 : 0.0,
        "MB/s");
  }
  put(result.report, "peak_rss_mb", peak_rss_mb, "MB");

  if (options.trace) {
    RigConfig traced_cfg = base;
    traced_cfg.trace = true;
    SpanLog spans;
    const Pass traced = run_pass(traced_cfg, plan, &spans);
    add_outcome(traced, result);
    flag_late_generator(traced, result);
    pass_layers(traced, small, result.layers);
    if (!small) {
      put(result.layers, "compress.max_abs_err", traced.max_err, "abs");
    }
    put(result.layers, "obs.trace_overhead_frac",
        tasks_per_s(traced) > 0.0
            ? first_pass_tasks_per_s / tasks_per_s(traced) - 1.0
            : 0.0,
        "ratio");
    if (!options.span_path.empty()) spans.write_csv(options.span_path);
    put_self_times(spans.spans(), result.report);
    Shape shape;
    shape.grid = grid;
    shape.seed = options.seed;
    for (const Block& b : blocks) shape.blocks.push_back(b.values);
    layer_pass(shape, /*with_campaign=*/true, result);
  }
  return result;
}

}  // namespace

ThreadBudget staging_budget() { return ThreadBudget{0, kBuckets, 1}; }

Result run_staging_small(const Options& options) {
  const std::vector<Block> blocks =
      cut_blocks(generate_fields(kSmallGrid, options.seed, 1), kSmallGrid,
                 kSmallEdge);
  RigConfig cfg;
  cfg.blocks = &blocks;
  cfg.replicas = 1;
  cfg.two_tenants = true;
  const int passes =
      std::max(1, static_cast<int>(std::lround(options.seconds / kSmallPassS)));
  const double pass_s = options.seconds / passes;
  PassPlan plan;
  plan.open_rate = kOpenRate;
  plan.open_s = 0.75 * pass_s;
  plan.window = kSmallWindow;
  plan.closed_s = 0.25 * pass_s;
  return run_staging(options, cfg, plan, passes, blocks, kSmallGrid, true);
}

Result run_staging_bulk(const Options& options) {
  const std::vector<Block> blocks = whole_field_blocks(
      generate_fields(kBulkGrid, options.seed, 1), kBulkGrid);
  RigConfig cfg;
  cfg.blocks = &blocks;
  cfg.replicas = 2;
  cfg.codec = kBulkCodec;
  PassPlan plan;
  plan.window = kBulkWindow;
  plan.closed_s = options.seconds;
  plan.closed_min_tasks = kMinTailTasks;
  return run_staging(options, cfg, plan, 1, blocks, kBulkGrid, false);
}

double zero_work_burst(int tasks) {
  hia::NetworkModel net;
  hia::Dart dart(net);
  hia::StagingService service(
      dart, hia::StagingService::Options{1, kBuckets, nullptr, nullptr, 1});
  service.register_handler("zero", [](hia::TaskContext&) {});
  const int node = dart.register_node("generator");
  const std::vector<double> payload(8, 1.0);
  const std::vector<std::string> vars = {"zero"};
  const hia::Box3 box{{0, 0, 0}, {2, 2, 2}};
  const double start = now_s();
  for (int i = 0; i < tasks; ++i) {
    service.publish(node, vars[0], i, box, payload);
    service.submit_for("zero", i, vars);
  }
  service.drain();
  return now_s() - start;
}

void open_loop_probe(double seconds, Result& result) {
  std::vector<Block> blocks(1);
  blocks[0].box = hia::Box3{{0, 0, 0}, {2, 2, 2}};
  blocks[0].values.assign(8, 1.0);
  blocks[0].crc =
      hia::crc32(blocks[0].values.data(), blocks[0].values.size() * 8);
  RigConfig cfg;
  cfg.blocks = &blocks;
  cfg.trace = true;
  PassPlan plan;
  plan.open_rate = kOpenRate;
  plan.open_s = seconds;
  const Pass pass = run_pass(cfg, plan, nullptr);
  add_outcome(pass, result);
  Sheet probe;
  pass_layers(pass, true, probe);
  for (const char* name : {"staging.publish_us_p50", "staging.submit_us_p50",
                           "gen.late_s_max", "gen.late_frac"}) {
    put_default(result.layers, name, probe[name].value, probe[name].unit);
  }
}

}  // namespace perfbench
