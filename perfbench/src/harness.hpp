// Measurement harness shared by the benchmark program and its self-test:
// the process clock, the percentile rule, span self-time, the metric sheet
// the program prints, seeded input generation, and the environment stamp.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

// ---------------------------------------------------------- percentiles --

/// Nearest-rank percentile of `values` (p in (0, 1]); 0 for no samples.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// The reporting rule for timings: the highest of p99.9, p99, p90 and p50
/// that has at least ten samples beyond it among `n`. Returns the
/// percentile as a fraction (0.99 for p99), or 0 when even p50 lacks ten
/// samples beyond it.
double highest_supported_percentile(size_t n);

/// A timing distribution reported by the rule above at a percentile the
/// workload fixes in advance. `supported` is false when the sample count
/// cannot carry that percentile.
struct Tail {
  double p50 = 0.0;
  double tail = 0.0;
  size_t n = 0;
  bool supported = false;
};
Tail summarize(const std::vector<double>& samples, double tail_p);

// ---------------------------------------------------------------- spans --

/// A timed interval at a layer boundary. Spans of one request (a task, or
/// an (analysis, step) pair) share `request`; `parent` indexes the span
/// that caused this one (-1 for a root).
struct Span {
  std::string name;
  uint64_t request = 0;
  int64_t parent = -1;
  double start = 0.0;
  double end = 0.0;
};

/// Spans kept in memory while a run is measured and written out after it.
/// The workloads build them on one thread from timestamps taken during the
/// run.
class SpanLog {
 public:
  /// Appends a span and returns its index (for use as a child's parent).
  int64_t add(std::string name, uint64_t request, int64_t parent,
              double start, double end);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Writes one CSV line per span: name,request,parent,start,end,self.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Total self time per span name.
std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans);

// --------------------------------------------------------- metric sheet --

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Named metrics in insertion-independent (sorted) order.
using Sheet = std::map<std::string, Metric>;

inline void put(Sheet& sheet, const std::string& name, double value,
                const std::string& unit) {
  sheet[name] = Metric{value, unit};
}
inline void put_default(Sheet& sheet, const std::string& name, double value,
                        const std::string& unit) {
  if (sheet.count(name) == 0) put(sheet, name, value, unit);
}

/// Adds "self_s.<span name>" = total self time of those spans to `sheet`.
void put_self_times(const std::vector<Span>& spans, Sheet& sheet);

// ---------------------------------------------------------- seed inputs --

/// Deterministic stream of 64-bit values derived from (seed, stream).
uint64_t mix_seed(uint64_t seed, uint64_t stream);

// ------------------------------------------------------------ resources --

/// Samples the process RSS every few milliseconds while alive and keeps
/// the high-water mark, so the peak covers the measured phase only (input
/// generation before it is excluded).
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// High-water RSS in MB, including a sample taken now.
  [[nodiscard]] double peak_mb();

 private:
  void sample();

  std::atomic<bool> stop_{false};
  std::atomic<long> peak_pages_{0};
  std::thread thread_;
};

/// CPUs this process may run on (what `nproc` prints).
int available_cpus();
std::string cpu_model();

}  // namespace perfbench
