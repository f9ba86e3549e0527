#include "harness.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

// ---------------------------------------------------------- percentiles --

namespace {
/// 1-based nearest rank of percentile p among n samples.
size_t nearest_rank(double p, size_t n) {
  const double exact = p * static_cast<double>(n);
  const auto rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}
}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t k = nearest_rank(p, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double highest_supported_percentile(size_t n) {
  for (const double p : {0.999, 0.99, 0.9, 0.5}) {
    if (n > 0 && n - nearest_rank(p, n) >= 10) return p;
  }
  return 0.0;
}

Tail summarize(const std::vector<double>& samples, double tail_p) {
  Tail t;
  t.n = samples.size();
  t.p50 = percentile(samples, 0.5);
  t.tail = percentile(samples, tail_p);
  t.supported = highest_supported_percentile(t.n) >= tail_p;
  return t;
}

// ---------------------------------------------------------------- spans --

int64_t SpanLog::add(std::string name, uint64_t request, int64_t parent,
                     double start, double end) {
  spans_.push_back(Span{std::move(name), request, parent, start, end});
  return static_cast<int64_t>(spans_.size()) - 1;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = self_times(spans_);
  out << "name,request,parent,start_s,end_s,self_s\n";
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line), "%s,%llu,%lld,%.9f,%.9f,%.9f\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.request),
                  static_cast<long long>(s.parent), s.start, s.end, self[i]);
    out << line;
  }
  return static_cast<bool>(out);
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = lo;
    for (const auto& [a, b] : kids) {
      const double from = std::max(a, cursor);
      const double to = std::min(b, hi);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

void put_self_times(const std::vector<Span>& spans, Sheet& sheet) {
  for (const auto& [name, self] : self_time_by_name(spans)) {
    put(sheet, "self_s." + name, self, "s");
  }
}

// ---------------------------------------------------------- seed inputs --

uint64_t mix_seed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------ resources --

RssSampler::RssSampler() {
  sample();
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      sample();
    }
  });
}

RssSampler::~RssSampler() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

void RssSampler::sample() {
  long size = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &size, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  long prev = peak_pages_.load(std::memory_order_relaxed);
  while (resident > prev &&
         !peak_pages_.compare_exchange_weak(prev, resident)) {
  }
}

double RssSampler::peak_mb() {
  sample();
  return static_cast<double>(peak_pages_.load()) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

}  // namespace perfbench
