#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>

namespace hia::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

constexpr int kRankTrackBase = 1;          // ranks are small, start at 1
constexpr int kBucketTrackBase = 1 << 20;  // far away from any rank count

using Clock = std::chrono::steady_clock;

/// Fixed-capacity ring owned by one writer thread; readers (snapshot,
/// reset) take the per-ring mutex, so every access is synchronized and the
/// writer's lock is uncontended in the steady state.
struct ThreadRing {
  explicit ThreadRing(size_t capacity, uint32_t tid_)
      : events(capacity), tid(tid_) {}

  std::mutex mutex;
  std::vector<Event> events;  // ring storage, capacity fixed at creation
  size_t head = 0;            // next write slot
  size_t count = 0;           // live events (<= capacity)
  uint64_t dropped = 0;       // events overwritten by overflow
  uint32_t tid = 0;
};

struct Registry {
  Clock::time_point epoch = Clock::now();
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::atomic<size_t> ring_capacity{size_t{1} << 14};  // 16384 events/thread
  std::atomic<uint64_t> oversized{0};
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during shutdown
  return *r;
}

thread_local std::shared_ptr<ThreadRing> t_ring;
thread_local int t_track = kTrackControl;

ThreadRing& thread_ring() {
  if (!t_ring) {
    Registry& reg = registry();
    std::lock_guard lock(reg.mutex);
    t_ring = std::make_shared<ThreadRing>(
        reg.ring_capacity.load(std::memory_order_relaxed),
        static_cast<uint32_t>(reg.rings.size()));
    reg.rings.push_back(t_ring);
  }
  return *t_ring;
}

void record(Phase phase, const char* category, const char* name,
            const SpanArgs& args, double value) {
  Event ev;
  ev.t_us = now_us();
  ev.phase = phase;
  ev.track = t_track;
  ev.category = category;
  const size_t len = std::strlen(name);
  if (len >= Event::kNameCapacity) {
    registry().oversized.fetch_add(1, std::memory_order_relaxed);
  }
  const size_t copy = std::min(len, Event::kNameCapacity - 1);
  std::memcpy(ev.name, name, copy);
  ev.name[copy] = '\0';
  ev.args = args;
  ev.value = value;

  ThreadRing& ring = thread_ring();
  ev.tid = ring.tid;
  std::lock_guard lock(ring.mutex);
  if (ring.count == ring.events.size()) {
    ++ring.dropped;  // overwriting the oldest event
  } else {
    ++ring.count;
  }
  ring.events[ring.head] = ev;
  ring.head = (ring.head + 1) % ring.events.size();
}

}  // namespace

int rank_track(int rank) { return kRankTrackBase + rank; }
int bucket_track(int bucket) { return kBucketTrackBase + bucket; }

bool is_rank_track(int track, int* rank) {
  if (track < kRankTrackBase || track >= kBucketTrackBase) return false;
  if (rank != nullptr) *rank = track - kRankTrackBase;
  return true;
}

bool is_bucket_track(int track, int* bucket) {
  if (track < kBucketTrackBase) return false;
  if (bucket != nullptr) *bucket = track - kBucketTrackBase;
  return true;
}

void enable() {
  registry();  // pin the epoch before the first event
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void disable() { detail::g_enabled.store(false, std::memory_order_relaxed); }

void reset() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  for (auto& ring : reg.rings) {
    std::lock_guard ring_lock(ring->mutex);
    ring->head = 0;
    ring->count = 0;
    ring->dropped = 0;
  }
  reg.oversized.store(0, std::memory_order_relaxed);
}

void set_ring_capacity(size_t events) {
  if (events == 0) events = 1;
  registry().ring_capacity.store(events, std::memory_order_relaxed);
}

size_t ring_capacity() {
  return registry().ring_capacity.load(std::memory_order_relaxed);
}

void set_thread_track(int track) { t_track = track; }

void begin(const char* category, const char* name, const SpanArgs& args) {
  if (!enabled()) return;
  record(Phase::kBegin, category, name, args, 0.0);
}

void end(const char* category, const char* name) {
  if (!enabled()) return;
  record(Phase::kEnd, category, name, SpanArgs{}, 0.0);
}

namespace detail {
void end_unchecked(const char* category, const char* name) {
  record(Phase::kEnd, category, name, SpanArgs{}, 0.0);
}
}  // namespace detail

void instant(const char* category, const char* name, const SpanArgs& args) {
  if (!enabled()) return;
  record(Phase::kInstant, category, name, args, 0.0);
}

void counter_sample(const char* name, double value) {
  if (!enabled()) return;
  record(Phase::kCounter, "counter", name, SpanArgs{}, value);
}

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   registry().epoch)
      .count();
}

uint64_t dropped_events() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  uint64_t total = 0;
  for (const auto& ring : reg.rings) {
    std::lock_guard ring_lock(ring->mutex);
    total += ring->dropped;
  }
  return total;
}

uint64_t oversized_names() {
  return registry().oversized.load(std::memory_order_relaxed);
}

size_t recorded_events() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  size_t total = 0;
  for (const auto& ring : reg.rings) {
    std::lock_guard ring_lock(ring->mutex);
    total += ring->count;
  }
  return total;
}

std::vector<Event> snapshot() {
  Registry& reg = registry();
  std::vector<Event> out;
  {
    std::lock_guard lock(reg.mutex);
    for (const auto& ring : reg.rings) {
      std::lock_guard ring_lock(ring->mutex);
      const size_t cap = ring->events.size();
      // Oldest-first: the ring starts at head when full, at 0 otherwise.
      const size_t start = ring->count == cap ? ring->head : 0;
      for (size_t i = 0; i < ring->count; ++i) {
        out.push_back(ring->events[(start + i) % cap]);
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& a, const Event& b) { return a.t_us < b.t_us; });
  return out;
}

}  // namespace hia::obs
