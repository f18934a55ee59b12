#include "obs/metrics.h"

#include <algorithm>
#include <map>
#include <memory>

#include "obs/instrument.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aalign::obs {

std::uint64_t Snapshot::counter(std::string_view name) const {
  for (const CounterSnapshot& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const HistogramSnapshot* Snapshot::histogram(std::string_view name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

int this_thread_shard() {
  static std::atomic<int> next{0};
  thread_local const int shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

HistogramSnapshot Histogram::snapshot(std::string name) const {
  HistogramSnapshot out;
  out.name = std::move(name);
  out.buckets.assign(kHistogramBuckets, 0);
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  for (const Shard& s : shards_) {
    for (int b = 0; b < kHistogramBuckets; ++b) {
      out.buckets[static_cast<std::size_t>(b)] +=
          s.buckets[static_cast<std::size_t>(b)].load(
              std::memory_order_relaxed);
    }
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    min = std::min(min, s.min.load(std::memory_order_relaxed));
    out.max = std::max(out.max, s.max.load(std::memory_order_relaxed));
  }
  out.min = out.count > 0 ? min : 0;
  return out;
}

void Histogram::reset() noexcept {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(std::numeric_limits<std::uint64_t>::max(),
                std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

TimerSnapshot Timer::snapshot(std::string name) const {
  const HistogramSnapshot h = ns_.snapshot("");
  TimerSnapshot out;
  out.name = std::move(name);
  out.count = h.count;
  out.total_ns = h.sum;
  out.min_ns = h.min;
  out.max_ns = h.max;
  out.total_cycles = cycles_.value();
  return out;
}

// Ordered maps give deterministic (sorted-by-name) snapshot/export order;
// values are node-stable so returned references outlive rehashing.
// obs.registry is the hierarchy *leaf*: no other aalign::Mutex may be
// acquired while it is held (docs/concurrency.md).
struct Registry::Impl {
  mutable Mutex mu{"obs.registry"};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters
      AALIGN_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms
      AALIGN_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers
      AALIGN_GUARDED_BY(mu);
};

Registry::Registry() : impl_(new Impl) {}
Registry::~Registry() { delete impl_; }

Registry& Registry::global() {
  static Registry r;
  return r;
}

Counter& Registry::counter(std::string_view name) {
  MutexLock lock(impl_->mu);
  auto it = impl_->counters.find(name);
  if (it == impl_->counters.end()) {
    it = impl_->counters
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  MutexLock lock(impl_->mu);
  auto it = impl_->histograms.find(name);
  if (it == impl_->histograms.end()) {
    it = impl_->histograms
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

Timer& Registry::timer(std::string_view name) {
  MutexLock lock(impl_->mu);
  auto it = impl_->timers.find(name);
  if (it == impl_->timers.end()) {
    it = impl_->timers.emplace(std::string(name), std::make_unique<Timer>())
             .first;
  }
  return *it->second;
}

Snapshot Registry::snapshot() const {
  // Publish lock-order/contention deltas (lock.* debug series) into the
  // global registry before taking the registry lock: record_lock_stats()
  // registers counters under the same non-recursive leaf mutex, so it
  // must run first. Instance registries (tests) skip it.
  if (this == &Registry::global()) record_lock_stats();
  MutexLock lock(impl_->mu);
  Snapshot out;
  out.counters.reserve(impl_->counters.size());
  for (const auto& [name, c] : impl_->counters) {
    out.counters.push_back({name, c->value()});
  }
  out.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, h] : impl_->histograms) {
    out.histograms.push_back(h->snapshot(name));
  }
  out.timers.reserve(impl_->timers.size());
  for (const auto& [name, t] : impl_->timers) {
    out.timers.push_back(t->snapshot(name));
  }
  return out;
}

void Registry::reset() {
  MutexLock lock(impl_->mu);
  for (auto& [name, c] : impl_->counters) c->reset();
  for (auto& [name, h] : impl_->histograms) h->reset();
  for (auto& [name, t] : impl_->timers) t->reset();
}

}  // namespace aalign::obs
