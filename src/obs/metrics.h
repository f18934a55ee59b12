// Unified metrics/tracing registry (the repo's one instrumentation path).
//
// Three series kinds, all named by dotted strings:
//   Counter   - monotonic u64, sharded across cacheline-padded atomic slots
//               so concurrent writers never contend on one line; value() is
//               the exact sum of all shards (relaxed adds commute).
//   Histogram - value distribution over fixed log2 buckets: bucket 0 holds
//               {0}, bucket b >= 1 holds [2^(b-1), 2^b). Tracks exact
//               count/sum/min/max alongside the buckets.
//   Timer     - scoped RAII wall + rdtsc accounting; total/min/max
//               nanoseconds plus cycle counts, nesting-safe (each scope
//               accumulates independently).
//
// Registration is mutex-guarded and idempotent (same name -> same object);
// the hot path is only relaxed atomic arithmetic on per-worker shards,
// merged lock-free when snapshot() drains. The registry is always built
// in: an operator reads a running process's counters without a rebuild.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>
#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace aalign::obs {

// Shards per metric: enough that a machine's worth of workers rarely
// collide on a slot, small enough that drains stay trivial.
inline constexpr int kShards = 16;
// Log2 buckets: {0}, [1,2), [2,4), ... [2^62, 2^63), [2^63, inf).
inline constexpr int kHistogramBuckets = 65;

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // 0 when count == 0
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  // kHistogramBuckets entries
};

struct TimerSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t total_cycles = 0;  // rdtsc; 0 on non-x86 builds
};

struct Snapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<HistogramSnapshot> histograms;
  std::vector<TimerSnapshot> timers;

  // Convenience lookups for tests/tools; 0 / nullptr when absent.
  std::uint64_t counter(std::string_view name) const;
  const HistogramSnapshot* histogram(std::string_view name) const;
};

// Maps the calling thread onto a stable shard slot. Thread ids are
// assigned round-robin on first use, so any N <= kShards concurrent
// workers write disjoint cachelines.
int this_thread_shard();

class Counter {
 public:
  void add(std::uint64_t v = 1) noexcept { add_at(this_thread_shard(), v); }
  // Explicit-shard variant for pools that already know their worker id.
  void add_at(int shard, std::uint64_t v) noexcept {
    slots_[static_cast<std::size_t>(shard) %
           static_cast<std::size_t>(kShards)]
        .v.fetch_add(v, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() noexcept {
    for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  Slot slots_[kShards];
};

// bucket_of(0) == 0, bucket_of(1) == 1, bucket_of(2) == bucket_of(3) == 2,
// bucket_of(2^k) == k + 1 (clamped to the last bucket).
constexpr int histogram_bucket_of(std::uint64_t v) noexcept {
  const int b = std::bit_width(v);  // 0 for v == 0
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}
// Inclusive lower edge of bucket b (0, 1, 2, 4, 8, ...).
constexpr std::uint64_t histogram_bucket_low(int b) noexcept {
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}

class Histogram {
 public:
  void record(std::uint64_t v) noexcept { record_at(this_thread_shard(), v); }
  void record_at(int shard, std::uint64_t v) noexcept {
    Shard& s = shards_[static_cast<std::size_t>(shard) %
                       static_cast<std::size_t>(kShards)];
    s.buckets[static_cast<std::size_t>(histogram_bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    atomic_min(s.min, v);
    atomic_max(s.max, v);
  }
  HistogramSnapshot snapshot(std::string name) const;
  void reset() noexcept;

 private:
  static void atomic_min(std::atomic<std::uint64_t>& slot,
                         std::uint64_t v) noexcept {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v < cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void atomic_max(std::atomic<std::uint64_t>& slot,
                         std::uint64_t v) noexcept {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> buckets[kHistogramBuckets]{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{
        std::numeric_limits<std::uint64_t>::max()};
    std::atomic<std::uint64_t> max{0};
  };
  Shard shards_[kShards];
};

class Timer {
 public:
  void record(std::uint64_t ns, std::uint64_t cycles) noexcept {
    const int shard = this_thread_shard();
    ns_.record_at(shard, ns);
    cycles_.add_at(shard, cycles);
  }
  TimerSnapshot snapshot(std::string name) const;
  void reset() noexcept {
    ns_.reset();
    cycles_.reset();
  }

 private:
  Histogram ns_;
  Counter cycles_;
};

inline std::uint64_t read_cycles() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return 0;
#endif
}

// RAII scope accounting: wall ns (steady_clock) + rdtsc cycles, charged to
// the timer at scope exit. Scopes nest freely; each charges its own timer
// for its full extent (an outer scope's total includes its inner scopes).
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& t) noexcept
      : timer_(&t),
        start_(std::chrono::steady_clock::now()),
        start_cycles_(read_cycles()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { stop(); }

  // Idempotent early stop (the destructor becomes a no-op).
  void stop() noexcept {
    if (timer_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    timer_->record(static_cast<std::uint64_t>(ns < 0 ? 0 : ns),
                   read_cycles() - start_cycles_);
    timer_ = nullptr;
  }

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t start_cycles_;
};

class Registry {
 public:
  // The process-wide registry every instrumentation site reports to.
  static Registry& global();

  // Idempotent: one object per name for the registry's lifetime; the
  // returned reference is stable (call sites may cache it).
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);
  Timer& timer(std::string_view name);

  // Lock-free with respect to writers: relaxed reads of every shard while
  // concurrent add()/record() calls proceed untouched.
  Snapshot snapshot() const;

  // Zeroes every registered series (names stay registered). Tests and
  // per-run delta reporting use this.
  void reset();

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  struct Impl;
  Impl* impl_;
};

// Shorthand for the global registry.
inline Registry& registry() { return Registry::global(); }

// Always true: the registry has no compiled-out build. Kept only for its
// one remaining caller in the benchmark ledger (bench/ledger/ledger.cpp),
// which goes when that package next changes.
constexpr bool metrics_enabled() { return true; }

}  // namespace aalign::obs
