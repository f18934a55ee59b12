// Runtime lock-order (acquired-after) validator behind aalign::Mutex.
//
// Every named Mutex acquisition is reported here. The validator keeps a
// per-thread stack of held locks plus a global acquired-after graph keyed
// by mutex *name* (a hierarchy level, e.g. "search.profile_cache" - many
// instances share a level). Whenever a lock is taken while others are
// held, edges held-level -> new-level are inserted; inserting an edge
// whose reverse direction is already reachable means two threads can
// acquire the same pair of levels in opposite orders - a deadlock waiting
// for the right interleaving - and the validator fires a Violation
// carrying BOTH lock stacks: the acquiring thread's current stack and the
// stack recorded when the conflicting edge was first seen. Re-locking the
// same instance (self-deadlock on a non-recursive mutex) and nesting a
// level inside itself are violations too.
//
// Cost model: the validator is always compiled in; a disabled check is
// one relaxed atomic load + predicted branch per lock operation.
// Validation defaults ON in debug builds (!NDEBUG) and OFF in release;
// tests turn it on explicitly with set_enabled(true).
//
// The default violation handler prints the report and std::abort()s so a
// debug run dies loudly at the first inversion; tests install their own
// handler to capture the report instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace aalign::util::lock_order {

struct Violation {
  enum class Kind {
    kRecursive,  // same Mutex instance locked twice by one thread
    kSelfLevel,  // a hierarchy level nested inside itself
    kCycle,      // acquired-after order inverted vs. an earlier thread
  };
  Kind kind = Kind::kCycle;
  // The level being acquired and the held level it conflicts with.
  std::string acquiring;
  std::string conflicting;
  // Held-lock stack of the acquiring thread, outermost first, with
  // `acquiring` appended (the order this thread wants).
  std::vector<std::string> current_stack;
  // Held-lock stack recorded when the conflicting reverse edge was first
  // inserted (the order some earlier acquisition established).
  std::vector<std::string> prior_stack;

  // Multi-line human-readable report naming both stacks.
  std::string to_string() const;
};

using Handler = void (*)(const Violation&);

struct Stats {
  std::uint64_t order_edges = 0;     // distinct acquired-after edges seen
  std::uint64_t contention_ns = 0;   // ns spent blocked in Mutex::lock
  std::uint64_t contended_locks = 0; // lock() calls that had to block
  std::uint64_t violations = 0;      // violations reported
};

namespace detail {
// Relaxed is enough: the flag only gates bookkeeping, never publication.
extern std::atomic<bool> g_enabled;
}  // namespace detail

inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept;

// Installs a handler and returns the previous one (nullptr selects the
// default print-and-abort behaviour).
Handler set_violation_handler(Handler h) noexcept;

// Called by Mutex::lock *before* blocking: validates the acquisition
// against the held stack + global graph, then pushes it as held.
void on_acquire(const void* mu, const char* name);
// Called by Mutex::try_lock after a *successful* try: same bookkeeping
// (a try-lock cannot deadlock by blocking, but an inverted order still
// breaks the documented hierarchy).
void on_try_acquired(const void* mu, const char* name);
// Called by Mutex::unlock; tolerant of entries missing because the
// validator was disabled at lock time.
void on_release(const void* mu);
// Contention accounting from Mutex::lock's slow path.
void add_contention_ns(std::uint64_t ns) noexcept;

Stats stats() noexcept;
// Clears the graph, the stats, and this thread's held stack (other
// threads' stacks drain as they unlock). Test isolation only.
void reset();

}  // namespace aalign::util::lock_order
