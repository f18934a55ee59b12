// Lock-order validator internals. See lock_order.h for the model.
//
// The graph structures are guarded by a *raw* std::mutex on purpose: the
// validator cannot sit behind aalign::Mutex without recursing into its
// own hooks. This file is the one sanctioned raw-mutex site in the tree
// (arch-lint's raw-sync check exempts util/).
#include "util/lock_order.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <utility>

namespace aalign::util::lock_order {

namespace {

const char* kind_name(Violation::Kind k) {
  switch (k) {
    case Violation::Kind::kRecursive:
      return "recursive acquisition (self-deadlock)";
    case Violation::Kind::kSelfLevel:
      return "hierarchy level nested inside itself";
    case Violation::Kind::kCycle:
      return "lock-order inversion (acquired-after cycle)";
  }
  return "unknown";
}

void append_stack(std::ostringstream& os, const char* title,
                  const std::vector<std::string>& stack) {
  os << "  " << title << " (outermost first):\n";
  if (stack.empty()) {
    os << "    <empty>\n";
    return;
  }
  for (std::size_t i = 0; i < stack.size(); ++i) {
    os << "    #" << i << " " << stack[i] << "\n";
  }
}

}  // namespace

std::string Violation::to_string() const {
  std::ostringstream os;
  os << "lock-order violation: " << kind_name(kind) << "\n"
     << "  acquiring '" << acquiring << "' while holding '" << conflicting
     << "'\n";
  append_stack(os, "this thread's lock stack", current_stack);
  append_stack(os, "conflicting order first recorded with stack",
               prior_stack);
  return os.str();
}

namespace detail {
std::atomic<bool> g_enabled{
#ifdef NDEBUG
    false
#else
    true
#endif
};
}  // namespace detail

namespace {

struct Edge {
  // Held-stack names (plus the acquired level) when this acquired-after
  // edge was first inserted; reported as the "prior" stack on inversion.
  std::vector<std::string> stack;
};

struct Held {
  const void* mu = nullptr;
  std::string name;
};

// Guarded by g_graph_mu (raw on purpose; see file comment).
std::mutex g_graph_mu;
std::map<std::string, std::map<std::string, Edge>>& graph() {
  static auto* g = new std::map<std::string, std::map<std::string, Edge>>();
  return *g;
}

std::atomic<Handler> g_handler{nullptr};
std::atomic<std::uint64_t> g_edges{0};
std::atomic<std::uint64_t> g_contention_ns{0};
std::atomic<std::uint64_t> g_contended{0};
std::atomic<std::uint64_t> g_violations{0};

thread_local std::vector<Held> t_held;

std::vector<std::string> held_names_plus(const std::string& next) {
  std::vector<std::string> names;
  names.reserve(t_held.size() + 1);
  for (const Held& h : t_held) names.push_back(h.name);
  names.push_back(next);
  return names;
}

// Finds a path from `from` to `to` in the acquired-after graph and
// returns the stack stored on the path's first edge (the acquisition
// that established the conflicting direction). Caller holds g_graph_mu.
std::optional<std::vector<std::string>> find_path_stack(
    const std::string& from, const std::string& to) {
  const auto& g = graph();
  const auto it = g.find(from);
  if (it == g.end()) return std::nullopt;
  // BFS; each frontier entry remembers the first hop out of `from`, whose
  // stored stack is the acquisition that established the conflicting
  // direction (the one worth showing in the report).
  std::vector<std::pair<std::string, const Edge*>> frontier;
  for (const auto& [next, edge] : it->second) {
    if (next == to) return edge.stack;  // direct reverse edge
    frontier.emplace_back(next, &edge);
  }
  std::vector<std::string> visited{from};
  while (!frontier.empty()) {
    std::vector<std::pair<std::string, const Edge*>> next_frontier;
    for (const auto& [node, first_edge] : frontier) {
      bool seen = false;
      for (const std::string& v : visited) {
        if (v == node) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
      visited.push_back(node);
      const auto nit = g.find(node);
      if (nit == g.end()) continue;
      for (const auto& kv : nit->second) {
        if (kv.first == to) return first_edge->stack;
        next_frontier.emplace_back(kv.first, first_edge);
      }
    }
    frontier = std::move(next_frontier);
  }
  return std::nullopt;
}

void fire(Violation v) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  const Handler h = g_handler.load(std::memory_order_acquire);
  if (h != nullptr) {
    h(v);
    return;
  }
  const std::string report = v.to_string();
  std::fprintf(stderr, "%s", report.c_str());
  std::fflush(stderr);
  std::abort();
}

// Shared bookkeeping for lock() and a successful try_lock(): validate
// the acquisition against the held stack + graph, then mark it held.
void acquire_common(const void* mu, const char* name, bool check_recursive) {
  if (check_recursive) {
    for (const Held& h : t_held) {
      if (h.mu == mu) {
        Violation v;
        v.kind = Violation::Kind::kRecursive;
        v.acquiring = name;
        v.conflicting = h.name;
        v.current_stack = held_names_plus(name);
        v.prior_stack = v.current_stack;
        fire(std::move(v));
        break;
      }
    }
  }
  if (!t_held.empty()) {
    std::optional<Violation> pending;
    {
      std::lock_guard<std::mutex> lock(g_graph_mu);
      for (const Held& h : t_held) {
        if (h.name == name) {
          Violation v;
          v.kind = Violation::Kind::kSelfLevel;
          v.acquiring = name;
          v.conflicting = h.name;
          v.current_stack = held_names_plus(name);
          v.prior_stack = v.current_stack;
          pending = std::move(v);
          break;
        }
        // Inversion: `name` already ordered before h.name somewhere.
        if (auto prior = find_path_stack(name, h.name)) {
          Violation v;
          v.kind = Violation::Kind::kCycle;
          v.acquiring = name;
          v.conflicting = h.name;
          v.current_stack = held_names_plus(name);
          v.prior_stack = *std::move(prior);
          pending = std::move(v);
          break;
        }
        auto& out = graph()[h.name];
        if (out.find(name) == out.end()) {
          out.emplace(name, Edge{held_names_plus(name)});
          g_edges.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    // Fire outside g_graph_mu so a test handler can inspect stats()
    // or even the graph without self-deadlocking.
    if (pending) fire(*std::move(pending));
  }
  t_held.push_back(Held{mu, name});
}

}  // namespace

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

Handler set_violation_handler(Handler h) noexcept {
  return g_handler.exchange(h, std::memory_order_acq_rel);
}

void on_acquire(const void* mu, const char* name) {
  acquire_common(mu, name, /*check_recursive=*/true);
}

void on_try_acquired(const void* mu, const char* name) {
  acquire_common(mu, name, /*check_recursive=*/false);
}

void on_release(const void* mu) {
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->mu == mu) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
  // Absent entry: the validator was disabled when this lock was taken.
}

void add_contention_ns(std::uint64_t ns) noexcept {
  g_contention_ns.fetch_add(ns, std::memory_order_relaxed);
  g_contended.fetch_add(1, std::memory_order_relaxed);
}

Stats stats() noexcept {
  Stats s;
  s.order_edges = g_edges.load(std::memory_order_relaxed);
  s.contention_ns = g_contention_ns.load(std::memory_order_relaxed);
  s.contended_locks = g_contended.load(std::memory_order_relaxed);
  s.violations = g_violations.load(std::memory_order_relaxed);
  return s;
}

void reset() {
  {
    std::lock_guard<std::mutex> lock(g_graph_mu);
    graph().clear();
  }
  g_edges.store(0, std::memory_order_relaxed);
  g_contention_ns.store(0, std::memory_order_relaxed);
  g_contended.store(0, std::memory_order_relaxed);
  g_violations.store(0, std::memory_order_relaxed);
  t_held.clear();
}

}  // namespace aalign::util::lock_order
