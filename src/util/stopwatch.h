// Monotonic wall-clock stopwatch used by the benchmark harness and the
// hybrid-strategy instrumentation.
#pragma once

#include <chrono>

namespace aalign::util {

class Stopwatch {
 public:
  Stopwatch() { reset(); }

  void reset() { start_ = clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }
  double micros() const { return seconds() * 1e6; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

// Giga cell updates per second, the standard throughput metric for
// alignment kernels: `cells` is query length x subject length, summed
// over the subjects of a database search.
double gcups_cells(std::size_t cells, double seconds);

}  // namespace aalign::util
