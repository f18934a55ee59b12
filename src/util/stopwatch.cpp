#include "util/stopwatch.h"

#include <cstddef>

namespace aalign::util {

double gcups_cells(std::size_t cells, double seconds) {
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(cells) / seconds / 1e9;
}

}  // namespace aalign::util
