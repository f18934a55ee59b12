// Reusable per-thread kernel working set: the paper's arr_T1/arr_T2 double
// buffer, arr_L, and arr_Scan. Sized once per query and reused across every
// subject a thread aligns (buffers never shrink).
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/aligned_buffer.h"

namespace aalign::core {

template <class T>
struct Workspace {
  util::AlignedBuffer<T> h_prev;  // arr_T1: previous column's final scores
  util::AlignedBuffer<T> h_cur;   // arr_T2: column under construction
  util::AlignedBuffer<T> e;       // arr_L: left-gap (E) carry between columns
  util::AlignedBuffer<T> scan;    // arr_Scan: wgt_max_scan output

  void prepare(int padded_len) {
    h_prev.resize(padded_len);
    h_cur.resize(padded_len);
    e.resize(padded_len);
    scan.resize(padded_len);
  }
};

// One per worker thread: the working sets of all three score widths, for
// the striped kernels and the inter-sequence tiers alike. Buffers grow
// lazily, so widths that never run cost nothing.
struct WorkspaceSet {
  Workspace<std::int8_t> w8;
  Workspace<std::int16_t> w16;
  Workspace<std::int32_t> w32;
};

}  // namespace aalign::core
