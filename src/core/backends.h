// The backend registry: one record per ISA, defined in the matching
// kernels_<isa>.cpp (compiled with that ISA's flags, built by
// make_backend in engine_impl.h); dispatch.cpp hands the records out
// behind compile-time availability and cpuid.
#pragma once

#include <cstdint>

#include "core/engine.h"
#include "core/inter_engine.h"

namespace aalign::core {

// Everything one ISA backend provides: its striped engine per lane width
// (nullptr where the backend has no such lanes) and its inter-sequence
// engine over the same widths.
struct Backend {
  const Engine<std::int8_t>* i8 = nullptr;
  const Engine<std::int16_t>* i16 = nullptr;
  const Engine<std::int32_t>* i32 = nullptr;
  const InterEngine* inter = nullptr;
};

// Defined only when the backend is compiled in (AALIGN_HAVE_<ISA>); the
// scalar backend always is.
const Backend& backend_scalar();
const Backend& backend_sse41();
const Backend& backend_avx2();
const Backend& backend_avx512();
const Backend& backend_avx512bw();

}  // namespace aalign::core
