// Type-erased kernel entry point: one Engine per (ISA, score width).
//
// Backend TUs (kernels_*.cpp, each compiled with its own ISA flags)
// implement Engine via EngineImpl<Ops> inside their backend record
// (core/backends.h); the dispatcher (dispatch.cpp) hands out engines only
// when the backend is both compiled in and supported by the running CPU,
// so no illegal instruction can be reached. The virtual call costs one
// indirection per alignment.
#pragma once

#include <cstdint>
#include <span>

#include "core/cancel.h"
#include "core/config.h"
#include "core/workspace.h"
#include "score/profile.h"
#include "simd/isa.h"

namespace aalign::core {

template <class T>
class Engine {
 public:
  virtual ~Engine() = default;

  virtual int lanes() const = 0;

  // Builds `profile` for `query` at lanes() lanes from the letter tables,
  // in the layout run() reads fastest (score/profile.h): the lookup layout,
  // which points at `tables` (they must outlive every read of the
  // profile), on backends with a one-instruction register lookup when the
  // alphabet fits it; else the rows, filled one lookup per vector where
  // the backend has a lookup at all and by the scalar fill elsewhere. The
  // same score(a, k) for every cell either way.
  virtual void build_profile(score::StripedProfile<T>& profile,
                             std::span<const std::uint8_t> query,
                             const score::ProfileTables<T>& tables) const = 0;

  // Takes `profile` in either layout. Every subject byte must be below
  // the profile's alphabet (QueryContext::align checks). cancel: optional
  // cooperative stop, polled once per stride-chunk of columns; a fired
  // token returns KernelResult::cancelled (invalid score).
  virtual KernelResult run(Strategy strategy, const AlignConfig& cfg,
                           const score::StripedProfile<T>& profile,
                           std::span<const std::uint8_t> subject,
                           Workspace<T>& ws, const HybridParams& hp,
                           const CancelToken* cancel = nullptr) const = 0;
};

// Returns the engine for (isa, T), or nullptr when that backend is not
// compiled in, not supported by this CPU, or does not provide T lanes
// (e.g. the AVX-512/IMCI-profile backend is 32-bit only).
// Instantiated for int8_t, int16_t and int32_t.
template <class T>
const Engine<T>* get_engine(simd::IsaKind isa);

}  // namespace aalign::core
