// EngineImpl: maps the runtime (strategy, kind, gap model) onto the
// compile-time kernel template instantiations for one Ops backend, and
// make_backend, which bundles one ISA's engines into its Backend record.
// Include this header ONLY from a TU compiled with the backend's ISA flags.
#pragma once

#include "core/backends.h"
#include "core/engine.h"
#include "core/inter_kernel.h"
#include "core/kernels.h"

namespace aalign::core {

template <class Ops>
class EngineImpl final : public Engine<typename Ops::value_type> {
 public:
  using T = typename Ops::value_type;

  int lanes() const override { return Ops::kWidth; }

  // The lookup layout where the kernels score by a one-instruction lookup;
  // else the rows, one lookup per vector where the backend has a lookup at
  // all. The lookup covers indices 0..31, so alphabets whose pad symbol
  // does not fit (alpha >= 32) take the scalar rows fill.
  void build_profile(score::StripedProfile<T>& profile,
                     std::span<const std::uint8_t> query,
                     const score::ProfileTables<T>& tables) const override {
    if (tables.alpha < score::kLookupEntries) {
      if constexpr (simd::HasOneOpLookup<Ops>) {
        score::build_lookup_profile(profile, query, tables, Ops::kWidth,
                                    index_code<Ops>());
        return;
      } else if constexpr (simd::HasLookup<Ops>) {
        util::AlignedBuffer<T> idx;
        score::stripe_query(profile, query, tables.alpha, Ops::kWidth, idx,
                            index_code<Ops>());
        profile.use_rows();
        const std::size_t n = idx.size();
        for (int a = 0; a < tables.alpha; ++a) {
          const auto tab = Ops::load_table(tables.row(a));
          T* row = profile.data.data() + static_cast<std::size_t>(a) * n;
          for (std::size_t k = 0; k < n; k += Ops::kWidth) {
            Ops::store(row + k, Ops::lookup(tab, Ops::load(&idx[k])));
          }
        }
        return;
      }
    }
    score::build_striped_profile(profile, query, tables, Ops::kWidth);
  }

  KernelResult run(Strategy strategy, const AlignConfig& cfg,
                   const score::StripedProfile<T>& profile,
                   std::span<const std::uint8_t> subject, Workspace<T>& ws,
                   const HybridParams& hp,
                   const CancelToken* cancel) const override {
    const bool affine = cfg.gap_model() == GapModel::Affine;
    switch (cfg.kind) {
      case AlignKind::Local:
        return affine ? run_kind<AlignKind::Local, true>(
                            strategy, cfg, profile, subject, ws, hp, cancel)
                      : run_kind<AlignKind::Local, false>(
                            strategy, cfg, profile, subject, ws, hp, cancel);
      case AlignKind::Global:
        return affine ? run_kind<AlignKind::Global, true>(
                            strategy, cfg, profile, subject, ws, hp, cancel)
                      : run_kind<AlignKind::Global, false>(
                            strategy, cfg, profile, subject, ws, hp, cancel);
      case AlignKind::SemiGlobal:
        return affine ? run_kind<AlignKind::SemiGlobal, true>(
                            strategy, cfg, profile, subject, ws, hp, cancel)
                      : run_kind<AlignKind::SemiGlobal, false>(
                            strategy, cfg, profile, subject, ws, hp, cancel);
      case AlignKind::SemiGlobalQuery:
        return affine ? run_kind<AlignKind::SemiGlobalQuery, true>(
                            strategy, cfg, profile, subject, ws, hp, cancel)
                      : run_kind<AlignKind::SemiGlobalQuery, false>(
                            strategy, cfg, profile, subject, ws, hp, cancel);
      case AlignKind::Overlap:
        return affine ? run_kind<AlignKind::Overlap, true>(
                            strategy, cfg, profile, subject, ws, hp, cancel)
                      : run_kind<AlignKind::Overlap, false>(
                            strategy, cfg, profile, subject, ws, hp, cancel);
    }
    return {};
  }

 private:
  template <AlignKind K, bool Affine>
  KernelResult run_kind(Strategy strategy, const AlignConfig& cfg,
                        const score::StripedProfile<T>& profile,
                        std::span<const std::uint8_t> subject,
                        Workspace<T>& ws, const HybridParams& hp,
                        const CancelToken* cancel) const {
    const Steps<T> st = make_steps<T>(cfg);
    switch (strategy) {
      case Strategy::StripedIterate:
        return run_striped_iterate<Ops, K, Affine>(profile, subject, st, ws,
                                                   cfg.lazyf, cancel);
      case Strategy::StripedScan:
        return run_striped_scan<Ops, K, Affine>(profile, subject, st, ws,
                                                cancel);
      case Strategy::Hybrid:
        return run_hybrid<Ops, K, Affine>(profile, subject, st, ws, hp,
                                          cfg.lazyf, cancel);
    }
    return {};
  }
};

// Striped engine of backend Tag at T lanes; nullptr when the backend
// header defines no VecOps<T, Tag>.
template <class T, class Tag>
const Engine<T>* striped_engine() {
  if constexpr (simd::HasLanes<T, Tag>) {
    static const EngineImpl<simd::VecOps<T, Tag>> e;
    return &e;
  } else {
    return nullptr;
  }
}

// The record of backend Tag: a striped engine for every width its VecOps
// header defines, and the inter engine over the same widths.
template <class Tag>
const Backend& make_backend() {
  static const InterEngineImpl<Tag> inter;
  static const Backend b{striped_engine<std::int8_t, Tag>(),
                         striped_engine<std::int16_t, Tag>(),
                         striped_engine<std::int32_t, Tag>(), &inter};
  return b;
}

}  // namespace aalign::core
