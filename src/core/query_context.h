// QueryContext: everything derivable from (matrix, config, options, query)
// alone - striped profiles per reachable score width plus the engine
// pointers. A tier's profile is in the layout its engine reads
// (score/profile.h): on AVX-512BW (and AVX-512F int32) the striped query
// index, m_pad * sizeof(T) bytes, read through the matrix's own letter
// tables (ScoreMatrix::letter_tables, never copied); elsewhere, and for
// alphabets of 32 or more letters, the per-letter rows,
// alpha * m_pad * sizeof(T) bytes. The matrix must outlive the context.
// Logically immutable and safely shared by every search thread (the
// paper's Sec. V-E optimization: build the profile once, before launching
// threads). The constructor builds the first width's profile; each wider
// one is built once, on the first align() that promotes to it, and read
// without a lock after that. Mutable per-thread state lives in
// WorkspaceSet.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/cancel.h"
#include "core/config.h"
#include "core/engine.h"
#include "core/workspace.h"
#include "score/profile.h"

namespace aalign::core {

struct QueryOptions {
  Strategy strategy = Strategy::Hybrid;
  simd::IsaKind isa = simd::best_available_isa();  // this machine's best
  ScoreWidth width = ScoreWidth::Auto;  // Auto = adaptive 8->16->32
  HybridParams hybrid;
  // Optional prebuilt substitution rows (the ProfileLut sections of a
  // mapped .aidx): when attached, the profiles' letter tables are read
  // from these rows instead of the matrix - bit-identical output
  // (the profile cache therefore keys on neither), counted by
  // cache.profile.lut_attach. A tier whose span is absent or undersized
  // silently falls back to the matrix build.
  score::ProfileLutView lut;
};

struct AdaptiveResult {
  KernelResult kernel;
  ScoreWidth width = ScoreWidth::W32;
  int promotions = 0;
  // Run stopped by the CancelToken; kernel.score is invalid and the
  // caller must not record it.
  bool cancelled = false;
};

// The narrowest width worth trying first for one subject, given what is
// knowable before running the kernel. The positive range depends on the
// input and is caught at run time (a saturated kernel promotes), so only
// the negative range is ruled out up front: min_safe_width(), which is the
// narrowest width for local alignment and grows with m + n for the
// non-local kinds. `supported` is narrowest first; throws std::logic_error
// when it is empty.
ScoreWidth choose_start_width(const AlignConfig& cfg, std::size_t query_len,
                              std::size_t subject_len,
                              const std::vector<ScoreWidth>& supported);

class QueryContext {
 public:
  // Throws std::invalid_argument when the ISA is unavailable or provides
  // no usable width, when the query is longer than
  // score::kMaxQueryLength (before copying or reading any of it), or when
  // a query byte is outside the matrix alphabet (>= matrix.size()).
  QueryContext(const score::ScoreMatrix& matrix, const AlignConfig& cfg,
               const QueryOptions& opt,
               std::span<const std::uint8_t> query);

  // Runs the kernel at the narrowest viable width, promoting on
  // saturation. Thread-safe given a per-thread WorkspaceSet.
  // An empty subject is legal and scored exactly (boundary conditions).
  // Throws std::invalid_argument on a subject byte outside the matrix
  // alphabet (>= matrix.size()), before any kernel reads with it.
  // A fired `cancel` token returns AdaptiveResult::cancelled within one
  // kernel stride-chunk; the result carries no valid score.
  AdaptiveResult align(std::span<const std::uint8_t> subject, WorkspaceSet& ws,
                       const CancelToken* cancel = nullptr) const;

  const AlignConfig& config() const { return cfg_; }
  const QueryOptions& options() const { return opt_; }
  // The widths align() can run, narrowest first; only the first has a
  // profile before align() needs another. Under ScoreWidth::Auto the list
  // starts at min_safe_width(query length, 0): narrower widths can never
  // run for any subject (a no-op for local alignment).
  const std::vector<ScoreWidth>& widths() const { return widths_; }
  // The encoded query this context was built from (the batch layer keys
  // its profile cache on these bytes).
  std::span<const std::uint8_t> query() const { return query_; }

 private:
  // One score width: its engine (null when the ISA lacks the width), the
  // LUT rows it may build from, and its profile, built at most once. A
  // profile reads the matrix's letter tables in place; only one built
  // from LUT rows reads tables of its own, lut_tables.
  template <class T>
  struct Tier {
    const Engine<T>* engine = nullptr;
    std::span<const T> lut_rows;
    std::once_flag built;
    score::ProfileTables<T> lut_tables;
    score::StripedProfile<T> profile;
  };
  // Heap-held: std::once_flag cannot move, and the context must.
  struct Tiers {
    Tier<std::int8_t> t8;
    Tier<std::int16_t> t16;
    Tier<std::int32_t> t32;
    std::atomic<bool> lut_counted{false};  // cache.profile.lut_attach once
  };

  template <class T>
  Tier<T>& tier() const;
  // The width-T profile, built on the first call; `lazy` = not from the
  // constructor (counted by profile.lazy_builds).
  template <class T>
  const score::StripedProfile<T>& profile(bool lazy) const;
  template <class T>
  void build(Tier<T>& t, bool lazy) const;
  template <class T>
  KernelResult run_width(std::span<const std::uint8_t> subject,
                         Workspace<T>& ws, const CancelToken* cancel) const;

  const score::ScoreMatrix& matrix_;
  AlignConfig cfg_;
  QueryOptions opt_;
  std::vector<std::uint8_t> query_;
  std::size_t query_len_ = 0;
  std::vector<ScoreWidth> widths_;
  std::unique_ptr<Tiers> tiers_ = std::make_unique<Tiers>();
};

}  // namespace aalign::core
