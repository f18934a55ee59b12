// Micro-benchmarks of the vector modules (paper Table I) across backends:
// per-column cost of wgt_max_scan, rshift_x_fill, and the influence test.
// These quantify the fixed scan overhead vs. the data-dependent lazy-F
// cost that the hybrid method trades off (Sec. V-B). Every primitive row
// feeds each call's result into the next call's input, so the compiler
// cannot hoist a call out of the loop and the row reads one call's
// latency. The ProfileBuild rows time one striped query profile per
// backend and width at three query lengths (the per-residue cost and the
// fixed cost), and the Squeeze, Encode and FastaParse rows the steps
// before it: the set-up cost paid once per query or database (Sec. V-E).
// The Checksum rows time the index checksum's lane update per backend
// next to a plain read of the same bytes: the cost of opening an index.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "score/alphabet.h"
#include "score/profile.h"
#include "seq/fasta.h"
#include "seq/generator.h"
#include "simd/modules.h"
#include "simd/primitives.h"
#include "simd/vec_avx2.h"
#include "simd/vec_avx512.h"
#include "simd/vec_avx512bw.h"
#include "simd/vec_scalar.h"
#include "simd/vec_sse41.h"
#include "util/aligned_buffer.h"

using namespace aalign;
using namespace aalign::simd;

namespace {

template <class Ops>
void bench_wgt_max_scan(benchmark::State& state) {
  using T = typename Ops::value_type;
  const int m = static_cast<int>(state.range(0));
  const int W = Ops::kWidth;
  const int segs = (m + W - 1) / W;
  const int mpad = segs * W;

  util::AlignedBuffer<T> in(mpad), out(mpad);
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<int> d(-50, 80);
  for (int i = 0; i < mpad; ++i) in[i] = static_cast<T>(d(rng));

  // The next call's first input is this call's last output.
  for (auto _ : state) {
    Modules<Ops>::wgt_max_scan(in.data(), out.data(), segs, T{0}, -12, -2);
    in[0] = out[mpad - 1];
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * mpad);
}

template <class Ops>
void bench_rshift_x_fill(benchmark::State& state) {
  using T = typename Ops::value_type;
  alignas(64) T buf[Ops::kWidth];
  for (int l = 0; l < Ops::kWidth; ++l) buf[l] = static_cast<T>(l);
  auto v = Ops::load(buf);
  for (auto _ : state) {
    v = aalign::simd::Modules<Ops>::rshift_x_fill(v, 1, T{-1});
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}

template <class Ops>
void bench_influence_test(benchmark::State& state) {
  using T = typename Ops::value_type;
  alignas(64) T a[Ops::kWidth], b[Ops::kWidth];
  for (int l = 0; l < Ops::kWidth; ++l) {
    a[l] = static_cast<T>(l);
    b[l] = static_cast<T>(l + 1);  // never influences: worst case, no exit
  }
  const auto va = Ops::load(a);
  auto vb = Ops::load(b);
  // The verdict (always false) is folded back into vb by a max with 0,
  // which leaves vb as it was but makes the next test wait for this one.
  for (auto _ : state) {
    const bool hit = aalign::simd::Modules<Ops>::influence_test(va, vb);
    vb = Ops::max(vb, Ops::set1(static_cast<T>(hit)));
  }
  benchmark::DoNotOptimize(vb);
  state.SetItemsProcessed(state.iterations());
}

// The lazy-F carry scan (seg_scan_max wrapped with the segs*ext step):
// per-column fixed cost of the deconstructed fixup. Compare against
// InfluenceTest/RshiftXFill, which the legacy loop pays once per
// corrective STEP - the fixup pays this once per COLUMN instead.
template <class Ops>
void bench_lazyf_carry_scan(benchmark::State& state) {
  using T = typename Ops::value_type;
  alignas(64) T buf[Ops::kWidth];
  for (int l = 0; l < Ops::kWidth; ++l) buf[l] = static_cast<T>(40 - 3 * l);
  const auto exits = Ops::load(buf);
  // Each scan's output, maxed with the lane exits (which keeps the input
  // the same from call to call), is the next scan's input.
  auto v = exits;
  for (auto _ : state) {
    v = Ops::max(aalign::simd::Modules<Ops>::lazyf_carry_scan(v, 16, T{-2}),
                 exits);
  }
  benchmark::DoNotOptimize(v);
  state.SetItemsProcessed(state.iterations());
}

// One local striped profile of a 2,000-residue BLOSUM62 query at the
// engine's width. `engine` = false times the per-cell reference loop (one
// matrix lookup per cell, the build before the table fill); true times
// Engine::build_profile (from the matrix's letter tables, built once with
// the matrix): the striped index alone
// where the backend scores by a one-instruction lookup, else the rows,
// one in-register lookup per vector where the backend has one and the
// scalar table fill elsewhere.
template <class T>
void bench_profile_build(benchmark::State& state, IsaKind isa, bool engine) {
  const core::Engine<T>* eng = core::get_engine<T>(isa);
  if (eng == nullptr) {
    state.SkipWithError("engine unavailable");
    return;
  }
  const auto& matrix = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<int> d(0, 19);
  std::vector<std::uint8_t> query(static_cast<std::size_t>(state.range(0)));
  for (auto& c : query) c = static_cast<std::uint8_t>(d(rng));
  const int width = eng->lanes();
  const T pad = neg_inf<T>();

  score::StripedProfile<T> p;
  for (auto _ : state) {
    if (engine) {
      eng->build_profile(p, query, matrix.letter_tables(pad));
    } else {
      p.m = static_cast<int>(query.size());
      p.width = width;
      p.segs = (p.m + width - 1) / width;
      p.alpha = matrix.size();
      p.data.resize(static_cast<std::size_t>(p.alpha) * p.segs * width);
      for (int a = 0; a < p.alpha; ++a) {
        T* row = p.data.data() + static_cast<std::size_t>(a) * p.segs * width;
        for (int j = 0; j < p.segs; ++j) {
          for (int l = 0; l < width; ++l) {
            const int logical = l * p.segs + j;
            row[j * width + l] =
                logical < p.m ? static_cast<T>(matrix.at(a, query[logical]))
                              : pad;
          }
        }
      }
    }
    benchmark::DoNotOptimize(p.data.data());
    benchmark::DoNotOptimize(p.index.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * matrix.size() *
                          static_cast<std::int64_t>(query.size()));
}

// One alphabet encode of 1 MiB of residue letters through the `translate`
// of the requested backend's primitives record.
void bench_encode(benchmark::State& state, IsaKind isa) {
  const score::Alphabet& a = score::Alphabet::protein();
  std::array<std::uint8_t, 256> table{};
  for (int c = 0; c < 256; ++c) table[c] = a.ctoi(static_cast<char>(c));
  seq::SequenceGenerator gen(1);
  const std::string residues = gen.protein(std::size_t{1} << 20).residues;
  std::vector<std::uint8_t> out(residues.size());
  const TranslateFn translate = primitives(isa).translate;
  for (auto _ : state) {
    translate(table.data(), residues.data(), out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(residues.size()));
}

// One squeeze of 1 MiB of residues in 70-column lines through the
// `squeeze` of the requested backend's primitives record.
void bench_squeeze(benchmark::State& state, IsaKind isa) {
  seq::SequenceGenerator gen(1);
  const std::string residues = gen.protein(std::size_t{1} << 20).residues;
  std::string text;
  for (std::size_t at = 0; at < residues.size(); at += 70) {
    text.append(residues, at, 70).push_back('\n');
  }
  std::string out(text.size(), '\0');
  const SqueezeFn squeeze = primitives(isa).squeeze;
  for (auto _ : state) {
    benchmark::DoNotOptimize(squeeze(text.data(), text.size(), out.data()));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}

// One parse of a 2,000-record Swiss-Prot-shaped FASTA text (lines of 60)
// with the squeeze form `isa` resolves to.
void bench_fasta_parse(benchmark::State& state, IsaKind isa) {
  seq::SequenceGenerator gen(1);
  std::ostringstream text;
  seq::write_fasta(text, gen.protein_database(2000), 60);
  const std::string bytes = std::move(text).str();
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::parse_fasta(bytes, isa));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}

// The index checksum's lane update (the `fnv_lanes` of the requested
// backend's primitives record) over a warm buffer of range(0) bytes, one
// call per iteration: the layer below store.open_ms, which hashes the
// index metadata at open.
void bench_checksum(benchmark::State& state, IsaKind isa) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> buf(n);
  std::mt19937_64 rng(1);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  std::uint64_t lanes[kFnvLanes] = {};
  const FnvLanesFn update = primitives(isa).fnv_lanes;
  for (auto _ : state) {
    update(lanes, buf.data(), n / kFnvStride);
    benchmark::DoNotOptimize(lanes);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

// A plain read of a buffer the Checksum rows' size, summing its 64-bit
// words (vectorized to the widest ISA this TU is built for): the memory
// speed the checksum rows are measured against.
void bench_plain_read(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> buf(n / sizeof(std::uint64_t));
  std::mt19937_64 rng(1);
  for (auto& w : buf) w = rng();
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const std::uint64_t w : buf) sum += w;
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

}  // namespace

// The cross-lane shift and the re-computation gate: the two per-column
// primitives whose ISA-specific instruction selection the paper's Fig. 7
// and Sec. V-C discuss.
#define BENCH_PRIM(T, TAG, NAME)                                          \
  static void RshiftXFill_##NAME(benchmark::State& state) {               \
    if (!isa_available(isa_kind<TAG##Tag>())) {                          \
      state.SkipWithError(#TAG " unavailable");                          \
      return;                                                             \
    }                                                                     \
    bench_rshift_x_fill<VecOps<T, TAG##Tag>>(state);                     \
  }                                                                       \
  BENCHMARK(RshiftXFill_##NAME);                                         \
  static void InfluenceTest_##NAME(benchmark::State& state) {             \
    if (!isa_available(isa_kind<TAG##Tag>())) {                          \
      state.SkipWithError(#TAG " unavailable");                          \
      return;                                                             \
    }                                                                     \
    bench_influence_test<VecOps<T, TAG##Tag>>(state);                    \
  }                                                                       \
  BENCHMARK(InfluenceTest_##NAME);                                        \
  static void LazyFCarryScan_##NAME(benchmark::State& state) {            \
    if (!isa_available(isa_kind<TAG##Tag>())) {                          \
      state.SkipWithError(#TAG " unavailable");                          \
      return;                                                             \
    }                                                                     \
    bench_lazyf_carry_scan<VecOps<T, TAG##Tag>>(state);                  \
  }                                                                       \
  BENCHMARK(LazyFCarryScan_##NAME);

BENCH_PRIM(std::int32_t, Scalar, scalar_i32)
#if defined(AALIGN_HAVE_SSE41)
BENCH_PRIM(std::int8_t, Sse41, sse41_i8)
BENCH_PRIM(std::int16_t, Sse41, sse41_i16)
BENCH_PRIM(std::int32_t, Sse41, sse41_i32)
#endif
#if defined(AALIGN_HAVE_AVX2)
BENCH_PRIM(std::int8_t, Avx2, avx2_i8)
BENCH_PRIM(std::int16_t, Avx2, avx2_i16)
BENCH_PRIM(std::int32_t, Avx2, avx2_i32)
#endif
#if defined(AALIGN_HAVE_AVX512)
BENCH_PRIM(std::int32_t, Avx512, avx512_i32)
#endif
#if defined(AALIGN_HAVE_AVX512BW)
BENCH_PRIM(std::int8_t, Avx512Bw, avx512bw_i8)
BENCH_PRIM(std::int16_t, Avx512Bw, avx512bw_i16)
BENCH_PRIM(std::int32_t, Avx512Bw, avx512bw_i32)
#endif

// Registration helper: skips silently when the ISA is unavailable.
#define BENCH_SCAN(T, TAG, NAME)                                          \
  static void NAME(benchmark::State& state) {                            \
    if (!isa_available(isa_kind<TAG##Tag>())) {                          \
      state.SkipWithError(#TAG " unavailable");                          \
      return;                                                            \
    }                                                                     \
    bench_wgt_max_scan<VecOps<T, TAG##Tag>>(state);                      \
  }                                                                       \
  BENCHMARK(NAME)->Arg(128)->Arg(1024)->Arg(8192);

BENCH_SCAN(std::int32_t, Scalar, WgtMaxScan_scalar_i32)
#if defined(AALIGN_HAVE_SSE41)
BENCH_SCAN(std::int8_t, Sse41, WgtMaxScan_sse41_i8)
BENCH_SCAN(std::int16_t, Sse41, WgtMaxScan_sse41_i16)
BENCH_SCAN(std::int32_t, Sse41, WgtMaxScan_sse41_i32)
#endif
#if defined(AALIGN_HAVE_AVX2)
BENCH_SCAN(std::int8_t, Avx2, WgtMaxScan_avx2_i8)
BENCH_SCAN(std::int16_t, Avx2, WgtMaxScan_avx2_i16)
BENCH_SCAN(std::int32_t, Avx2, WgtMaxScan_avx2_i32)
#endif
#if defined(AALIGN_HAVE_AVX512)
BENCH_SCAN(std::int32_t, Avx512, WgtMaxScan_avx512_i32)
#endif
#if defined(AALIGN_HAVE_AVX512BW)
BENCH_SCAN(std::int8_t, Avx512Bw, WgtMaxScan_avx512bw_i8)
BENCH_SCAN(std::int16_t, Avx512Bw, WgtMaxScan_avx512bw_i16)
BENCH_SCAN(std::int32_t, Avx512Bw, WgtMaxScan_avx512bw_i32)
#endif

// Rows ProfileBuild_<isa>_<T>/reference/<m> and /engine/<m> at query
// lengths m of 1000, 2000 and 8000; unavailable ISAs skip.
#define BENCH_PROFILE(T, KIND, NAME)                                      \
  static void ProfileBuild_##NAME(benchmark::State& state, bool engine) { \
    if (!isa_available(IsaKind::KIND)) {                                  \
      state.SkipWithError(#KIND " unavailable");                          \
      return;                                                             \
    }                                                                     \
    bench_profile_build<T>(state, IsaKind::KIND, engine);                 \
  }                                                                       \
  BENCHMARK_CAPTURE(ProfileBuild_##NAME, reference, false)                \
      ->Arg(1000)->Arg(2000)->Arg(8000);                                  \
  BENCHMARK_CAPTURE(ProfileBuild_##NAME, engine, true)                    \
      ->Arg(1000)->Arg(2000)->Arg(8000);

BENCH_PROFILE(std::int8_t, Scalar, scalar_i8)
BENCH_PROFILE(std::int16_t, Scalar, scalar_i16)
BENCH_PROFILE(std::int32_t, Scalar, scalar_i32)
#if defined(AALIGN_HAVE_SSE41)
BENCH_PROFILE(std::int8_t, Sse41, sse41_i8)
BENCH_PROFILE(std::int16_t, Sse41, sse41_i16)
BENCH_PROFILE(std::int32_t, Sse41, sse41_i32)
#endif
#if defined(AALIGN_HAVE_AVX2)
BENCH_PROFILE(std::int8_t, Avx2, avx2_i8)
BENCH_PROFILE(std::int16_t, Avx2, avx2_i16)
BENCH_PROFILE(std::int32_t, Avx2, avx2_i32)
#endif
#if defined(AALIGN_HAVE_AVX512)
BENCH_PROFILE(std::int32_t, Avx512, avx512_i32)
#endif
#if defined(AALIGN_HAVE_AVX512BW)
BENCH_PROFILE(std::int8_t, Avx512Bw, avx512bw_i8)
BENCH_PROFILE(std::int16_t, Avx512Bw, avx512bw_i16)
BENCH_PROFILE(std::int32_t, Avx512Bw, avx512bw_i32)
#endif

// Rows Squeeze_<isa> and Encode_<isa> (unavailable ISAs skip), and
// FastaParse (the best squeeze) and FastaParse_scalar (the scalar squeeze
// forced: the parse on a host without AVX-512 VBMI).
#define BENCH_ENCODE(KIND, NAME)                                          \
  static void Encode_##NAME(benchmark::State& state) {                    \
    if (!isa_available(IsaKind::KIND)) {                                  \
      state.SkipWithError(#KIND " unavailable");                          \
      return;                                                             \
    }                                                                     \
    bench_encode(state, IsaKind::KIND);                                   \
  }                                                                       \
  BENCHMARK(Encode_##NAME);

#define BENCH_SQUEEZE(KIND, NAME)                                         \
  static void Squeeze_##NAME(benchmark::State& state) {                   \
    if (!isa_available(IsaKind::KIND)) {                                  \
      state.SkipWithError(#KIND " unavailable");                          \
      return;                                                             \
    }                                                                     \
    bench_squeeze(state, IsaKind::KIND);                                  \
  }                                                                       \
  BENCHMARK(Squeeze_##NAME);

BENCH_SQUEEZE(Scalar, scalar)
BENCH_SQUEEZE(Avx512Bw, avx512bw)
BENCH_ENCODE(Scalar, scalar)
BENCH_ENCODE(Avx512Bw, avx512bw)
BENCHMARK_CAPTURE(bench_fasta_parse, best, best_available_isa())
    ->Name("FastaParse");
BENCHMARK_CAPTURE(bench_fasta_parse, scalar, IsaKind::Scalar)
    ->Name("FastaParse_scalar");

// Rows Checksum_<isa> (each lane-update form; unavailable ISAs skip) and
// ChecksumPlainRead, over 8 MiB (the order of a 26k-subject index's
// metadata) and 512 KiB (a 1.5k-subject one), in bytes per second.
#define BENCH_CHECKSUM(KIND, NAME)                                        \
  static void Checksum_##NAME(benchmark::State& state) {                  \
    if (!isa_available(IsaKind::KIND)) {                                  \
      state.SkipWithError(#KIND " unavailable");                          \
      return;                                                             \
    }                                                                     \
    bench_checksum(state, IsaKind::KIND);                                 \
  }                                                                       \
  BENCHMARK(Checksum_##NAME)->Arg(8 << 20)->Arg(512 << 10);

BENCH_CHECKSUM(Scalar, scalar)
BENCH_CHECKSUM(Avx2, avx2)
BENCH_CHECKSUM(Avx512, avx512)
BENCHMARK(bench_plain_read)->Name("ChecksumPlainRead")->Arg(8 << 20)->Arg(
    512 << 10);

namespace {

// Console output as usual, plus one "benchmarks" series row per run so
// the binary writes the same aalign.run document as every other bench.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    ConsoleReporter::ReportRuns(report);
    for (const Run& r : report) {
      if (r.error_occurred || r.iterations == 0) continue;
      aalign::obs::Json row = aalign::obs::Json::object();
      row.set("name", r.benchmark_name());
      row.set("iterations", r.iterations);
      row.set("real_ns_per_iter", r.GetAdjustedRealTime());
      row.set("cpu_ns_per_iter", r.GetAdjustedCPUTime());
      const auto items = r.counters.find("items_per_second");
      if (items != r.counters.end()) {
        row.set("items_per_second", static_cast<double>(items->second));
      }
      const auto bytes = r.counters.find("bytes_per_second");
      if (bytes != r.counters.end()) {
        row.set("gb_per_second", static_cast<double>(bytes->second) / 1e9);
      }
      rows.push_back(std::move(row));
    }
  }
  std::vector<aalign::obs::Json> rows;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  aalign::bench::BenchReport report("micro_vector_modules");
  for (aalign::obs::Json& row : reporter.rows) {
    report.add_row("benchmarks", std::move(row));
  }
  return report.write("BENCH_micro_vector_modules.json") ? 0 : 1;
}
