// Shared plumbing for the figure-reproduction benchmarks.
//
// Each fig* binary regenerates one figure of the paper's evaluation
// (Sec. VI) and prints the same rows/series the paper plots. Platform
// mapping (see DESIGN.md): the paper's "CPU" (Haswell/AVX2) is our AVX2
// backend, its "MIC" (Knights Corner/IMCI) is our AVX-512 backend
// restricted to 32-bit lanes. Absolute numbers differ from the paper's
// testbed; the reproduced quantity is the relative shape (who wins, by
// what factor, where the crossovers are).
//
// AALIGN_BENCH_SCALE=<float> scales workload sizes (default 1.0).
// AALIGN_BENCH_QUICK=1 is the CI perf-gate mode: workloads shrink to
// scale 0.05 (unless AALIGN_BENCH_SCALE overrides) while timing stays
// median-of-5, keeping the headline numbers comparable run-to-run.
// AALIGN_BENCH_JSON=<path> redirects a binary's report file.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/aligner.h"
#include "obs/export.h"
#include "score/matrices.h"
#include "seq/generator.h"
#include "simd/isa.h"
#include "util/stopwatch.h"

namespace aalign::bench {

inline bool quick_mode() {
  const char* s = std::getenv("AALIGN_BENCH_QUICK");
  return s != nullptr && std::atoi(s) != 0;
}

inline double scale_factor() {
  const char* s = std::getenv("AALIGN_BENCH_SCALE");
  if (s == nullptr) return quick_mode() ? 0.05 : 1.0;
  const double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

inline std::size_t scaled(std::size_t n) {
  return std::max<std::size_t>(1,
                               static_cast<std::size_t>(n * scale_factor()));
}

// The paper's two platforms, mapped to what this machine offers.
struct Platform {
  const char* label;  // "CPU(avx2)" / "MIC(avx512)"
  simd::IsaKind isa;
};

inline std::vector<Platform> platforms() {
  std::vector<Platform> out;
  if (simd::isa_available(simd::IsaKind::Avx2)) {
    out.push_back({"CPU(avx2)", simd::IsaKind::Avx2});
  } else if (simd::isa_available(simd::IsaKind::Sse41)) {
    out.push_back({"CPU(sse41)", simd::IsaKind::Sse41});
  } else {
    out.push_back({"CPU(scalar)", simd::IsaKind::Scalar});
  }
  if (simd::isa_available(simd::IsaKind::Avx512)) {
    out.push_back({"MIC(avx512)", simd::IsaKind::Avx512});
  }
  return out;
}

// Median-of-repeats timing of one aligner invocation.
template <class F>
double time_median(F&& fn, int repeats = 5) {
  double best[32];
  repeats = std::min(repeats, 32);
  fn();  // warmup
  for (int r = 0; r < repeats; ++r) {
    util::Stopwatch sw;
    fn();
    best[r] = sw.seconds();
  }
  std::sort(best, best + repeats);
  return best[repeats / 2];
}

// Nearest-rank percentile of an ascending-sorted sample, p in [0, 1];
// 0 for an empty sample.
inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(idx + 0.5)];
}

inline const char* short_strategy(Strategy s) {
  switch (s) {
    case Strategy::StripedIterate: return "iterate";
    case Strategy::StripedScan: return "scan";
    case Strategy::Hybrid: return "hybrid";
  }
  return "?";
}

struct ConfigCase {
  const char* label;
  AlignKind kind;
  Penalties pen;
};

// The paper's four algorithm/gap combinations (Figs. 2, 9, 10).
inline std::vector<ConfigCase> paper_configs() {
  return {
      {"SW-linear", AlignKind::Local, Penalties::symmetric(0, 4)},
      {"SW-affine", AlignKind::Local, Penalties::symmetric(10, 2)},
      {"NW-linear", AlignKind::Global, Penalties::symmetric(0, 4)},
      {"NW-affine", AlignKind::Global, Penalties::symmetric(10, 2)},
  };
}

inline AlignConfig make_config(const ConfigCase& c) {
  AlignConfig cfg;
  cfg.kind = c.kind;
  cfg.pen = c.pen;
  return cfg;
}

// One schema-"aalign.run"-v2 report per bench binary: collect workload
// scalars and series rows while the benchmark runs, then write() stamps
// run metadata, the headline metric, and the full registry snapshot and
// validates the document before it hits disk. tools/bench_compare.py (the
// CI perf gate) consumes exactly this shape.
class BenchReport {
 public:
  explicit BenchReport(std::string tool) {
    meta_.tool = std::move(tool);
    workload_.set("scale", scale_factor());
    workload_.set("quick", quick_mode());
  }

  void set_isa(simd::IsaKind isa) { meta_.isa = simd::isa_name(isa); }
  void set_threads(int threads) { meta_.threads = threads; }

  template <class T>
  void set_workload(const std::string& key, T value) {
    workload_.set(key, value);
  }

  // Headline: the single number the regression gate compares first.
  void set_headline(std::string name, double value) {
    headline_name_ = std::move(name);
    headline_value_ = value;
  }

  void add_row(const std::string& series, obs::Json row) {
    obs::Json* rows = series_.find(series);
    if (rows == nullptr) {
      series_.set(series, obs::Json::array());
      rows = series_.find(series);
    }
    rows->push_back(std::move(row));
  }

  // Writes to AALIGN_BENCH_JSON when set, else `default_path`. Returns
  // false (with a stderr note) on validation or I/O failure so benches
  // can exit non-zero and CI notices.
  bool write(const std::string& default_path) {
    const char* env = std::getenv("AALIGN_BENCH_JSON");
    const std::string path = env != nullptr && *env != '\0' ? env
                                                            : default_path;
    const obs::Snapshot snap = obs::registry().snapshot();
    obs::Json doc = obs::make_run_document(meta_, std::move(workload_),
                                           std::move(series_), &snap);
    if (!headline_name_.empty()) {
      obs::Json headline = obs::Json::object();
      headline.set("name", headline_name_);
      headline.set("value", headline_value_);
      doc.set("headline", std::move(headline));
    }
    const std::string err = obs::validate_run_document(doc);
    if (!err.empty()) {
      std::fprintf(stderr, "BenchReport: invalid document: %s\n",
                   err.c_str());
      return false;
    }
    if (!obs::write_json_file(path, doc)) {
      std::fprintf(stderr, "BenchReport: cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("# wrote %s\n", path.c_str());
    return true;
  }

 private:
  obs::RunMeta meta_;
  obs::Json workload_ = obs::Json::object();
  obs::Json series_ = obs::Json::object();
  std::string headline_name_;
  double headline_value_ = 0.0;
};

}  // namespace aalign::bench
