// Two-stage search benchmark: the perf headline for the signature
// pre-filter (docs/search.md). A planted-homolog workload - queries with
// known hi/md-band homologs embedded in a Swiss-Prot-shaped background -
// is searched exhaustively and through the filter, and the bench asserts
// the filtered top-k recalls every exhaustive top-k hit before reporting
// throughput. The headline is EFFECTIVE GCUPS: cells the exhaustive scan
// would have computed, divided by the filtered wall time, so the number
// is honest about the filter's whole value (skip + scan overhead).
//
// AALIGN_FILTER_THRESHOLD=<float> overrides the calibrated containment
// threshold; CI's recall self-test sets it absurdly high and expects this
// binary to exit non-zero (a dropped exhaustive-top-k hit is a FAILURE,
// not a statistic). Headline: effective_gcups_at_recall on the filtered
// path - higher is better, gated against BENCH_bench_filter.quick.json.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "obs/instrument.h"
#include "search/database_search.h"
#include "seq/pairgen.h"
#include "util/stopwatch.h"

using namespace aalign;
using namespace aalign::bench;

int main() {
  const auto& matrix = score::ScoreMatrix::blosum62();
  seq::SequenceGenerator gen(0xF117);

  // Workload: every query gets 6 planted homologs in the bands the filter
  // is calibrated to keep (hi_hi, hi_md, md_hi x2) - hi_md (~50% identity,
  // full coverage) sits closest to the default threshold, so it IS the
  // recall canary. top_k matches the plant count so exhaustive top-k
  // membership is known by construction.
  constexpr std::size_t kQueries = 4;
  constexpr std::size_t kHomologsPerQuery = 6;
  const std::size_t query_len = std::max<std::size_t>(120, scaled(360));
  const std::size_t background = std::max<std::size_t>(40, scaled(1200));

  std::vector<seq::Sequence> queries;
  std::vector<seq::Sequence> subjects;
  for (std::size_t qi = 0; qi < kQueries; ++qi) {
    queries.push_back(
        gen.protein(query_len, std::string("Q").append(std::to_string(qi))));
  }
  const seq::SimilaritySpec specs[kHomologsPerQuery] = {
      {seq::Level::Hi, seq::Level::Hi}, {seq::Level::Hi, seq::Level::Md},
      {seq::Level::Md, seq::Level::Hi}, {seq::Level::Hi, seq::Level::Hi},
      {seq::Level::Hi, seq::Level::Md}, {seq::Level::Md, seq::Level::Hi}};
  for (std::size_t qi = 0; qi < kQueries; ++qi) {
    for (const auto& spec : specs) {
      subjects.push_back(seq::make_similar_subject(gen, queries[qi], spec));
    }
  }
  for (auto& s : gen.protein_database(background, 290.0, 0.55, 30, 500)) {
    subjects.push_back(std::move(s));
  }
  seq::Database db(matrix.alphabet(), subjects);

  std::vector<std::vector<std::uint8_t>> enc_queries;
  for (const auto& q : queries) {
    enc_queries.push_back(matrix.alphabet().encode(q.residues));
  }

  AlignConfig cfg;  // SW-affine, the two-stage deployment target
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  search::SearchOptions exh_opt;
  exh_opt.top_k = kHomologsPerQuery;
  search::SearchOptions flt_opt = exh_opt;
  flt_opt.filter.mode = filter::FilterMode::On;
  double threshold_override = -1.0;
  if (const char* s = std::getenv("AALIGN_FILTER_THRESHOLD")) {
    threshold_override = std::atof(s);
    flt_opt.filter.threshold = threshold_override;
  }
  const double threshold = threshold_override >= 0.0
                               ? threshold_override
                               : flt_opt.filter.params.threshold;

  BenchReport report("bench_filter");
  report.set_isa(exh_opt.query.isa);
  report.set_workload("queries", kQueries);
  report.set_workload("query_len", query_len);
  report.set_workload("planted_per_query", kHomologsPerQuery);
  report.set_workload("background_subjects", background);
  report.set_workload("db_subjects", db.size());
  report.set_workload("db_residues", db.total_residues());
  report.set_workload("threshold", threshold);

  const int reps = 5;
  const double cells = static_cast<double>(query_len) * kQueries *
                       static_cast<double>(db.total_residues());

  // Stage 0: exhaustive baseline.
  search::DatabaseSearch exhaustive(matrix, cfg, exh_opt);
  std::vector<search::SearchResult> exh_res(kQueries);
  const double t_exh = time_median(
      [&] {
        for (std::size_t qi = 0; qi < kQueries; ++qi) {
          exh_res[qi] = exhaustive.search(enc_queries[qi], db);
        }
      },
      reps);

  // Stage 1 setup: one startup index build, amortized across every query
  // exactly as aalignd amortizes it; reported, not hidden.
  util::Stopwatch build_sw;
  flt_opt.filter.index =
      std::make_shared<filter::SignatureIndex>(db, flt_opt.filter.params);
  const double t_build = build_sw.seconds();

  search::DatabaseSearch filtered(matrix, cfg, flt_opt);
  std::vector<search::SearchResult> flt_res(kQueries);
  const double t_flt = time_median(
      [&] {
        for (std::size_t qi = 0; qi < kQueries; ++qi) {
          flt_res[qi] = filtered.search(enc_queries[qi], db);
        }
      },
      reps);

  // Recall gate: every exhaustive top-k hit must reappear in the filtered
  // top-k with a bit-identical score. One miss fails the binary.
  std::size_t expected = 0, recalled = 0;
  std::uint64_t survivors = 0, candidates = 0;
  for (std::size_t qi = 0; qi < kQueries; ++qi) {
    std::unordered_map<std::size_t, long> flt_top;
    for (const auto& h : flt_res[qi].top) flt_top.emplace(h.index, h.score);
    for (const auto& h : exh_res[qi].top) {
      ++expected;
      const auto it = flt_top.find(h.index);
      if (it != flt_top.end() && it->second == h.score) {
        ++recalled;
      } else {
        std::fprintf(stderr,
                     "RECALL MISS: query %zu subject %zu (score %ld) absent "
                     "from filtered top-k\n",
                     qi, h.index, h.score);
      }
    }
    survivors += flt_res[qi].filter_stats.survivors;
    candidates += flt_res[qi].filter_stats.candidates;
  }
  const double recall =
      expected == 0 ? 1.0
                    : static_cast<double>(recalled) / static_cast<double>(expected);
  const double exh_gcups = cells / t_exh / 1e9;
  const double eff_gcups = cells / t_flt / 1e9;
  const double survivor_pct =
      candidates == 0 ? 100.0
                      : 100.0 * static_cast<double>(survivors) /
                            static_cast<double>(candidates);

  std::printf("two-stage search: %zu queries x %zu subjects (%zu residues), "
              "threshold %.3f\n",
              kQueries, db.size(), db.total_residues(), threshold);
  std::printf("%-12s %14s %14s %9s %10s %8s\n", "path", "GCUPS", "eff-GCUPS",
              "speedup", "survivors", "recall");
  std::printf("%-12s %14.3f %14s %9s %9s%% %8s\n", "exhaustive", exh_gcups,
              "-", "-", "100.0", "1.000");
  std::printf("%-12s %14s %14.3f %8.2fx %9.1f%% %8.3f\n", "filtered", "-",
              eff_gcups, t_exh / t_flt, survivor_pct, recall);
  std::printf("# index build: %.1f ms for %zu subjects\n", t_build * 1e3,
              db.size());

  obs::Json row = obs::Json::object();
  row.set("exhaustive_gcups", exh_gcups);
  row.set("effective_gcups", eff_gcups);
  row.set("speedup", t_exh / t_flt);
  row.set("survivor_pct", survivor_pct);
  row.set("recall", recall);
  row.set("index_build_ms", t_build * 1e3);
  report.add_row("two_stage", std::move(row));
  report.set_workload("recall", recall);

  if (recall < 0.999) {
    std::fprintf(stderr,
                 "FAIL: recall %.4f < 0.999 - the filter dropped an "
                 "exhaustive top-k hit at threshold %.3f\n",
                 recall, threshold);
    return 1;
  }
  report.set_headline("effective_gcups_at_recall", eff_gcups);
  return report.write("BENCH_bench_filter.json") ? 0 : 1;
}
