// aalign_search: command-line protein database search (the SWPS3/SWAPHI
// use case) on the AAlign kernels.
//
// Usage:
//   aalign_search -q query.fasta -d db.fasta [options]
//   aalign_search --demo            # synthetic query + database
//
// Options:
//   -q FILE          query FASTA (first record is used)
//   -d FILE          database FASTA
//   --db-index FILE  prebuilt binary index (aalign_index build); mmap-
//                    attached in O(1), falls back to -d on any defect
//   --demo           generate a synthetic query and database
//   --matrix NAME    blosum45|blosum62|blosum80|pam250   [blosum62]
//   --kind NAME      local|global|semiglobal             [local]
//   --open N         gap open penalty                    [10]
//   --ext N          gap extend penalty                  [2]
//   --strategy NAME  iterate|scan|hybrid                 [hybrid]
//   --isa NAME       scalar|sse41|avx2|avx512|avx512bw   [best]
//   --width N        8|16|32|auto                        [auto]
//   --threads N      worker threads                      [hardware]
//   --top K          hits to report                      [10]
//   --filter MODE    signature pre-filter on|off|auto    [off]
//   --filter-threshold X  containment-score cut override [calibrated]
//   --batch          run EVERY query record in -q as one batched
//                    search_many (tile scheduler + profile LRU)
//   --shard-size N   subjects per scheduler tile         [auto]
//   --metrics-json FILE  write the run as a schema "aalign.run" v2 JSON
//                    document (run metadata + per-query series + the full
//                    metrics registry snapshot; see docs/observability.md)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/stats.h"
#include "obs/export.h"
#include "score/evalue.h"
#include "search/database_search.h"
#include "search/thread_pool.h"
#include "seq/fasta.h"
#include "seq/generator.h"
#include "seq/pairgen.h"
#include "store/loader.h"
#include "util/parse.h"

using namespace aalign;

namespace {

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "aalign_search: %s (try --help)\n", msg.c_str());
  std::exit(2);
}

// `text`, the value of numeric flag `flag`, as a T in [lo, hi]; a usage
// error otherwise.
template <class T>
T flag_number(const std::string& flag, const std::string& text, T lo, T hi) {
  if (const auto v = util::parse_number(text, lo, hi)) return *v;
  die(flag + " wants a number in [" + std::to_string(lo) + ", " +
      std::to_string(hi) + "] (got '" + text + "')");
}

const score::ScoreMatrix& matrix_by_name(const std::string& name) {
  if (name == "blosum62") return score::ScoreMatrix::blosum62();
  if (name == "blosum45") return score::ScoreMatrix::blosum45();
  if (name == "blosum80") return score::ScoreMatrix::blosum80();
  if (name == "pam250") return score::ScoreMatrix::pam250();
  die("unknown matrix '" + name + "'");
}

AlignKind kind_by_name(const std::string& name) {
  if (name == "local") return AlignKind::Local;
  if (name == "global") return AlignKind::Global;
  if (name == "semiglobal") return AlignKind::SemiGlobal;
  die("unknown alignment kind '" + name + "'");
}

Strategy strategy_by_name(const std::string& name) {
  if (name == "iterate") return Strategy::StripedIterate;
  if (name == "scan") return Strategy::StripedScan;
  if (name == "hybrid") return Strategy::Hybrid;
  die("unknown strategy '" + name + "'");
}

simd::IsaKind isa_by_name(const std::string& name) {
  for (simd::IsaKind k : simd::kAllIsaKinds) {
    if (name == simd::isa_name(k)) return k;
  }
  die("unknown ISA '" + name + "'");
}

void print_help() {
  std::printf(
      "aalign_search - SIMD pairwise-alignment database search\n"
      "  aalign_search -q query.fasta -d db.fasta [options]\n"
      "  aalign_search -q query.fasta --db-index db.aidx [options]\n"
      "  aalign_search --demo\n\n"
      "  --db-index FILE  mmap a prebuilt index (aalign_index build)\n"
      "  --matrix blosum45|blosum62|blosum80|pam250   [blosum62]\n"
      "  --kind local|global|semiglobal               [local]\n"
      "  --open N / --ext N                           [10 / 2]\n"
      "  --strategy iterate|scan|hybrid               [hybrid]\n"
      "  --isa scalar|sse41|avx2|avx512|avx512bw      [best available]\n"
      "  --width 8|16|32|auto                         [auto]\n"
      "  --threads N / --top K                        [hardware / 10]\n"
      "  --filter on|off|auto  signature pre-filter   [off]\n"
      "  --filter-threshold X  containment cut        [calibrated]\n"
      "  --format table|tsv                           [table]\n"
      "  --batch  (all -q records as one scheduled batch)\n"
      "  --shard-size N  subjects per tile            [auto]\n"
      "  --metrics-json FILE  machine-readable run document\n");
}

// Prints one query's hit table/TSV rows. `db` stores its subjects longest
// first: hits carry ORIGINAL indices, resolved via db.by_original.
void print_result(const seq::Sequence& query,
                  const std::vector<std::uint8_t>& qenc,
                  const seq::Database& db, const search::SearchResult& res,
                  const score::ScoreMatrix& matrix,
                  const std::optional<score::KarlinParams>& ka,
                  const std::string& format) {
  if (format == "tsv") {
    int rank = 1;
    for (const search::SearchHit& hit : res.top) {
      const seq::Record subj = db.by_original(hit.index);
      if (ka) {
        std::printf("%s\t%d\t%s\t%ld\t%zu\t%.1f\t%.3g\n", query.id.c_str(),
                    rank++, subj.id.c_str(), hit.score, subj.size(),
                    score::bit_score(*ka, hit.score),
                    score::e_value(*ka, hit.score, qenc.size(),
                                   db.total_residues()));
      } else {
        std::printf("%s\t%d\t%s\t%ld\t%zu\t-\t-\n", query.id.c_str(),
                    rank++, subj.id.c_str(), hit.score, subj.size());
      }
    }
    return;
  }
  std::printf("%-5s %-28s %8s %8s %8s %10s %6s %6s\n", "rank", "subject",
              "score", "length", "bits", "E-value", "QC%", "MI%");
  int rank = 1;
  for (const search::SearchHit& hit : res.top) {
    const seq::Record subj = db.by_original(hit.index);
    const core::SimilarityStats st =
        core::measure_similarity(matrix, qenc, subj.view());
    if (ka) {
      std::printf("%-5d %-28.28s %8ld %8zu %8.1f %10.2g %5.0f%% %5.0f%%\n",
                  rank++, subj.id.c_str(), hit.score, subj.size(),
                  score::bit_score(*ka, hit.score),
                  score::e_value(*ka, hit.score, qenc.size(),
                                 db.total_residues()),
                  st.query_coverage * 100, st.max_identity * 100);
    } else {
      std::printf("%-5d %-28.28s %8ld %8zu %8s %10s %5.0f%% %5.0f%%\n",
                  rank++, subj.id.c_str(), hit.score, subj.size(), "-", "-",
                  st.query_coverage * 100, st.max_identity * 100);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string query_path, db_path, db_index_path, matrix_name = "blosum62";
  std::string kind_name = "local", strategy_name = "hybrid";
  std::string isa_name_opt, width_name = "auto", format = "table";
  std::string filter_name = "off";
  double filter_threshold = -1.0;  // < 0 = calibrated default
  std::string metrics_json_path;
  int open = 10, ext = 2, threads = 0;
  std::size_t top_k = 10, shard_size = 0;
  bool demo = false, batch = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + a);
      return argv[++i];
    };
    if (a == "-q") query_path = next();
    else if (a == "-d") db_path = next();
    else if (a == "--db-index") db_index_path = next();
    else if (a == "--demo") demo = true;
    else if (a == "--matrix") matrix_name = next();
    else if (a == "--kind") kind_name = next();
    else if (a == "--open") open = flag_number<int>(a, next(), 0, 1000);
    else if (a == "--ext") ext = flag_number<int>(a, next(), 0, 1000);
    else if (a == "--strategy") strategy_name = next();
    else if (a == "--isa") isa_name_opt = next();
    else if (a == "--width") width_name = next();
    else if (a == "--threads") threads = flag_number<int>(a, next(), 0, 1024);
    else if (a == "--top") top_k = flag_number<std::size_t>(a, next(), 1, 1000000);
    else if (a == "--batch") batch = true;
    else if (a == "--shard-size") shard_size = flag_number<std::size_t>(a, next(), 0, 1u << 30);
    else if (a == "--filter") filter_name = next();
    else if (a == "--filter-threshold") filter_threshold = flag_number(a, next(), -1.0, 1.0);
    else if (a == "--format") format = next();
    else if (a == "--metrics-json") metrics_json_path = next();
    else if (a == "-h" || a == "--help") { print_help(); return 0; }
    else die("unknown option '" + a + "'");
  }

  const score::ScoreMatrix& matrix = matrix_by_name(matrix_name);
  const auto& alphabet = matrix.alphabet();

  std::vector<seq::Sequence> query_records;
  std::vector<seq::Sequence> raw;
  if (demo) {
    seq::SequenceGenerator gen(12345);
    query_records.push_back(gen.protein(350, "demo_query"));
    if (batch) {
      // A small serving-style batch: distinct queries plus one repeat so
      // the profile cache has something to hit.
      for (std::size_t len : {180, 240, 300}) {
        query_records.push_back(
            gen.protein(len, "demo_query_" + std::to_string(len)));
      }
      query_records.push_back(query_records.front());
    }
    raw = gen.protein_database(10000);
    for (auto lvl : {seq::Level::Hi, seq::Level::Md}) {
      raw.push_back(seq::make_similar_subject(gen, query_records.front(),
                                              {seq::Level::Hi, lvl}));
    }
  } else {
    if (query_path.empty() || (db_path.empty() && db_index_path.empty())) {
      print_help();
      return 2;
    }
    query_records = seq::read_fasta_file(query_path);
    if (query_records.empty()) die("no records in " + query_path);
    if (!batch) query_records.resize(1);  // first record only
    if (db_index_path.empty()) {
      raw = seq::read_fasta_file(db_path);
      if (raw.empty()) die("no records in " + db_path);
    }
  }

  AlignConfig cfg;
  cfg.kind = kind_by_name(kind_name);
  cfg.pen = Penalties::symmetric(open, ext);

  search::SearchOptions opt;
  opt.threads = threads;
  opt.top_k = top_k;
  opt.query.strategy = strategy_by_name(strategy_name);
  if (!isa_name_opt.empty()) opt.query.isa = isa_by_name(isa_name_opt);
  if (width_name == "8") opt.query.width = ScoreWidth::W8;
  else if (width_name == "16") opt.query.width = ScoreWidth::W16;
  else if (width_name == "32") opt.query.width = ScoreWidth::W32;
  else if (width_name == "auto") opt.query.width = ScoreWidth::Auto;
  else die("unknown width '" + width_name + "'");
  if (const auto mode = filter::parse_filter_mode(filter_name)) {
    opt.filter.mode = *mode;
  } else {
    die("--filter must be on, off, or auto (got '" + filter_name + "')");
  }
  opt.filter.threshold = filter_threshold;

  seq::Database db;
  if (!demo && !db_index_path.empty()) {
    // mmap attach: zero-copy database + prebuilt signature index. Any
    // defect (corruption, version skew, wrong matrix) degrades to the
    // FASTA parse path with the reason logged — never a crash.
    try {
      const store::MappedIndex idx = store::MappedIndex::open(db_index_path);
      if (std::string(idx.header().matrix_name) != matrix.name()) {
        throw std::runtime_error("index built for matrix '" +
                                 std::string(idx.header().matrix_name) +
                                 "', requested '" + matrix.name() + "'");
      }
      // A filtering run checks the signature sections here, so a corrupt
      // one takes the fallback below; a filter-off run never reads them.
      auto sigs = idx.signatures();
      if (opt.filter.mode != filter::FilterMode::Off) sigs->verify();
      db = idx.database();
      opt.filter.params = idx.filter_params();
      opt.filter.index = std::move(sigs);
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "aalign_search: cannot use index %s (%s); falling back "
                   "to FASTA parse\n",
                   db_index_path.c_str(), e.what());
      store::count_fallback_parse();
      if (db_path.empty()) die("--db-index unusable and no -d to fall back on");
      raw = seq::read_fasta_file(db_path);
      if (raw.empty()) die("no records in " + db_path);
      db = seq::Database(alphabet, raw);
    }
  } else {
    db = seq::Database(alphabet, raw);
  }
  opt.shard_size = shard_size;
  std::vector<std::vector<std::uint8_t>> qenc;
  qenc.reserve(query_records.size());
  for (const auto& q : query_records) qenc.push_back(alphabet.encode(q.residues));

  // Karlin-Altschul statistics: exact ungapped lambda for this matrix;
  // K is the classic ungapped BLOSUM62 value (stats are approximate for
  // gapped searches - see score/evalue.h).
  std::optional<score::KarlinParams> ka;
  if (&alphabet == &score::Alphabet::protein()) {
    ka = score::default_protein_params(matrix);
  }
  if (format != "table" && format != "tsv") {
    die("unknown format '" + format + "'");
  }

  search::DatabaseSearch engine(matrix, cfg, opt);
  std::vector<search::SearchResult> results;
  try {
    if (batch) {
      results = engine.search_many(qenc, db);
    } else {
      results.push_back(engine.search(qenc.front(), db));
    }
  } catch (const std::exception& e) {
    die(e.what());
  }
  for (std::size_t qi = 0; qi < results.size(); ++qi) {
    if (results[qi].saturated == 0) continue;
    std::fprintf(stderr,
                 "aalign_search: warning: query '%s': %llu subject(s) "
                 "saturated at --width %s; their scores are clipped, not "
                 "exact (use --width auto)\n",
                 query_records[qi].id.c_str(),
                 static_cast<unsigned long long>(results[qi].saturated),
                 width_name.c_str());
  }

  if (!metrics_json_path.empty()) {
    obs::RunMeta meta;
    meta.tool = "aalign_search";
    meta.isa = simd::isa_name(opt.query.isa);
    meta.threads = threads > 0 ? threads : search::default_thread_count();

    obs::Json workload = obs::Json::object();
    workload.set("queries", query_records.size());
    workload.set("db_seqs", db.size());
    workload.set("db_residues", db.total_residues());
    workload.set("matrix", matrix.name());
    workload.set("kind", kind_name);
    workload.set("strategy", strategy_name);
    workload.set("width", width_name);
    workload.set("mode", batch ? "batch" : "single");
    workload.set("filter", filter_name);

    std::size_t total_cells = 0;
    double wall = 0.0;
    obs::Json rows = obs::Json::array();
    for (std::size_t qi = 0; qi < results.size(); ++qi) {
      const search::SearchResult& res = results[qi];
      total_cells += res.cells;
      wall = std::max(wall, res.seconds);  // batch results share one wall
      obs::Json row = obs::Json::object();
      row.set("query", query_records[qi].id);
      row.set("query_len", query_records[qi].size());
      row.set("seconds", res.seconds);
      row.set("gcups", res.gcups);
      row.set("cells", res.cells);
      row.set("promotions", res.promotions);
      row.set("hybrid_switches", res.stats.switches);
      row.set("lazy_steps", res.stats.lazy_steps);
      row.set("columns", res.stats.columns);
      row.set("filtered", res.filtered);
      if (res.filtered) {
        row.set("filter_candidates", res.filter_stats.candidates);
        row.set("filter_survivors", res.filter_stats.survivors);
      }
      rows.push_back(std::move(row));
    }
    obs::Json series = obs::Json::object();
    series.set("queries", std::move(rows));

    const obs::Snapshot snap = obs::registry().snapshot();
    obs::Json doc = obs::make_run_document(meta, std::move(workload),
                                           std::move(series), &snap);
    obs::Json headline = obs::Json::object();
    headline.set("name", "gcups");
    headline.set("value",
                 wall > 0 ? static_cast<double>(total_cells) / 1e9 / wall
                          : 0.0);
    doc.set("headline", std::move(headline));

    const std::string err = obs::validate_run_document(doc);
    if (!err.empty()) die("internal: metrics document invalid: " + err);
    if (!obs::write_json_file(metrics_json_path, doc)) {
      die("cannot write " + metrics_json_path);
    }
  }

  if (format == "tsv") {
    // Machine-readable: one row per hit, no similarity re-measurement.
    std::printf("query\trank\tsubject\tscore\tlength\tbits\tevalue\n");
    for (std::size_t qi = 0; qi < results.size(); ++qi) {
      print_result(query_records[qi], qenc[qi], db, results[qi], matrix, ka,
                   format);
    }
    return 0;
  }

  std::printf("# aalign_search  %zu quer%s  db=%zu seqs / %zu residues\n",
              results.size(), results.size() == 1 ? "y" : "ies", db.size(),
              db.total_residues());
  std::printf("# matrix=%s kind=%s gaps=%d/%d strategy=%s isa=%s%s\n",
              matrix.name().c_str(), kind_name.c_str(), open, ext,
              strategy_name.c_str(), simd::isa_name(opt.query.isa),
              batch ? " mode=batch" : "");
  if (ka) {
    std::printf("# statistics: ungapped lambda=%.4f K=%.3f H=%.3f "
                "(approximate for gapped scores)\n",
                ka->lambda, ka->K, ka->H);
  }
  for (std::size_t qi = 0; qi < results.size(); ++qi) {
    const search::SearchResult& res = results[qi];
    std::printf("\n## query='%s' (%zu aa)\n", query_records[qi].id.c_str(),
                query_records[qi].size());
    std::printf("# time=%.3fs%s throughput=%.2f GCUPS promotions=%llu "
                "hybrid_switches=%llu\n",
                res.seconds, batch ? " (batch wall)" : "", res.gcups,
                static_cast<unsigned long long>(res.promotions),
                static_cast<unsigned long long>(res.stats.switches));
    if (res.filtered) {
      std::printf("# filter: %llu of %llu subjects rescored (%.1f%%)\n",
                  static_cast<unsigned long long>(res.filter_stats.survivors),
                  static_cast<unsigned long long>(res.filter_stats.candidates),
                  res.filter_stats.survivor_rate() * 100.0);
    }
    print_result(query_records[qi], qenc[qi], db, res, matrix, ka, format);
  }
  return 0;
}
