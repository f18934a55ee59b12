// Database service-ready-time benchmark: the perf headline for the
// mmap-backed index (docs/database_format.md). "Service-ready" is the
// startup work a search daemon must finish before it can answer its
// first query: on the cold path that is parse FASTA + encode + sort +
// build the signature index; on the mmap path it is attach the index
// file (Verify::Directory), view its directory as a Database, rehydrate
// the persisted SignatureIndex and verify its signature sections, as a
// filtering aalignd does at start. The attach_filter_off_ms column times
// the same attach without that verify: aalign_search's default
// (filter-off) path, which never reads the signatures. Both are timed from the
// same on-disk inputs, median-of-5, and the bench asserts the mapped
// database is the same database (ids, residue bytes, order, permutation)
// before reporting.
//
// Headline: db_load_speedup (cold / mmap) - higher is better, gated
// against BENCH_db_load.quick.json. The issue's acceptance floor is 10x.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "filter/signature.h"
#include "seq/database.h"
#include "seq/fasta.h"
#include "store/builder.h"
#include "store/loader.h"
#include "util/stopwatch.h"

using namespace aalign;
using namespace aalign::bench;

namespace {

// Cold path: everything aalignd -d does before the first query.
seq::Database cold_load(const std::string& fasta_path,
                        const score::ScoreMatrix& matrix,
                        const filter::FilterParams& params,
                        std::shared_ptr<filter::SignatureIndex>* index_out) {
  seq::Database db(matrix.alphabet(), seq::read_fasta_file(fasta_path));
  auto index = std::make_shared<filter::SignatureIndex>(db, params);
  if (index_out != nullptr) *index_out = std::move(index);
  return db;
}

}  // namespace

int main() {
  const auto& matrix = score::ScoreMatrix::blosum62();
  const filter::FilterParams params;  // the aalignd defaults

  // Swiss-Prot-shaped synthetic workload, written to disk so the cold
  // path pays real file I/O exactly like a daemon start would.
  const std::size_t subjects = std::max<std::size_t>(60, scaled(6000));
  seq::SequenceGenerator gen(0x10AD);
  const auto seqs = gen.protein_database(subjects, 290.0, 0.55, 30, 500);

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string base = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                           "/bench_db_load." + std::to_string(subjects);
  const std::string fasta_path = base + ".fasta";
  const std::string index_path = base + ".aidx";
  seq::write_fasta_file(fasta_path, seqs);

  const int reps = 5;

  // Cold path: FASTA parse + encode + sort + signature build, per start.
  std::shared_ptr<filter::SignatureIndex> cold_index;
  seq::Database cold_db;
  const double t_cold = time_median(
      [&] { cold_db = cold_load(fasta_path, matrix, params, &cold_index); },
      reps);

  // Offline index build (the aalign_index step; amortized across every
  // later start, so reported but not part of either timed path).
  util::Stopwatch build_sw;
  {
    seq::Database build_db(matrix.alphabet(), seqs);
    store::BuildParams bp;
    bp.filter = params;
    store::write_index(index_path, build_db, matrix, bp);
  }
  const double t_build = build_sw.seconds();

  // Mmap path: attach + materialize + rehydrate (+ verify the signatures
  // when the run will filter), per start.
  seq::Database mmap_db;
  std::shared_ptr<const filter::SignatureIndex> mmap_index;
  std::uint64_t index_bytes = 0;
  const auto attach = [&](bool filtering) {
    auto idx = store::MappedIndex::open(index_path, store::Verify::Directory);
    index_bytes = idx.header().file_bytes;
    mmap_db = idx.database();
    mmap_index = idx.signatures();
    if (filtering) mmap_index->verify();
  };
  const double t_mmap = time_median([&] { attach(true); }, reps);
  const double t_filter_off = time_median([&] { attach(false); }, reps);

  // Same-database gate: the fast path must serve the same subjects, with
  // the same residue bytes, in the same (length-sorted) order and with the
  // same permutation both ways, or the speedup is meaningless.
  bool same = cold_db.size() == mmap_db.size() &&
              cold_db.total_residues() == mmap_db.total_residues();
  for (std::size_t i = 0; same && i < cold_db.size(); ++i) {
    const auto cold = cold_db.residues(i), mmap = mmap_db.residues(i);
    same = cold_db.id(i) == mmap_db.id(i) &&
           std::equal(cold.begin(), cold.end(), mmap.begin(), mmap.end()) &&
           cold_db.original_index(i) == mmap_db.original_index(i) &&
           cold_db.position_of(i) == mmap_db.position_of(i);
  }
  if (!same) {
    std::fprintf(stderr, "FAIL: mmap-loaded database differs from the "
                         "FASTA-parsed database\n");
    return 1;
  }

  const double speedup = t_cold / t_mmap;
  std::printf("db load: %zu subjects (%llu residues), index %llu bytes\n",
              cold_db.size(),
              static_cast<unsigned long long>(cold_db.total_residues()),
              static_cast<unsigned long long>(index_bytes));
  std::printf("%-14s %12s %10s\n", "path", "ready-ms", "speedup");
  std::printf("%-14s %12.3f %10s\n", "cold-fasta", t_cold * 1e3, "-");
  std::printf("%-14s %12.3f %9.1fx\n", "mmap-attach", t_mmap * 1e3, speedup);
  std::printf("%-14s %12.3f %9.1fx\n", "  filter-off", t_filter_off * 1e3,
              t_cold / t_filter_off);
  std::printf("# offline index build: %.1f ms (amortized, not timed)\n",
              t_build * 1e3);

  BenchReport report("bench_db_load");
  report.set_workload("subjects", cold_db.size());
  report.set_workload("residues", cold_db.total_residues());
  report.set_workload("index_bytes", index_bytes);

  obs::Json row = obs::Json::object();
  row.set("cold_fasta_ms", t_cold * 1e3);
  row.set("mmap_attach_ms", t_mmap * 1e3);
  row.set("attach_filter_off_ms", t_filter_off * 1e3);
  row.set("offline_build_ms", t_build * 1e3);
  row.set("speedup", speedup);
  report.add_row("service_ready", std::move(row));

  report.set_headline("db_load_speedup", speedup);
  return report.write("BENCH_db_load.json") ? 0 : 1;
}
